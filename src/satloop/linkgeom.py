"""Free-space geometry and link-budget computations.

Slant range from a spherical-Earth model, free-space path loss, received
power, and Shannon rate for one direction of a satellite-terminal link.
All functions are pure; dB/linear conversions are centralized here so the
rest of the package never re-derives them.
"""
import dataclasses
import math
from dataclasses import dataclass

SPEED_OF_LIGHT_M_S = 299792458.0
BOLTZMANN_J_PER_K = 1.380649e-23
EARTH_RADIUS_M = 6371000.0


def db_to_linear(value_db: float) -> float:
    """Convert a dB quantity to its linear ratio."""
    return 10.0 ** (value_db / 10.0)


def linear_to_db(value: float) -> float:
    """Convert a positive linear ratio to dB."""
    if value <= 0.0:
        raise ValueError(f"dB conversion requires a positive value, got {value}")
    return 10.0 * math.log10(value)


@dataclass(frozen=True)
class Geometry:
    """Ground-terminal-to-satellite geometry for one link direction.

    Attributes:
        satellite_altitude_m: Orbit altitude above the surface (m).
        elevation_deg: Elevation angle seen from the terminal, in (0, 90].
    """
    satellite_altitude_m: float
    elevation_deg: float

    def __post_init__(self):
        if self.satellite_altitude_m <= 0.0:
            raise ValueError(f"altitude must be positive, got {self.satellite_altitude_m}")
        if not 0.0 < self.elevation_deg <= 90.0:
            raise ValueError(f"elevation must lie in (0, 90] deg, got {self.elevation_deg}")


@dataclass(frozen=True)
class LinkParams:
    """RF parameters for one direction of one loop.

    Attributes:
        tx_power_w: Transmit power (W).
        tx_gain_dbi: Transmit antenna gain (dBi).
        rx_gain_dbi: Receive antenna gain (dBi).
        carrier_freq_hz: Carrier frequency (Hz).
        bandwidth_hz: Allocated bandwidth (Hz).
        noise_temperature_k: System noise temperature (K).
        geometry: Link geometry.
    """
    tx_power_w: float
    tx_gain_dbi: float
    rx_gain_dbi: float
    carrier_freq_hz: float
    bandwidth_hz: float
    noise_temperature_k: float
    geometry: Geometry

    def __post_init__(self):
        for name in ("tx_power_w", "carrier_freq_hz", "bandwidth_hz", "noise_temperature_k"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")

    def with_bandwidth(self, bandwidth_hz: float) -> "LinkParams":
        """Copy of this link with a different bandwidth."""
        return dataclasses.replace(self, bandwidth_hz=bandwidth_hz)


def slant_range_m(geometry: Geometry) -> float:
    """Line-of-sight distance from terminal to satellite (m).

    Spherical-Earth closed form with Re = EARTH_RADIUS_M
        d = sqrt(Re^2 sin^2(e) + 2 Re h + h^2) - Re sin(e),
    monotone non-increasing in elevation; equals the altitude at zenith.
    """
    re = EARTH_RADIUS_M
    h = geometry.satellite_altitude_m
    s = math.sin(math.radians(geometry.elevation_deg))
    return math.sqrt(re * re * s * s + 2.0 * re * h + h * h) - re * s


def fspl_db(distance_m: float, carrier_freq_hz: float) -> float:
    """Free-space path loss in dB.

    FSPL(dB) = 92.45 + 20*log10(d_km) + 20*log10(f_GHz)

    Args:
        distance_m: Path length (m).
        carrier_freq_hz: Carrier frequency (Hz).
    """
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    if carrier_freq_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {carrier_freq_hz}")
    d_km = distance_m / 1e3
    f_ghz = carrier_freq_hz / 1e9
    return 92.45 + 20.0 * math.log10(d_km) + 20.0 * math.log10(f_ghz)


def received_power_w(link: LinkParams) -> float:
    """Received power (linear W) after the full link budget.

    P_r(dBW) = 10*log10(P_t) + G_t + G_r - FSPL(slant range, f)
    """
    fspl = fspl_db(slant_range_m(link.geometry), link.carrier_freq_hz)
    p_rx_dbw = linear_to_db(link.tx_power_w) + link.tx_gain_dbi + link.rx_gain_dbi - fspl
    return db_to_linear(p_rx_dbw)


def noise_power_w(link: LinkParams) -> float:
    """Thermal noise power k_B * T * B (W) in the allocated bandwidth."""
    return BOLTZMANN_J_PER_K * link.noise_temperature_k * link.bandwidth_hz


def snr_per_watt(link: LinkParams) -> float:
    """Linear SNR per watt of transmit power: the SNR at power P is P times this."""
    return received_power_w(link) / link.tx_power_w / noise_power_w(link)


def rate_fn(link: LinkParams):
    """The Shannon rate of the link as a function of its bandwidth B, in
    bit/s, from one link budget: B * log2(1 + P_r / (k_B * T * B))."""
    rx_power = received_power_w(link)
    noise_density = BOLTZMANN_J_PER_K * link.noise_temperature_k
    return lambda bandwidth: bandwidth * math.log2(1.0 + rx_power / (noise_density * bandwidth))


def shannon_rate_bps(link: LinkParams) -> float:
    """Shannon rate R = B * log2(1 + P_r / (k_B * T * B)) in bit/s: rate_fn
    of the link at its own bandwidth."""
    return rate_fn(link)(link.bandwidth_hz)

"""Discrete-time scalar plant, Riccati solution, and rate-limited LQR cost.

The central objects are a scalar linear plant x' = a x + b u + w with
quadratic state/input weights, and the cost-vs-information-rate curve built
on top of its Riccati solution: at or below the data-rate threshold (log2 |a|
bits per step for |a| > 1) no finite cost exists, above it the cost decays
toward the full-information optimum as the rate grows. Where no finite cost
exists the cost is math.inf.

The curve has one form per use. One loop is scored on Python floats, with
4^R by libm's pow (_gap, behind lqr_cost, is_stabilizable_at and
pipeline.loop_outcome); the joint solves score many loops at once on numpy
arrays (rate_gap, behind rate_cost and gap_cost). The two powers agree
except where numpy runs its AVX-512 power loop, which rounds about one R in
twenty differently, so a per-loop answer is the same at every numpy dispatch.
"""
import math
from dataclasses import dataclass

from ._lazy import lazy_import

np = lazy_import("numpy")


class NonConvergentError(RuntimeError):
    """The Riccati equation has no stabilizing solution (plant not stabilizable)."""


# Rates clamp here: 4^400 is far inside the float range, and sens*w/4^R is
# already below any rounding of the full-information cost.
RATE_CLAMP_BITS = 400.0


@dataclass(frozen=True, eq=False)
class Plant:
    """Scalar discrete-time linear plant with LQR weights.

    w_cov is the process-noise variance, q and r_u the state and input
    weights. One control step per cycle (LoopBudget.cycle_period_s). Every
    field is stored as a float; an array argument is refused (TypeError).
    """
    a: float
    b: float
    w_cov: float
    q: float
    r_u: float

    def __post_init__(self):
        for name in ("a", "b", "w_cov", "q", "r_u"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.w_cov < 0.0:
            raise ValueError(f"w_cov must be non-negative, got {self.w_cov}")
        if self.q < 0.0:
            raise ValueError(f"q must be non-negative, got {self.q}")
        if self.r_u <= 0.0:
            raise ValueError(f"r_u must be positive, got {self.r_u}")

    @property
    def threshold_bits(self) -> float:
        """Data-rate threshold log2 |a| in bits per step; 0 for a stable plant."""
        return math.log2(abs(self.a)) if abs(self.a) > 1.0 else 0.0


def dare_solve(plant: Plant) -> float:
    """Stabilizing root S of s = q + a^2 r s / (r + b^2 s).

    The positive root of b^2 s^2 + c1 s - q r = 0 with c1 = r (1 - a^2) - q b^2,
    taken as 2 q r / (c1 + sqrt(disc)) when c1 > 0 so that nothing cancels.

    Raises:
        NonConvergentError: no root gives a stable closed loop |a - b k| < 1,
            or the discriminant's root or S overflows the float range.
    """
    a, b, q, r = plant.a, plant.b, plant.q, plant.r_u
    c1 = r * (1.0 - a * a) - q * b * b
    root = math.sqrt(c1 * c1 + 4.0 * b * b * q * r)
    if c1 > 0.0:
        s = 2.0 * q * r / (c1 + root)
    elif b * b != 0.0:
        s = (root - c1) / (2.0 * b * b)
    else:  # c1 <= 0 and b^2 = 0 (or underflows): |a| >= 1 with no input to act on it
        raise NonConvergentError("unstable mode with no input authority "
                                 "(plant is not stabilizable)")
    if not (math.isfinite(root) and math.isfinite(s)):
        raise NonConvergentError("the Riccati root overflows the float range")
    if not abs(a * r / (r + b * b * s)) < 1.0:  # a - b k with k = a b s / (r + b^2 s)
        raise NonConvergentError(
            "no stabilizing Riccati solution (closed loop |a - b k| >= 1)")
    return s


def intrinsic_entropy_rate(plant: Plant, period_s: float) -> float:
    """Uncertainty production rate of the plant in bit/s.

    The data-rate threshold log2 |a| (zero for |a| <= 1) divided by the
    cycle period, one control step per cycle.
    """
    if period_s <= 0.0:
        raise ValueError(f"cycle period must be positive, got {period_s}")
    return plant.threshold_bits / period_s


def is_stabilizable_at(plant: Plant, cner_bps: float, period_s: float) -> bool:
    """Whether an information rate of cner_bps suffices for stability.

    True exactly where the rate-cost curve is finite at R = cner_bps *
    period_s bits per step (_gap, the test of pipeline.LoopOutcome.stable):
    4^R > a^2. A plant with |a| < 1 is stabilizable at any rate, one with
    |a| = 1 needs a positive rate.
    """
    if cner_bps < 0.0:
        raise ValueError(f"cner must be non-negative, got {cner_bps}")
    if period_s <= 0.0:
        raise ValueError(f"cycle period must be positive, got {period_s}")
    return _gap(cner_bps * period_s, plant.a * plant.a) > 0.0


def cner_bps(effective_bits_per_cycle: float, cycle_period_s: float) -> float:
    """Closed-loop neg-entropy rate: delivered command bits per unit time."""
    if effective_bits_per_cycle < 0.0:
        raise ValueError(f"effective bits must be non-negative, got {effective_bits_per_cycle}")
    if cycle_period_s <= 0.0:
        raise ValueError(f"cycle period must be positive, got {cycle_period_s}")
    return effective_bits_per_cycle / cycle_period_s


@dataclass(frozen=True, eq=False)
class RateCostModel:
    """Plant plus cached Riccati quantities for the rate-limited cost.

    riccati is the stabilizing Riccati root S, j_ideal = S w_cov the
    full-information optimum; sensitivity converts residual state-estimate
    variance into extra cost. All are derived from the plant and must always
    match recomputation.
    """
    plant: Plant
    j_ideal: float
    sensitivity: float
    riccati: float

    @classmethod
    def from_plant(cls, plant: Plant) -> "RateCostModel":
        a, b, r = plant.a, plant.b, plant.r_u
        s = dare_solve(plant)
        k = a * b * s / (r + b * b * s)
        return cls(plant=plant, j_ideal=s * plant.w_cov, sensitivity=k * k * (r + b * b * s),
                   riccati=s)

    def lqr_gain(self) -> float:
        """LQR feedback gain k = a b S / (r + b^2 S), from the cached S."""
        b, r, s = self.plant.b, self.plant.r_u, self.riccati
        return self.plant.a * b * s / (r + b * b * s)


def _gap(rate_bits: float, a_sq: float) -> float:
    """4^R - a^2 of the rate-cost curve on Python floats, R clamped at
    RATE_CLAMP_BITS and 4^R by libm's pow: positive exactly at the rates
    where J(R) is finite. A negative or NaN R gets no positive gap (0.0)."""
    if not rate_bits >= 0.0:
        return 0.0
    return 4.0 ** min(rate_bits, RATE_CLAMP_BITS) - a_sq


def rate_gap(rate_bits, a_sq):
    """(4^R, 4^R - a^2, finite) of the rate-cost curve on arrays, R clamped
    at RATE_CLAMP_BITS and 4^R by numpy's power loop.

    finite marks R >= 0 with a positive gap: the rates at which J(R) is finite.
    """
    pow4 = 4.0 ** np.minimum(rate_bits, RATE_CLAMP_BITS)
    gap = pow4 - a_sq
    return pow4, gap, (rate_bits >= 0.0) & (gap > 0.0)


def rate_cost(rate_bits, a_sq, sens_w, j_ideal):
    """Rate-cost curve J(R) = j_ideal + sens*w / (4^R - a^2), elementwise.

    The curve of Kostina & Hassibi (IEEE TAC 2019): +inf where R < 0 or
    4^R <= a^2 (at or below the data-rate threshold); strictly decreasing
    and convex above it, with J -> j_ideal as R grows. A cost past the float
    range is +inf too.
    """
    _, gap, finite = rate_gap(rate_bits, a_sq)
    return gap_cost(gap, finite, sens_w, j_ideal)


def gap_cost(gap, finite, sens_w, j_ideal):
    """J = j_ideal + sens*w / gap where finite, else +inf: rate_cost from
    rate_gap's gap and a finite flag (rate_gap's, or a narrower one)."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        return np.where(finite, j_ideal + sens_w / gap, np.inf)


def rate_cost_terms(models) -> tuple:
    """(a^2, sensitivity * w_cov, j_ideal) per model, the arrays rate_cost takes.

    a^2 is a * a, as lqr_cost squares it: a ** 2 is not correctly rounded
    and can be 1 ulp away.
    """
    return (np.array([m.plant.a * m.plant.a for m in models]),
            np.array([m.sensitivity * m.plant.w_cov for m in models]),
            np.array([m.j_ideal for m in models]))


def lqr_cost(model: RateCostModel, rate_bits_per_step: float) -> float:
    """Rate-limited LQR cost J(R), math.inf at or below the data-rate threshold.

    rate_cost's formula for one rate on Python floats: J(R) = j_ideal +
    sensitivity * w_cov / (4^R - a^2) whenever the gap 4^R - a^2 (_gap) is
    positive. A cost past the float range is math.inf too.
    """
    if rate_bits_per_step < 0.0:
        raise ValueError(f"rate must be non-negative, got {rate_bits_per_step}")
    gap = _gap(rate_bits_per_step, model.plant.a * model.plant.a)
    return model.j_ideal + model.sensitivity * model.plant.w_cov / gap if gap > 0.0 else math.inf

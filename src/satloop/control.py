"""Discrete-time plant model, Riccati solution, and rate-limited LQR cost.

The central objects are a linear plant x' = a x + b u + w with quadratic
state/input weights, and the cost-vs-information-rate curve built on top of
its Riccati solution: below the data-rate threshold (rate <= sum of
log2 |unstable eigenvalues| per step) no finite cost exists, above it the
cost decays toward the full-information optimum as the rate grows.
"""
import math
from dataclasses import dataclass, field

import numpy as np


class NonConvergentError(RuntimeError):
    """Riccati iteration failed to converge (non-stabilizable or ill-conditioned)."""


class UnsupportedPlantError(ValueError):
    """Plant structure outside the supported scalar / diagonal families."""


class _Infeasible:
    """Distinguished return value: requested rate is below the data-rate threshold.

    A singleton, not an exception, so optimizers can apply penalty logic
    explicitly.
    """
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "Infeasible"


INFEASIBLE = _Infeasible()

# Rates clamp here: 4^400 is far inside the float range, and sens*w/4^R is
# already below any rounding of the full-information cost.
RATE_CLAMP_BITS = 400.0


def _as_matrix(x) -> np.ndarray:
    return np.atleast_2d(np.asarray(x, dtype=float))


def _check_psd(m: np.ndarray, name: str, strict: bool = False) -> None:
    if not np.allclose(m, m.T, rtol=1e-10, atol=1e-12):
        raise ValueError(f"{name} must be symmetric")
    eigs = np.linalg.eigvalsh(m)
    if strict:
        if eigs.min() <= 0.0:
            raise ValueError(f"{name} must be positive definite")
    elif eigs.min() < -1e-10 * max(1.0, abs(eigs.max())):
        raise ValueError(f"{name} must be positive semidefinite")


@dataclass(frozen=True, eq=False)
class Plant:
    """Discrete-time linear plant with LQR weights.

    a, b may be scalars or square matrices (b: state x input). w_cov and q
    must be PSD, r_u positive definite. One control step per sample period.
    """
    a: object
    b: object
    w_cov: object
    q: object
    r_u: object
    sample_period_s: float

    def __post_init__(self):
        if self.sample_period_s <= 0.0:
            raise ValueError(f"sample period must be positive, got {self.sample_period_s}")
        a = _as_matrix(self.a)
        b = _as_matrix(self.b)
        n = a.shape[0]
        m = b.shape[1]
        if a.shape != (n, n):
            raise ValueError(f"a must be square, got shape {a.shape}")
        if b.shape[0] != n:
            raise ValueError(f"b must have {n} rows, got shape {b.shape}")
        for name, want in (("w_cov", (n, n)), ("q", (n, n)), ("r_u", (m, m))):
            if _as_matrix(getattr(self, name)).shape != want:
                raise ValueError(f"{name} must have shape {want}")
        _check_psd(_as_matrix(self.w_cov), "w_cov")
        _check_psd(_as_matrix(self.q), "q")
        _check_psd(_as_matrix(self.r_u), "r_u", strict=True)

    @property
    def is_scalar(self) -> bool:
        return _as_matrix(self.a).shape == (1, 1)

    def scalars(self) -> tuple:
        """(a, b, w, q, r) as floats; only valid for scalar plants."""
        if not self.is_scalar:
            raise UnsupportedPlantError("plant is not scalar")
        return (float(_as_matrix(self.a)[0, 0]), float(_as_matrix(self.b)[0, 0]),
                float(_as_matrix(self.w_cov)[0, 0]), float(_as_matrix(self.q)[0, 0]),
                float(_as_matrix(self.r_u)[0, 0]))

    def diagonal_modes(self) -> list:
        """Per-mode (a_i, b_i, w_i, q_i, r_i) tuples for diagonal plants.

        Raises UnsupportedPlantError when any of a, b, w_cov, q, r_u has an
        off-diagonal entry (coupled MIMO plants are out of scope).
        """
        mats = {name: _as_matrix(getattr(self, name)) for name in ("a", "b", "w_cov", "q", "r_u")}
        n = mats["a"].shape[0]
        for name, m in mats.items():
            if m.shape != (n, n):
                raise UnsupportedPlantError(f"{name} must be {n}x{n} for mode decomposition")
            if not np.allclose(m, np.diag(np.diag(m)), atol=1e-12):
                raise UnsupportedPlantError(f"{name} has off-diagonal coupling")
        return [tuple(float(mats[k][i, i]) for k in ("a", "b", "w_cov", "q", "r_u"))
                for i in range(n)]


def _scalar_dare_root(a: float, b: float, q: float, r: float) -> float:
    """Stabilizing root of the scalar Riccati equation s = q + a^2 r s / (r + b^2 s).

    The positive root of b^2 s^2 + c1 s - q r = 0 with c1 = r (1 - a^2) - q b^2,
    taken as 2 q r / (c1 + sqrt(disc)) when c1 > 0 so that nothing cancels.

    Raises:
        NonConvergentError: no root gives a stable closed loop |a - b k| < 1.
    """
    c1 = r * (1.0 - a * a) - q * b * b
    root = math.sqrt(c1 * c1 + 4.0 * b * b * q * r)
    if c1 > 0.0:
        s = 2.0 * q * r / (c1 + root)
    elif b != 0.0:
        s = (root - c1) / (2.0 * b * b)
    else:  # c1 <= 0 and b = 0: |a| >= 1 with no input to act on it
        raise NonConvergentError("unstable mode with no input authority "
                                 "(plant is not stabilizable)")
    if not abs(a * r / (r + b * b * s)) < 1.0:  # a - b k with k = a b s / (r + b^2 s)
        raise NonConvergentError(
            "no stabilizing Riccati solution (closed loop |a - b k| >= 1)")
    return s


def dare_solve(plant: Plant, tol: float = 1e-12, max_iter: int = 10000) -> np.ndarray:
    """Cost-to-go matrix S of the discrete algebraic Riccati equation.

    A 1x1 plant takes the closed-form stabilizing root. Larger plants use the
    fixed-point iteration of
        S <- A' S A - A' S B (R + B' S B)^-1 B' S A + Q
    from S0 = Q + I (S = 0 is a fixed point when Q = 0), stopped when the
    update falls below tol relative to the larger of S and S0.

    Raises:
        NonConvergentError: no stabilizing solution (1x1), or no convergence
            within max_iter iterations.
    """
    a = _as_matrix(plant.a)
    b = _as_matrix(plant.b)
    q = _as_matrix(plant.q)
    r = _as_matrix(plant.r_u)
    if a.shape == b.shape == (1, 1):
        return np.array([[_scalar_dare_root(a[0, 0], b[0, 0], q[0, 0], r[0, 0])]])

    def step(s):
        bsb = r + b.T @ s @ b
        s_next = a.T @ s @ a - a.T @ s @ b @ np.linalg.solve(bsb, b.T @ s @ a) + q
        return 0.5 * (s_next + s_next.T)

    s = q + np.eye(q.shape[0])
    start = np.linalg.norm(s)
    for _ in range(max_iter):
        s_next = step(s)
        denom = np.linalg.norm(s)
        delta = np.linalg.norm(s_next - s)
        if not (np.isfinite(delta) and np.isfinite(denom)):
            raise NonConvergentError(
                "Riccati iteration diverged (plant is not stabilizable)")
        s = s_next
        if delta <= tol * max(denom, start):
            # polish: linear convergence means a few extra sweeps push the
            # fixed-point defect well below the stopping threshold
            for _ in range(5):
                s = step(s)
            return s
    raise NonConvergentError(
        f"Riccati iteration did not converge within {max_iter} iterations "
        "(plant may not be stabilizable)")


def dare_residual(plant: Plant, s: np.ndarray) -> float:
    """Norm of the DARE residual for a candidate solution S."""
    a = _as_matrix(plant.a)
    b = _as_matrix(plant.b)
    q = _as_matrix(plant.q)
    r = _as_matrix(plant.r_u)
    bsb = r + b.T @ s @ b
    rhs = a.T @ s @ a - a.T @ s @ b @ np.linalg.solve(bsb, b.T @ s @ a) + q
    return float(np.linalg.norm(rhs - s))


def intrinsic_entropy_rate(plant: Plant) -> float:
    """Uncertainty production rate of the plant in bit/s.

    Sum of log2 |eigenvalue| over unstable eigenvalues (|lambda| > 1),
    divided by the sample period. Zero for stable plants.
    """
    eigs = np.linalg.eigvals(_as_matrix(plant.a))
    bits_per_step = sum(math.log2(abs(ev)) for ev in eigs if abs(ev) > 1.0)
    return bits_per_step / plant.sample_period_s


def is_stabilizable_at(plant: Plant, cner_bps: float) -> bool:
    """Whether an information rate of cner_bps suffices for stability.

    Strict test cner > intrinsic entropy rate; stable plants (zero entropy
    rate) need no information and return True for any cner >= 0.
    """
    if cner_bps < 0.0:
        raise ValueError(f"cner must be non-negative, got {cner_bps}")
    h = intrinsic_entropy_rate(plant)
    if h == 0.0:
        return True
    return cner_bps > h


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

    j_ideal is the full-information optimum; sensitivity converts residual
    state-estimate variance into extra cost. Both are derived from the plant
    and must always match recomputation. threshold_bits is the data-rate
    threshold in bits per step: the sum of log2 |a_i| over the unstable modes.
    """
    plant: Plant
    j_ideal: float
    sensitivity: object
    threshold_bits: float
    mode_params: tuple = field(repr=False)
    riccati: tuple = field(repr=False)

    @classmethod
    def from_plant(cls, plant: Plant, tol: float = 1e-12, max_iter: int = 10000) -> "RateCostModel":
        modes = [plant.scalars()] if plant.is_scalar else plant.diagonal_modes()
        # a diagonal plant's Riccati solution is diagonal: one root per mode
        roots = [float(s) for s in np.diag(dare_solve(plant, tol=tol, max_iter=max_iter))]
        mode_params = []
        for (a, b, w, q, r), s in zip(modes, roots):
            k = a * b * s / (r + b * b * s)
            mode_params.append((a, w, k * k * (r + b * b * s), s * w))
        sens = [m[2] for m in mode_params]
        return cls(plant=plant, j_ideal=sum(m[3] for m in mode_params),
                   sensitivity=sens[0] if len(sens) == 1 else np.asarray(sens),
                   threshold_bits=sum(math.log2(abs(a)) for a, *_ in modes if abs(a) > 1.0),
                   mode_params=tuple(mode_params), riccati=tuple(roots))

    def lqr_gain(self) -> float:
        """Scalar LQR feedback gain k = a b S / (r + b^2 S), from the cached S."""
        a, b, _, _, r = self.plant.scalars()
        s = self.riccati[0]
        return a * b * s / (r + b * b * s)

    def cost(self, rate_bits):
        """Array-valued J(R) of the whole plant, +inf where no finite cost exists.

        Diagonal plants split each total optimally across their modes.
        """
        rate = np.asarray(rate_bits, dtype=float)
        a, w, sens, j_ideal = np.array(self.mode_params).T
        if a.size == 1:
            per_mode = rate[..., None]
        else:
            per_mode = np.reshape([_split_bits_across_modes(self, r) for r in rate.ravel()],
                                  rate.shape + a.shape)
        return rate_cost(per_mode, a * a, sens * w, j_ideal).sum(axis=-1)


def rate_gap(rate_bits, a_sq):
    """(4^R, 4^R - a^2, finite) of the rate-cost curve, R clamped at RATE_CLAMP_BITS.

    finite marks R >= 0 with a positive gap: the rates at which J(R) is finite.
    """
    pow4 = 4.0 ** np.minimum(rate_bits, RATE_CLAMP_BITS)
    gap = pow4 - a_sq
    return pow4, gap, (rate_bits >= 0.0) & (gap > 0.0)


def rate_cost(rate_bits, a_sq, sens_w, j_ideal):
    """Per-mode rate-cost curve J(R) = j_ideal + sens*w / (4^R - a^2), elementwise.

    The curve of Kostina & Hassibi (IEEE TAC 2019): +inf where R < 0 or
    4^R <= a^2 (at or below the data-rate threshold); strictly decreasing
    and convex above it, with J -> j_ideal as R grows.
    """
    _, gap, finite = rate_gap(rate_bits, a_sq)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(finite, j_ideal + sens_w / gap, np.inf)


def _mode_cost_derivative_rate(a: float, w: float, sens: float, deriv_mag: float) -> float:
    """Rate r at which |dJ/dr| equals deriv_mag, clamped at 0 (water-filling)."""
    # |dJ/dr| = sens*w*ln4 * y / (y - a^2)^2 with y = 4^r; solve for y.
    c = sens * w * math.log(4.0)
    if c == 0.0:
        return 0.0
    a2 = a * a
    # deriv_mag * (y - a2)^2 = c * y  ->  deriv_mag*y^2 - (2 deriv_mag a2 + c) y + deriv_mag a2^2 = 0
    bq = 2.0 * deriv_mag * a2 + c
    disc = bq * bq - 4.0 * deriv_mag * deriv_mag * a2 * a2
    y = (bq + math.sqrt(max(disc, 0.0))) / (2.0 * deriv_mag)
    r = math.log(y, 4.0) if y > 0.0 else 0.0
    return max(r, 0.0)


def _split_bits_across_modes(model: RateCostModel, total_bits: float) -> list:
    """Optimal per-mode bit allocation by water-filling on the marginal cost.

    Each mode's cost is convex decreasing in its rate, so equalizing the
    marginal |dJ/dr| across modes (subject to r_i >= 0) is optimal. At or
    below the data-rate threshold no split is feasible: every rate is NaN,
    which rate_cost maps to +inf.
    """
    modes = model.mode_params  # (a, w, sens, j_ideal_mode)
    if not total_bits > model.threshold_bits:
        return [math.nan] * len(modes)
    lo, hi = 1e-300, 1e300

    def rate_sum(deriv_mag: float) -> float:
        return sum(_mode_cost_derivative_rate(a, w, sens, deriv_mag)
                   for a, w, sens, _ in modes)

    for _ in range(200):
        mid = math.sqrt(lo) * math.sqrt(hi)  # lo * hi underflows to 0 for huge totals
        bracket = (mid, hi) if rate_sum(mid) > total_bits else (lo, mid)
        if bracket == (lo, hi):
            break  # the same midpoint again: the bracket can no longer move
        lo, hi = bracket
    lam = math.sqrt(lo) * math.sqrt(hi)
    rates = [_mode_cost_derivative_rate(a, w, sens, lam) for a, w, sens, _ in modes]
    scale = total_bits / sum(rates) if sum(rates) > 0 else 1.0
    return [r * scale for r in rates]


def lqr_cost(model: RateCostModel, rate_bits_per_step: float):
    """Rate-limited LQR cost J(R), or INFEASIBLE below the data-rate threshold.

    The scalar view of RateCostModel.cost: J(R) = j_ideal + sensitivity *
    w_cov / (2^(2R) - a^2) for scalar plants whenever 2^(2R) > a^2, with
    diagonal plants splitting the bits optimally across modes.
    """
    if rate_bits_per_step < 0.0:
        raise ValueError(f"rate must be non-negative, got {rate_bits_per_step}")
    cost = float(model.cost(rate_bits_per_step))
    return INFEASIBLE if cost == math.inf else cost

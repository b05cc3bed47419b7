"""Single-cycle store-and-forward timing model.

One control cycle: sensing data goes up for t_up, the satellite processes it
(cycles-per-bit / allocated compute rate), the extracted command bits go down
for t_down, and propagation in both directions is charged against the same
budget. Uplink transfer, computing, and downlink transfer happen strictly in
sequence; a cycle whose stages do not fit in the period delivers nothing.

The cycle has two forms, one per use. The joint solves score many loops at
once on numpy arrays (store_and_forward). One loop is scored on Python
floats: _cycle_at_rates is the cycle at given link rates,
at the balanced split or at a given time allocation, and loop_outcome its
LoopOutcome, with 4^R by libm's pow (control.lqr_cost). outcome_at_rates
joins the two; the single-loop solver calls it on the rates its search
scored, and evaluate_cycle and balanced_times on the rates of their
LinkParams. One loop makes no numpy call: numpy is executed at the first use
of an array form (satloop._lazy). The float cycle keeps numpy's rules
(_np_max and _np_min: the second argument on a tie, NaN from either side),
so it equals the array cycle bit for bit. The float and array costs and
stability flags differ only where the two powers of 4^R round apart (the
control module docstring). tests/test_pipeline.py pins both.
"""
import math
from dataclasses import dataclass

from . import control, linkgeom
from ._lazy import lazy_import
from .control import RateCostModel
from .linkgeom import LinkParams

np = lazy_import("numpy")

# keeps a loop given no compute finite (and hopeless) instead of dividing by zero
COMPUTE_FLOOR_CPS = 1e-9


class NoBudgetError(ValueError):
    """Propagation alone exceeds the cycle period, or a link has no usable distance."""


@dataclass(frozen=True)
class LoopBudget:
    """Per-cycle time and processing budget.

    Attributes:
        cycle_period_s: Total time allocated to communication + computing.
        cycles_per_bit: CPU cycles needed per uplinked bit.
        compute_rate_cps: CPU cycles per second allocated to this loop.
        extraction_ratio: Fraction of uplinked bits surviving processing as
            command-relevant bits, in (0, 1].
    """
    cycle_period_s: float
    cycles_per_bit: float
    compute_rate_cps: float
    extraction_ratio: float

    def __post_init__(self):
        for name in ("cycle_period_s", "cycles_per_bit", "compute_rate_cps", "extraction_ratio"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.extraction_ratio > 1.0:
            raise ValueError(f"extraction_ratio must be <= 1, got {self.extraction_ratio}")


@dataclass(frozen=True)
class LoopOutcome:
    """What one evaluated cycle achieved."""
    uplink_rate_bps: float
    downlink_rate_bps: float
    t_up_s: float
    t_comp_s: float
    t_down_s: float
    t_prop_s: float
    effective_bits_per_cycle: float
    cner_bps: float
    stable: bool
    lqr_cost: float
    time_feasible: bool


def propagation_delay_s(distance_up_m: float, distance_down_m: float) -> float:
    """Two-leg propagation delay (d_up + d_down) / c."""
    if distance_up_m < 0.0 or distance_down_m < 0.0:
        raise ValueError("distances must be non-negative")
    return (distance_up_m + distance_down_m) / linkgeom.SPEED_OF_LIGHT_M_S


def store_and_forward(volume_bits, t_up_s, r_down_bps, t_prop_s, compute_cps,
                      budget: LoopBudget) -> tuple:
    """(t_comp, window, delivered) of store-and-forward cycles, array-valued.

    Computing volume V takes cycles_per_bit * V / compute; the downlink window
    is what the period leaves after propagation, uplink and computing (negative
    when they overrun it); delivered bits are min(extraction_ratio * V,
    r_down * window).
    """
    t_comp = budget.cycles_per_bit * volume_bits / np.maximum(compute_cps, COMPUTE_FLOOR_CPS)
    window = budget.cycle_period_s - t_prop_s - t_up_s - t_comp
    return t_comp, window, np.minimum(budget.extraction_ratio * volume_bits, r_down_bps * window)


def _np_max(a: float, b: float) -> float:
    """np.maximum(a, b) on Python floats: b on a tie, NaN if either is NaN."""
    return a if a > b or a != a else b


def _np_min(a: float, b: float) -> float:
    """np.minimum(a, b) on Python floats: b on a tie, NaN if either is NaN."""
    return a if a < b or a != a else b


def loop_outcome(model: RateCostModel, period_s: float, r_up: float, r_down: float,
                 t_up: float, t_comp: float, t_down: float, t_prop: float,
                 effective_bits: float, time_feasible: bool) -> LoopOutcome:
    """One loop's LoopOutcome on Python floats. A time-infeasible cycle
    delivers nothing, is not stable and costs math.inf; otherwise the loop
    reports its effective bits clipped at 0, and is stable where
    control.lqr_cost is finite at them (also where the cost overflows)."""
    eff = _np_max(effective_bits, 0.0) if time_feasible else 0.0
    stable = time_feasible and control._gap(eff, model.plant.a * model.plant.a) > 0.0
    cost = control.lqr_cost(model, eff) if stable else math.inf
    return LoopOutcome(r_up, r_down, t_up, t_comp, t_down, t_prop, eff,
                       control.cner_bps(eff, period_s), stable, cost, time_feasible)


def _cycle_at_rates(budget: LoopBudget, r_up: float, r_down: float, t_prop_s: float,
                    times: tuple | None) -> tuple:
    """(t_up, t_comp, t_down, effective bits, time_feasible) of one cycle at
    rates r_up and r_down: at the (t_up, t_down) allocation times
    (evaluate_cycle), or with times None at the balanced split
    (balanced_times). store_and_forward on Python floats.
    """
    if times is None:
        remaining = budget.cycle_period_s - t_prop_s
        if remaining <= 0.0:
            raise NoBudgetError(
                f"propagation {t_prop_s}s leaves no budget in a "
                f"{budget.cycle_period_s}s cycle")
        # a downlink that carries no bits fills at once: no uplink time
        fill = budget.extraction_ratio * r_up / r_down if r_down > 0.0 else math.inf
        t_up = remaining / (1.0 + budget.cycles_per_bit * r_up / budget.compute_rate_cps + fill)
    else:
        t_up, t_down = times
    volume = r_up * t_up
    t_comp = (budget.cycles_per_bit * volume
              / _np_max(budget.compute_rate_cps, COMPUTE_FLOOR_CPS))
    window = budget.cycle_period_s - t_prop_s - t_up - t_comp
    delivered = _np_min(budget.extraction_ratio * volume, r_down * window)
    if times is None:
        t_down = max(window, 0.0)
    return (t_up, t_comp, t_down, _np_min(delivered, r_down * t_down),
            t_down <= window + 1e-12)


def outcome_at_rates(model: RateCostModel, budget: LoopBudget, r_up: float, r_down: float,
                     t_prop_s: float, times: tuple | None = None) -> LoopOutcome:
    """The LoopOutcome of one cycle of the model's plant at rates r_up and
    r_down with propagation t_prop_s, at the (t_up, t_down) allocation times
    or by default at the balanced split."""
    t_up, t_comp, t_down, eff, ok = _cycle_at_rates(budget, r_up, r_down, t_prop_s, times)
    return loop_outcome(model, budget.cycle_period_s, r_up, r_down, t_up, t_comp, t_down,
                        t_prop_s, eff, ok)


def evaluate_cycle(uplink: LinkParams, downlink: LinkParams, budget: LoopBudget,
                   model: RateCostModel, t_up_s: float, t_down_s: float) -> LoopOutcome:
    """Evaluate one closed-loop cycle of the model's plant at a given time allocation.

    The store-and-forward cycle with uplinked volume rate * t_up, whose
    downlink is on for t_down of its window: it carries at most rate * t_down.
    A cycle whose stage times plus propagation exceed the period (t_down
    longer than the window) is time-infeasible: zero effective bits, not
    stable.
    """
    if t_up_s < 0.0 or t_down_s < 0.0:
        raise ValueError("stage times must be non-negative")
    t_prop = propagation_delay_s(linkgeom.slant_range_m(uplink.geometry),
                                 linkgeom.slant_range_m(downlink.geometry))
    return outcome_at_rates(model, budget, linkgeom.shannon_rate_bps(uplink),
                            linkgeom.shannon_rate_bps(downlink), t_prop,
                            (float(t_up_s), float(t_down_s)))


def balanced_times(uplink: LinkParams, downlink: LinkParams, budget: LoopBudget,
                   t_prop_s: float) -> tuple[float, float]:
    """(t_up, t_down) of the split maximizing effective bits.

    The pipeline delivers most when the extraction output exactly fills the
    downlink window and the whole budget is used:
        t_up * (1 + c_bit*R_up/f + rho*R_up/R_down) = period - t_prop
    and t_down is the window that leaves.

    Raises:
        NoBudgetError: propagation alone uses up the period.
    """
    t_up, _, t_down, _, _ = _cycle_at_rates(
        budget, linkgeom.shannon_rate_bps(uplink), linkgeom.shannon_rate_bps(downlink),
        t_prop_s, None)
    return t_up, t_down

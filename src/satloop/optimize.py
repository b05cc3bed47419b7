"""Resource-allocation solvers.

Single loop: split total bandwidth between uplink and downlink under a
task-oriented, max-throughput, or min-latency objective, each convex in the
uplink bandwidth, by golden-section search on Python floats. The search
scores the rates that linkgeom.shannon_rate_bps reports, bit for bit, from one
link budget per link, and the chosen split is scored at those same rates. The
task-oriented split maximises the balanced cycle's effective bits.

Multi loop: jointly allocate downlink power and on-board compute frequency
across robots by projected gradient on budget-scaled variables (closed-form
gradient and Hessian blocks), against a max-throughput (water-filling) scheme
and a compute-only scheme at equal power. The starts are deterministic and
few: for an unstable plant, log r(p) and log w(f) are concave and J(e^u) is
decreasing and convex, so each loop's J(min(r(p) w(f), cap)) is jointly
convex where it is feasible and every local minimum is global (Boyd &
Vandenberghe, Convex Optimization, 3.2.4); with every plant unstable, only
the lowest-valued start descends. For a stable plant J(e^u) is not convex at
small eff, and nothing certifies the starts there: every start descends as
one batch and the lowest end point wins, which can still stop above the
global minimum. Each
iteration first tries a face-Newton step: the objective is separable by robot,
so its Hessian is block-diagonal with one closed-form 2x2 (power, compute)
block per robot, and the Newton step on the face where both budgets are spent
needs only those blocks and a 2x2 Schur complement. A row keeps the projected
Newton point when it passes a sufficient-decrease test; a row whose blocks
are not positive definite (a capped, penalised or starved loop), or whose
Newton point fails the test, takes the Barzilai-Borwein step with Armijo
backtracking instead. The Newton decrement decides the stop, before the
line search (B&V 9.5.1 and 10.2): a row whose Newton step predicts a
decrease of at most PGD_REL_TOL of its value stops in that iteration, at
the Newton point if it kept it, else where its backtracking left it (a
decrease that small can score an ulp above the value); a row whose Newton
step predicts no decrease stops where it stands if it is stationary. The
vector math of
an iteration (derivatives, Newton step, projection, Newton trial) is
one batched numpy call for all running rows, and backtracking one per block
of halvings that some row still needs (_HALVING_BLOCKS); each row's
step choice, stopping test and bookkeeping run on Python floats. The trace
certifies the returned point with its projected-gradient norm
(SolverTrace.projected_gradient_norm). Each point a solve stands on, its
start batch and each Newton trial, is scored once, by JointEvaluator.first_order
(value, gradient, chain-rule terms, per-robot costs): the next Hessian blocks
of a kept point, the certificate and the result all read that score.

Any one loop is scored on Python floats, with 4^R by libm's pow: the
single-loop split once, by pipeline.outcome_at_rates, and each robot of
JointEvaluator.outcomes by pipeline.loop_outcome. numpy arrays appear only
inside the joint solves: the objective, its derivatives and lqr_total
(pipeline.store_and_forward and control.rate_cost). Both solvers score a
loop with no finite cost by one penalty, _penalty, so a single-loop solve
makes no numpy call.
"""
from __future__ import annotations

import dataclasses
import enum
import functools
import math
from dataclasses import dataclass

from . import control, linkgeom, pipeline
from ._lazy import lazy_import
from .control import Plant, RateCostModel
from .linkgeom import LinkParams
from .pipeline import LoopBudget

np = lazy_import("numpy")

INFEASIBILITY_PENALTY = 1e9
GOLDEN_REL_WIDTH = 1e-8
# Projected gradient: a row converges when its Newton step, kept or not, predicts
# a decrease of at most PGD_REL_TOL of its value (or none, at a stationary
# point), or after PGD_PATIENCE consecutive iterations that improve its value
# by less than PGD_REL_TOL relative, and stops unconverged after PGD_MAX_ITER
# iterations.
PGD_REL_TOL = 1e-10
PGD_PATIENCE = 5
PGD_MAX_ITER = 500
# Projected-gradient backtracking: MAX_HALVINGS trial steps, scored in blocks
# of growing length (the first halving alone, the next 7, then the rest), each
# block in one objective call for the rows that have not stopped before it.
MAX_HALVINGS = 80
_HALVINGS = tuple(0.5 ** k for k in range(MAX_HALVINGS))  # the trial-step scales 1, 1/2, ...
_HALVING_BLOCKS = (_HALVINGS[:1], _HALVINGS[1:8], _HALVINGS[8:])


class SingleLoopObjective(enum.Enum):
    TASK_ORIENTED = "task_oriented"
    MAX_THROUGHPUT = "max_throughput"
    MIN_LATENCY = "min_latency"


class MultiLoopScheme(enum.Enum):
    TASK_ORIENTED_JOINT = "task_oriented_joint"
    MAX_THROUGHPUT_JOINT = "max_throughput_joint"
    COMPUTE_ONLY_EQUAL_COMM = "compute_only_equal_comm"


@dataclass(frozen=True, eq=False)
class SingleLoopProblem:
    """Uplink/downlink bandwidth split for one loop.

    The link templates carry everything but bandwidth, which is the decision
    variable (b_up + b_down = total_bandwidth_hz). fixed_payload_bits is used
    only by the min-latency objective.
    """
    total_bandwidth_hz: float
    uplink_template: LinkParams
    downlink_template: LinkParams
    budget: LoopBudget
    plant: Plant
    objective: SingleLoopObjective
    fixed_payload_bits: float

    def __post_init__(self):
        if self.total_bandwidth_hz <= 0.0:
            raise ValueError("total bandwidth must be positive")
        if self.objective == SingleLoopObjective.MIN_LATENCY and self.fixed_payload_bits <= 0.0:
            raise ValueError("min-latency objective needs a positive payload")


@dataclass(frozen=True, eq=False)
class RobotLoop:
    """One robot's downlink template (its bandwidth is the robot's fixed share) and plant."""
    downlink: LinkParams
    plant: Plant


@dataclass(frozen=True, eq=False)
class MultiLoopProblem:
    """Joint downlink-power + compute-frequency allocation across robots.

    Each robot's uplink is abstracted as a fixed per-cycle sensing volume
    (uplink_fixed_bits); the decision variables are per-robot downlink power
    and compute frequency under total budgets.
    """
    robots: tuple
    total_power_w: float
    total_compute_cps: float
    budget: LoopBudget
    scheme: MultiLoopScheme
    uplink_fixed_bits: float

    def __post_init__(self):
        if not self.robots:
            raise ValueError("at least one robot required")
        if self.total_power_w <= 0.0 or self.total_compute_cps <= 0.0:
            raise ValueError("resource totals must be positive")
        if self.uplink_fixed_bits <= 0.0:
            raise ValueError("uplink volume must be positive")


@dataclass(frozen=True)
class SolverTrace:
    iterations: int
    converged: bool
    restarts: int = 1  # candidate starts
    # index of the winning start; with only unstable plants, the one that descended
    best_restart: int = 0
    all_infeasible: bool = False
    method: str = ""
    max_iter_rows: int = 0  # descending starts still running after PGD_MAX_ITER iterations
    # why the winning start of a projected-gradient solve stopped: "decrement",
    # "patience", "nonfinite_gradient" or "max_iter" ("" for the other solves)
    stopped_on: str = ""
    # The certificate of a projected-gradient solve: ||z - P(z - grad f(z))||
    # in budget-scaled shares at the returned point, 0 exactly at a KKT point
    # (NaN for the solves that run no projected gradient). grad f(z) is the one
    # z's score carries (_best_start), bit for bit a derivatives call at z
    projected_gradient_norm: float = math.nan
    # Not a field: there is no grid fallback, but the benchmark tracer reads it.
    fallback_dense_grid = False


@dataclass(frozen=True, eq=False)
class AllocationResult:
    """Solver output: decision, objective, trace and a single loop's outcome.

    lqr_total re-scores the decision under the penalized sum of LQR costs so
    schemes with different native objectives can be compared on one axis.
    per_loop_outcomes is empty for a joint result: JointEvaluator.outcomes
    builds a joint decision's outcomes on request.
    """
    decision: dict
    objective_value: float
    lqr_total: float
    solver_trace: SolverTrace
    per_loop_outcomes: tuple = ()


# ---------------------------------------------------------------------------
# single loop
# ---------------------------------------------------------------------------

def _penalty(threshold_bits, effective_bits):
    """Both solvers' score of a loop with no finite cost: 1e9 + (threshold - eff)."""
    return INFEASIBILITY_PENALTY + (threshold_bits - effective_bits)


def _penalized(cost, threshold_bits, effective_bits):
    """Cost where finite, else _penalty, on arrays."""
    return np.where(np.isfinite(cost), cost, _penalty(threshold_bits, effective_bits))


def _link_rate_fns(problem: SingleLoopProblem) -> tuple:
    """(rate_up, rate_down): linkgeom.rate_fn of the problem's two link templates."""
    return linkgeom.rate_fn(problem.uplink_template), linkgeom.rate_fn(problem.downlink_template)


def _single_objective_fn(problem: SingleLoopProblem, rates: tuple):
    """Minimization objective for the problem's scheme, a float function of
    b_up on the link rate functions rates (_link_rate_fns).

    Task-oriented and min-latency minimise w_up / R_up + w_down / R_down:
    min-latency sends its payload both ways, and the task-oriented weights
    (1, rho) maximise the balanced cycle's effective bits
    rho (T - t_prop) / (1/R_up + c/f + rho/R_down). A link that carries no
    bits (a rate of 0) scores inf, and a weight/rate past the float range
    is inf too.
    """
    rate_up, rate_down = rates
    b_tot = problem.total_bandwidth_hz
    if problem.objective == SingleLoopObjective.MAX_THROUGHPUT:
        return lambda b_up: -(rate_up(b_up) + rate_down(b_tot - b_up))
    if problem.objective == SingleLoopObjective.TASK_ORIENTED:
        w_up, w_down = 1.0, problem.budget.extraction_ratio
    else:
        w_up = w_down = problem.fixed_payload_bits

    def fn(b_up):
        r_up, r_down = rate_up(b_up), rate_down(b_tot - b_up)
        try:
            return w_up / r_up + w_down / r_down
        except ZeroDivisionError:  # a link that carries no bits
            return math.inf
    return fn


def golden_section(fn, lo: float, hi: float):
    """Golden-section minimization on [lo, hi] to GOLDEN_REL_WIDTH of its width.

    Returns (x_best, f_best, evaluations).
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = fn(c), fn(d)
    evals = 2
    span = hi - lo
    while (b - a) > GOLDEN_REL_WIDTH * span:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = fn(d)
        evals += 1
    x = c if fc < fd else d
    f = min(fc, fd)
    return x, f, evals


def solve_single_loop(problem: SingleLoopProblem) -> AllocationResult:
    """Best bandwidth split for the problem's objective.

    Golden-section search over b_up on [delta, B_tot - delta], which finds the
    minimum of a unimodal function (Kiefer 1953). Each objective is convex in
    b_up, because the Shannon rate is concave and positive in bandwidth. The
    LQR cost never rises as the effective bits grow, so the task-oriented
    split serves the loop whenever any split can. The chosen split is
    re-scored through the full cycle model.
    """
    b_tot = problem.total_bandwidth_hz
    delta = 1e-6 * b_tot
    rates = _link_rate_fns(problem)
    b_star, f_star, evals = golden_section(_single_objective_fn(problem, rates), delta,
                                           b_tot - delta)
    if not delta * 0.5 <= b_star <= b_tot - delta * 0.5:
        raise RuntimeError(f"bandwidth split {b_star!r} Hz left the search bracket")
    return _single_result(problem, rates, b_star, f_star, SolverTrace(
        iterations=evals, converged=True, method="golden_section"))


@functools.lru_cache(maxsize=1)
def _plant_model(plant: Plant) -> RateCostModel:
    """The plant's RateCostModel from a one-entry memo keyed on the plant
    (Plant is eq=False, so by identity): the three objectives of one
    single-loop document share one plant, and so one model."""
    return RateCostModel.from_plant(plant)


def _single_result(problem: SingleLoopProblem, rates: tuple, b_up: float,
                   objective_value: float, trace: SolverTrace) -> AllocationResult:
    """The split b_up re-scored once through the full cycle model, at the
    rates the search scored (rates, _link_rate_fns) and no other link budget.

    The balanced split always fits the cycle, so lqr_total (also the
    task-oriented objective value) is the outcome's cost, penalized where
    it is infinite.
    """
    model = _plant_model(problem.plant)
    rate_up, rate_down = rates
    b_down = problem.total_bandwidth_hz - b_up
    t_prop = pipeline.propagation_delay_s(
        linkgeom.slant_range_m(problem.uplink_template.geometry),
        linkgeom.slant_range_m(problem.downlink_template.geometry))
    outcome = pipeline.outcome_at_rates(model, problem.budget, rate_up(b_up), rate_down(b_down),
                                        t_prop)
    if outcome.lqr_cost == math.inf:
        trace = dataclasses.replace(trace, all_infeasible=True)
    lqr_total = outcome.lqr_cost
    if not math.isfinite(lqr_total):
        lqr_total = _penalty(model.plant.threshold_bits, outcome.effective_bits_per_cycle)
    if problem.objective == SingleLoopObjective.TASK_ORIENTED:
        objective_value = lqr_total
    return AllocationResult(
        decision={"bandwidth_up_hz": b_up, "bandwidth_down_hz": b_down},
        per_loop_outcomes=(outcome,),
        objective_value=float(objective_value),
        lqr_total=lqr_total,
        solver_trace=trace)


# ---------------------------------------------------------------------------
# multi loop
# ---------------------------------------------------------------------------

class JointEvaluator:
    """Vectorized per-robot cycle evaluation for the joint allocation problem.

    Power/frequency arrays broadcast along the last axis (one entry per
    robot), so a batch of candidate decisions evaluates in a single call.
    Effective bits are kept signed (negative when computing alone overruns
    the cycle) to keep penalty gradients informative. It holds only what the
    problems of one sweep share: the per-robot arrays and models, the budget
    and the uplink volume. The resource totals and the scheme come from the
    problem being solved, so one evaluator serves every solve of a sweep.
    """

    def __init__(self, problem: MultiLoopProblem):
        robots = problem.robots
        self.n = len(robots)
        self.budget = problem.budget
        self.uplink_fixed_bits = problem.uplink_fixed_bits
        links = [r.downlink for r in robots]
        dist = np.array([linkgeom.slant_range_m(link.geometry) for link in links])
        if not np.all(dist > 0.0):  # at a tiny altitude the slant range is rounding noise
            raise pipeline.NoBudgetError(
                f"multi_loop: a robot's slant range rounds to {float(dist.min())} m "
                f"(links.downlink.altitude_km)")
        self.bandwidth = np.array([link.bandwidth_hz for link in links])
        self.snr_per_w = np.array([linkgeom.snr_per_watt(link) for link in links])
        self.t_prop = np.array([pipeline.propagation_delay_s(d, d) for d in dist])
        self.t_budget = problem.budget.cycle_period_s - self.t_prop
        if np.any(self.t_budget <= 0.0):
            raise pipeline.NoBudgetError(
                f"multi_loop: propagation {float(self.t_prop.max())}s leaves no budget in the "
                f"{problem.budget.cycle_period_s}s cycle (budget.cycle_period_ms)")
        self.comp_cycles = problem.budget.cycles_per_bit * problem.uplink_fixed_bits
        self.cap_bits = problem.budget.extraction_ratio * problem.uplink_fixed_bits
        models = {}  # one model per distinct plant; the scenario's robots share one
        for robot in robots:
            if robot.plant not in models:
                models[robot.plant] = RateCostModel.from_plant(robot.plant)
        self.models = tuple(models[r.plant] for r in robots)
        self.a_sq, self.sens_w, self.j_ideal = control.rate_cost_terms(self.models)
        # every plant unstable (|a| >= 1): the cost is convex where it is
        # feasible, and a projected-gradient solve descends one start (_best_start)
        self.all_unstable = bool(np.all(self.a_sq >= 1.0))
        self.threshold_bits = np.array([m.plant.threshold_bits for m in self.models])
        # per-robot factors of the gradient: -w ln4 and B*g. A weight w within
        # a factor ln4 of the float range gives -inf: the gradient is then not
        # finite, and the rows stop unconverged
        with np.errstate(over="ignore"):
            self._slope_scale = -self.sens_w * math.log(4.0)
        self._rate_scale = self.bandwidth * self.snr_per_w
        self._water_filled = (None, None)  # (total power, allocation) of the last water_fill

    def water_fill(self, total_power_w: float) -> np.ndarray:
        """water_fill_power at the total, read-only, from a one-entry memo:
        a sweep's max-throughput solve and the task-oriented starts at the
        same total share one water-fill."""
        if self._water_filled[0] != total_power_w:
            alloc = water_fill_power(self, total_power_w)
            alloc.flags.writeable = False
            self._water_filled = (total_power_w, alloc)
        return self._water_filled[1]

    def rates_bps(self, power_w: np.ndarray) -> np.ndarray:
        return self.bandwidth * np.log2(1.0 + power_w * self.snr_per_w)

    def _cycle(self, power_w: np.ndarray, compute_cps: np.ndarray) -> tuple:
        """(rate, t_comp, window, eff) per robot: a fixed volume and no uplink stage."""
        rate = self.rates_bps(power_w)
        return (rate,) + pipeline.store_and_forward(
            self.uplink_fixed_bits, 0.0, rate, self.t_prop, compute_cps, self.budget)

    def cost_vector(self, power_w: np.ndarray, compute_cps: np.ndarray, scored=None):
        """Penalized cost per robot from first_order's (rate_cost, eff), else one _cycle."""
        if scored is None:
            eff = self._cycle(power_w, compute_cps)[3]
            scored = control.rate_cost(eff, self.a_sq, self.sens_w, self.j_ideal), eff
        return _penalized(scored[0], self.threshold_bits, scored[1])

    def total_cost(self, power_w: np.ndarray, compute_cps: np.ndarray, scored=None):
        return self.cost_vector(power_w, compute_cps, scored).sum(axis=-1)

    def _chain_terms(self, power_w: np.ndarray, compute_cps: np.ndarray) -> tuple:
        """(dJ/dp, dJ/df) per robot (derivatives) and the chain-rule terms that
        first_order and the Hessian reuse, from one _cycle: (rate, window, eff,
        pow4, gap, finite, slope, 1 + p g, d_rate, max(f, floor), d_window)."""
        rate, _, window, eff = self._cycle(power_w, compute_cps)
        pow4, gap, finite = control.rate_gap(eff, self.a_sq)
        slope = np.where(finite, self._slope_scale * (pow4 / gap) / gap, -1.0)
        slope = np.where((eff >= self.cap_bits) | (eff > control.RATE_CLAMP_BITS), 0.0, slope)
        lin = 1.0 + power_w * self.snr_per_w
        d_rate = self._rate_scale / (lin * math.log(2.0))
        floor = pipeline.COMPUTE_FLOOR_CPS
        clamped = np.maximum(compute_cps, floor)
        d_window = np.where(compute_cps > floor, self.comp_cycles / clamped ** 2, 0.0)
        return ((slope * window * d_rate, slope * rate * d_window),
                (rate, window, eff, pow4, gap, finite, slope, lin, d_rate, clamped, d_window))

    def first_order(self, power_w: np.ndarray, compute_cps: np.ndarray) -> tuple:
        """(total_cost, derivatives' gradient, chain-rule terms, rate_cost per
        robot) of a decision, bit for bit, from one _cycle."""
        grad, terms = self._chain_terms(power_w, compute_cps)
        _, _, eff, _, gap, finite, *_ = terms
        cost = control.gap_cost(gap, finite, self.sens_w, self.j_ideal)
        return self.total_cost(power_w, compute_cps, (cost, eff)), grad, terms, cost

    def hessian_blocks(self, terms: tuple) -> tuple:
        """derivatives' Hessian blocks from _chain_terms' terms, bit for bit."""
        rate, window, _, pow4, gap, finite, slope, lin, d_rate, clamped, d_window = terms
        curve = np.where(finite, -slope * math.log(4.0) * ((pow4 + self.a_sq) / gap), 0.0)
        dd_rate = -d_rate * self.snr_per_w / lin
        dd_window = -2.0 * d_window / clamped
        e_p, e_f = d_rate * window, rate * d_window  # d eff / dp, d eff / df
        return (curve * e_p * e_p + slope * dd_rate * window,
                curve * e_p * e_f + slope * d_rate * d_window,
                curve * e_f * e_f + slope * rate * dd_window)

    def derivatives(self, power_w: np.ndarray, compute_cps: np.ndarray) -> tuple:
        """Closed-form gradient and 2x2 Hessian blocks of cost_vector, per robot.

        Returns ((dJ/dp, dJ/df), (d2J/dp2, d2J/dp df, d2J/df2)), via _chain_terms.

        Gradient: dJ/deff is -w ln4 4^eff / (4^eff - a^2)^2 on a feasible loop
        and -1 on the penalty. It is 0 past the rate clamp and where the
        extraction cap binds, which is the one-sided slope at the cap kink:
        more of either resource buys nothing there. Below the compute floor
        the window does not depend on compute, so dJ/dcompute is 0.

        Hessian: the cost is separable by robot, so the full Hessian is
        block-diagonal. With eff = r(p) w(f) below the cap, the chain rule
        gives d2J/dp2 = J'' (r' w)^2 + J' r'' w, d2J/df2 = J'' (r w')^2 +
        J' r w'' and d2J/dp df = J'' (r' w)(r w') + J' r' w', where J' is
        dJ/deff, J'' = w ln4^2 4^eff (4^eff + a^2) / (4^eff - a^2)^3 on a
        feasible loop (0 on the penalty), that is -J' ln4 (4^eff + a^2) /
        (4^eff - a^2), r'' = -r' g / (1 + p g) and w'' = -2 w' / f. The block
        is 0 wherever the slope is (cap, rate clamp).

        At or below the data-rate threshold the unused feasible-branch terms
        may divide by a zero gap; callers that reach it silence the warning
        (_projected_gradient does).
        """
        grad, terms = self._chain_terms(power_w, compute_cps)
        return grad, self.hessian_blocks(terms)

    def outcomes(self, power_w: np.ndarray, compute_cps: np.ndarray) -> tuple:
        """Per-robot LoopOutcomes of a decision, on request, each scored on
        Python floats by pipeline.loop_outcome; a capped downlink stops at the cap."""
        rate, t_comp, window, eff = self._cycle(power_w, compute_cps)
        with np.errstate(divide="ignore"):
            t_down = np.where(eff >= self.cap_bits, self.cap_bits / rate,
                              np.maximum(window, 0.0))
        period = self.budget.cycle_period_s
        columns = (c.tolist() for c in np.broadcast_arrays(rate, t_comp, t_down, self.t_prop,
                                                            eff, window >= 0.0))
        return tuple(pipeline.loop_outcome(model, period, 0.0, r, 0.0, tc, td, tp, e, ok)
                     for model, r, tc, td, tp, e, ok in zip(self.models, *columns))


_last_evaluator = (None, None)  # (key, evaluator) of the last joint solve


def _sweep_evaluator(problem: MultiLoopProblem) -> JointEvaluator:
    """The problem's JointEvaluator from a one-entry memo keyed on (robots,
    budget, uplink volume). The robots tuple compares by identity (RobotLoop
    is eq=False) and dataclasses.replace keeps it, so the solves of one
    sweep build one evaluator."""
    global _last_evaluator
    key = (problem.robots, problem.budget, problem.uplink_fixed_bits)
    last_key, evaluator = _last_evaluator
    if last_key != key:
        evaluator = JointEvaluator(problem)
        _last_evaluator = (key, evaluator)
    return evaluator


def descends_one_start(problem: MultiLoopProblem) -> bool:
    """Whether the projected-gradient solves on the problem's robots descend
    only their start of lowest projected value: when every plant is unstable
    (_best_start). Otherwise every start descends, and each added start adds
    its own iterations."""
    return _sweep_evaluator(problem).all_unstable


def project_capped_simplex(x: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection of each row (last axis) onto {x >= 0, sum(x) <= total}.

    Sort-based simplex projection (Duchi et al., ICML 2008), applied only to
    rows whose clipped sum exceeds the cap; a batch with no such row is
    returned clipped without sorting. The sorted entries u are measured
    from the row's largest entry u_1, so neither the threshold test
    d_k - (D_k - total) / k > 0 (d_k = u_k - u_1, D_k = d_1 + ... + d_k) nor
    the output (x - u_1) - (D_rho - total) / rho subtracts two large sums: an
    entry that dwarfs the total still projects onto it.
    """
    shape = x.shape
    n = shape[-1]
    x = np.maximum(x, 0.0).reshape(-1, n)
    inside = x.sum(axis=-1, keepdims=True) <= total
    if inside.all():  # the clipped batch is its own projection
        return x.reshape(shape)
    u = np.sort(x, axis=-1)[:, ::-1]
    top = u[:, :1]
    excess = np.cumsum(u - top, axis=-1) - total  # D_k - total, never above -total
    valid = (u - top) - excess / np.arange(1, n + 1) > 0.0
    # rho: the count of leading sorted entries that pass (the first always does)
    rows = np.arange(x.shape[0])
    rho = np.logical_and.accumulate(valid, axis=-1).sum(axis=-1)
    shift = (excess[rows, rho - 1] / rho)[:, None]  # theta - u_1
    out = np.where(inside, x, np.maximum((x - top) - shift, 0.0))
    return out.reshape(shape)


def water_fill_power(evaluator: JointEvaluator, total_power_w: float) -> np.ndarray:
    """Throughput-maximizing power allocation (classic water-filling).

    Equalizes the marginal rate dR/dP = B*g / ((1 + P*g) ln2) across robots,
    giving P_i = B_i * level - 1/g_i clipped at zero. The level is the
    midpoint of the adjacent floats (lo, hi) at which the budget test
    allocated(level).sum() > P flips from false to true; the test is monotone
    in the level, so bisection from any bracket freezes at that pair. The
    bracket starts at the closed-form level min_k L_k, L_k = (P + sum_{j<=k}
    1/g_j) / sum_{j<=k} B_j over the robots sorted by 1/(g_i B_i) (L falls
    while robot k is active and rises after), and widens by 1, 2, 4, ... ulps
    within [0, (P + sum 1/g) / min B + 1] until the test flips inside it.
    """
    b = evaluator.bandwidth
    floor = 1.0 / evaluator.snr_per_w

    def allocated(level: float) -> np.ndarray:
        return np.maximum(0.0, level * b - floor)

    def over(level: float) -> bool:
        return allocated(level).sum() > total_power_w

    order = np.argsort(floor / b)
    top = (total_power_w + floor.sum()) / b.min() + 1.0
    level = float(((total_power_w + np.cumsum(floor[order])) / np.cumsum(b[order])).min())
    lo = hi = min(level, top)
    step = math.ulp(lo)
    while lo > 0.0 and over(lo):
        lo, step = max(lo - step, 0.0), 2.0 * step
    step = math.ulp(hi)
    while hi < top and not over(hi):
        hi, step = min(hi + step, top), 2.0 * step
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bracket = (lo, mid) if over(mid) else (mid, hi)
        if bracket == (lo, hi):
            break  # the same midpoint again: the bracket can no longer move
        lo, hi = bracket
    alloc = allocated(0.5 * (lo + hi))
    if alloc.sum() > 0.0:
        alloc *= total_power_w / alloc.sum()
    return alloc


@dataclass
class _PgdResult:
    """End points of a batched projected-gradient run, one row per start."""
    z: np.ndarray
    value: np.ndarray
    converged: np.ndarray
    iterations: int  # summed over rows
    stopped_on: tuple  # per row: SolverTrace.stopped_on
    max_iter_rows: int = 0  # rows stopped unconverged at PGD_MAX_ITER
    # row -> (score, i): row i of the scaled first_order's (gradient, terms,
    # costs) at the row's end point, a start or a kept Newton trial
    scores: dict = dataclasses.field(default_factory=dict)


def _rows_of(score: tuple, idx) -> tuple:
    """The rows idx of a score (gradient, chain-rule terms, costs)."""
    grad, terms, cost = score
    return grad[idx], tuple([t[idx] for t in terms]), cost[idx]


def _carried(scores: dict, rows: list):
    """The rows' score when one first_order call scored them all, else None."""
    held = [scores.get(row, (None, 0)) for row in rows]
    score, idx = held[0][0], [i for _, i in held]
    if score is None or any(h[0] is not score for h in held):
        return None
    return score if idx == list(range(len(score[2]))) else _rows_of(score, idx)


def _backtrack(objective, project, z: np.ndarray, fz: np.ndarray, grad: np.ndarray,
               step: np.ndarray):
    """Armijo backtracking along the projection arc for a batch of rows
    (Bertsekas, IEEE TAC 1976).

    Row i tries step[i] 0.5^k for k = 0 ... MAX_HALVINGS - 1 and takes the
    first trial whose projected move passes the sufficient-decrease test; it
    stops unaccepted at the first trial whose projected move is zero. The
    trials are taken in the blocks of _HALVING_BLOCKS: the rows that have not
    stopped project and score a block's trials in one call each, so a batch
    whose rows all take their first halving makes one objective call and a
    row that takes its fourth scores 8 trials, not MAX_HALVINGS. Each row
    takes the trial that halving one step at a time would. Returns
    (accepted, z, f, step) per row.
    """
    dim = z.shape[1]
    accepted = np.zeros(len(z), dtype=bool)
    z_out, f_out, s_out = z.copy(), fz.copy(), step.copy()
    searching = np.arange(len(z))  # the rows that have not stopped
    for scales in _HALVING_BLOCKS:
        trial = step[searching, None] * scales
        base = z[searching, None, :]
        cand = project((base - trial[..., None] * grad[searching, None, :]).reshape(-1, dim))
        cand = cand.reshape(len(searching), len(scales), dim)
        move = cand - base
        move_sq = (move * move).sum(axis=-1)
        fc = objective(cand.reshape(-1, dim)).reshape(move_sq.shape)
        stop = (fc <= fz[searching, None] - 1e-2 * move_sq / trial) | (move_sq == 0.0)
        ar, j = np.arange(len(searching)), stop.argmax(axis=1)
        took = stop[ar, j] & (move_sq[ar, j] != 0.0)
        rows = searching[took]
        accepted[rows] = True
        z_out[rows], f_out[rows], s_out[rows] = (cand[ar, j][took], fc[ar, j][took],
                                                 trial[ar, j][took])
        searching = searching[~stop[ar, j]]
        if not len(searching):
            break
    return accepted, z_out, f_out, s_out


def _newton_direction(grad: np.ndarray, blocks: tuple, z: np.ndarray, n: int,
                      optimize_power: bool):
    """Newton step on the face where both budgets are spent, per row: (d, ok).

    grad (R, 2n) and blocks (the scaled Hessian blocks (h_xx, h_xy, h_yy),
    each (R, n)) describe the objective at the rows z. The Hessian is
    block-diagonal, so the step d_i = -H_i^-1 (g_i + nu) of robot i needs only
    its own 2x2 block; the multipliers nu of the two sum constraints
    sum(z_x + d_x) = 1 and sum(z_y + d_y) = 1 solve the 2x2 Schur complement
    S = sum_i H_i^-1 (Boyd & Vandenberghe, Convex Optimization, 10.2 and
    10.3). With optimize_power False the power block is frozen (identity
    block, zero coupling, no power move), which leaves one scalar constraint.
    ok marks the rows whose blocks are all positive definite and whose step
    is finite; the other rows' d is meaningless.
    """
    h_xx, h_xy, h_yy = blocks
    g_x, g_y = grad[:, :n], grad[:, n:]
    b_x = 1.0 - z[:, :n].sum(axis=1)
    if not optimize_power:
        h_xx, h_xy = np.ones_like(h_yy), np.zeros_like(h_yy)
        g_x, b_x = np.zeros_like(g_x), np.zeros_like(b_x)
    b_y = 1.0 - z[:, n:].sum(axis=1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        det = h_xx * h_yy - h_xy * h_xy
        i_xx, i_xy, i_yy = h_yy / det, -h_xy / det, h_xx / det  # H_i^-1
        u_x, u_y = i_xx * g_x + i_xy * g_y, i_xy * g_x + i_yy * g_y  # H_i^-1 g_i
        s_xx, s_xy, s_yy = i_xx.sum(axis=1), i_xy.sum(axis=1), i_yy.sum(axis=1)
        c_x, c_y = b_x + u_x.sum(axis=1), b_y + u_y.sum(axis=1)
        s_det = s_xx * s_yy - s_xy * s_xy
        nu_x = ((s_xy * c_y - s_yy * c_x) / s_det)[:, None]
        nu_y = ((s_xy * c_x - s_xx * c_y) / s_det)[:, None]
        d = np.concatenate([-(u_x + i_xx * nu_x + i_xy * nu_y),
                            -(u_y + i_xy * nu_x + i_yy * nu_y)], axis=1)
    ok = ((h_xx > 0.0) & (det > 0.0)).all(axis=1) & (s_det > 0.0) & np.isfinite(d).all(axis=1)
    return d, ok


def _project_shares(z: np.ndarray, n: int, optimize_power: bool) -> np.ndarray:
    """Each row of budget-scaled shares (R, 2n) onto its feasible set: both
    blocks onto the capped simplex, or with optimize_power False the compute
    block only (the power shares stay as given)."""
    if optimize_power:
        return project_capped_simplex(z.reshape(-1, 2, n), 1.0).reshape(z.shape)
    return np.concatenate([z[:, :n], project_capped_simplex(z[:, n:], 1.0)], axis=1)


def _projected_gradient(objective, derivatives, z0: np.ndarray, f0: np.ndarray, n: int, *,
                        first_order, start: tuple, optimize_power: bool = True) -> _PgdResult:
    """Minimize objective(z) over the product of two capped simplexes, per row of z0.

    Each row of z0 (one start, shape (R, 2n) in all) holds feasible
    budget-scaled power and compute shares (_project_shares of a start), and
    f0 and start hold their values and their first_order score. All rows
    descend together. The vector work of an iteration is one numpy call each
    for all running rows: the `derivatives` call (the analytic gradient and
    Hessian blocks, built from the rows' carried scores when one call scored
    them all, _carried), the gradient norms and row sums, _newton_direction,
    the projection and `first_order` call of the Newton trials, and one
    _backtrack call, which scores with the value-only `objective` (a row it
    moves carries no score); the iterates stay in one (R, 2n) array.
    Each row's rules (its Barzilai-Borwein step, Newton acceptance and
    decrement stop, quiet count, step memory, and leaving the running list)
    run on Python floats taken with one tolist() per array. They divide only
    where a numpy quotient was used and call min/max in np.minimum/np.maximum
    argument order, so every float is the one numpy gives.
    The returned iteration count is summed over rows. With optimize_power
    False the power block of the gradient is zeroed and the power shares
    stay as given.
    A row first tries its projected face-Newton point (_newton_direction)
    and keeps it (and its score) when f(new) <= f + 1e-2 g.(new - z) with
    g.(new - z) < 0. Otherwise its trial
    step is seeded Barzilai-Borwein style (spectral step from the row's last
    (dz, dg) pair, which copes with the steep penalty wall) and backed off by
    halving (_backtrack) until a sufficient decrease over the projected move
    is reached. A row converges in the iteration
    whose Newton trial predicts a decrease 0 < -g.(new - z) <= PGD_REL_TOL |f|
    (the Newton decrement): at the Newton point if it passes its test, else
    after that iteration's backtracking, which keeps its move only if it
    passes the Armijo test. A row whose Newton trial predicts no decrease
    (g.(new - z) >= 0) converges in that iteration, without backtracking,
    when it is stationary: its projected-gradient residual z - P(z - g) is
    exactly 0, as at the vertex a one-robot row starts on; only those rows
    pay that projection. A row also converges after PGD_PATIENCE
    consecutive iterations with relative improvement below PGD_REL_TOL or a
    zero gradient; a row whose gradient is not finite, or that is still
    running after PGD_MAX_ITER iterations, stops unconverged (the latter
    counted in max_iter_rows). stopped_on names each row's reason
    (SolverTrace.stopped_on).
    """
    def project(z):
        return _project_shares(z, n, optimize_power)

    z = np.array(z0, dtype=float)
    fz = np.asarray(f0, dtype=float).tolist()
    rows = len(fz)
    stopped_on = ["max_iter"] * rows
    # Per row: the last accepted backtracking step (NaN until the first),
    # the quiet count and the Barzilai-Borwein pair (dz = 0 until a row has
    # moved, which selects the fallback step).
    step, quiet = [math.nan] * rows, [0] * rows
    z_prev, grad_prev = z.copy(), np.zeros_like(z)
    scores = {row: (start, row) for row in range(rows)}
    live = list(range(rows))

    def accept(row, value):
        """The row's new value; it restarts the quiet count unless it
        improves by less than PGD_REL_TOL relative."""
        rel = (fz[row] - value) / max(abs(fz[row]), 1e-300)
        if not rel < PGD_REL_TOL:
            quiet[row] = 0
        fz[row] = value

    iterations = 0
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(PGD_MAX_ITER):
            if not live:
                break
            iterations += len(live)
            zl = z[live]
            grad, blocks = derivatives(zl, _carried(scores, live))
            if not optimize_power:  # on a copy: a carried score is never written
                grad = grad.copy()
                grad[:, :n] = 0.0
            gnorm = np.sqrt((grad * grad).sum(axis=1))
            finite = plain = np.isfinite(gnorm)
            if not finite.all():  # a finite gradient's square overflows: use grad / max|grad|
                big = ~finite & np.isfinite(grad).all(axis=1)
                grad = np.where(big[:, None], grad / abs(grad).max(axis=1, keepdims=True), grad)
                gnorm = np.sqrt((grad * grad).sum(axis=1))
            gnorm, plain = gnorm.tolist(), plain.tolist()
            for row in live:
                quiet[row] += 1
            settled = []  # rows stopped on the Newton decrement
            # the rows that step: a finite, nonzero gradient
            m = [k for k, norm in enumerate(gnorm) if 0.0 < norm < math.inf]
            if m:
                moving = [live[k] for k in m]
                sel = slice(None) if len(m) == len(live) else m
                g, zm = grad[sel], zl[sel]
                # the face-Newton trial first (a rescaled row has no matching
                # Hessian); the rows that reject it backtrack from the BB step
                d, ok = _newton_direction(g, tuple(h[sel] for h in blocks), zm, n,
                                          optimize_power)
                ok = ok.tolist()
                trial = [j for j, k in enumerate(m) if ok[j] and plain[k]]
                # positions in m that do not backtrack: a kept Newton point
                # or a stationary row
                done = set()
                if trial:
                    t = slice(None) if len(trial) == len(m) else trial
                    cand = project(zm[t] + d[t])
                    slope = (g[t] * (cand - zm[t])).sum(axis=1).tolist()
                    fc, score = first_order(cand)
                    fc = fc.tolist()
                    flat = []  # positions in m whose Newton trial predicts no decrease
                    for i, j in enumerate(trial):
                        row, f = moving[j], fz[moving[j]]
                        if 0.0 < -slope[i] <= PGD_REL_TOL * abs(f):
                            settled.append(row)  # whether or not it keeps the point
                        if slope[i] < 0.0 and fc[i] <= f + 1e-2 * slope[i]:
                            done.add(j)
                            z[row] = cand[i]
                            scores[row] = (score, i)
                            accept(row, fc[i])  # a Newton row keeps its step
                        elif slope[i] >= 0.0:
                            flat.append(j)
                    if flat:  # stationary: z = P(z - g) exactly, so no projected move exists
                        residual = zm[flat] - project(zm[flat] - g[flat])
                        for j, still in zip(flat, (residual == 0.0).all(axis=1).tolist()):
                            if still:
                                settled.append(moving[j])
                                done.add(j)
                back = [j for j in range(len(m)) if j not in done]
                if back:
                    b = slice(None) if len(back) == len(m) else back
                    rows_b = [moving[j] for j in back]
                    dz, dg = zm[b] - z_prev[rows_b], g[b] - grad_prev[rows_b]
                    s = []
                    for j, row, c, sq in zip(back, rows_b, (dz * dg).sum(axis=1).tolist(),
                                             (dz * dz).sum(axis=1).tolist()):
                        if c > 1e-300:
                            trial_step = sq / c
                        elif math.isnan(step[row]):
                            trial_step = 0.25 / gnorm[m[j]]
                        else:
                            trial_step = step[row]
                        s.append(min(max(trial_step, 1e-16), 1e8))
                    took, z_new, f_new, s_new = _backtrack(
                        objective, project, zm[b], np.array([fz[row] for row in rows_b]),
                        g[b], np.array(s))
                    took, f_new, s_new = took.tolist(), f_new.tolist(), s_new.tolist()
                    for i, row in enumerate(rows_b):
                        if took[i]:  # an unaccepted row keeps its iterate and step
                            z[row] = z_new[i]
                            scores.pop(row, None)
                            accept(row, f_new[i])
                            step[row] = s_new[i]
                z_prev[moving], grad_prev[moving] = zm, g
            # a row stops converged on the Newton decrement or after
            # PGD_PATIENCE quiet iterations, unconverged when its gradient is
            # not finite
            running = []
            for norm, row in zip(gnorm, live):
                if not math.isfinite(norm):
                    stopped_on[row] = "nonfinite_gradient"
                elif row in settled:
                    stopped_on[row] = "decrement"
                elif quiet[row] >= PGD_PATIENCE:
                    stopped_on[row] = "patience"
                else:
                    running.append(row)
            live = running
    converged = [reason in ("decrement", "patience") for reason in stopped_on]
    return _PgdResult(z, np.array(fz), np.array(converged), iterations, tuple(stopped_on),
                      len(live), scores)


def _scaled_objective(evaluator: JointEvaluator, p_tot: float, f_tot: float):
    """(objective, derivatives, first_order) over budget-scaled shares
    z = (power, compute) / totals.

    first_order returns the value and score (gradient (R, 2n), chain-rule
    terms, costs); derivatives(batch, score) the gradient and per-robot
    Hessian blocks (h_xx, h_xy, h_yy), from the score when given.
    """
    n = evaluator.n

    def objective(batch: np.ndarray) -> np.ndarray:
        return evaluator.total_cost(batch[..., :n] * p_tot, batch[..., n:] * f_tot)

    def scaled(grad: tuple) -> np.ndarray:
        d_power, d_compute = grad
        return np.concatenate([d_power * p_tot, d_compute * f_tot], axis=-1)

    def derivatives(batch: np.ndarray, score: tuple | None = None) -> tuple:
        if score is None:
            grad, blocks = evaluator.derivatives(batch[..., :n] * p_tot, batch[..., n:] * f_tot)
            grad = scaled(grad)
        else:
            grad, blocks = score[0], evaluator.hessian_blocks(score[1])
        h_pp, h_pf, h_ff = blocks
        return grad, (h_pp * (p_tot * p_tot), h_pf * (p_tot * f_tot), h_ff * (f_tot * f_tot))

    def first_order(batch: np.ndarray) -> tuple:
        value, grad, terms, cost = evaluator.first_order(batch[..., :n] * p_tot,
                                                         batch[..., n:] * f_tot)
        return value, (scaled(grad), terms, cost)
    return objective, derivatives, first_order


def _task_starts(evaluator: JointEvaluator, p_tot: float, f_tot: float,
                 extra_starts) -> list:
    """The task-oriented starts: the equal split, water-filled power with
    equal compute, and the callers' extra decisions, as budget-scaled shares."""
    n = evaluator.n
    equal = np.full(2 * n, 1.0 / n)
    wf = np.concatenate([evaluator.water_fill(p_tot) / p_tot, np.full(n, 1.0 / n)])
    starts = [equal, wf]
    for dec in extra_starts:
        starts.append(np.concatenate([np.asarray(dec["power_w"]) / p_tot,
                                      np.asarray(dec["compute_cps"]) / f_tot]))
    return starts


def _compute_only_starts(evaluator: JointEvaluator, p_tot: float, f_tot: float,
                         extra_starts) -> list:
    """The compute-only starts, as budget-scaled shares: equal power, with the
    equal compute split and then the callers' extra decisions' compute."""
    n = evaluator.n
    power = np.full(n, p_tot / n) / p_tot
    computes = [np.full(n, 1.0 / n)]
    computes += [np.asarray(dec["compute_cps"]) / f_tot for dec in extra_starts]
    return [np.concatenate([power, compute]) for compute in computes]


def _best_start(evaluator: JointEvaluator, problem: MultiLoopProblem, starts: list, *,
                optimize_power: bool, method: str):
    """PGD from the starts under the problem's totals: the winning row, the
    trace with its projected-gradient norm as the certificate, and its
    (value, costs, window) for _multi_result.

    Every start is projected and scored once, in one first_order call whose
    score the descent carries. When every robot's plant is unstable
    (|a| >= 1) the cost is convex where it is feasible (module docstring), so
    only the start of lowest projected value descends: every accepted step
    lowers the value, so the result is never above any start's, and a
    feasible start, if there is one, wins over every penalised one. With any
    stable plant every start descends as one batch and the lowest end point
    wins. The winner's certificate and costs take its carried score, or one
    first_order call after backtracking.
    """
    n = evaluator.n
    objective, derivatives, first_order = _scaled_objective(
        evaluator, problem.total_power_w, problem.total_compute_cps)
    z0 = _project_shares(np.array(starts, dtype=float), n, optimize_power)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f0, score = first_order(z0)
        first = 0
        if evaluator.all_unstable:
            first = int(np.argmin(f0))
            z0, f0 = z0[first:first + 1], f0[first:first + 1]
            score = _rows_of(score, slice(first, first + 1))
        res = _projected_gradient(objective, derivatives, z0, f0, n, first_order=first_order,
                                  start=score, optimize_power=optimize_power)
        row = int(np.argmin(res.value))
        z = res.z[row:row + 1]
        (grad, terms, cost), i = res.scores.get(row) or (first_order(z)[1], 0)
        grad, cost, window = grad[i:i + 1], cost[i:i + 1], terms[1][i:i + 1]
        if not optimize_power:
            grad = grad.copy()
            grad[:, :n] = 0.0
        residual = z - _project_shares(z - grad, n, optimize_power)
        certificate = float(np.sqrt((residual * residual).sum()))
    trace = SolverTrace(iterations=res.iterations, converged=bool(res.converged[row]),
                        restarts=len(starts), best_restart=first + row, method=method,
                        max_iter_rows=res.max_iter_rows, projected_gradient_norm=certificate,
                        stopped_on=res.stopped_on[row])
    return z[0], trace, (res.value[row], cost, window)


def solve_multi_loop(problem: MultiLoopProblem, *, extra_starts=()) -> AllocationResult:
    """Allocate downlink power and compute frequency under the chosen scheme.

    Task-oriented: projected gradient over both budgets from the equal split,
    water-filled power and the callers' extra starts. One deterministic start
    would do for unstable plants: each loop's cost is jointly convex in its
    power and compute wherever it is feasible (see the module docstring), so
    the extra starts only make sure the result is never above a decision the
    caller already has, or start it nearer the optimum (report passes the
    two baselines' decisions and, along its power sweep with every plant
    unstable, the previous point's decision with its power scaled to the
    new total and, from the third point on, the secant prediction of the
    previous two points' budget shares; see predicted_start).
    Max-throughput: water-filled power, compute proportional to uplink load;
    it ignores extra_starts.
    Compute-only: equal power frozen, projected gradient over compute from
    the equal split and the compute shares of the callers' extra starts
    (report passes the previous power point's compute-only decision and,
    with every plant unstable, the secant prediction as above).
    The two projected-gradient schemes share one branch and pick their starts
    in _best_start: with every plant unstable only the lowest-valued start
    descends, otherwise every start descends as one batch and the lowest end
    point wins. Both use the analytic derivatives and Armijo backtracking
    (_projected_gradient) and return the shares _best_start scored times the
    totals; the trace reports the winning start, whether it converged, and
    its projected-gradient norm (projected_gradient_norm) as the certificate,
    at the gradient its end point's score carries.
    Every scheme is re-scored under the penalized LQR total (lqr_total), with
    no per-loop outcomes (JointEvaluator.outcomes builds them on request).
    The solves of one sweep share one JointEvaluator (_sweep_evaluator),
    and those at one power total share its water-fill (JointEvaluator.water_fill).
    """
    evaluator = _sweep_evaluator(problem)
    n = evaluator.n
    p_tot, f_tot = problem.total_power_w, problem.total_compute_cps

    if problem.scheme == MultiLoopScheme.MAX_THROUGHPUT_JOINT:
        power = evaluator.water_fill(p_tot)
        compute = np.full(n, f_tot / n)  # uplink loads are identical per robot
        throughput = float(evaluator.rates_bps(power).sum())
        trace = SolverTrace(iterations=1, converged=True, method="water_filling")
        return _multi_result(evaluator, problem, power, compute, throughput, trace)

    optimize_power = problem.scheme == MultiLoopScheme.TASK_ORIENTED_JOINT
    if optimize_power:
        build, method = _task_starts, "projected_gradient"
    else:
        build, method = _compute_only_starts, "projected_gradient_compute_only"
    z, trace, scored = _best_start(evaluator, problem,
                                   build(evaluator, p_tot, f_tot, extra_starts),
                                   optimize_power=optimize_power, method=method)
    # the objective is the penalized LQR total of the same products z * totals
    return _multi_result(evaluator, problem, z[:n] * p_tot, z[n:] * f_tot, scored[0], trace,
                         scored=scored)


def _multi_result(evaluator: JointEvaluator, problem: MultiLoopProblem, power: np.ndarray,
                  compute: np.ndarray, objective_value: float, trace: SolverTrace, *,
                  scored: tuple | None = None) -> AllocationResult:
    """The decision checked against the problem's budgets, with no
    LoopOutcome built. scored is its (penalized LQR total, rate_cost per
    robot, window) when the caller already has them, else one _cycle scores
    them; all_infeasible marks every loop reporting lqr_cost math.inf under
    pipeline.reported_costs."""
    if not (power.min() >= 0.0 and compute.min() >= 0.0):
        raise RuntimeError("allocation has a negative power or compute share")
    if not power.sum() <= problem.total_power_w * (1.0 + 1e-9):
        raise RuntimeError(f"allocated power {power.sum()!r} W exceeds the budget "
                           f"{problem.total_power_w!r} W")
    if not compute.sum() <= problem.total_compute_cps * (1.0 + 1e-9):
        raise RuntimeError(f"allocated compute {compute.sum()!r} cps exceeds the budget "
                           f"{problem.total_compute_cps!r} cps")
    if scored is None:
        _, _, window, eff = evaluator._cycle(power, compute)
        cost = control.rate_cost(eff, evaluator.a_sq, evaluator.sens_w, evaluator.j_ideal)
        scored = evaluator.total_cost(power, compute, (cost, eff)), cost, window
    lqr_total, cost, window = scored
    # reported_costs' rule: where the window fits, eff = min(cap, rate window) is >= 0 or NaN
    if np.all(~(window >= 0.0) | (cost == math.inf)):
        trace = dataclasses.replace(trace, all_infeasible=True)
    return AllocationResult(
        decision={"power_w": power.copy(), "compute_cps": compute.copy()},
        objective_value=float(objective_value),
        lqr_total=float(lqr_total),
        solver_trace=trace,
    )


def predicted_start(terms, power_total: float, compute_total: float) -> dict | None:
    """A start for a sweep solve predicted from solved points, or None.

    terms holds (weight, decision, power total, compute total) per solved
    point, and a point's budget shares are its power and compute over its
    totals. The weighted sum of the shares, taken in order and clipped at 0,
    times the new totals is the decision returned; _best_start projects it
    like any start. The weights are the callers' predictors (Allgower &
    Georg, Introduction to Numerical Continuation Methods, 2003, ch. 2):
    the secant (1 + t) z_k - t z_{k-1} along a power sweep, linear
    interpolation (1 - s) z_a + s z_b, one point's shares (weight 1), and
    the corner z(i-1, j) + z(i, j-1) - z(i-1, j-1) of a grid. None where a
    weight or a predicted value is not finite (after a subnormal total, say).
    """
    z = 0.0
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for weight, decision, p_tot, f_tot in terms:
            if not math.isfinite(weight):
                return None
            z = z + weight * np.concatenate([decision["power_w"] / p_tot,
                                             decision["compute_cps"] / f_tot])
        z = np.maximum(z, 0.0)
        n = len(z) // 2
        power, compute = z[:n] * power_total, z[n:] * compute_total
    if not (np.isfinite(power).all() and np.isfinite(compute).all()):
        return None
    return {"power_w": power, "compute_cps": compute}


def sweep_contour(problem: MultiLoopProblem, power_grid, compute_grid, *,
                  trace_out: list | None = None) -> np.ndarray:
    """Optimal task-oriented LQR total over a (power, compute) budget grid.

    Entry (i, j) solves the joint problem at power_grid[i], compute_grid[j]
    from the solver's deterministic starts plus warm starts: cells are
    visited in ascending budget order and start from their lower-power and
    lower-compute neighbours' decisions, which also guarantees the matrix is
    non-increasing along both axes (a neighbour's decision stays feasible
    under the larger budget). When every plant is unstable, so that only the
    lowest-valued start descends (descends_one_start), an interior cell
    (i, j >= 1) also starts from the corner prediction of its three solved
    neighbours' budget shares, z(i-1, j) + z(i, j-1) - z(i-1, j-1)
    (predicted_start). Per-cell solver traces are appended to trace_out
    when given.
    """
    power_grid = np.asarray(power_grid, dtype=float)
    compute_grid = np.asarray(compute_grid, dtype=float)
    for name, grid in (("power_grid", power_grid), ("compute_grid", compute_grid)):
        if grid.size == 0:
            raise ValueError(f"{name} must be non-empty")
        if np.any(grid <= 0.0):
            raise ValueError(f"{name} must be positive")
        if np.any(np.diff(grid) <= 0.0):
            raise ValueError(f"{name} must be strictly ascending")

    matrix = np.empty((power_grid.size, compute_grid.size))
    predict = descends_one_start(problem)
    solved = {}  # (i, j) -> (decision, power total, compute total)
    for i, p_tot in enumerate(power_grid.tolist()):
        for j, f_tot in enumerate(compute_grid.tolist()):
            cell = dataclasses.replace(problem, total_power_w=p_tot, total_compute_cps=f_tot,
                                       scheme=MultiLoopScheme.TASK_ORIENTED_JOINT)
            extra = []
            if i > 0:
                extra.append(solved[(i - 1, j)][0])
            if j > 0:
                extra.append(solved[(i, j - 1)][0])
            if predict and i > 0 and j > 0:
                corner = predicted_start([(1.0, *solved[(i - 1, j)]), (1.0, *solved[(i, j - 1)]),
                                          (-1.0, *solved[(i - 1, j - 1)])], p_tot, f_tot)
                if corner is not None:
                    extra.append(corner)
            result = solve_multi_loop(cell, extra_starts=extra)
            matrix[i, j] = result.lqr_total
            solved[(i, j)] = (result.decision, p_tot, f_tot)
            if trace_out is not None:
                trace_out.append(result.solver_trace)
    return matrix


"""Resource-allocation solvers.

Single loop: split total bandwidth between uplink and downlink under a
task-oriented, max-throughput, or min-latency objective (array-valued in the
uplink bandwidth), each convex in the uplink bandwidth, by golden-section
search. The task-oriented split maximises the balanced cycle's effective bits.

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
Newton point when it passes a sufficient-decrease test, and stops there once
the step's predicted decrease is below PGD_REL_TOL of its value (the Newton
decrement, B&V 9.5.1 and 10.2); a row whose blocks are not positive definite
(a capped, penalised or starved loop), or whose Newton point fails the test,
takes the Barzilai-Borwein step with Armijo backtracking instead. The trace
certifies the returned point with its projected-gradient norm
(SolverTrace.projected_gradient_norm). Both solvers score a cycle with
pipeline.store_and_forward and control.rate_cost, and share one penalty.
"""
import dataclasses
import enum
import math
from dataclasses import dataclass

import numpy as np

from . import control, linkgeom, pipeline
from .control import Plant, RateCostModel
from .linkgeom import BOLTZMANN_J_PER_K, LinkParams
from .pipeline import LoopBudget

INFEASIBILITY_PENALTY = 1e9
GOLDEN_REL_WIDTH = 1e-8
# Projected gradient: a row converges when an accepted Newton step predicts a
# decrease below PGD_REL_TOL of its value, or after PGD_PATIENCE consecutive
# iterations that improve its value by less than PGD_REL_TOL relative, and
# stops unconverged after PGD_MAX_ITER iterations.
PGD_REL_TOL = 1e-10
PGD_PATIENCE = 5
PGD_MAX_ITER = 500
# Projected-gradient backtracking: MAX_HALVINGS trial steps, all evaluated in
# one objective call.
MAX_HALVINGS = 80
_HALVINGS = 0.5 ** np.arange(MAX_HALVINGS)  # the trial-step scales 1, 1/2, 1/4, ...


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
    # The certificate of a projected-gradient solve: ||z - P(z - grad f(z))||
    # in budget-scaled shares at the returned point, 0 exactly at a KKT point
    # (NaN for the solves that run no projected gradient)
    projected_gradient_norm: float = math.nan
    # Not a field: there is no grid fallback, but the benchmark tracer reads it.
    fallback_dense_grid = False


@dataclass(frozen=True, eq=False)
class AllocationResult:
    """Solver output: decision, per-loop outcomes, objective, and trace.

    lqr_total re-scores the decision under the penalized sum of LQR costs so
    schemes with different native objectives can be compared on one axis.
    """
    decision: dict
    per_loop_outcomes: tuple
    objective_value: float
    lqr_total: float
    solver_trace: SolverTrace


# ---------------------------------------------------------------------------
# single loop
# ---------------------------------------------------------------------------

def _penalized(cost, threshold_bits, effective_bits):
    """Cost where finite, else both solvers' penalty 1e9 + (threshold - eff)."""
    return np.where(np.isfinite(cost), cost,
                    INFEASIBILITY_PENALTY + (threshold_bits - effective_bits))


def _rate_fn(template: LinkParams):
    """Shannon rate of the template's link as an array function of its bandwidth."""
    rx_power = linkgeom.received_power_w(template)
    noise_density = BOLTZMANN_J_PER_K * template.noise_temperature_k
    return lambda bandwidth: bandwidth * np.log2(1.0 + rx_power / (noise_density * bandwidth))


def _single_objective_fn(problem: SingleLoopProblem):
    """Minimization objective for the problem's scheme, array-valued in b_up.

    Task-oriented and min-latency minimise w_up / R_up + w_down / R_down:
    min-latency sends its payload both ways, and the task-oriented weights
    (1, rho) maximise the balanced cycle's effective bits
    rho (T - t_prop) / (1/R_up + c/f + rho/R_down).
    """
    rate_up = _rate_fn(problem.uplink_template)
    rate_down = _rate_fn(problem.downlink_template)
    b_tot = problem.total_bandwidth_hz
    if problem.objective == SingleLoopObjective.MAX_THROUGHPUT:
        return lambda b_up: -(rate_up(b_up) + rate_down(b_tot - b_up))
    if problem.objective == SingleLoopObjective.TASK_ORIENTED:
        w_up, w_down = 1.0, problem.budget.extraction_ratio
    else:
        w_up = w_down = problem.fixed_payload_bits

    def fn(b_up):
        return w_up / rate_up(b_up) + w_down / rate_down(b_tot - b_up)
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
    with np.errstate(over="ignore"):  # a weight/rate past the float range is +inf
        b_star, f_star, evals = golden_section(_single_objective_fn(problem), delta,
                                               b_tot - delta)
    if not delta * 0.5 <= b_star <= b_tot - delta * 0.5:
        raise RuntimeError(f"bandwidth split {b_star!r} Hz left the search bracket")
    return _single_result(problem, b_star, f_star, SolverTrace(
        iterations=evals, converged=True, method="golden_section"))


def _single_result(problem: SingleLoopProblem, b_up: float, objective_value: float,
                   trace: SolverTrace) -> AllocationResult:
    """The split b_up re-scored once through the full cycle model.

    The balanced split always fits the cycle, so lqr_total (also the
    task-oriented objective value) is the outcome's cost, penalized where
    it is infinite.
    """
    model = RateCostModel.from_plant(problem.plant)
    uplink = problem.uplink_template.with_bandwidth(b_up)
    downlink = problem.downlink_template.with_bandwidth(problem.total_bandwidth_hz - b_up)
    t_prop = pipeline.propagation_delay_s(linkgeom.slant_range_m(uplink.geometry),
                                          linkgeom.slant_range_m(downlink.geometry))
    t_up, t_down = pipeline.balanced_times(uplink, downlink, problem.budget, t_prop)
    outcome = pipeline.evaluate_cycle(uplink, downlink, problem.budget, model, t_up, t_down)
    if outcome.lqr_cost == math.inf:
        trace = dataclasses.replace(trace, all_infeasible=True)
    lqr_total = float(_penalized(outcome.lqr_cost, model.threshold_bits,
                                 outcome.effective_bits_per_cycle))
    if problem.objective == SingleLoopObjective.TASK_ORIENTED:
        objective_value = lqr_total
    return AllocationResult(
        decision={"bandwidth_up_hz": b_up, "bandwidth_down_hz": downlink.bandwidth_hz},
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
    the cycle) to keep penalty gradients informative.
    """

    def __init__(self, problem: MultiLoopProblem):
        robots = problem.robots
        self.n = len(robots)
        self.problem = problem
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
        self.threshold_bits = np.array([m.threshold_bits for m in self.models])
        # per-robot factors of the gradient: -w ln4 and B*g. A weight w within
        # a factor ln4 of the float range gives -inf: the gradient is then not
        # finite, and the rows stop unconverged
        with np.errstate(over="ignore"):
            self._slope_scale = -self.sens_w * math.log(4.0)
        self._rate_scale = self.bandwidth * self.snr_per_w

    def rates_bps(self, power_w: np.ndarray) -> np.ndarray:
        return self.bandwidth * np.log2(1.0 + power_w * self.snr_per_w)

    def _cycle(self, power_w: np.ndarray, compute_cps: np.ndarray) -> tuple:
        """(rate, t_comp, window, eff) per robot: a fixed volume and no uplink stage."""
        rate = self.rates_bps(power_w)
        return (rate,) + pipeline.store_and_forward(
            self.problem.uplink_fixed_bits, 0.0, rate, self.t_prop, compute_cps,
            self.problem.budget)

    def cost_vector(self, power_w: np.ndarray, compute_cps: np.ndarray) -> np.ndarray:
        eff = self._cycle(power_w, compute_cps)[3]
        cost = control.rate_cost(eff, self.a_sq, self.sens_w, self.j_ideal)
        return _penalized(cost, self.threshold_bits, eff)

    def total_cost(self, power_w: np.ndarray, compute_cps: np.ndarray) -> np.ndarray:
        return self.cost_vector(power_w, compute_cps).sum(axis=-1)

    def derivatives(self, power_w: np.ndarray, compute_cps: np.ndarray) -> tuple:
        """Closed-form gradient and 2x2 Hessian blocks of cost_vector, per robot.

        Returns ((dJ/dp, dJ/df), (d2J/dp2, d2J/dp df, d2J/df2)); the
        chain-rule factors both need are computed once.

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
        rate, _, window, eff = self._cycle(power_w, compute_cps)
        pow4, gap, finite = control.rate_gap(eff, self.a_sq)
        slope = np.where(finite, self._slope_scale * (pow4 / gap) / gap, -1.0)
        slope = np.where((eff >= self.cap_bits) | (eff > control.RATE_CLAMP_BITS), 0.0, slope)
        d_rate = self._rate_scale / ((1.0 + power_w * self.snr_per_w) * math.log(2.0))
        floor = pipeline.COMPUTE_FLOOR_CPS
        d_window = np.where(compute_cps > floor,
                            self.comp_cycles / np.maximum(compute_cps, floor) ** 2, 0.0)
        curve = np.where(finite, -slope * math.log(4.0) * ((pow4 + self.a_sq) / gap), 0.0)
        dd_rate = -d_rate * self.snr_per_w / (1.0 + power_w * self.snr_per_w)
        dd_window = -2.0 * d_window / np.maximum(compute_cps, floor)
        e_p, e_f = d_rate * window, rate * d_window  # d eff / dp, d eff / df
        return ((slope * window * d_rate, slope * rate * d_window),
                (curve * e_p * e_p + slope * dd_rate * window,
                 curve * e_p * e_f + slope * d_rate * d_window,
                 curve * e_f * e_f + slope * rate * dd_window))

    def outcomes(self, power_w: np.ndarray, compute_cps: np.ndarray) -> tuple:
        """Physical per-robot LoopOutcome tuple; a capped downlink stops at the cap."""
        rate, t_comp, window, eff = self._cycle(power_w, compute_cps)
        with np.errstate(divide="ignore"):
            t_down = np.where(eff >= self.cap_bits, self.cap_bits / rate,
                              np.maximum(window, 0.0))
        return pipeline.loop_outcomes(self.models, self.problem.budget.cycle_period_s,
                                      0.0, rate, 0.0, t_comp, t_down, self.t_prop,
                                      eff, window >= 0.0)


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
    max_iter_rows: int = 0  # rows stopped unconverged at PGD_MAX_ITER


def _backtrack(objective, project, z: np.ndarray, fz: np.ndarray, grad: np.ndarray,
               step: np.ndarray):
    """Armijo backtracking along the projection arc for a batch of rows
    (Bertsekas, IEEE TAC 1976).

    Row i tries step[i] 0.5^k for k = 0 ... MAX_HALVINGS - 1 and takes the
    first trial whose projected move passes the sufficient-decrease test; it
    stops unaccepted at the first trial whose projected move is zero. Every
    trial of every row is projected in one call and scored in one objective
    call, so each row takes the trial that halving one step at a time would.
    Returns (accepted, z, f, step) per row.
    """
    rows, dim = z.shape
    trial = step[:, None] * _HALVINGS
    base = z[:, None, :]
    cand = project((base - trial[..., None] * grad[:, None, :]).reshape(-1, dim))
    cand = cand.reshape(rows, MAX_HALVINGS, dim)
    move = cand - base
    move_sq = (move * move).sum(axis=-1)
    fc = objective(cand.reshape(-1, dim)).reshape(move_sq.shape)
    stop = (fc <= fz[:, None] - 1e-2 * move_sq / trial) | (move_sq == 0.0)
    ar, j = np.arange(rows), stop.argmax(axis=1)
    accepted = stop[ar, j] & (move_sq[ar, j] != 0.0)
    return (accepted, np.where(accepted[:, None], cand[ar, j], z),
            np.where(accepted, fc[ar, j], fz), np.where(accepted, trial[ar, j], step))


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


def _projected_gradient(objective, derivatives, z0: np.ndarray, n: int, *,
                        optimize_power: bool = True) -> _PgdResult:
    """Minimize objective(z) over the product of two capped simplexes, per row of z0.

    Each row of z0 (one start, shape (R, 2n) in all) holds budget-scaled power
    and compute shares (each block sums to <= 1). All rows descend together:
    an iteration makes one `derivatives` call (the analytic gradient and
    Hessian blocks, see JointEvaluator.derivatives), one `objective` call for
    the Newton trials and one for every backtracking trial of the whole batch,
    while every row keeps its own step, Barzilai-Borwein pair and quiet
    count; a row that stops leaves the batch. The returned iteration count is
    summed over rows. With optimize_power False the power block of the
    gradient is zeroed and the power shares stay as given.
    A row first tries its projected face-Newton point (_newton_direction)
    and keeps it when f(new) <= f + 1e-2 g.(new - z) with g.(new - z) < 0.
    Otherwise its trial step is seeded Barzilai-Borwein style (spectral step
    from the row's last (dz, dg) pair, which copes with the steep penalty
    wall) and backed off by halving (_backtrack) until a sufficient decrease
    over the projected move is reached. A row converges at a kept Newton
    point whose predicted decrease -g.(new - z) is at most PGD_REL_TOL |f|
    (the Newton decrement), or after PGD_PATIENCE consecutive iterations
    with relative improvement below PGD_REL_TOL or a zero gradient; a row
    whose gradient is not finite, or that is still running after
    PGD_MAX_ITER iterations, stops unconverged (the latter counted in
    max_iter_rows).
    """
    def project(z):
        return _project_shares(z, n, optimize_power)

    z = project(np.array(z0, dtype=float))
    fz = objective(z)
    converged = np.zeros(z.shape[0], dtype=bool)
    iterations = 0
    # The running rows, compacted: their indices into z, iterate, value, last
    # accepted step (NaN until the first), Barzilai-Borwein pair (dz = 0 until
    # a row has moved, which selects the fallback step) and quiet count.
    live = np.arange(z.shape[0])
    zl, fl = z.copy(), fz.copy()
    step = np.full(live.size, np.nan)
    z_prev, grad_prev = z.copy(), np.zeros_like(z)
    quiet = np.zeros(live.size, dtype=int)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for _ in range(PGD_MAX_ITER):
            if live.size == 0:
                break
            iterations += live.size
            grad, blocks = derivatives(zl)
            if not optimize_power:
                grad[:, :n] = 0.0
            gnorm = np.sqrt((grad * grad).sum(axis=1))
            finite = plain = np.isfinite(gnorm)
            if not finite.all():  # a finite gradient's square overflows: use grad / max|grad|
                big = ~finite & np.isfinite(grad).all(axis=1)
                grad[big] /= np.abs(grad[big]).max(axis=1, keepdims=True)
                gnorm = np.sqrt((grad * grad).sum(axis=1))
                finite = np.isfinite(gnorm)
            moving = finite & (gnorm > 0.0)
            quiet += 1
            settled = np.zeros(live.size, dtype=bool)  # stopped on the Newton decrement
            m = slice(None) if moving.all() else np.flatnonzero(moving)
            g, zm, fm, sm = grad[m], zl[m], fl[m], step[m]
            if g.size:
                dz = zm - z_prev[m]
                dg = g - grad_prev[m]
                curvature = (dz * dg).sum(axis=1)
                spectral = (dz * dz).sum(axis=1) / curvature
                fallback = np.where(np.isnan(sm), 0.25 / gnorm[m], sm)
                s = np.where(curvature > 1e-300, spectral, fallback)
                s = np.minimum(np.maximum(s, 1e-16), 1e8)
                z_prev[m], grad_prev[m] = zm, g
                # the face-Newton trial first (a rescaled row has no matching
                # Hessian); the rows that reject it backtrack from the BB step
                d, ok = _newton_direction(g, tuple(h[m] for h in blocks), zm, n,
                                          optimize_power)
                accepted = np.zeros(len(zm), dtype=bool)
                newton_done = np.zeros(len(zm), dtype=bool)
                z_new, f_new, s_new = zm.copy(), fm.copy(), sm.copy()
                trial = np.flatnonzero(ok & plain[m])
                if trial.size:
                    cand = project(zm[trial] + d[trial])
                    slope = (g[trial] * (cand - zm[trial])).sum(axis=1)
                    fc = objective(cand)
                    passed = (slope < 0.0) & (fc <= fm[trial] + 1e-2 * slope)
                    take = trial[passed]
                    accepted[take] = True
                    z_new[take], f_new[take] = cand[passed], fc[passed]
                    newton_done[take] = -slope[passed] <= PGD_REL_TOL * np.abs(fm[take])
                back = np.flatnonzero(~accepted)
                if back.size:
                    (accepted[back], z_new[back], f_new[back],
                     s_new[back]) = _backtrack(objective, project, zm[back], fm[back], g[back],
                                               s[back])
                rel = (fm - f_new) / np.maximum(np.abs(fm), 1e-300)
                quiet[m] = np.where(accepted & ~(rel < PGD_REL_TOL), 0, quiet[m])
                step[m] = np.where(accepted, s_new, sm)  # a Newton row keeps its step
                zl[m], fl[m] = z_new, f_new  # an unaccepted row keeps its iterate
                settled[m] = newton_done
            # a row stops converged on the Newton decrement or after
            # PGD_PATIENCE quiet iterations, unconverged when its gradient is
            # not finite
            leave = ~finite | settled | (quiet >= PGD_PATIENCE)
            if leave.any():
                gone = live[leave]
                z[gone], fz[gone] = zl[leave], fl[leave]
                converged[live[leave & finite]] = True
                keep = ~leave
                live, zl, fl, step, z_prev, grad_prev, quiet = (
                    a[keep] for a in (live, zl, fl, step, z_prev, grad_prev, quiet))
    z[live], fz[live] = zl, fl
    return _PgdResult(z, fz, converged, iterations, live.size)


def _scaled_objective(evaluator: JointEvaluator, p_tot: float, f_tot: float):
    """(objective, derivatives) over budget-scaled shares z = (power, compute) / totals.

    derivatives returns the gradient (R, 2n) and the per-robot Hessian blocks
    (h_xx, h_xy, h_yy) in the scaled shares.
    """
    n = evaluator.n

    def objective(batch: np.ndarray) -> np.ndarray:
        return evaluator.total_cost(batch[..., :n] * p_tot, batch[..., n:] * f_tot)

    def derivatives(batch: np.ndarray) -> tuple:
        (d_power, d_compute), (h_pp, h_pf, h_ff) = evaluator.derivatives(
            batch[..., :n] * p_tot, batch[..., n:] * f_tot)
        return (np.concatenate([d_power * p_tot, d_compute * f_tot], axis=-1),
                (h_pp * (p_tot * p_tot), h_pf * (p_tot * f_tot), h_ff * (f_tot * f_tot)))
    return objective, derivatives


def _task_starts(evaluator: JointEvaluator, p_tot: float, f_tot: float,
                 extra_starts) -> list:
    """The task-oriented starts: the equal split, water-filled power with
    equal compute, and the callers' extra decisions, as budget-scaled shares."""
    n = evaluator.n
    equal = np.full(2 * n, 1.0 / n)
    wf = np.concatenate([water_fill_power(evaluator, p_tot) / p_tot, np.full(n, 1.0 / n)])
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


def _best_start(evaluator: JointEvaluator, starts: list, *, optimize_power: bool,
                method: str):
    """PGD from the starts: the winning row, its value, and the trace with the
    winner's projected-gradient norm as its certificate.

    When every robot's plant is unstable (|a| >= 1) the cost is convex where
    it is feasible (module docstring), so only the start of lowest projected
    value descends: every accepted step lowers the value, so the result is
    never above any start's, and a feasible start, if there is one, wins over
    every penalised one. With any stable plant every start descends as one
    batch and the lowest end point wins.
    """
    problem = evaluator.problem
    n = evaluator.n
    objective, derivatives = _scaled_objective(evaluator, problem.total_power_w,
                                               problem.total_compute_cps)
    z0 = np.array(starts)
    first = 0
    if np.all(evaluator.a_sq >= 1.0):
        first = int(np.argmin(objective(_project_shares(z0, n, optimize_power))))
        z0 = z0[first:first + 1]
    res = _projected_gradient(objective, derivatives, z0, n, optimize_power=optimize_power)
    row = int(np.argmin(res.value))
    best = first + row
    z = res.z[row:row + 1]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        grad = derivatives(z)[0]
        if not optimize_power:
            grad[:, :n] = 0.0
        residual = z - _project_shares(z - grad, n, optimize_power)
        certificate = float(np.sqrt((residual * residual).sum()))
    trace = SolverTrace(iterations=res.iterations, converged=bool(res.converged[row]),
                        restarts=len(starts), best_restart=best, method=method,
                        max_iter_rows=res.max_iter_rows, projected_gradient_norm=certificate)
    return z[0], res.value[row], trace


def solve_multi_loop(problem: MultiLoopProblem, *, extra_starts=()) -> AllocationResult:
    """Allocate downlink power and compute frequency under the chosen scheme.

    Task-oriented: projected gradient over both budgets from the equal split,
    water-filled power and the callers' extra starts. One deterministic start
    would do for unstable plants: each loop's cost is jointly convex in its
    power and compute wherever it is feasible (see the module docstring), so
    the extra starts only make sure the result is never above a decision the
    caller already has (report passes the two baselines' decisions).
    Max-throughput: water-filled power, compute proportional to uplink load;
    it ignores extra_starts.
    Compute-only: equal power frozen, projected gradient over compute from
    the equal split and the compute shares of the callers' extra starts
    (report passes the previous power point's compute-only decision).
    The two projected-gradient schemes share one branch and pick their starts
    in _best_start: with every plant unstable only the lowest-valued start
    descends, otherwise every start descends as one batch and the lowest end
    point wins. Both use the analytic derivatives and Armijo backtracking
    (_projected_gradient) and return the shares _best_start scored times the
    totals; the trace reports the winning start, whether it converged, and
    its projected-gradient norm (projected_gradient_norm) as the certificate.
    Every scheme is re-scored under the penalized LQR total (lqr_total).
    """
    evaluator = JointEvaluator(problem)
    n = evaluator.n
    p_tot, f_tot = problem.total_power_w, problem.total_compute_cps

    if problem.scheme == MultiLoopScheme.MAX_THROUGHPUT_JOINT:
        power = water_fill_power(evaluator, p_tot)
        compute = np.full(n, f_tot / n)  # uplink loads are identical per robot
        throughput = float(evaluator.rates_bps(power).sum())
        trace = SolverTrace(iterations=1, converged=True, method="water_filling")
        return _multi_result(evaluator, power, compute, throughput, trace)

    optimize_power = problem.scheme == MultiLoopScheme.TASK_ORIENTED_JOINT
    if optimize_power:
        build, method = _task_starts, "projected_gradient"
    else:
        build, method = _compute_only_starts, "projected_gradient_compute_only"
    z, value, trace = _best_start(evaluator, build(evaluator, p_tot, f_tot, extra_starts),
                                  optimize_power=optimize_power, method=method)
    return _multi_result(evaluator, z[:n] * p_tot, z[n:] * f_tot, value, trace)


def _multi_result(evaluator: JointEvaluator, power: np.ndarray, compute: np.ndarray,
                  objective_value: float, trace: SolverTrace) -> AllocationResult:
    problem = evaluator.problem
    if not (power.min() >= 0.0 and compute.min() >= 0.0):
        raise RuntimeError("allocation has a negative power or compute share")
    if not power.sum() <= problem.total_power_w * (1.0 + 1e-9):
        raise RuntimeError(f"allocated power {power.sum()!r} W exceeds the budget "
                           f"{problem.total_power_w!r} W")
    if not compute.sum() <= problem.total_compute_cps * (1.0 + 1e-9):
        raise RuntimeError(f"allocated compute {compute.sum()!r} cps exceeds the budget "
                           f"{problem.total_compute_cps!r} cps")
    lqr_total = float(evaluator.total_cost(power, compute))
    outcomes = evaluator.outcomes(power, compute)
    if all(o.lqr_cost == math.inf for o in outcomes):
        trace = dataclasses.replace(trace, all_infeasible=True)
    return AllocationResult(
        decision={"power_w": power.copy(), "compute_cps": compute.copy()},
        per_loop_outcomes=outcomes,
        objective_value=float(objective_value),
        lqr_total=lqr_total,
        solver_trace=trace,
    )


def sweep_contour(problem: MultiLoopProblem, power_grid, compute_grid, *,
                  trace_out: list | None = None) -> np.ndarray:
    """Optimal task-oriented LQR total over a (power, compute) budget grid.

    Entry (i, j) solves the joint problem at power_grid[i], compute_grid[j]
    from the solver's deterministic starts plus warm starts: cells are
    visited in ascending budget order and start from their lower-power and
    lower-compute neighbours' decisions, which also guarantees the matrix is
    non-increasing along both axes (a neighbour's decision stays feasible
    under the larger budget). Per-cell solver traces are appended to
    trace_out when given.
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
    decisions = {}
    for i, p_tot in enumerate(power_grid):
        for j, f_tot in enumerate(compute_grid):
            cell = dataclasses.replace(problem, total_power_w=float(p_tot),
                                       total_compute_cps=float(f_tot),
                                       scheme=MultiLoopScheme.TASK_ORIENTED_JOINT)
            extra = []
            if i > 0:
                extra.append(decisions[(i - 1, j)])
            if j > 0:
                extra.append(decisions[(i, j - 1)])
            result = solve_multi_loop(cell, extra_starts=extra)
            matrix[i, j] = result.lqr_total
            decisions[(i, j)] = result.decision
            if trace_out is not None:
                trace_out.append(result.solver_trace)
    return matrix


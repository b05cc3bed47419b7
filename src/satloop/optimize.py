"""Resource-allocation solvers.

Single loop: split total bandwidth between uplink and downlink under a
task-oriented, max-throughput, or min-latency objective (array-valued in the
uplink bandwidth), each unimodal in the uplink bandwidth, by golden-section
search.

Multi loop: jointly allocate downlink power and on-board compute frequency
across robots by projected gradient on budget-scaled variables (closed-form
gradient, all restarts as one batch), against a max-throughput (water-filling)
scheme and a compute-only scheme at equal power. Both solvers score a cycle
with pipeline.store_and_forward and control.rate_cost, and share one penalty.
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
# Projected gradient: a row converges after PGD_PATIENCE consecutive
# iterations that improve its value by less than PGD_REL_TOL relative.
PGD_REL_TOL = 1e-10
PGD_PATIENCE = 5
# Projected-gradient backtracking: at most MAX_HALVINGS halvings of a trial
# step, evaluated BACKTRACK_BLOCK at a time in one objective call.
MAX_HALVINGS = 80
BACKTRACK_BLOCK = 8
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
    fixed_payload_bits: float = 1e4

    def __post_init__(self):
        if self.total_bandwidth_hz <= 0.0:
            raise ValueError("total bandwidth must be positive")
        if self.objective == SingleLoopObjective.MIN_LATENCY and self.fixed_payload_bits <= 0.0:
            raise ValueError("min-latency objective needs a positive payload")


@dataclass(frozen=True, eq=False)
class RobotLoop:
    """One robot's downlink template, plant, and fixed bandwidth share."""
    downlink: LinkParams
    plant: Plant
    bandwidth_share_hz: float

    def __post_init__(self):
        if self.bandwidth_share_hz <= 0.0:
            raise ValueError("bandwidth share must be positive")


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
    restarts: int = 1
    best_restart: int = 0
    # Never set: the single-loop search has no grid fallback. Kept because the
    # benchmark tracer reads it into its optimize.dense_grid_fallbacks counter.
    fallback_dense_grid: bool = False
    all_infeasible: bool = False
    method: str = ""


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


def _t_prop(problem: SingleLoopProblem) -> float:
    return pipeline.propagation_delay_s(
        linkgeom.slant_range_m(problem.uplink_template.geometry),
        linkgeom.slant_range_m(problem.downlink_template.geometry))


def _single_objective_fn(problem: SingleLoopProblem, model: RateCostModel):
    """Minimization objective for the problem's scheme, array-valued in b_up."""
    rate_up = _rate_fn(problem.uplink_template)
    rate_down = _rate_fn(problem.downlink_template)
    b_tot = problem.total_bandwidth_hz
    if problem.objective == SingleLoopObjective.TASK_ORIENTED:
        t_prop = _t_prop(problem)

        def fn(b_up):
            *_, eff = pipeline.balanced_cycle(rate_up(b_up), rate_down(b_tot - b_up),
                                              problem.budget, t_prop)
            return _penalized(model.cost(eff), model.threshold_bits, eff)
    elif problem.objective == SingleLoopObjective.MAX_THROUGHPUT:
        def fn(b_up):
            return -(rate_up(b_up) + rate_down(b_tot - b_up))
    else:  # MIN_LATENCY: link-level scheme, same payload both directions
        def fn(b_up):
            return (problem.fixed_payload_bits / rate_up(b_up)
                    + problem.fixed_payload_bits / rate_down(b_tot - b_up))
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
    minimum of a unimodal function (Kiefer 1953), and each objective is
    unimodal in b_up. Max-throughput and min-latency are convex, because the
    Shannon rate is concave in bandwidth. The task-oriented cost never rises
    as the balanced cycle's effective bits rho (T - t_prop) / (1/R_up + c/f +
    rho/R_down) grow, and that denominator is convex in b_up. The chosen split
    is re-scored through the full cycle model.
    """
    model = RateCostModel.from_plant(problem.plant)
    b_tot = problem.total_bandwidth_hz
    delta = 1e-6 * b_tot
    b_star, f_star, evals = golden_section(_single_objective_fn(problem, model),
                                           delta, b_tot - delta)
    if not delta * 0.5 <= b_star <= b_tot - delta * 0.5:
        raise RuntimeError(f"bandwidth split {b_star!r} Hz left the search bracket")
    all_infeasible = bool(problem.objective == SingleLoopObjective.TASK_ORIENTED
                          and f_star >= INFEASIBILITY_PENALTY)
    return _single_result(problem, model, b_star, f_star, SolverTrace(
        iterations=evals, converged=True, all_infeasible=all_infeasible,
        method="golden_section"))


def _single_result(problem: SingleLoopProblem, model: RateCostModel, b_up: float,
                   objective_value: float, trace: SolverTrace) -> AllocationResult:
    """The split b_up re-scored once through the full cycle model."""
    uplink = problem.uplink_template.with_bandwidth(b_up)
    downlink = problem.downlink_template.with_bandwidth(problem.total_bandwidth_hz - b_up)
    t_up, t_down = pipeline.balanced_times(uplink, downlink, problem.budget, _t_prop(problem))
    outcome = pipeline.evaluate_cycle(uplink, downlink, problem.budget, problem.plant,
                                      t_up, t_down, model=model)
    eff = outcome.effective_bits_per_cycle
    return AllocationResult(
        decision={"bandwidth_up_hz": b_up, "bandwidth_down_hz": downlink.bandwidth_hz},
        per_loop_outcomes=(outcome,),
        objective_value=float(objective_value),
        lqr_total=float(_penalized(model.cost(eff), model.threshold_bits, eff)),
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
        self.bandwidth = np.array([r.bandwidth_share_hz for r in robots])
        links = [r.downlink.with_bandwidth(r.bandwidth_share_hz) for r in robots]
        gain = np.array([linkgeom.received_power_w(link) / link.tx_power_w for link in links])
        dist = np.array([linkgeom.slant_range_m(link.geometry) for link in links])
        noise = (np.array([BOLTZMANN_J_PER_K * link.noise_temperature_k for link in links])
                 * self.bandwidth)
        self.snr_per_w = gain / noise
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
        self.j_ideal = np.array([m.j_ideal for m in self.models])
        self.sens_w = np.array([m.sensitivity * m.w for m in self.models])
        self.a_sq = np.array([m.a ** 2 for m in self.models])
        self.threshold_bits = np.array([m.threshold_bits for m in self.models])
        # per-robot factors of the gradient: -w ln4 and B*g
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

    def gradient(self, power_w: np.ndarray, compute_cps: np.ndarray):
        """Closed-form (dJ/dpower, dJ/dcompute) of cost_vector, per robot.

        dJ/deff is -w ln4 4^eff / (4^eff - a^2)^2 on a feasible loop and -1 on
        the penalty. It is 0 past the rate clamp and where the extraction cap
        binds, which is the one-sided slope at the cap kink: more of either
        resource buys nothing there. Below the compute floor the window does
        not depend on compute, so dJ/dcompute is 0. At or below the data-rate
        threshold the unused feasible-branch slope may divide by a zero gap;
        callers that reach it silence the warning (_projected_gradient does).
        """
        rate, _, window, eff = self._cycle(power_w, compute_cps)
        pow4, gap, finite = control.rate_gap(eff, self.a_sq)
        slope = np.where(finite, self._slope_scale * (pow4 / gap) / gap, -1.0)
        slope = np.where((eff >= self.cap_bits) | (eff > control.RATE_CLAMP_BITS), 0.0, slope)
        d_rate = self._rate_scale / ((1.0 + power_w * self.snr_per_w) * math.log(2.0))
        floor = pipeline.COMPUTE_FLOOR_CPS
        d_window = np.where(compute_cps > floor,
                            self.comp_cycles / np.maximum(compute_cps, floor) ** 2, 0.0)
        return slope * window * d_rate, slope * rate * d_window

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
    rows whose clipped sum exceeds the cap.
    """
    shape = x.shape
    n = shape[-1]
    x = np.maximum(x, 0.0).reshape(-1, n)
    u = np.sort(x, axis=-1)[:, ::-1]
    cumulative = np.cumsum(u, axis=-1) - total
    valid = u - cumulative / np.arange(1, n + 1) > 0.0
    # rho: the count of sorted entries up to the last valid one. valid[:, 0]
    # holds for total > 0 unless an entry dwarfs total; a row with no valid
    # entry divides its last cumulative sum by 0.
    rows = np.arange(x.shape[0])
    rho = n - valid[:, ::-1].argmax(axis=-1)
    theta = (cumulative[rows, rho - 1] / (rho * valid[rows, rho - 1]))[:, None]
    out = np.where(x.sum(axis=-1, keepdims=True) <= total, x, np.maximum(x - theta, 0.0))
    return out.reshape(shape)


def water_fill_power(evaluator: JointEvaluator, total_power_w: float) -> np.ndarray:
    """Throughput-maximizing power allocation (classic water-filling).

    Equalizes the marginal rate dR/dP = B*g / ((1 + P*g) ln2) across robots,
    giving P_i = B_i * level - 1/g_i clipped at zero; the common level is
    found by bisection on the power budget.
    """
    b = evaluator.bandwidth
    floor = 1.0 / evaluator.snr_per_w

    def allocated(level: float) -> np.ndarray:
        return np.maximum(0.0, level * b - floor)

    lo = 0.0
    hi = (total_power_w + floor.sum()) / b.min() + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        bracket = (lo, mid) if allocated(mid).sum() > total_power_w else (mid, hi)
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


def _backtrack(objective, project, z: np.ndarray, fz: np.ndarray, grad: np.ndarray,
               step: np.ndarray):
    """Armijo backtracking for a batch of rows, BACKTRACK_BLOCK halvings per call.

    Row i tries step[i], step[i]/2, ... up to MAX_HALVINGS halvings and takes
    the first trial whose projected move passes the sufficient-decrease test;
    it stops unaccepted at the first trial whose projected move is zero. The
    trials of a block are evaluated in one objective call, and the first one
    that passes is the one halving a step at a time would have taken.
    Returns (accepted, z, f, step) per row.
    """
    rows, dim = z.shape
    accepted = np.zeros(rows, dtype=bool)
    z_out, f_out, s_out = z.copy(), fz.copy(), step.copy()
    search = np.arange(rows)
    # the first block takes the rows as given; most searches end in it
    zs, fs, gs, ss = z, fz, grad, step
    for first in range(0, MAX_HALVINGS, BACKTRACK_BLOCK):
        trial = ss[:, None] * _HALVINGS[first:first + BACKTRACK_BLOCK]
        base = zs[:, None, :]
        cand = project((base - trial[..., None] * gs[:, None, :]).reshape(-1, dim))
        cand = cand.reshape(search.size, -1, dim)
        move = cand - base
        move_sq = (move * move).sum(axis=-1)
        fc = objective(cand.reshape(-1, dim)).reshape(move_sq.shape)
        stop = (fc <= fs[:, None] - 1e-2 * move_sq / trial) | (move_sq == 0.0)
        j = stop.argmax(axis=1)
        ar = np.arange(search.size)
        done = stop[ar, j]
        pick = np.flatnonzero(done & (move_sq[ar, j] != 0.0))
        jp = j[pick]
        take = search[pick]
        accepted[take] = True
        z_out[take], f_out[take], s_out[take] = cand[pick, jp], fc[pick, jp], trial[pick, jp]
        search = search[~done]
        if search.size == 0:
            break
        zs, fs, gs, ss = z[search], fz[search], grad[search], step[search]
    return accepted, z_out, f_out, s_out


def _projected_gradient(objective, gradient, z0: np.ndarray, n: int, *,
                        optimize_power: bool = True, max_iter: int = 500) -> _PgdResult:
    """Minimize objective(z) over the product of two capped simplexes, per row of z0.

    Each row of z0 (one start, shape (R, 2n) in all) holds budget-scaled power
    and compute shares (each block sums to <= 1). All rows descend together:
    an iteration makes one `gradient` call (analytic, see
    JointEvaluator.gradient) and one `objective` call per backtracking block
    for the whole batch, while every row keeps its own step, Barzilai-Borwein
    pair and quiet count; a row that stops leaves the batch. The returned
    iteration count is summed over rows. With optimize_power False the
    power block of the gradient is zeroed and the power shares stay as given.
    Trial steps are seeded Barzilai-Borwein style (spectral step from the
    row's last (dz, dg) pair, which copes with the steep penalty wall) and
    backed off by halving (_backtrack) until a sufficient decrease over the
    projected move is reached. A row converges after PGD_PATIENCE consecutive
    iterations with relative improvement below PGD_REL_TOL or a zero gradient;
    a row whose gradient is not finite stops unconverged.
    """
    def project(z):
        if optimize_power:
            return project_capped_simplex(z.reshape(-1, 2, n), 1.0).reshape(z.shape)
        return np.concatenate([z[:, :n], project_capped_simplex(z[:, n:], 1.0)], axis=1)

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
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(max_iter):
            if live.size == 0:
                break
            iterations += live.size
            grad = gradient(zl)
            if not optimize_power:
                grad[:, :n] = 0.0
            gnorm = np.sqrt((grad * grad).sum(axis=1))
            finite = np.isfinite(gnorm)
            moving = finite & (gnorm > 0.0)
            quiet += 1
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
                accepted, z_new, f_new, s_new = _backtrack(objective, project, zm, fm, g, s)
                rel = (fm - f_new) / np.maximum(np.abs(fm), 1e-300)
                quiet[m] = np.where(accepted & ~(rel < PGD_REL_TOL), 0, quiet[m])
                step[m] = np.where(accepted, s_new, sm)
                zl[m], fl[m] = z_new, f_new  # an unaccepted row keeps its iterate
            # a row stops converged after PGD_PATIENCE quiet iterations, or
            # unconverged when its gradient is not finite
            leave = ~finite | (quiet >= PGD_PATIENCE)
            if leave.any():
                gone = live[leave]
                z[gone], fz[gone] = zl[leave], fl[leave]
                converged[live[leave & finite]] = True
                keep = ~leave
                live, zl, fl, step, z_prev, grad_prev, quiet = (
                    a[keep] for a in (live, zl, fl, step, z_prev, grad_prev, quiet))
    z[live], fz[live] = zl, fl
    return _PgdResult(z, fz, converged, iterations)


def _scaled_objective(evaluator: JointEvaluator, p_tot: float, f_tot: float):
    """(objective, gradient) over budget-scaled shares z = (power, compute) / totals."""
    n = evaluator.n

    def objective(batch: np.ndarray) -> np.ndarray:
        return evaluator.total_cost(batch[..., :n] * p_tot, batch[..., n:] * f_tot)

    def gradient(batch: np.ndarray) -> np.ndarray:
        d_power, d_compute = evaluator.gradient(batch[..., :n] * p_tot, batch[..., n:] * f_tot)
        return np.concatenate([d_power * p_tot, d_compute * f_tot], axis=-1)
    return objective, gradient


def _task_starts(evaluator: JointEvaluator, p_tot: float, f_tot: float,
                 restarts: int, seed: int, extra_starts) -> list:
    n = evaluator.n
    equal = np.full(2 * n, 1.0 / n)
    wf = np.concatenate([water_fill_power(evaluator, p_tot) / p_tot, np.full(n, 1.0 / n)])
    starts = [equal, wf]
    for dec in extra_starts:
        starts.append(np.concatenate([np.asarray(dec["power_w"]) / p_tot,
                                      np.asarray(dec["compute_cps"]) / f_tot]))
    rng = np.random.default_rng(seed)
    while len(starts) < restarts:
        starts.append(np.concatenate([rng.dirichlet(np.ones(n)), rng.dirichlet(np.ones(n))]))
    return starts


def _best_start(evaluator: JointEvaluator, starts: list, max_iter: int, *,
                optimize_power: bool, method: str):
    """Batched PGD from every start: the winning row, its value, and the trace."""
    problem = evaluator.problem
    objective, gradient = _scaled_objective(evaluator, problem.total_power_w,
                                            problem.total_compute_cps)
    res = _projected_gradient(objective, gradient, np.array(starts), evaluator.n,
                              optimize_power=optimize_power, max_iter=max_iter)
    best = int(np.argmin(res.value))
    trace = SolverTrace(iterations=res.iterations, converged=bool(res.converged[best]),
                        restarts=len(starts), best_restart=best, method=method)
    return res.z[best], res.value[best], trace


def solve_multi_loop(problem: MultiLoopProblem, *, seed: int = 0, restarts: int = 10,
                     extra_starts=(), max_iter: int = 500) -> AllocationResult:
    """Allocate downlink power and compute frequency under the chosen scheme.

    Task-oriented: projected gradient over both budgets from `restarts`
    deterministic starting points (equal split, water-filled power, callers'
    extra starts, then seeded random feasible points), best kept.
    Max-throughput: water-filled power, compute proportional to uplink load.
    Compute-only: equal power frozen, projected gradient over compute.
    The projected-gradient schemes run all their starts as one batch with the
    analytic gradient and blocked backtracking (_projected_gradient); the
    trace reports the winning start and whether that start converged.
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

    if problem.scheme == MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM:
        power = np.full(n, p_tot / n)
        rng = np.random.default_rng(seed)
        starts = [np.concatenate([power / p_tot, np.full(n, 1.0 / n)])]
        while len(starts) < restarts:
            starts.append(np.concatenate([power / p_tot, rng.dirichlet(np.ones(n))]))
        z, value, trace = _best_start(evaluator, starts, max_iter, optimize_power=False,
                                      method="projected_gradient_compute_only")
        return _multi_result(evaluator, power, z[n:] * f_tot, value, trace)

    starts = _task_starts(evaluator, p_tot, f_tot, restarts, seed, extra_starts)
    z, value, trace = _best_start(evaluator, starts, max_iter, optimize_power=True,
                                  method="projected_gradient")
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
                  seed: int = 0, restarts: int = 6, trace_out: list | None = None) -> np.ndarray:
    """Optimal task-oriented LQR total over a (power, compute) budget grid.

    Entry (i, j) solves the joint problem at power_grid[i], compute_grid[j].
    Cells are visited in ascending budget order and warm-started from their
    lower-power and lower-compute neighbours, which also guarantees the
    matrix is non-increasing along both axes. Per-cell solver traces are
    appended to trace_out when given.
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
            result = solve_multi_loop(cell, seed=seed, restarts=restarts,
                                      extra_starts=extra)
            matrix[i, j] = result.lqr_total
            decisions[(i, j)] = result.decision
            if trace_out is not None:
                trace_out.append(result.solver_trace)
    return matrix


"""Independent oracles shared across test modules.

Most of these avoid the library's own code paths: closed-form roots, a
fixed-point Riccati iteration, Monte-Carlo simulation, a KKT solution of the
compute-only scheme, and random problem generators. The grid oracles scan
the solvers' own objective by brute force, and the multi-start solver runs
the solver's own descent from seeded random starts. reported_costs and
loop_outcomes are the array form of one loop's outcome, the reference that
pipeline.loop_outcome, JointEvaluator.outcomes and the joint solves'
all_infeasible flag are compared against. dump_lines and sorted_leaves walk
a scenario tree itself, the reference for the schema's compiled leaf table
that scenario.dump_scenario and report's metadata block read.
"""
import dataclasses
import math
from fractions import Fraction

import numpy as np

from satloop import control
from satloop.control import Plant
from satloop.linkgeom import (SPEED_OF_LIGHT_M_S, Geometry, LinkParams, shannon_rate_bps,
                              slant_range_m)
from satloop.optimize import (JointEvaluator, MultiLoopProblem, MultiLoopScheme, RobotLoop,
                              SingleLoopObjective, SingleLoopProblem, SolverTrace,
                              _link_rate_fns, _multi_result, _newton_direction,
                              _projected_gradient, _scaled_scheme, _single_objective_fn,
                              _single_result)
from satloop.pipeline import LoopBudget, LoopOutcome
from satloop.scenario import _scalar

# the baseline scenario's budget: a 20 ms cycle, 100 cycles/bit, 10 GC/s, 0.1% extraction
BUDGET = LoopBudget(cycle_period_s=0.02, cycles_per_bit=100.0, compute_rate_cps=1e10,
                    extraction_ratio=0.001)

def scalar_dare_root(a: float, b: float, q: float, r: float) -> float:
    """Positive root of the scalar Riccati quadratic.

    s = q + a^2 s r / (r + b^2 s)  <=>  b^2 s^2 + (r - q b^2 - a^2 r) s - q r = 0
    """
    c2 = b * b
    c1 = r - q * b * b - a * a * r
    c0 = -q * r
    disc = c1 * c1 - 4.0 * c2 * c0
    return (-c1 + math.sqrt(disc)) / (2.0 * c2)


def dare_residual(plant: Plant, s: float) -> float:
    """|a s a - a s b (r + b s b)^-1 b s a + q - s| for a candidate root s."""
    a, b, q, r = plant.a, plant.b, plant.q, plant.r_u
    return abs(a * s * a - (a * s * b) * (b * s * a) / (r + b * s * b) + q - s)


def riccati_fixed_point(a: float, b: float, q: float, r: float) -> float:
    """Scalar Riccati root by the fixed-point iteration s <- a^2 s - (a s b)^2 / (r + b^2 s) + q.

    Starts from s0 = q + 1 (s = 0 is a fixed point when q = 0), stops when
    the update falls below 1e-12 relative to the larger of s and s0, then
    polishes with five more sweeps. Raises ArithmeticError when the
    iteration diverges or does not settle within 10000 sweeps.
    """
    def step(s):
        return a * s * a - (a * s * b) * (b * s * a) / (r + b * s * b) + q

    s = start = q + 1.0
    for _ in range(10000):
        s_next = step(s)
        delta = abs(s_next - s)
        if not (math.isfinite(delta) and math.isfinite(s)):
            raise ArithmeticError("Riccati iteration diverged")
        stop = delta <= 1e-12 * max(abs(s), start)
        s = s_next
        if stop:
            for _ in range(5):
                s = step(s)
            return s
    raise ArithmeticError("Riccati iteration did not settle within 10000 sweeps")


def simulate_quantized_loop(a: float, b: float, q: float, r: float, w_cov: float,
                            gain: float, rate_bits: int, steps: int, seed: int,
                            span: float = 40.0) -> float:
    """Empirical LQR cost of a uniformly quantized scalar control loop.

    The controller sees the state only through a mid-rise uniform quantizer
    with 2^rate_bits levels on [-span, span] and applies u = -gain * quantized
    state. Returns the average of q x^2 + r u^2 over the trajectory.
    """
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, math.sqrt(w_cov), steps)
    levels = 2 ** rate_bits
    delta = 2.0 * span / levels
    x = 0.0
    acc = 0.0
    for t in range(steps):
        idx = math.floor((x + span) / delta)
        idx = min(max(idx, 0), levels - 1)
        x_hat = -span + (idx + 0.5) * delta
        u = -gain * x_hat
        acc += q * x * x + r * u * u
        x = a * x + b * u + noise[t]
    return acc / steps


def compute_only_kkt(problem: MultiLoopProblem) -> float:
    """LQR total of the compute-only scheme, solved by its KKT conditions.

    Power is split equally. Robot i's cost J_i(f) = j + s w / (4^eff - a^2),
    eff = min(rho V, r_i (T - t_prop - c V / f)), is convex and decreasing in
    its compute f above the data-rate threshold and flat once eff reaches
    the extraction cap rho V. The optimum equalises the marginal -dJ_i/df at
    a common level lambda, each robot stopping at its cap; lambda is found
    by bisection on the compute budget, and each robot's f(lambda) by
    bisection on its own marginal. Raises ValueError when the budget cannot
    carry every robot above its threshold (the penalty region is not modelled).
    """
    budget = problem.budget
    period, volume = budget.cycle_period_s, problem.uplink_fixed_bits
    cycles = budget.cycles_per_bit * volume
    cap = budget.extraction_ratio * volume
    power = problem.total_power_w / len(problem.robots)
    loops = []
    for robot in problem.robots:
        link = dataclasses.replace(robot.downlink, tx_power_w=power)
        plant = robot.plant
        s = scalar_dare_root(plant.a, plant.b, plant.q, plant.r_u)
        k = plant.a * plant.b * s / (plant.r_u + plant.b * plant.b * s)
        sens_w = k * k * (plant.r_u + plant.b * plant.b * s) * plant.w_cov
        threshold = math.log2(abs(plant.a)) if abs(plant.a) > 1.0 else 0.0
        window = period - 2.0 * slant_range_m(link.geometry) / SPEED_OF_LIGHT_M_S
        loops.append((shannon_rate_bps(link), window, plant.a * plant.a, sens_w,
                      s * plant.w_cov, threshold))

    def eff(loop, f):
        rate, window = loop[:2]
        return min(cap, rate * (window - cycles / f))

    def compute_for(loop, bits):
        """Compute at which the robot delivers `bits` (inf when it never can)."""
        rate, window = loop[:2]
        room = window - bits / rate
        return cycles / room if room > 0.0 else math.inf

    def marginal(loop, f):
        """-dJ/df below the cap."""
        rate, _, a_sq, sens_w = loop[:4]
        y = 4.0 ** eff(loop, f)
        if y <= a_sq:  # at the threshold, where eff rounds onto it
            return math.inf
        return sens_w * math.log(4.0) * y / (y - a_sq) ** 2 * rate * cycles / (f * f)

    def bisect(fn, lo, hi, geometric=False):
        """Last bracket of a bisection keeping fn(lo) true and fn(hi) false."""
        for _ in range(2000):
            mid = math.sqrt(lo) * math.sqrt(hi) if geometric else 0.5 * (lo + hi)
            bracket = (mid, hi) if fn(mid) else (lo, mid)
            if bracket == (lo, hi):
                break
            lo, hi = bracket
        return lo, hi

    floors = [compute_for(loop, loop[5]) for loop in loops]
    caps = [compute_for(loop, cap) for loop in loops]
    if not sum(floors) < problem.total_compute_cps:
        raise ValueError("the compute budget cannot lift every robot above its threshold")

    def allocation(lam):
        out = []
        for loop, f_min, f_cap in zip(loops, floors, caps):
            if f_cap < math.inf and marginal(loop, f_cap) >= lam:
                out.append(f_cap)
            else:
                hi = f_cap if f_cap < math.inf else 2.0 * problem.total_compute_cps
                out.append(bisect(lambda f: marginal(loop, f) > lam, f_min, hi)[1])
        return out

    if sum(caps) <= problem.total_compute_cps:
        compute = caps
    else:
        _, lam = bisect(lambda lam: sum(allocation(lam)) > problem.total_compute_cps,
                        1e-300, 1e300, geometric=True)
        compute = allocation(lam)
    total = 0.0
    for loop, f in zip(loops, compute):
        _, _, a_sq, sens_w, j_ideal, _ = loop
        total += j_ideal + sens_w / (4.0 ** eff(loop, f) - a_sq)
    return total


def random_single_loop_problem(rng: np.random.Generator) -> SingleLoopProblem:
    """A physically valid, well-scaled random bandwidth-split problem."""
    altitude = rng.uniform(500e3, 1200e3)
    freq = rng.uniform(10e9, 40e9)
    noise_t = rng.uniform(150.0, 600.0)
    geometry_up = Geometry(altitude, rng.uniform(25.0, 90.0))
    geometry_down = Geometry(altitude, rng.uniform(25.0, 90.0))
    uplink = LinkParams(
        tx_power_w=rng.uniform(0.05, 1.0), tx_gain_dbi=rng.uniform(5.0, 20.0),
        rx_gain_dbi=rng.uniform(25.0, 45.0), carrier_freq_hz=freq,
        bandwidth_hz=1.0, noise_temperature_k=noise_t, geometry=geometry_up)
    downlink = LinkParams(
        tx_power_w=rng.uniform(5.0, 50.0), tx_gain_dbi=rng.uniform(25.0, 45.0),
        rx_gain_dbi=rng.uniform(5.0, 20.0), carrier_freq_hz=freq,
        bandwidth_hz=1.0, noise_temperature_k=noise_t, geometry=geometry_down)
    budget = LoopBudget(
        cycle_period_s=0.02, cycles_per_bit=rng.uniform(50.0, 200.0),
        compute_rate_cps=10 ** rng.uniform(9.0, 10.5),
        extraction_ratio=10 ** rng.uniform(-3.5, -2.0))
    plant = Plant(a=rng.uniform(1.3, 3.0), b=1.0, w_cov=1.0, q=1.0, r_u=1.0)
    objective = [SingleLoopObjective.TASK_ORIENTED, SingleLoopObjective.MAX_THROUGHPUT,
                 SingleLoopObjective.MIN_LATENCY][int(rng.integers(0, 3))]
    return SingleLoopProblem(
        total_bandwidth_hz=10 ** rng.uniform(4.3, 5.3),
        uplink_template=uplink, downlink_template=downlink,
        budget=budget, plant=plant, objective=objective,
        fixed_payload_bits=10 ** rng.uniform(3.0, 5.0))


def random_joint_problem(rng: np.random.Generator, n_robots: int = 2, *,
                         stable: bool = False) -> MultiLoopProblem:
    """A feasible random joint power/compute allocation problem.

    The plants are unstable (a in [1.5, 2.5]) or, with stable True, stable
    (a in [-0.95, 0.95]); both draw the same numbers from rng.
    """
    budget = BUDGET
    uplink_bits = 10 ** rng.uniform(4.8, 5.5)
    robots = []
    slack_terms = []
    for _ in range(n_robots):
        geometry = Geometry(600e3, rng.uniform(30.0, 90.0))
        share = rng.uniform(30.0, 120.0)
        link = LinkParams(
            tx_power_w=1.0, tx_gain_dbi=38.5, rx_gain_dbi=14.0,
            carrier_freq_hz=30e9, bandwidth_hz=share,
            noise_temperature_k=290.0, geometry=geometry)
        a = rng.uniform(-0.95, 0.95) if stable else rng.uniform(1.5, 2.5)
        plant = Plant(a=a, b=1.0, w_cov=1.0, q=1.0, r_u=1.0)
        robots.append(RobotLoop(downlink=link, plant=plant))
        from satloop import linkgeom, pipeline
        dist = linkgeom.slant_range_m(geometry)
        t_budget = budget.cycle_period_s - pipeline.propagation_delay_s(dist, dist)
        slack_terms.append(budget.cycles_per_bit * uplink_bits / t_budget)
    total_compute = sum(slack_terms) * rng.uniform(1.3, 3.0)
    return MultiLoopProblem(
        robots=tuple(robots),
        total_power_w=rng.uniform(1.0, 20.0),
        total_compute_cps=total_compute,
        budget=budget,
        scheme=MultiLoopScheme.TASK_ORIENTED_JOINT,
        uplink_fixed_bits=uplink_bits)


def scaled_objective(evaluator: JointEvaluator, problem: MultiLoopProblem):
    """The value alone of optimize._scaled_scheme's first_order, per row of
    budget-scaled shares z = (power, compute) / totals, from
    JointEvaluator.total_cost: a scorer independent of the solve's own."""
    n, p_tot, f_tot = evaluator.n, problem.total_power_w, problem.total_compute_cps

    def objective(batch: np.ndarray) -> np.ndarray:
        return evaluator.total_cost(batch[..., :n] * p_tot, batch[..., n:] * f_tot)
    return objective


def all_starts_descend(evaluator: JointEvaluator, problem: MultiLoopProblem, starts: list, *,
                       method: str):
    """optimize._projected_gradient under the problem's scheme
    (optimize._scaled_scheme) from every start as one batch, the lowest end
    point kept: (z, value, trace), the trace without a certificate.

    What optimize._best_start does for a stable plant, here for any plant,
    so a reference that runs through it never descends a single start.
    """
    _, hessian, first_order, project, _ = _scaled_scheme(evaluator, problem, ())
    z0 = project(np.array(starts, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f0, score = first_order(z0)
    res = _projected_gradient(hessian, z0, f0, first_order=first_order, project=project,
                              start=score)
    best = int(np.argmin(res.value))
    trace = SolverTrace(iterations=res.iterations, converged=bool(res.converged[best]),
                        restarts=len(starts), best_restart=best, method=method,
                        max_iter_rows=res.max_iter_rows, stopped_on=res.stopped_on[best])
    return res.z[best], res.value[best], trace


def multi_start_solve(problem: MultiLoopProblem, *, seed: int = 0, restarts: int = 10,
                      extra_starts=()):
    """The joint solver with seeded random restarts, every start descending:
    the reference for its deterministic starts.

    optimize.solve_multi_loop for the projected-gradient schemes, with the
    starts topped up to `restarts` by seeded random feasible points (uniform
    on each simplex, numpy default_rng(seed)): the task-oriented scheme
    after the equal split, water-filled power and the extra starts, the
    compute-only scheme after its equal split and the extra starts' compute
    shares (random compute shares only). Every row descends on its own
    (all_starts_descend), so the best of these starts is never above the
    deterministic starts' best when those all descend; how far below it
    falls is what the random restarts would buy.
    """
    evaluator = JointEvaluator(problem)
    n = evaluator.n
    p_tot, f_tot = problem.total_power_w, problem.total_compute_cps
    rng = np.random.default_rng(seed)
    starts = _scaled_scheme(evaluator, problem, extra_starts)[0]
    compute_only = problem.scheme == MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM
    while len(starts) < restarts:  # the frozen power of compute-only draws nothing
        power = starts[0][:n] if compute_only else rng.dirichlet(np.ones(n))
        starts.append(np.concatenate([power, rng.dirichlet(np.ones(n))]))
    z, value, trace = all_starts_descend(
        evaluator, problem, starts,
        method="multi_start_compute_only" if compute_only else "multi_start")
    power = np.full(n, p_tot / n) if compute_only else z[:n] * p_tot
    return _multi_result(evaluator, problem, power, z[n:] * f_tot, value, trace)


def central_difference_gradient(evaluator, power_w: np.ndarray, compute_cps: np.ndarray, *,
                                total_power_w: float, rel_step: float = 1e-6) -> tuple:
    """Central-difference (dJ/dpower, dJ/dcompute) of a JointEvaluator's cost.

    A check on the analytic gradient of JointEvaluator.first_order. The joint
    cost is a sum of per-robot terms, each depending only on that robot's own
    power and compute, so every partial derivative differences that robot's
    term alone (cost_vector); the other robots' infeasibility penalties
    (about 1e9) then stay out of the cancellation. Steps are rel_step *
    max(|x|, floor), with floor a tenth of the power budget for power and the
    model's 1e-9 cps compute floor for compute, so a zero-compute probe stays
    below the floor.
    """
    floors = (0.1 * total_power_w, 1e-9)
    point = (np.asarray(power_w, dtype=float), np.asarray(compute_cps, dtype=float))
    grads = []
    for block, floor in enumerate(floors):
        h = rel_step * np.maximum(np.abs(point[block]), floor)
        grad = np.empty(evaluator.n)
        for i in range(evaluator.n):
            plus = [point[0].copy(), point[1].copy()]
            minus = [point[0].copy(), point[1].copy()]
            plus[block][i] += h[i]
            minus[block][i] -= h[i]
            grad[i] = ((evaluator.cost_vector(*plus)[i] - evaluator.cost_vector(*minus)[i])
                       / (2.0 * h[i]))
        grads.append(grad)
    return tuple(grads)


def central_difference_hessian(evaluator, power_w: np.ndarray, compute_cps: np.ndarray, *,
                               total_power_w: float, rel_step: float = 1e-6) -> tuple:
    """Central-difference (d2J/dp2, d2J/dp df, d2J/df2) per robot, from the gradient.

    A check on JointEvaluator.hessian_blocks. Robot i's
    gradient entries depend only on its own power and compute, so each column
    of its 2x2 block differences robot i's (dJ/dp_i, dJ/df_i) over a step in
    one of its two variables (steps as in central_difference_gradient). The
    mixed entry is the mean of two orders of differentiation. Returns three
    arrays of one entry per robot.
    """
    floors = (0.1 * total_power_w, 1e-9)
    point = (np.asarray(power_w, dtype=float), np.asarray(compute_cps, dtype=float))
    columns = []  # columns[block] = (d/dvar of dJ/dp, d/dvar of dJ/df), var = block
    for block, floor in enumerate(floors):
        h = rel_step * np.maximum(np.abs(point[block]), floor)
        column = (np.empty(evaluator.n), np.empty(evaluator.n))
        for i in range(evaluator.n):
            plus = [point[0].copy(), point[1].copy()]
            minus = [point[0].copy(), point[1].copy()]
            plus[block][i] += h[i]
            minus[block][i] -= h[i]
            g_plus, g_minus = evaluator.first_order(*plus)[1], evaluator.first_order(*minus)[1]
            for out, gp, gm in zip(column, g_plus, g_minus):
                out[i] = (gp[i] - gm[i]) / (2.0 * h[i])
        columns.append(column)
    (pp, fp), (pf, ff) = columns
    return pp, 0.5 * (fp + pf), ff


def reference_capped_simplex(x: np.ndarray, total: float) -> np.ndarray:
    """Projection of each row (last axis) onto {x >= 0, sum(x) <= total}.

    The reference for optimize.project_capped_simplex: the same sort-based
    method (Duchi et al., ICML 2008) and the same arithmetic, measured from
    each row's largest entry, written with one masked maximum and
    take_along_axis over any number of leading axes.
    """
    x = np.maximum(x, 0.0)
    u = np.sort(x, axis=-1)[..., ::-1]
    top = u[..., :1]
    excess = np.cumsum(u - top, axis=-1) - total
    counts = np.arange(1, x.shape[-1] + 1)
    leading = np.cumprod((u - top) - excess / counts > 0.0, axis=-1)
    rho = np.max(np.where(leading == 1, counts, 0), axis=-1, keepdims=True)
    shift = np.take_along_axis(excess, rho - 1, axis=-1) / rho
    return np.where(x.sum(axis=-1, keepdims=True) <= total, x,
                    np.maximum((x - top) - shift, 0.0))


def exact_capped_simplex(row, total: float) -> list:
    """Projection of one row onto {x >= 0, sum(x) <= total} in exact arithmetic.

    Every float converts to a fractions.Fraction without rounding; the sorted
    threshold rule then runs exactly: rho is the largest k with
    u_k - (S_k - total) / k > 0 and theta = (S_rho - total) / rho.
    """
    x = [max(Fraction(v), Fraction(0)) for v in row]
    cap = Fraction(total)
    if sum(x) <= cap:
        return x
    prefix, rho, prefix_rho = Fraction(0), 0, Fraction(0)
    for k, u in enumerate(sorted(x, reverse=True), start=1):
        prefix += u
        if u - (prefix - cap) / k > 0:
            rho, prefix_rho = k, prefix
    theta = (prefix_rho - cap) / rho
    return [max(v - theta, Fraction(0)) for v in x]


def water_fill_power_fixed_steps(evaluator, total_power_w: float, steps: int = 200):
    """Water-filled power with a fixed number of bisection steps on the level."""
    b = evaluator.bandwidth
    floor = 1.0 / evaluator.snr_per_w
    lo, hi = 0.0, (total_power_w + floor.sum()) / b.min() + 1.0
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if np.maximum(0.0, mid * b - floor).sum() > total_power_w:
            hi = mid
        else:
            lo = mid
    alloc = np.maximum(0.0, 0.5 * (lo + hi) * b - floor)
    if alloc.sum() > 0.0:
        alloc *= total_power_w / alloc.sum()
    return alloc


def reference_projected_gradient(objective, hessian, first_order, project, z0: np.ndarray, *,
                                 max_halvings: int, max_iter: int = 500, rel_tol: float = 1e-10,
                                 patience: int = 5) -> tuple:
    """One start of optimize._projected_gradient, one row and one halving at a time,
    on one scheme's pieces (optimize._scaled_scheme) and the value-only
    objective (scaled_objective).

    The same rules, written as a plain loop: the face-Newton trial first
    (optimize._newton_direction on the one row, kept when it passes its
    sufficient-decrease test), else a Barzilai-Borwein trial step with the
    fallback and Armijo backtracking by halving; a trial whose predicted
    decrease -g.(new - z) is positive and at most rel_tol |f| ends the run
    in its iteration, at the Newton point if it was kept and else after the
    backtracking; a trial that predicts no decrease (-g.(new - z) <= 0) from
    a stationary point (z = P(z - g) exactly) ends the run where it stands;
    patience on the relative improvement, and an unconverged
    stop on a non-finite gradient. Each iterate's gradient and Hessian
    blocks come from a fresh first_order call on it, never a carried score.
    Returns (z, value, converged, iterations).
    """
    z = project(np.array(z0, dtype=float)[None, :])[0]
    f = objective(z[None, :])[0]
    step = math.nan
    z_prev, g_prev = z.copy(), np.zeros_like(z)
    quiet = 0
    for iterations in range(1, max_iter + 1):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            g, terms, _ = first_order(z[None, :])[1]
            g, blocks = g[0], hessian(terms)
        gnorm = math.sqrt((g * g).sum())
        if not math.isfinite(gnorm):
            return z, f, False, iterations
        if gnorm == 0.0:
            quiet += 1
        else:
            dz, dg = z - z_prev, g - g_prev
            curvature = (dz * dg).sum()
            if curvature > 1e-300:
                s = (dz * dz).sum() / curvature
            else:
                s = 0.25 / gnorm if math.isnan(step) else step
            s = min(max(s, 1e-16), 1e8)
            z_prev, g_prev = z, g
            accepted = newton = settled = False
            d, ok = _newton_direction(g[None, :], blocks, z[None, :])
            if ok[0]:
                cand = project((z + d[0])[None, :])[0]
                slope = (g * (cand - z)).sum()
                fc = objective(cand[None, :])[0]
                accepted = newton = slope < 0.0 and fc <= f + 1e-2 * slope
                settled = 0.0 < -slope <= rel_tol * abs(f)
                if newton and settled:
                    return cand, fc, True, iterations
                if slope >= 0.0 and np.all(z - project((z - g)[None, :])[0] == 0.0):
                    return z, f, True, iterations  # stationary: no projected move exists
            for _ in range(0 if newton else max_halvings):
                cand = project((z - s * g)[None, :])[0]
                move_sq = ((cand - z) * (cand - z)).sum()
                if move_sq == 0.0:
                    break
                fc = objective(cand[None, :])[0]
                if fc <= f - 1e-2 * move_sq / s:
                    accepted = True
                    break
                s *= 0.5
            if accepted:
                rel = (f - fc) / max(abs(f), 1e-300)
                quiet = quiet + 1 if rel < rel_tol else 0
                z, f = cand, fc
                if not newton:
                    step = s
            else:
                quiet += 1
            if settled:  # the Newton point rejected: settled after backtracking
                return z, f, True, iterations
        if quiet >= patience:
            return z, f, True, iterations
    return z, f, False, max_iter


class DimensionTooLargeError(ValueError):
    """Brute-force oracle refused: decision space dimension above 4."""


def grid_oracle(problem, resolution: int):
    """Exhaustive grid argmin/argmax for optimizer validation.

    Single-loop problems scan b_up; two-robot joint problems scan the
    (power_1, compute_1) plane with the complements pinned to the budget
    (the objective is non-increasing in resources, so an optimum lies on
    the budget boundary). Larger decision spaces are refused.
    """
    if resolution < 1:
        raise ValueError("resolution must be >= 1")
    if isinstance(problem, SingleLoopProblem):
        rates = _link_rate_fns(problem)
        fn = _single_objective_fn(problem, rates)
        delta = 1e-6 * problem.total_bandwidth_hz
        grid = np.linspace(delta, problem.total_bandwidth_hz - delta, resolution).tolist()
        vals = [fn(b_up) for b_up in grid]
        i = int(np.argmin(vals))
        return _single_result(problem, rates, grid[i], vals[i], SolverTrace(
            iterations=resolution, converged=True, method="grid_oracle"))
    if not isinstance(problem, MultiLoopProblem):
        raise TypeError(f"unsupported problem type {type(problem)!r}")
    n = len(problem.robots)
    if 2 * n > 4:
        raise DimensionTooLargeError(
            f"joint oracle supports at most 2 robots, got {n}")
    evaluator = JointEvaluator(problem)
    if n == 1:
        power = np.array([problem.total_power_w])
        compute = np.array([problem.total_compute_cps])
        value = float(evaluator.total_cost(power, compute))
        return _multi_result(evaluator, problem, power, compute, value,
                             SolverTrace(iterations=1, converged=True, method="grid_oracle"))
    p1 = np.linspace(0.0, problem.total_power_w, resolution)
    f1 = np.linspace(0.0, problem.total_compute_cps, resolution)
    pp, ff = np.meshgrid(p1, f1, indexing="ij")
    powers = np.stack([pp, problem.total_power_w - pp], axis=-1)
    computes = np.stack([ff, problem.total_compute_cps - ff], axis=-1)
    totals = evaluator.total_cost(powers, computes)
    i, j = np.unravel_index(int(np.argmin(totals)), totals.shape)
    power = powers[i, j]
    compute = computes[i, j]
    return _multi_result(evaluator, problem, power, compute, float(totals[i, j]),
                         SolverTrace(iterations=resolution * resolution, converged=True,
                                     method="grid_oracle"))


def reported_costs(a_sq, sens_w, j_ideal, effective_bits, time_feasible) -> tuple:
    """(effective bits, stable, lqr_cost) that each loop reports, from the
    control.rate_cost_terms arrays and columns broadcasting to one per loop.

    A loop is stable when its effective bits clear the data-rate threshold
    (control.rate_gap's finite flag), even where its cost overflows the float
    range to math.inf. A time-infeasible cycle delivers nothing, is not
    stable and costs math.inf. pipeline.loop_outcome is this rule for one
    loop, and optimize._multi_result's all_infeasible applies it to the
    joint solves' carried costs and windows.
    """
    eff = np.where(time_feasible, np.maximum(effective_bits, 0.0), 0.0)
    _, gap, finite = control.rate_gap(eff, a_sq)
    stable = time_feasible & finite
    return eff, stable, control.gap_cost(gap, stable, sens_w, j_ideal)


def loop_outcomes(models, period_s: float, r_up, r_down, t_up, t_comp, t_down, t_prop,
                  effective_bits, time_feasible) -> tuple:
    """One LoopOutcome per loop i (plant model models[i]) from columns that
    broadcast to one entry per loop, reported under reported_costs' rule."""
    n = len(models)
    table = np.empty((7, n))  # r_up, r_down, t_up, t_comp, t_down, t_prop, eff
    ok = np.empty(n, dtype=bool)
    for row, column in zip((*table, ok), (r_up, r_down, t_up, t_comp, t_down, t_prop,
                                          effective_bits, time_feasible)):
        row[...] = column
    table[6], stable, cost = reported_costs(*control.rate_cost_terms(models), table[6], ok)
    return tuple(LoopOutcome(*times, e, control.cner_bps(e, period_s), s, c, f)
                 for (*times, e), s, c, f in zip(table.T.tolist(), stable.tolist(),
                                                 cost.tolist(), ok.tolist()))


def numpy_pow4(rate: float) -> float:
    """4^rate by numpy's float64 power loop, as control.rate_gap takes it."""
    return np.power(4.0, np.array([rate]))[0].item()


def outcome_formula(model, eff, ok, pow4) -> tuple:
    """(stable, lqr_cost) on Python floats from effective bits eff (clipped
    at 0), the time_feasible flag ok and the power pow4 = 4^min(eff,
    RATE_CLAMP_BITS): stable where ok and 4^R > a^2, and there
    j_ideal + sens*w / (4^R - a^2)."""
    gap = pow4 - model.plant.a * model.plant.a
    stable = ok and eff >= 0.0 and gap > 0.0
    return stable, (model.j_ideal + model.sensitivity * model.plant.w_cov / gap
                    if stable else math.inf)


def dump_lines(tree, indent=""):
    """scenario.dump_scenario's lines by a recursive walk of the tree: each
    level's keys sorted, a section as a `key:` line with its children two
    spaces further in, and a leaf as `key: value` (scenario._scalar)."""
    for key in sorted(tree):
        value = tree[key]
        if isinstance(value, dict):
            yield f"{indent}{key}:\n"
            yield from dump_lines(value, indent + "  ")
        else:
            yield f"{indent}{key}: {_scalar(value)}\n"


def sorted_leaves(node, prefix=""):
    """(dotted path, leaf) for every leaf of a tree or of scenario._SCHEMA,
    in sorted order."""
    for key in sorted(node):
        value = node[key]
        if isinstance(value, dict):
            yield from sorted_leaves(value, f"{prefix}{key}.")
        else:
            yield f"{prefix}{key}", value

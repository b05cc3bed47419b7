"""Independent oracles shared across test modules.

Everything here deliberately avoids the library's own code paths: closed-form
roots, Monte-Carlo simulation, and random problem generators used to validate
the solvers against brute force.
"""
import math

import numpy as np

from satloop.control import Plant
from satloop.linkgeom import Geometry, LinkParams
from satloop.optimize import (MultiLoopProblem, MultiLoopScheme, RobotLoop,
                              SingleLoopObjective, SingleLoopProblem)
from satloop.pipeline import LoopBudget


def scalar_dare_root(a: float, b: float, q: float, r: float) -> float:
    """Positive root of the scalar Riccati quadratic.

    s = q + a^2 s r / (r + b^2 s)  <=>  b^2 s^2 + (r - q b^2 - a^2 r) s - q r = 0
    """
    c2 = b * b
    c1 = r - q * b * b - a * a * r
    c0 = -q * r
    disc = c1 * c1 - 4.0 * c2 * c0
    return (-c1 + math.sqrt(disc)) / (2.0 * c2)


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
    plant = Plant(a=rng.uniform(1.3, 3.0), b=1.0, w_cov=1.0, q=1.0, r_u=1.0,
                  sample_period_s=budget.cycle_period_s)
    objective = [SingleLoopObjective.TASK_ORIENTED, SingleLoopObjective.MAX_THROUGHPUT,
                 SingleLoopObjective.MIN_LATENCY][int(rng.integers(0, 3))]
    return SingleLoopProblem(
        total_bandwidth_hz=10 ** rng.uniform(4.3, 5.3),
        uplink_template=uplink, downlink_template=downlink,
        budget=budget, plant=plant, objective=objective,
        fixed_payload_bits=10 ** rng.uniform(3.0, 5.0))


def random_joint_problem(rng: np.random.Generator, n_robots: int = 2) -> MultiLoopProblem:
    """A feasible random joint power/compute allocation problem."""
    budget = LoopBudget(cycle_period_s=0.02, cycles_per_bit=100.0,
                        compute_rate_cps=1e10, extraction_ratio=0.001)
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
        plant = Plant(a=rng.uniform(1.5, 2.5), b=1.0, w_cov=1.0, q=1.0, r_u=1.0,
                      sample_period_s=budget.cycle_period_s)
        robots.append(RobotLoop(downlink=link, plant=plant, bandwidth_share_hz=share))
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


def central_difference_gradient(evaluator, power_w: np.ndarray, compute_cps: np.ndarray,
                                rel_step: float = 1e-6) -> tuple:
    """Central-difference (dJ/dpower, dJ/dcompute) of a JointEvaluator's cost.

    A check on the analytic JointEvaluator.gradient. The joint cost is a sum
    of per-robot terms, each depending only on that robot's own power and
    compute, so every partial derivative differences that robot's term alone
    (cost_vector); the other robots' infeasibility penalties (about 1e9) then
    stay out of the cancellation. Steps are rel_step * max(|x|, floor), with
    floor a tenth of the power budget for power and the model's 1e-9 cps
    compute floor for compute, so a zero-compute probe stays below the floor.
    """
    problem = evaluator.problem
    floors = (0.1 * problem.total_power_w, 1e-9)
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


def reference_capped_simplex(x: np.ndarray, total: float) -> np.ndarray:
    """Projection of each row (last axis) onto {x >= 0, sum(x) <= total}.

    The reference for optimize.project_capped_simplex: the same sort-based
    method (Duchi et al., ICML 2008) written with one masked maximum and
    take_along_axis over any number of leading axes.
    """
    x = np.maximum(x, 0.0)
    u = np.sort(x, axis=-1)[..., ::-1]
    cumulative = np.cumsum(u, axis=-1) - total
    counts = np.arange(1, x.shape[-1] + 1)
    valid = u - cumulative / counts > 0.0
    rho = np.max(np.where(valid, counts, 0), axis=-1, keepdims=True)
    theta = np.take_along_axis(cumulative, rho - 1, axis=-1) / rho
    return np.where(x.sum(axis=-1, keepdims=True) <= total, x, np.maximum(x - theta, 0.0))


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


def reference_projected_gradient(objective, gradient, project, z0: np.ndarray, n: int, *,
                                 optimize_power: bool, max_halvings: int,
                                 max_iter: int = 500, rel_tol: float = 1e-10,
                                 patience: int = 5) -> tuple:
    """One start of optimize._projected_gradient, one row and one halving at a time.

    The same rules, written as a plain loop: Barzilai-Borwein trial step with
    the fallback, Armijo backtracking by halving, patience on the relative
    improvement, and an unconverged stop on a non-finite gradient.
    Returns (z, value, converged, iterations).
    """
    z = project(np.array(z0, dtype=float)[None, :])[0]
    f = objective(z[None, :])[0]
    step = math.nan
    z_prev, g_prev = z.copy(), np.zeros_like(z)
    quiet = 0
    for iterations in range(1, max_iter + 1):
        g = gradient(z[None, :])[0]
        if not optimize_power:
            g[:n] = 0.0
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
            accepted = False
            for _ in range(max_halvings):
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
                z, f, step = cand, fc, s
            else:
                quiet += 1
        if quiet >= patience:
            return z, f, True, iterations
    return z, f, False, max_iter

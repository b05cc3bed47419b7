"""Acceptance gate: every criterion at its stated tolerance and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion. Heavy artifacts (power sweep, contour) are produced once through
the real CLI and shared across criteria.
"""
import math
import time

import numpy as np
import pytest

from satloop.control import (Plant, RateCostModel, dare_solve, is_stabilizable_at,
                             lqr_cost)
from satloop.linkgeom import fspl_db
from satloop.optimize import solve_multi_loop, solve_single_loop
from satloop.report import main
from oracles import (dare_residual, grid_oracle, random_joint_problem,
                     random_single_loop_problem, scalar_dare_root, simulate_quantized_loop)

DARE_TOL = 1e-12


def _report(number: int, message: str) -> None:
    print(f"ACCEPTANCE criterion {number:2d} PASS: {message}")


def _plant(a, b=1.0, q=1.0, r=1.0, w=1.0):
    return Plant(a=a, b=b, w_cov=w, q=q, r_u=r)


def _read_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


@pytest.fixture(scope="module")
def cli_runs(tmp_path_factory):
    """Each CSV-producing CLI verb run twice on the built-in baseline."""
    base = tmp_path_factory.mktemp("acceptance")
    durations = {}
    for verb in ("single-loop", "multi-loop", "contour"):
        for attempt in (1, 2):
            out = base / f"{verb}-{attempt}"
            started = time.perf_counter()
            code = main([verb, "--out", str(out)])
            elapsed = time.perf_counter() - started
            assert code == 0, f"{verb} run {attempt} exited {code}"
            if attempt == 1:
                durations[verb] = elapsed
    return {"base": base, "durations": durations}


class TestCriterion1LinkBudget:
    def test_fspl_exactness_and_doubling(self):
        started = time.perf_counter()
        hand = 92.45 + 20.0 * math.log10(600.0) + 20.0 * math.log10(30.0)
        assert abs(fspl_db(600e3, 30e9) - hand) <= 1e-9
        rng = np.random.default_rng(1001)
        for _ in range(1000):
            d = 10 ** rng.uniform(2.0, 7.5)
            f = 10 ** rng.uniform(8.0, 11.5)
            delta = fspl_db(2.0 * d, f) - fspl_db(d, f)
            assert abs(delta - 20.0 * math.log10(2.0)) <= 1e-9
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        _report(1, f"FSPL exact to 1e-9 dB, doubling law on 1000 inputs "
                   f"({elapsed:.2f}s)")


class TestCriterion2Riccati:
    def test_scalar_roots_and_residuals(self):
        started = time.perf_counter()
        for a, expected in ((0.0, 1.0),
                            (1.0, (1.0 + math.sqrt(5.0)) / 2.0),
                            (2.0, 2.0 + math.sqrt(5.0))):
            s = dare_solve(_plant(a))
            assert abs(s - expected) / expected <= 1e-9
        rng = np.random.default_rng(1002)
        for _ in range(100):
            a = rng.uniform(-2.0, 2.0)
            b = rng.uniform(0.7, 1.5) * rng.choice([-1.0, 1.0])
            q = rng.uniform(0.2, 2.0)
            r = rng.uniform(0.2, 2.0)
            plant = _plant(a, b=b, q=q, r=r)
            s = dare_solve(plant)
            assert abs(s - scalar_dare_root(a, b, q, r)) \
                / scalar_dare_root(a, b, q, r) <= 1e-9
            assert dare_residual(plant, s) <= 10.0 * DARE_TOL
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        _report(2, f"scalar DARE roots to 1e-9, residual <= 10*tol on 100 "
                   f"random plants ({elapsed:.2f}s)")


class TestCriterion3DataRateTheorem:
    def test_infeasibility_boundary_and_monotonicity(self):
        started = time.perf_counter()
        model = RateCostModel.from_plant(_plant(2.0))
        assert lqr_cost(model, 1.0) == math.inf          # R = log2|a| exactly
        assert lqr_cost(model, 0.999) == math.inf
        assert lqr_cost(model, 1.0 + 1e-9) != math.inf
        for a in (1.5, 2.0, 3.0):
            m = RateCostModel.from_plant(_plant(a))
            threshold = math.log2(a)
            for rate in np.linspace(0.0, 4.0, 401):
                infeasible = lqr_cost(m, float(rate)) == math.inf
                assert infeasible == (rate <= threshold)
        plant = _plant(2.0)
        flags = [is_stabilizable_at(plant, r, 0.02) for r in np.linspace(0.0, 150.0, 301)]
        assert flags == sorted(flags)
        elapsed = time.perf_counter() - started
        assert elapsed < 1.0
        _report(3, f"infeasible iff R <= log2|a|, stability monotone in rate "
                   f"({elapsed:.2f}s)")


class TestCriterion4RateCostOracle:
    def test_quantized_loop_dominates_closed_form(self):
        started = time.perf_counter()
        plant = _plant(2.0)
        model = RateCostModel.from_plant(plant)
        gain = model.lqr_gain()
        results = {}
        for rate in (2, 3, 4, 6, 8):
            emp = simulate_quantized_loop(2.0, 1.0, 1.0, 1.0, 1.0, gain,
                                          rate, steps=100_000, seed=20240101)
            ana = lqr_cost(model, float(rate))
            assert emp >= ana, f"R={rate}: empirical {emp} < analytic {ana}"
            results[rate] = (emp, ana)
        emp8 = results[8][0]
        assert emp8 <= 1.15 * model.j_ideal
        elapsed = time.perf_counter() - started
        assert elapsed < 30.0
        _report(4, f"Monte-Carlo cost >= J(R) at R in 2,3,4,6,8; R=8 within "
                   f"{100 * (emp8 / model.j_ideal - 1):.1f}% of ideal ({elapsed:.1f}s)")


class TestCriterion5SingleLoopOrdering:
    def test_scheme_ordering_with_margin(self, cli_runs):
        started = time.perf_counter()
        header, rows = _read_csv(cli_runs["base"] / "single-loop-1" / "single_loop.csv")
        cost = {row[0]: float(row[header.index("lqr_cost")]) for row in rows}
        task, latency, throughput = (cost["task_oriented"], cost["min_latency"],
                                     cost["max_throughput"])
        assert task <= latency <= throughput
        assert (latency - task) / latency >= 0.01
        assert math.isfinite(task) and math.isfinite(latency)
        elapsed = time.perf_counter() - started + cli_runs["durations"]["single-loop"]
        assert elapsed < 10.0
        _report(5, f"LQR ordering task({task:.4f}) <= min-latency({latency:.4f}) "
                   f"<= max-throughput({throughput}) with "
                   f"{100 * (latency - task) / latency:.1f}% margin ({elapsed:.1f}s)")


class TestCriterion6PowerSweep:
    def test_task_oriented_dominates_sweep(self, cli_runs):
        header, rows = _read_csv(cli_runs["base"] / "multi-loop-1" / "multi_loop_sweep.csv")
        assert len(rows) == 20
        powers = [float(r[0]) for r in rows]
        assert powers[0] == 1.0 and powers[-1] == 40.0
        task = [float(r[header.index("lqr_task_oriented")]) for r in rows]
        max_t = [float(r[header.index("lqr_max_throughput")]) for r in rows]
        comp = [float(r[header.index("lqr_compute_only")]) for r in rows]
        for i in range(len(rows)):
            assert task[i] <= max_t[i] + 1e-12
            assert task[i] <= comp[i] + 1e-12
        adv_low = min(max_t[0], comp[0]) - task[0]
        adv_high = min(max_t[-1], comp[-1]) - task[-1]
        assert adv_low > adv_high
        elapsed = cli_runs["durations"]["multi-loop"]
        assert elapsed < 300.0
        _report(6, f"task-oriented lowest at all 20 power points; advantage "
                   f"{adv_low:.2e} @1W > {adv_high:.2e} @40W ({elapsed:.1f}s)")


class TestCriterion7PowerAllocation:
    def test_worst_robot_gets_most_power(self, cli_runs):
        header, rows = _read_csv(
            cli_runs["base"] / "multi-loop-1" / "multi_loop_allocation.csv")
        i_task = header.index("power_task_oriented_w")
        i_maxt = header.index("power_max_throughput_w")
        task_powers = [float(r[i_task]) for r in rows]
        maxt_powers = [float(r[i_maxt]) for r in rows]
        worst = task_powers[-1]
        assert all(worst > p for p in task_powers[:-1])
        assert worst > maxt_powers[-1]
        _report(7, f"worst-channel robot gets {worst:.3f} W under task-oriented "
                   f"vs {max(task_powers[:-1]):.3f} W (next) and "
                   f"{maxt_powers[-1]:.3f} W (max-throughput)")


class TestCriterion8Contour:
    def test_monotone_with_diminishing_returns(self, cli_runs):
        header, rows = _read_csv(cli_runs["base"] / "contour-1" / "contour.csv")
        matrix = np.array([[float(v) for v in row[1:]] for row in rows])
        assert matrix.shape == (20, 20)
        assert np.all(np.diff(matrix, axis=0) <= 1e-12)   # non-increasing in power
        assert np.all(np.diff(matrix, axis=1) <= 1e-12)   # non-increasing in compute
        assert np.diff(matrix, n=2, axis=0).min() >= -1e-6
        assert np.diff(matrix, n=2, axis=1).min() >= -1e-6
        elapsed = cli_runs["durations"]["contour"]
        assert elapsed < 600.0
        _report(8, f"20x20 contour monotone on both axes, second differences "
                   f">= {min(np.diff(matrix, n=2, axis=0).min(), np.diff(matrix, n=2, axis=1).min()):.1e} "
                   f"({elapsed:.1f}s)")


class TestCriterion9OracleEquivalence:
    def test_solvers_match_grid_oracles(self):
        started = time.perf_counter()
        rng = np.random.default_rng(20250810)
        worst_single = 0.0
        for _ in range(20):
            problem = random_single_loop_problem(rng)
            solved = solve_single_loop(problem)
            oracle = grid_oracle(problem, 10001)
            rel = abs(solved.objective_value - oracle.objective_value) \
                / max(abs(oracle.objective_value), 1e-300)
            worst_single = max(worst_single, rel)
            assert rel <= 1e-6
        rng2 = np.random.default_rng(77)
        worst_joint = 0.0
        for _ in range(5):
            problem = random_joint_problem(rng2, n_robots=2)
            solved = solve_multi_loop(problem)
            oracle = grid_oracle(problem, 200)
            rel = abs(solved.objective_value - oracle.objective_value) \
                / max(abs(oracle.objective_value), 1e-300)
            worst_joint = max(worst_joint, rel)
            assert rel <= 1e-3
        elapsed = time.perf_counter() - started
        assert elapsed < 300.0
        _report(9, f"single-loop within {worst_single:.1e} of 10001-point grid "
                   f"(20 problems); joint within {worst_joint:.1e} of sliced "
                   f"200^2 grid (5 problems) ({elapsed:.1f}s)")


class TestCriterion10Determinism:
    def test_csv_outputs_byte_identical(self, cli_runs, capsys):
        base = cli_runs["base"]
        compared = 0
        for verb, names in (("single-loop", ["single_loop.csv"]),
                            ("multi-loop", ["multi_loop_sweep.csv",
                                            "multi_loop_allocation.csv"]),
                            ("contour", ["contour.csv"])):
            for name in names:
                first = (base / f"{verb}-1" / name).read_bytes()
                second = (base / f"{verb}-2" / name).read_bytes()
                assert first == second, f"{verb}/{name} differs between runs"
                compared += 1
        assert main(["validate"]) == 0
        out1 = capsys.readouterr().out
        assert main(["validate"]) == 0
        out2 = capsys.readouterr().out
        assert out1 == out2
        _report(10, f"{compared} CSV files byte-identical across consecutive "
                    f"runs; validate output stable")

"""Solver tests: constraint satisfaction, oracle dominance, determinism."""
import copy
import dataclasses
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import satloop
from satloop import optimize

from satloop.control import Plant, RateCostModel, lqr_cost
from satloop.linkgeom import Geometry, LinkParams, shannon_rate_bps, slant_range_m
from satloop.optimize import (JointEvaluator, MultiLoopProblem, MultiLoopScheme,
                              RobotLoop, SingleLoopObjective, SingleLoopProblem,
                              project_capped_simplex, solve_multi_loop,
                              solve_single_loop, sweep_contour, water_fill_power)
from satloop.pipeline import LoopBudget, balanced_times, evaluate_cycle, propagation_delay_s
from satloop.scenario import default_scenario
from oracles import (DimensionTooLargeError, central_difference_gradient,
                     compute_only_kkt, grid_oracle, random_joint_problem,
                     random_single_loop_problem, reference_capped_simplex,
                     reference_projected_gradient, water_fill_power_fixed_steps)


def _symmetric_problem(objective):
    link = LinkParams(tx_power_w=1.0, tx_gain_dbi=30.0, rx_gain_dbi=30.0,
                      carrier_freq_hz=30e9, bandwidth_hz=1.0,
                      noise_temperature_k=290.0, geometry=Geometry(600e3, 90.0))
    return SingleLoopProblem(
        total_bandwidth_hz=40e3, uplink_template=link, downlink_template=link,
        budget=LoopBudget(), plant=Plant(a=2.0, b=1.0, w_cov=1.0, q=1.0, r_u=1.0,
                                         sample_period_s=0.02),
        objective=objective, fixed_payload_bits=1e4)


def _monotone_violations(values: np.ndarray, rel_step: float = 1e-12) -> int:
    """Grid steps that rise before the argmin or fall after it, by more than
    rel_step of the larger neighbour."""
    k = int(np.argmin(values))
    step = np.diff(values)
    slack = rel_step * np.maximum(np.abs(values[:-1]), np.abs(values[1:]))
    return int((step[:k] > slack[:k]).sum() + (-step[k:] > slack[k:]).sum())


class TestSingleLoop:
    def test_symmetric_max_throughput_splits_evenly(self):
        result = solve_single_loop(_symmetric_problem(SingleLoopObjective.MAX_THROUGHPUT))
        assert result.decision["bandwidth_up_hz"] == pytest.approx(20e3, rel=1e-3)

    def test_bandwidth_conservation(self):
        scn = default_scenario()
        for objective in SingleLoopObjective:
            result = solve_single_loop(scn.single_loop_problem(objective))
            total = (result.decision["bandwidth_up_hz"]
                     + result.decision["bandwidth_down_hz"])
            assert total == pytest.approx(scn.tree["single_loop"]["total_bandwidth_hz"],
                                          rel=1e-9)

    def test_task_oriented_beats_other_schemes_on_default(self):
        scn = default_scenario()
        scores = {}
        for objective in SingleLoopObjective:
            scores[objective] = solve_single_loop(
                scn.single_loop_problem(objective)).lqr_total
        task = scores[SingleLoopObjective.TASK_ORIENTED]
        assert task <= scores[SingleLoopObjective.MIN_LATENCY]
        assert task <= scores[SingleLoopObjective.MAX_THROUGHPUT]

    def test_objective_matches_reevaluation(self):
        scn = default_scenario()
        result = solve_single_loop(
            scn.single_loop_problem(SingleLoopObjective.TASK_ORIENTED))
        outcome = result.per_loop_outcomes[0]
        assert result.objective_value == pytest.approx(
            float(outcome.lqr_cost), rel=1e-12)

    def test_stable_plant_all_schemes_finite(self):
        scn = default_scenario()
        problem = scn.single_loop_problem(SingleLoopObjective.MAX_THROUGHPUT)
        stable = Plant(a=0.9, b=1.0, w_cov=1.0, q=1.0, r_u=1.0, sample_period_s=0.02)
        problem = SingleLoopProblem(
            total_bandwidth_hz=problem.total_bandwidth_hz,
            uplink_template=problem.uplink_template,
            downlink_template=problem.downlink_template,
            budget=problem.budget, plant=stable, objective=problem.objective)
        result = solve_single_loop(problem)
        outcome = result.per_loop_outcomes[0]
        assert outcome.lqr_cost != math.inf
        assert outcome.stable

    def test_oracle_equivalence_random_problems(self):
        """Golden section within 1e-6 relative of a 10001-point grid."""
        rng = np.random.default_rng(2024)
        for _ in range(8):
            problem = random_single_loop_problem(rng)
            solved = solve_single_loop(problem)
            oracle = grid_oracle(problem, 10001)
            scale = max(abs(oracle.objective_value), 1e-300)
            assert (solved.objective_value - oracle.objective_value) / scale <= 1e-6

    def test_all_infeasible_reported_with_best_effort_split(self):
        """No split stabilizes: flagged, Infeasible cost, split still returned."""
        base = _symmetric_problem(SingleLoopObjective.TASK_ORIENTED)
        starved = SingleLoopProblem(
            total_bandwidth_hz=100.0,  # orders of magnitude below the threshold
            uplink_template=base.uplink_template,
            downlink_template=base.downlink_template,
            budget=base.budget, plant=base.plant,
            objective=SingleLoopObjective.TASK_ORIENTED)
        result = solve_single_loop(starved)
        assert result.solver_trace.all_infeasible
        assert result.per_loop_outcomes[0].lqr_cost == math.inf
        assert 0.0 < result.decision["bandwidth_up_hz"] < 100.0

    def test_objectives_are_unimodal(self):
        """The premise of the golden-section search: on a 2001-point grid each
        objective never rises before its argmin and never falls after it."""
        rng = np.random.default_rng(11)
        problems = [default_scenario().single_loop_problem(SingleLoopObjective.TASK_ORIENTED)]
        problems += [random_single_loop_problem(rng) for _ in range(300)]
        for problem in problems:
            model = RateCostModel.from_plant(problem.plant)
            b_tot = problem.total_bandwidth_hz
            grid = np.linspace(1e-6 * b_tot, b_tot - 1e-6 * b_tot, 2001)
            for objective in SingleLoopObjective:
                fn = optimize._single_objective_fn(
                    dataclasses.replace(problem, objective=objective), model)
                assert _monotone_violations(fn(grid)) == 0, (problem, objective)
        # the check sees a ripple of one part in a thousand
        ripple = 1.0 + 1e-3 * np.sin(grid * (100.0 * math.pi / b_tot))
        assert _monotone_violations(fn(grid) * ripple) > 0

    @pytest.mark.parametrize("objective", list(SingleLoopObjective))
    def test_array_objective_matches_cycle_model_at_check_points(self, objective):
        """One array call at the 101 check points equals the per-point cycle model."""
        problem = default_scenario().single_loop_problem(objective)
        model = RateCostModel.from_plant(problem.plant)
        b_tot = problem.total_bandwidth_hz
        grid = np.linspace(1e-6 * b_tot, b_tot - 1e-6 * b_tot, 101)
        got = optimize._single_objective_fn(problem, model)(grid)
        t_prop = propagation_delay_s(slant_range_m(problem.uplink_template.geometry),
                                     slant_range_m(problem.downlink_template.geometry))
        infeasible = set()
        for b_up, value in zip(grid.tolist(), got):
            uplink = problem.uplink_template.with_bandwidth(b_up)
            downlink = problem.downlink_template.with_bandwidth(b_tot - b_up)
            r_up, r_down = shannon_rate_bps(uplink), shannon_rate_bps(downlink)
            if objective == SingleLoopObjective.MAX_THROUGHPUT:
                want = -(r_up + r_down)
            elif objective == SingleLoopObjective.MIN_LATENCY:
                want = problem.fixed_payload_bits / r_up + problem.fixed_payload_bits / r_down
            else:
                t_up, t_down = balanced_times(uplink, downlink, problem.budget, t_prop)
                eff = evaluate_cycle(uplink, downlink, problem.budget, problem.plant,
                                     t_up, t_down, model=model).effective_bits_per_cycle
                want = lqr_cost(model, eff)
                infeasible.add(want == math.inf)
                if want == math.inf:
                    want = optimize.INFEASIBILITY_PENALTY + (model.threshold_bits - eff)
            assert value == pytest.approx(want, rel=1e-12), b_up
        if objective == SingleLoopObjective.TASK_ORIENTED:
            assert infeasible == {True, False}


class TestProjection:
    def test_inside_untouched(self):
        x = np.array([0.2, 0.3])
        assert np.allclose(project_capped_simplex(x, 1.0), x)

    def test_negative_clipped(self):
        x = np.array([-0.5, 0.4])
        assert np.allclose(project_capped_simplex(x, 1.0), [0.0, 0.4])

    def test_oversum_projected(self):
        got = project_capped_simplex(np.array([0.9, 0.9]), 1.0)
        assert got.sum() == pytest.approx(1.0, rel=1e-12)
        assert np.allclose(got, [0.5, 0.5])

    def test_matches_bruteforce(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            x = rng.normal(0.3, 0.6, 4)
            p = project_capped_simplex(x.copy(), 1.0)
            assert p.min() >= 0.0
            assert p.sum() <= 1.0 + 1e-12
            # any random feasible point must not be closer to x
            for _ in range(200):
                cand = rng.dirichlet(np.ones(4)) * rng.uniform(0.0, 1.0)
                assert (np.sum((x - p) ** 2)
                        <= np.sum((x - cand) ** 2) + 1e-9)

    @settings(max_examples=200, deadline=None)
    @given(batch=arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
                        elements=st.floats(-3.0, 3.0)),
           total=st.floats(0.1, 5.0))
    def test_rows_match_one_dimensional(self, batch, total):
        """A batch is projected row by row, exactly as each row alone."""
        got = project_capped_simplex(batch, total)
        assert got.shape == batch.shape
        for row, projected in zip(batch, got):
            assert np.array_equal(projected, project_capped_simplex(row, total))

    # ties and zeros from a small pool, rows inside the cap (scale 1e-3) and
    # entries that dwarf the total (scale 1e18: no sorted entry is valid)
    _ENTRIES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0]), st.floats(-3.0, 3.0))

    @settings(max_examples=300, deadline=None)
    @given(rows=st.integers(1, 8), blocks=st.sampled_from([None, 2]), n=st.integers(1, 6),
           data=st.data(), scale=st.sampled_from([1.0, 1e-3, 1e18]),
           total=st.one_of(st.just(1.0), st.floats(0.1, 5.0)))
    def test_equals_reference_bit_for_bit(self, rows, blocks, n, data, scale, total):
        shape = (rows, n) if blocks is None else (rows, blocks, n)
        x = data.draw(arrays(np.float64, shape, elements=self._ENTRIES)) * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            got = project_capped_simplex(x, total)
            want = reference_capped_simplex(x, total)
        assert got.shape == x.shape
        assert np.array_equal(got, want, equal_nan=True)


class TestWaterFilling:
    def test_budget_used_exactly(self):
        problem = default_scenario().multi_loop_problem(
            MultiLoopScheme.MAX_THROUGHPUT_JOINT, total_power_w=5.0)
        ev = JointEvaluator(problem)
        alloc = water_fill_power(ev, 5.0)
        assert alloc.sum() == pytest.approx(5.0, rel=1e-9)
        assert alloc.min() >= 0.0

    def test_equals_fixed_step_bisection(self):
        """Stopping when the bracket freezes gives the 200-step allocation exactly."""
        rng = np.random.default_rng(23)
        problems = [default_scenario().multi_loop_problem(
            MultiLoopScheme.MAX_THROUGHPUT_JOINT, total_power_w=5.0)]
        problems += [random_joint_problem(rng, n_robots=k) for k in (1, 2, 3, 6)]
        for problem in problems:
            ev = JointEvaluator(problem)
            for budget in (1e-3, 0.1, 1.0, 5.0, 40.0, 1e4):
                got = water_fill_power(ev, budget)
                assert np.array_equal(got, water_fill_power_fixed_steps(ev, budget))

    def test_maximizes_throughput_vs_random(self):
        problem = default_scenario().multi_loop_problem(
            MultiLoopScheme.MAX_THROUGHPUT_JOINT, total_power_w=3.0)
        ev = JointEvaluator(problem)
        best = ev.rates_bps(water_fill_power(ev, 3.0)).sum()
        rng = np.random.default_rng(17)
        for _ in range(400):
            alloc = rng.dirichlet(np.ones(ev.n)) * 3.0
            assert ev.rates_bps(alloc).sum() <= best + 1e-6 * best


class TestMultiLoop:
    def test_single_robot_gets_everything(self):
        scn = default_scenario()
        full = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                      total_power_w=5.0)
        problem = MultiLoopProblem(
            robots=full.robots[:1], total_power_w=5.0,
            total_compute_cps=full.total_compute_cps, budget=full.budget,
            scheme=MultiLoopScheme.TASK_ORIENTED_JOINT,
            uplink_fixed_bits=full.uplink_fixed_bits)
        result = solve_multi_loop(problem, seed=1)
        assert result.decision["power_w"][0] == pytest.approx(5.0, rel=1e-6)
        assert result.decision["compute_cps"][0] == pytest.approx(
            full.total_compute_cps, rel=1e-6)

    def test_identical_robots_equal_allocation(self):
        scn = default_scenario()
        base = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                      total_power_w=4.0)
        clone = base.robots[2]
        problem = MultiLoopProblem(
            robots=(clone,) * 4, total_power_w=4.0,
            total_compute_cps=base.total_compute_cps, budget=base.budget,
            scheme=MultiLoopScheme.TASK_ORIENTED_JOINT,
            uplink_fixed_bits=base.uplink_fixed_bits)
        result = solve_multi_loop(problem, seed=1)
        ev = JointEvaluator(problem)
        equal_value = float(ev.total_cost(np.full(4, 1.0), np.full(4, base.total_compute_cps / 4)))
        assert result.lqr_total <= equal_value * (1 + 1e-4)

    def test_constraints_satisfied(self):
        scn = default_scenario()
        for scheme in MultiLoopScheme:
            result = solve_multi_loop(
                scn.multi_loop_problem(scheme, total_power_w=5.0), seed=scn.seed)
            assert result.decision["power_w"].sum() <= 5.0 * (1 + 1e-9)
            assert result.decision["compute_cps"].sum() <= 1e10 * (1 + 1e-9)
            assert result.decision["power_w"].min() >= 0.0
            assert result.decision["compute_cps"].min() >= 0.0

    def test_objective_matches_reevaluation(self):
        scn = default_scenario()
        problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                         total_power_w=5.0)
        result = solve_multi_loop(problem, seed=1)
        ev = JointEvaluator(problem)
        again = float(ev.total_cost(result.decision["power_w"],
                                    result.decision["compute_cps"]))
        assert result.objective_value == pytest.approx(again, rel=1e-12)
        assert result.lqr_total == pytest.approx(again, rel=1e-12)

    def test_nonconvergent_flagged_but_result_returned(self):
        scn = default_scenario()
        problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                         total_power_w=5.0)
        result = solve_multi_loop(problem, seed=1, max_iter=1)
        assert not result.solver_trace.converged
        assert result.decision["power_w"].sum() <= 5.0 * (1 + 1e-9)
        assert math.isfinite(result.lqr_total)

    def test_deterministic_given_seed(self):
        scn = default_scenario()
        problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                         total_power_w=3.0)
        r1 = solve_multi_loop(problem, seed=7)
        r2 = solve_multi_loop(problem, seed=7)
        assert np.array_equal(r1.decision["power_w"], r2.decision["power_w"])
        assert np.array_equal(r1.decision["compute_cps"], r2.decision["compute_cps"])
        assert r1.objective_value == r2.objective_value

    def test_monotone_in_budgets(self):
        scn = default_scenario()
        values_p = []
        for p_tot in (1.0, 4.0, 16.0):
            result = solve_multi_loop(
                scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                       total_power_w=p_tot), seed=1)
            values_p.append(result.lqr_total)
        assert values_p[0] >= values_p[1] >= values_p[2]
        values_c = []
        for f_tot in (0.9e10, 1.5e10, 3e10):
            result = solve_multi_loop(
                scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                       total_power_w=5.0,
                                       total_compute_cps=f_tot), seed=1)
            values_c.append(result.lqr_total)
        assert values_c[0] >= values_c[1] >= values_c[2]

    def test_joint_oracle_equivalence(self):
        """Two-robot solver within 1e-3 relative of the sliced grid oracle."""
        rng = np.random.default_rng(31)
        for _ in range(3):
            problem = random_joint_problem(rng, n_robots=2)
            solved = solve_multi_loop(problem, seed=3)
            oracle = grid_oracle(problem, 200)
            scale = max(abs(oracle.objective_value), 1e-300)
            assert (solved.objective_value - oracle.objective_value) / scale <= 1e-3

    def test_compute_only_matches_kkt_oracle(self):
        """The compute-only scheme equals its KKT solution at every baseline power point.

        All 21 points the multi-loop verb solves: the 20-point sweep and the
        allocation point.
        """
        scn = default_scenario()
        ml = scn.tree["multi_loop"]
        points = [*scn.power_sweep_w().tolist(), ml["allocation_power_w"]]
        assert len(points) == 21
        for total_power in points:
            problem = scn.multi_loop_problem(MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM,
                                             total_power_w=total_power)
            result = solve_multi_loop(problem, seed=scn.seed)
            assert result.lqr_total == pytest.approx(compute_only_kkt(problem), rel=1e-9,
                                                     abs=0.0), total_power


def _default_joint(extraction_scale=1.0):
    problem = default_scenario().multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                                    total_power_w=5.0)
    budget = dataclasses.replace(
        problem.budget, extraction_ratio=problem.budget.extraction_ratio * extraction_scale)
    return dataclasses.replace(problem, budget=budget)


class TestJointEvaluator:
    def test_one_rate_cost_model_per_distinct_plant(self):
        shared = JointEvaluator(_default_joint())
        assert all(m is shared.models[0] for m in shared.models)
        distinct = JointEvaluator(random_joint_problem(np.random.default_rng(5), n_robots=3))
        assert len({id(m) for m in distinct.models}) == 3
        for robot, model in zip(distinct.problem.robots, distinct.models):
            assert model.plant is robot.plant

    def test_outcomes_hand_computed(self):
        """A capped, an uncapped and a zero-compute robot, from the link budget up.

        Default plant a = 2, b = q = r = w = 1: j_ideal = 2 + sqrt5,
        sensitivity = 7 + 3 sqrt5, threshold 1 bit per 20 ms step.
        """
        problem = _default_joint(extraction_scale=0.03)
        cap = problem.budget.extraction_ratio * problem.uplink_fixed_bits
        assert cap == pytest.approx(6.0)
        power = np.array([2.0, 0.1, 1.0, 1.0, 0.9])
        compute = np.array([2.5e9, 2.5e9, 0.0, 2.5e9, 2.5e9])
        outs = JointEvaluator(problem).outcomes(power, compute)

        def cost(eff):
            return 2.0 + math.sqrt(5.0) + (7.0 + 3.0 * math.sqrt(5.0)) / (4.0 ** eff - 4.0)

        cycles = problem.budget.cycles_per_bit * problem.uplink_fixed_bits
        for i in (0, 4, 2):
            robot, out = problem.robots[i], outs[i]
            link = dataclasses.replace(robot.downlink, tx_power_w=float(power[i]),
                                       bandwidth_hz=robot.bandwidth_share_hz)
            rate = shannon_rate_bps(link)
            t_prop = 2.0 * slant_range_m(link.geometry) / 299792458.0
            t_comp = cycles / max(compute[i], 1e-9)
            window = 0.02 - t_prop - t_comp
            assert (out.uplink_rate_bps, out.t_up_s) == (0.0, 0.0)
            assert out.downlink_rate_bps == pytest.approx(rate, rel=1e-12)
            assert out.t_prop_s == pytest.approx(t_prop, rel=1e-12)
            assert out.t_comp_s == pytest.approx(t_comp, rel=1e-12)
            if i == 0:  # capped: the downlink stops once the cap is delivered
                assert rate * window > cap
                assert out.effective_bits_per_cycle == cap
                assert out.t_down_s == pytest.approx(cap / rate, rel=1e-12)
            elif i == 4:  # uncapped: the whole window carries command bits
                assert 1.0 < rate * window < cap
                assert out.effective_bits_per_cycle == pytest.approx(rate * window, rel=1e-12)
                assert out.t_down_s == pytest.approx(window, rel=1e-12)
            else:  # no compute: the cycle never fits
                assert not out.time_feasible and not out.stable
                assert (out.effective_bits_per_cycle, out.cner_bps, out.t_down_s) == (0.0, 0.0, 0.0)
                assert out.lqr_cost == math.inf
                continue
            eff = out.effective_bits_per_cycle
            assert out.time_feasible and out.stable
            assert out.cner_bps == pytest.approx(eff / 0.02, rel=1e-12)
            assert out.lqr_cost == pytest.approx(cost(eff), rel=1e-12)


class TestAnalyticGradient:
    """JointEvaluator.gradient against the central-difference oracle."""

    @staticmethod
    def _compared(problem, mask_fn, rel_step, rtol, draws=200):
        ev = JointEvaluator(problem)
        rng = np.random.default_rng(11)
        compared = 0
        for _ in range(draws):
            power = rng.dirichlet(np.ones(ev.n)) * problem.total_power_w
            compute = rng.dirichlet(np.ones(ev.n)) * problem.total_compute_cps
            window = ev.t_budget - ev.comp_cycles / compute
            raw = ev.rates_bps(power) * window
            mask = mask_fn(ev, power, raw, window)
            if not mask.any():
                continue
            analytic = ev.gradient(power, compute)
            with np.errstate(invalid="ignore"):  # probes below zero power are unused
                oracle = central_difference_gradient(ev, power, compute, rel_step=rel_step)
            for got, want in zip(analytic, oracle):
                np.testing.assert_allclose(got[mask], want[mask], rtol=rtol, atol=0.0)
            compared += int(mask.sum())
        return compared

    def test_interior_points(self):
        # feasible, uncapped, and with eff small enough that the cost still
        # moves by more than its rounding over a 1e-6 relative step
        def interior(ev, power, raw, window):
            return (raw > ev.threshold_bits + 0.05) & (raw < min(0.999 * ev.cap_bits, 8.0))
        assert self._compared(_default_joint(), interior, 1e-6, 1e-5) > 50

    def test_capped_robots_have_zero_gradient(self):
        def capped(ev, power, raw, window):
            return raw > 1.001 * ev.cap_bits
        problem = _default_joint(extraction_scale=0.03)  # a cap of a few bits
        assert self._compared(problem, capped, 1e-6, 0.0) > 50

    def test_penalty_region(self):
        # The ~1e9 penalty leaves about 1e-7 of absolute resolution in each
        # cost difference, so the oracle needs a wider step and the window
        # must stay clear of zero, where the power slope vanishes.
        def penalty(ev, power, raw, window):
            return ((raw < ev.threshold_bits - 0.05)
                    & (np.abs(window) > 0.1 * ev.t_budget) & (power > 0.05))
        assert self._compared(_default_joint(), penalty, 1e-3, 2e-3) > 50

    def test_zero_compute_boundary(self):
        """A robot with no compute: steep power slope, flat compute slope."""
        problem = _default_joint()
        ev = JointEvaluator(problem)
        power = np.full(ev.n, problem.total_power_w / ev.n)
        compute = np.full(ev.n, problem.total_compute_cps / (ev.n - 1))
        compute[0] = 0.0
        d_power, d_compute = ev.gradient(power, compute)
        o_power, o_compute = central_difference_gradient(ev, power, compute)
        assert d_power[0] > 1e15  # deep in the penalty: more power only loses bits
        assert d_compute[0] == 0.0 == o_compute[0]
        np.testing.assert_allclose(d_power, o_power, rtol=1e-5)
        np.testing.assert_allclose(d_compute, o_compute, rtol=1e-5)


class TestBatchedPgd:
    @pytest.mark.parametrize("optimize_power", [True, False])
    def test_rows_match_single_row_runs(self, optimize_power):
        problem = _default_joint()
        ev = JointEvaluator(problem)
        p_tot, f_tot = problem.total_power_w, problem.total_compute_cps
        objective, gradient = optimize._scaled_objective(ev, p_tot, f_tot)
        starts = np.array(optimize._task_starts(ev, p_tot, f_tot, 6, 3, ()))
        batch = optimize._projected_gradient(objective, gradient, starts, ev.n,
                                             optimize_power=optimize_power)
        for row, z0 in enumerate(starts):
            alone = optimize._projected_gradient(objective, gradient, z0[None, :], ev.n,
                                                 optimize_power=optimize_power)
            assert batch.value[row] == pytest.approx(alone.value[0], rel=1e-12)
            assert batch.converged[row] == alone.converged[0]

    @pytest.mark.parametrize("optimize_power", [True, False])
    def test_batch_equals_plain_loop_bit_for_bit(self, optimize_power):
        """Every row's iterates, value, flag and iteration count equal a plain loop."""
        rng = np.random.default_rng(8)
        problems = [_default_joint(), _default_joint(extraction_scale=0.03)]
        problems += [random_joint_problem(rng, n_robots=k) for k in (2, 3, 4)]
        for problem in problems:
            ev = JointEvaluator(problem)
            p_tot, f_tot = problem.total_power_w, problem.total_compute_cps
            objective, gradient = optimize._scaled_objective(ev, p_tot, f_tot)
            starts = np.array(optimize._task_starts(ev, p_tot, f_tot, 12, 5, ()))
            starts[-1] = np.concatenate([np.eye(ev.n)[0], np.eye(ev.n)[-1]])  # a vertex
            kwargs = dict(optimize_power=optimize_power, max_iter=150)
            batch = optimize._projected_gradient(objective, gradient, starts, ev.n, **kwargs)

            def project(z):
                if optimize_power:
                    return project_capped_simplex(z.reshape(-1, 2, ev.n), 1.0).reshape(z.shape)
                return np.concatenate([z[:, :ev.n], project_capped_simplex(z[:, ev.n:], 1.0)],
                                      axis=1)
            iterations = 0
            for row, z0 in enumerate(starts):
                z, value, converged, iters = reference_projected_gradient(
                    objective, gradient, project, z0, ev.n,
                    max_halvings=optimize.MAX_HALVINGS, **kwargs)
                assert np.array_equal(batch.z[row], z)
                assert batch.value[row] == value and batch.converged[row] == converged
                iterations += iters
            assert batch.iterations == iterations

    def test_blocked_backtracking_matches_one_halving_at_a_time(self):
        """Each row takes the first passing halving, across block boundaries."""
        problem = _default_joint()
        ev = JointEvaluator(problem)
        objective, gradient = optimize._scaled_objective(
            ev, problem.total_power_w, problem.total_compute_cps)

        def project(z):
            return project_capped_simplex(z.reshape(-1, 2, ev.n), 1.0).reshape(z.shape)

        rng = np.random.default_rng(4)
        z = project(np.concatenate([rng.dirichlet(np.ones(ev.n), 40),
                                    rng.dirichlet(np.ones(ev.n), 40)], axis=1))
        step = 10.0 ** rng.uniform(-12.0, 8.0, len(z))  # from no halving to many blocks
        grad = gradient(z)
        # row 0 sits on a vertex and is pushed straight out of it: the
        # projected move is exactly zero, so the row stops unaccepted
        z[0] = np.concatenate([np.eye(ev.n)[0], np.eye(ev.n)[1]])
        grad[0], step[0] = -z[0], 4.0
        fz = objective(z)
        got = optimize._backtrack(objective, project, z, fz, grad, step)
        for i in range(len(z)):
            want = (False, z[i], fz[i], step[i])
            s = step[i]
            for _ in range(optimize.MAX_HALVINGS):
                cand = project(z[i:i + 1] - s * grad[i:i + 1])[0]
                move_sq = float((cand - z[i]) @ (cand - z[i]))
                if move_sq == 0.0:
                    break
                fc = float(objective(cand[None, :])[0])
                if fc <= fz[i] - 1e-2 * move_sq / s:
                    want = (True, cand, fc, s)
                    break
                s *= 0.5
            assert got[0][i] == want[0]
            assert np.array_equal(got[1][i], want[1])
            assert got[2][i] == want[2] and got[3][i] == want[3]
        assert not got[0][0] and got[0].sum() > 20

    @pytest.mark.parametrize("optimize_power", [True, False])
    def test_direct_call_emits_no_warning(self, optimize_power):
        """The first Barzilai-Borwein quotient is 0/0; the run stays silent."""
        problem = _default_joint()
        ev = JointEvaluator(problem)
        p_tot, f_tot = problem.total_power_w, problem.total_compute_cps
        objective, gradient = optimize._scaled_objective(ev, p_tot, f_tot)
        starts = np.array(optimize._task_starts(ev, p_tot, f_tot, 6, 3, ()))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = optimize._projected_gradient(objective, gradient, starts, ev.n,
                                                  optimize_power=optimize_power)
        assert result.iterations > len(starts)

    def test_nonfinite_gradient_never_converges(self, monkeypatch):
        def nan_gradient(self, power_w, compute_cps):
            return np.full(power_w.shape, np.nan), np.full(compute_cps.shape, np.nan)
        monkeypatch.setattr(JointEvaluator, "gradient", nan_gradient)
        for scheme in (MultiLoopScheme.TASK_ORIENTED_JOINT,
                       MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM):
            problem = default_scenario().multi_loop_problem(scheme, total_power_w=5.0)
            result = solve_multi_loop(problem, seed=1)
            assert not result.solver_trace.converged
            assert result.solver_trace.iterations == result.solver_trace.restarts

    def test_zero_gradient_is_stationary(self, monkeypatch):
        def flat_gradient(self, power_w, compute_cps):
            return np.zeros(power_w.shape), np.zeros(compute_cps.shape)
        monkeypatch.setattr(JointEvaluator, "gradient", flat_gradient)
        problem = default_scenario().multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                                        total_power_w=5.0)
        result = solve_multi_loop(problem, seed=1, restarts=4)
        assert result.solver_trace.converged
        assert result.solver_trace.iterations == 5 * 4  # patience per start

    @pytest.mark.parametrize("scheme", [MultiLoopScheme.TASK_ORIENTED_JOINT,
                                        MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM])
    def test_converged_reports_the_winning_start(self, monkeypatch, scheme):
        """Only a losing start converged: the solve is not converged."""
        def fake_pgd(objective, gradient, z0, n, **kwargs):
            value = np.full(len(z0), 3.0)
            value[1] = 1.0  # the winner, unconverged
            converged = np.ones(len(z0), dtype=bool)
            converged[1] = False
            return optimize._PgdResult(z0.copy(), value, converged, 7)
        monkeypatch.setattr(optimize, "_projected_gradient", fake_pgd)
        problem = default_scenario().multi_loop_problem(scheme, total_power_w=5.0)
        trace = solve_multi_loop(problem, seed=1).solver_trace
        assert trace.best_restart == 1
        assert not trace.converged


class TestChecksUnderOptimize:
    def test_budget_check_survives_python_o(self):
        """The decision-budget check raises even with assertions stripped."""
        script = (
            "import numpy as np\n"
            "from satloop.optimize import (JointEvaluator, MultiLoopScheme, SolverTrace,\n"
            "                              _multi_result)\n"
            "from satloop.scenario import default_scenario\n"
            "problem = default_scenario().multi_loop_problem(\n"
            "    MultiLoopScheme.TASK_ORIENTED_JOINT, total_power_w=5.0)\n"
            "ev = JointEvaluator(problem)\n"
            "power = np.full(ev.n, 2.0 * problem.total_power_w / ev.n)\n"
            "compute = np.full(ev.n, problem.total_compute_cps / ev.n)\n"
            "try:\n"
            "    _multi_result(ev, power, compute, 0.0, SolverTrace(1, True))\n"
            "except RuntimeError as exc:\n"
            "    print('raised:', exc)\n"
        )
        src = str(Path(satloop.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "raised: allocated power" in proc.stdout


class TestSweepContour:
    def test_single_cell_matches_solver(self):
        scn = default_scenario()
        problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT)
        matrix = sweep_contour(problem, [5.0], [1e10], seed=scn.seed)
        direct = solve_multi_loop(
            scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                   total_power_w=5.0, total_compute_cps=1e10),
            seed=scn.seed, restarts=6)
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == pytest.approx(direct.lqr_total, rel=1e-6)

    def test_small_grid_monotone(self):
        scn = default_scenario()
        problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT)
        matrix = sweep_contour(problem, [1.0, 5.0, 20.0], [0.9e10, 1.4e10, 2.5e10],
                               seed=scn.seed)
        assert np.all(np.diff(matrix, axis=0) <= 1e-9)
        assert np.all(np.diff(matrix, axis=1) <= 1e-9)

    def test_rejects_bad_grids(self):
        scn = default_scenario()
        problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT)
        with pytest.raises(ValueError):
            sweep_contour(problem, [], [1e10])
        with pytest.raises(ValueError):
            sweep_contour(problem, [5.0, 1.0], [1e10])
        with pytest.raises(ValueError):
            sweep_contour(problem, [-1.0, 5.0], [1e10])


class TestGridOracle:
    def test_resolution_one_returns_sole_point(self):
        rng = np.random.default_rng(1)
        problem = random_single_loop_problem(rng)
        result = grid_oracle(problem, 1)
        assert result.decision["bandwidth_up_hz"] == pytest.approx(
            1e-6 * problem.total_bandwidth_hz)

    def test_dimension_guard(self):
        scn = default_scenario()
        problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT)
        assert len(problem.robots) == 5
        with pytest.raises(DimensionTooLargeError):
            grid_oracle(problem, 50)

"""Solver tests: constraint satisfaction, oracle dominance, determinism."""
import argparse
import copy
import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import satloop
from satloop import control, linkgeom, optimize, pipeline, report

from satloop.control import Plant, RateCostModel
from satloop.linkgeom import Geometry, LinkParams, shannon_rate_bps, slant_range_m
from satloop.optimize import (JointEvaluator, MultiLoopProblem, MultiLoopScheme,
                              RobotLoop, SingleLoopObjective, SingleLoopProblem,
                              project_capped_simplex, solve_multi_loop,
                              solve_single_loop, sweep_contour, water_fill_power)
from satloop.pipeline import LoopOutcome, balanced_times, evaluate_cycle, propagation_delay_s
from satloop.report import main
from satloop.scenario import default_scenario, load_scenario
from oracles import (BUDGET, DimensionTooLargeError, all_starts_descend,
                     central_difference_gradient, central_difference_hessian,
                     exact_capped_simplex, compute_only_kkt, grid_oracle, loop_outcomes,
                     multi_start_solve, numpy_pow4, outcome_formula, random_joint_problem,
                     random_single_loop_problem, reference_capped_simplex,
                     reference_projected_gradient, reported_costs, scaled_objective,
                     water_fill_power_fixed_steps)


def _symmetric_problem(objective):
    link = LinkParams(tx_power_w=1.0, tx_gain_dbi=30.0, rx_gain_dbi=30.0,
                      carrier_freq_hz=30e9, bandwidth_hz=1.0,
                      noise_temperature_k=290.0, geometry=Geometry(600e3, 90.0))
    return SingleLoopProblem(
        total_bandwidth_hz=40e3, uplink_template=link, downlink_template=link,
        budget=BUDGET, plant=Plant(a=2.0, b=1.0, w_cov=1.0, q=1.0, r_u=1.0),
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
        stable = Plant(a=0.9, b=1.0, w_cov=1.0, q=1.0, r_u=1.0)
        problem = dataclasses.replace(problem, plant=stable)
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

    @pytest.mark.parametrize("objective", list(SingleLoopObjective))
    def test_all_infeasible_reported_with_best_effort_split(self, objective):
        """No split stabilizes: flagged, Infeasible cost, split still returned."""
        base = _symmetric_problem(objective)
        # orders of magnitude below the threshold
        starved = dataclasses.replace(base, total_bandwidth_hz=100.0)
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
            b_tot = problem.total_bandwidth_hz
            grid = np.linspace(1e-6 * b_tot, b_tot - 1e-6 * b_tot, 2001)
            for objective in SingleLoopObjective:
                fn = optimize._single_objective_fn(
                    dataclasses.replace(problem, objective=objective),
                    optimize._link_rate_fns(problem))
                values = np.array([fn(b_up) for b_up in grid.tolist()])
                assert _monotone_violations(values) == 0, (problem, objective)
        # the check sees a ripple of one part in a thousand
        ripple = 1.0 + 1e-3 * np.sin(grid * (100.0 * math.pi / b_tot))
        assert _monotone_violations(values * ripple) > 0

    @pytest.mark.parametrize("objective", list(SingleLoopObjective))
    def test_array_objective_matches_cycle_model_at_check_points(self, objective):
        """The objective at the 101 check points equals the per-point link model.

        The task-oriented objective is 1/R_up + rho/R_down, and it ranks the
        points in the reverse order of the cycle model's effective bits, across
        the splits that serve the loop and those that starve it.
        """
        problem = default_scenario().single_loop_problem(objective)
        model = RateCostModel.from_plant(problem.plant)
        b_tot = problem.total_bandwidth_hz
        grid = np.linspace(1e-6 * b_tot, b_tot - 1e-6 * b_tot, 101)
        fn = optimize._single_objective_fn(problem, optimize._link_rate_fns(problem))
        got = np.array([fn(b_up) for b_up in grid.tolist()])
        t_prop = propagation_delay_s(slant_range_m(problem.uplink_template.geometry),
                                     slant_range_m(problem.downlink_template.geometry))
        effs, infeasible = [], set()
        for b_up, value in zip(grid.tolist(), got):
            uplink = problem.uplink_template.with_bandwidth(b_up)
            downlink = problem.downlink_template.with_bandwidth(b_tot - b_up)
            r_up, r_down = shannon_rate_bps(uplink), shannon_rate_bps(downlink)
            if objective == SingleLoopObjective.MAX_THROUGHPUT:
                want = -(r_up + r_down)
            elif objective == SingleLoopObjective.MIN_LATENCY:
                want = problem.fixed_payload_bits / r_up + problem.fixed_payload_bits / r_down
            else:
                want = 1.0 / r_up + problem.budget.extraction_ratio / r_down
                t_up, t_down = balanced_times(uplink, downlink, problem.budget, t_prop)
                outcome = evaluate_cycle(uplink, downlink, problem.budget, model, t_up, t_down)
                effs.append(outcome.effective_bits_per_cycle)
                infeasible.add(outcome.lqr_cost == math.inf)
            assert value == pytest.approx(want, rel=1e-12), b_up
        if objective == SingleLoopObjective.TASK_ORIENTED:
            assert infeasible == {True, False}
            ranked = np.array(effs)[np.argsort(got, kind="stable")]
            assert np.all(np.diff(ranked) < 0.0), ranked


class TestSingleLoopScoredByOutcome:
    """A split is scored once, by its outcome: the balanced split always fits
    the cycle, so lqr_total is the outcome's cost, penalized where infinite."""

    @staticmethod
    def _problems():
        from bench.workloads import generate_documents
        rng = np.random.default_rng(18)
        problems = [random_single_loop_problem(rng) for _ in range(200)]
        return problems + [load_scenario(text).single_loop_problem(
            SingleLoopObjective.TASK_ORIENTED) for text in generate_documents(1)]

    def test_lqr_total_is_the_outcome_cost(self):
        for base in self._problems():
            for objective in SingleLoopObjective:
                result = solve_single_loop(dataclasses.replace(base, objective=objective))
                outcome, = result.per_loop_outcomes
                assert outcome.time_feasible, (base, objective)
                if outcome.lqr_cost < math.inf:
                    assert result.lqr_total == outcome.lqr_cost, (base, objective)
                else:
                    assert result.lqr_total >= optimize.INFEASIBILITY_PENALTY, (base, objective)


def _bits(outcome: LoopOutcome) -> list:
    """The outcome's fields, each float as its exact hex form (so -0.0 and 0.0 differ)."""
    return [x if isinstance(x, bool) else float(x).hex() for x in dataclasses.astuple(outcome)]


class TestSingleLoopAtLinkRates:
    """The single-loop search and its result work on Python floats from one
    link budget per link, and score exactly the rates, times and costs that
    the link-level functions report."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1))
    def test_search_rate_is_the_shannon_rate(self, seed):
        """The search's rate at any bandwidth in [delta, B - delta] is
        shannon_rate_bps of the template at that bandwidth, bit for bit."""
        rng = np.random.default_rng(seed)
        problem = random_single_loop_problem(rng)
        b_tot = problem.total_bandwidth_hz
        delta = 1e-6 * b_tot
        inner = (delta + rng.uniform(size=1000) * (b_tot - 2.0 * delta)).tolist()
        bandwidths = [delta, b_tot - delta] + [min(max(b, delta), b_tot - delta) for b in inner]
        for template, rate in zip((problem.uplink_template, problem.downlink_template),
                                  optimize._link_rate_fns(problem)):
            for b in bandwidths:
                got = rate(b)
                assert type(got) is float
                assert got == shannon_rate_bps(template.with_bandwidth(b)), (template, b)

    def test_outcome_is_the_link_level_cycle(self):
        """solve_single_loop's outcome equals, field by field and bit for bit,
        balanced_times plus evaluate_cycle on the links of its split."""
        for base in TestSingleLoopScoredByOutcome._problems():
            model = RateCostModel.from_plant(base.plant)
            for objective in SingleLoopObjective:
                problem = dataclasses.replace(base, objective=objective)
                result = solve_single_loop(problem)
                b_up, b_down = (result.decision["bandwidth_up_hz"],
                                result.decision["bandwidth_down_hz"])
                assert b_down == problem.total_bandwidth_hz - b_up
                uplink = problem.uplink_template.with_bandwidth(b_up)
                downlink = problem.downlink_template.with_bandwidth(b_down)
                t_prop = propagation_delay_s(slant_range_m(uplink.geometry),
                                             slant_range_m(downlink.geometry))
                t_up, t_down = balanced_times(uplink, downlink, problem.budget, t_prop)
                want = evaluate_cycle(uplink, downlink, problem.budget, model, t_up, t_down)
                assert _bits(result.per_loop_outcomes[0]) == _bits(want), (base, objective)

    def test_one_link_budget_per_link(self, monkeypatch):
        """One solve computes each link's received power once and builds no
        link copy: no with_bandwidth and no shannon_rate_bps call."""
        base = default_scenario().single_loop_problem(SingleLoopObjective.TASK_ORIENTED)
        calls = []

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return wrapper
        for owner, name in ((linkgeom, "received_power_w"), (linkgeom, "shannon_rate_bps"),
                            (LinkParams, "with_bandwidth")):
            monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
        for objective in SingleLoopObjective:
            calls.clear()
            solve_single_loop(dataclasses.replace(base, objective=objective))
            assert calls == ["received_power_w"] * 2, objective

    @pytest.mark.parametrize("objective", list(SingleLoopObjective))
    @pytest.mark.parametrize("direction", ["uplink_template", "downlink_template"])
    def test_a_link_that_carries_no_bits(self, objective, direction):
        """A rate of 0 (the received power underflows to 0 W) raises no
        ZeroDivisionError: the weighted objectives score inf at every split,
        and the solve reports the unstable loop infeasible."""
        base = _symmetric_problem(objective)
        dead = dataclasses.replace(getattr(base, direction), tx_gain_dbi=-4000.0)
        problem = dataclasses.replace(base, **{direction: dead})
        fn = optimize._single_objective_fn(problem, optimize._link_rate_fns(problem))
        if objective != SingleLoopObjective.MAX_THROUGHPUT:
            for b_up in np.linspace(1.0, problem.total_bandwidth_hz - 1.0, 11).tolist():
                assert fn(b_up) == math.inf
        result = solve_single_loop(problem)
        assert result.solver_trace.all_infeasible
        assert result.per_loop_outcomes[0].effective_bits_per_cycle == 0.0


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
    # entries that dwarf the total (scale 1e18)
    _ENTRIES = st.one_of(st.sampled_from([0.0, 0.25, 0.5, 1.0, -1.0]), st.floats(-3.0, 3.0))

    # (rows, n) batches and (rows, 2, n) batches of two blocks
    _SHAPES = st.one_of(st.tuples(st.integers(1, 8), st.integers(1, 6)),
                        st.tuples(st.integers(1, 8), st.just(2), st.integers(1, 6)))

    @settings(max_examples=300, deadline=None)
    @given(x=arrays(np.float64, _SHAPES, elements=_ENTRIES),
           scale=st.sampled_from([1.0, 1e-3, 1e18]),
           total=st.one_of(st.just(1.0), st.floats(0.1, 5.0)))
    # every row inside the cap once clipped: the batch skips the sort
    @example(x=np.array([[0.25, -1.0, -0.0], [0.5, 0.0, 0.5], [-0.0, -0.0, 1.0]]),
             scale=1.0, total=1.0)
    # rows inside and outside the cap in one batch, and in both blocks of a row
    @example(x=np.array([[[0.25, -1.0, -0.0], [0.5, 0.75, 0.5]],
                         [[3.0, 0.25, -0.0], [0.0, 0.5, 0.25]]]), scale=1.0, total=1.0)
    def test_equals_reference_bit_for_bit(self, x, scale, total):
        x = x * scale
        with np.errstate(divide="ignore", invalid="ignore"):
            got = project_capped_simplex(x, total)
            want = reference_capped_simplex(x, total)
        assert got.shape == x.shape
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))  # a clipped -0.0 too


    # rows of entries from 1e-300 to 1e300 in size, and rows of huge entries a
    # few ulps apart, whose sum rounds away everything the total decides
    _HUGE_TIES = st.builds(lambda base, ulps: [base * (1.0 + k * 2.0 ** -52) for k in ulps],
                           st.floats(1.0, 1e300), st.lists(st.integers(-4, 4), min_size=2,
                                                            max_size=6))

    @settings(max_examples=300, deadline=None)
    @given(row=st.one_of(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=6),
                         _HUGE_TIES),
           total=st.one_of(st.just(1.0), st.floats(0.1, 5.0)))
    @example(row=[1e20, 0.3, 0.1], total=1.0)
    @example(row=[1e300, 1e300 * (1.0 + 2.0 ** -52)], total=1.0)
    def test_matches_exact_projection(self, row, total):
        """Within n ulps of the total of the projection in exact arithmetic."""
        got = project_capped_simplex(np.array(row), total)
        want = exact_capped_simplex(row, total)
        error = max(abs(Fraction(g) - w) for g, w in zip(got.tolist(), want))
        assert error <= Fraction(len(row) * total) * Fraction(2.0 ** -52)

    def test_an_entry_that_dwarfs_the_total_takes_all_of_it(self):
        got = project_capped_simplex(np.array([[1e20, 0.3, 0.1], [0.1, 1e300, 2.0]]), 1.0)
        assert np.array_equal(got, [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])


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

    # 1-12 robots (from 8 on numpy sums pairwise), bandwidths and SNRs per watt
    # over many decades, so most draws leave some robot at 0 W, and budgets
    # log-uniform from 1e-6 to 1e6 W
    @settings(max_examples=300, deadline=None)
    @given(links=st.lists(st.tuples(st.floats(0.0, 9.0), st.floats(-6.0, 12.0)),
                          min_size=1, max_size=12),
           log_budget=st.floats(-6.0, 6.0))
    def test_any_links_equal_fixed_step_bisection(self, links, log_budget):
        """The bracket from the closed-form level freezes where 200 steps end."""
        log_b, log_g = np.array(links).T
        links = SimpleNamespace(bandwidth=10.0 ** log_b, snr_per_w=10.0 ** log_g)
        budget = 10.0 ** log_budget
        assert np.array_equal(water_fill_power(links, budget),
                              water_fill_power_fixed_steps(links, budget))

    def test_one_water_fill_per_total_and_read_only(self, monkeypatch):
        """JointEvaluator.water_fill computes water_fill_power once for a
        total met twice in a row, and hands out an array no caller can change;
        the max-throughput decision is a writable copy."""
        problem = default_scenario().multi_loop_problem(
            MultiLoopScheme.MAX_THROUGHPUT_JOINT, total_power_w=5.0)
        ev = JointEvaluator(problem)
        totals = []
        original = optimize.water_fill_power

        def counted(evaluator, total_power_w):
            totals.append(total_power_w)
            return original(evaluator, total_power_w)
        monkeypatch.setattr(optimize, "water_fill_power", counted)
        alloc = ev.water_fill(5.0)
        assert ev.water_fill(5.0) is alloc and totals == [5.0]
        assert np.array_equal(alloc, water_fill_power(ev, 5.0))
        with pytest.raises(ValueError):
            alloc[0] = 0.0
        assert np.array_equal(ev.water_fill(6.0), water_fill_power(ev, 6.0))
        assert totals == [5.0, 6.0]
        decision = solve_multi_loop(problem).decision
        assert decision["power_w"].flags.writeable
        assert np.array_equal(decision["power_w"], water_fill_power(JointEvaluator(problem), 5.0))

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
        result = solve_multi_loop(problem)
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
        result = solve_multi_loop(problem)
        ev = JointEvaluator(problem)
        equal_value = float(ev.total_cost(np.full(4, 1.0), np.full(4, base.total_compute_cps / 4)))
        assert result.lqr_total <= equal_value * (1 + 1e-4)

    def test_constraints_satisfied(self):
        scn = default_scenario()
        for scheme in MultiLoopScheme:
            result = solve_multi_loop(
                scn.multi_loop_problem(scheme, total_power_w=5.0))
            assert result.decision["power_w"].sum() <= 5.0 * (1 + 1e-9)
            assert result.decision["compute_cps"].sum() <= 1e10 * (1 + 1e-9)
            assert result.decision["power_w"].min() >= 0.0
            assert result.decision["compute_cps"].min() >= 0.0

    def test_objective_matches_reevaluation(self):
        scn = default_scenario()
        problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                         total_power_w=5.0)
        result = solve_multi_loop(problem)
        ev = JointEvaluator(problem)
        again = float(ev.total_cost(result.decision["power_w"],
                                    result.decision["compute_cps"]))
        assert result.objective_value == pytest.approx(again, rel=1e-12)
        assert result.lqr_total == pytest.approx(again, rel=1e-12)

    def test_nonconvergent_flagged_but_result_returned(self, monkeypatch):
        scn = default_scenario()
        problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                         total_power_w=5.0)
        monkeypatch.setattr(optimize, "PGD_MAX_ITER", 1)
        result = solve_multi_loop(problem)
        assert not result.solver_trace.converged
        assert result.decision["power_w"].sum() <= 5.0 * (1 + 1e-9)
        assert math.isfinite(result.lqr_total)

    def test_deterministic(self):
        scn = default_scenario()
        problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                         total_power_w=3.0)
        r1 = solve_multi_loop(problem)
        r2 = solve_multi_loop(problem)
        assert np.array_equal(r1.decision["power_w"], r2.decision["power_w"])
        assert np.array_equal(r1.decision["compute_cps"], r2.decision["compute_cps"])
        assert r1.objective_value == r2.objective_value

    def test_monotone_in_budgets(self):
        scn = default_scenario()
        values_p = []
        for p_tot in (1.0, 4.0, 16.0):
            result = solve_multi_loop(
                scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                       total_power_w=p_tot))
            values_p.append(result.lqr_total)
        assert values_p[0] >= values_p[1] >= values_p[2]
        values_c = []
        for f_tot in (0.9e10, 1.5e10, 3e10):
            result = solve_multi_loop(dataclasses.replace(
                scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT, total_power_w=5.0),
                total_compute_cps=f_tot))
            values_c.append(result.lqr_total)
        assert values_c[0] >= values_c[1] >= values_c[2]

    def test_joint_oracle_equivalence(self):
        """Two-robot solver within 1e-3 relative of the sliced grid oracle."""
        rng = np.random.default_rng(31)
        for _ in range(3):
            problem = random_joint_problem(rng, n_robots=2)
            solved = solve_multi_loop(problem)
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
            result = solve_multi_loop(problem)
            assert result.lqr_total == pytest.approx(compute_only_kkt(problem), rel=1e-9,
                                                     abs=0.0), total_power


def _default_joint(extraction_scale=1.0):
    problem = default_scenario().multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                                    total_power_w=5.0)
    budget = dataclasses.replace(
        problem.budget, extraction_ratio=problem.budget.extraction_ratio * extraction_scale)
    return dataclasses.replace(problem, budget=budget)


class TestJointEvaluator:
    def test_shared_robots_never_read_stale_totals(self):
        """Solves that share robots but differ in totals and scheme (A, B, A:
        one evaluator), then in budget and uplink volume (C: a new one), each
        equal a solve of a copy with fresh robots bit for bit. == on traces
        skips the certificate (computed on read), so it is compared apart."""
        a = _default_joint()
        b = dataclasses.replace(a, total_power_w=2.0, total_compute_cps=0.5 * a.total_compute_cps,
                                scheme=MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM)
        c = dataclasses.replace(_default_joint(extraction_scale=0.03), robots=a.robots,
                                uplink_fixed_bits=2.0 * a.uplink_fixed_bits)
        problems = (a, b, a, c)
        solved = [solve_multi_loop(problem) for problem in problems]
        for problem, got in zip(problems, solved):
            fresh = dataclasses.replace(problem, robots=tuple(
                RobotLoop(r.downlink, r.plant) for r in problem.robots))
            want = solve_multi_loop(fresh)
            for key in ("power_w", "compute_cps"):
                assert np.array_equal(got.decision[key], want.decision[key])
            assert got.lqr_total == want.lqr_total
            assert got.objective_value == want.objective_value
            assert got.solver_trace == want.solver_trace
            assert _same_bits(got.solver_trace.projected_gradient_norm,
                              want.solver_trace.projected_gradient_norm)

    def test_one_rate_cost_model_per_distinct_plant(self):
        shared = JointEvaluator(_default_joint())
        assert all(m is shared.models[0] for m in shared.models)
        problem = random_joint_problem(np.random.default_rng(5), n_robots=3)
        distinct = JointEvaluator(problem)
        assert len({id(m) for m in distinct.models}) == 3
        for robot, model in zip(problem.robots, distinct.models):
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
            link = dataclasses.replace(robot.downlink, tx_power_w=float(power[i]))
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

    def test_outcomes_equal_the_scalar_cost(self):
        """One rate_cost call per outcome set scores each loop as lqr_cost does, bit for bit.

        Distinct plants (stable, unstable, a rate-infeasible a = 30, different
        w_cov), a robot given no compute (time-infeasible), and then every
        loop at 1 ulp above its data-rate threshold.
        """
        base = _default_joint()
        plants = (Plant(a=2.0, b=1.0, w_cov=1.0, q=1.0, r_u=1.0),
                  Plant(a=0.5, b=1.0, w_cov=3.0, q=2.0, r_u=0.5),
                  Plant(a=-1.7, b=0.3, w_cov=0.25, q=1.0, r_u=2.0),
                  Plant(a=1.3, b=1.0, w_cov=1e-3, q=4.0, r_u=0.1),
                  Plant(a=30.0, b=2.0, w_cov=7.0, q=0.5, r_u=1.0))
        problem = dataclasses.replace(base, robots=tuple(
            RobotLoop(robot.downlink, plant) for robot, plant in zip(base.robots, plants)))
        ev = JointEvaluator(problem)
        period = problem.budget.cycle_period_s
        compute = np.full(5, problem.total_compute_cps / 5)
        compute[2] = 0.0
        above = np.array([math.nextafter(m.plant.threshold_bits, math.inf) for m in ev.models])
        sets = (ev.outcomes(np.full(5, 1.0), compute),
                loop_outcomes(ev.models, period, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, above,
                              np.array([True, True, True, True, False])))
        for outs in sets:
            for model, out in zip(ev.models, outs):
                eff = out.effective_bits_per_cycle
                want = control.lqr_cost(model, eff) if out.time_feasible else math.inf
                assert out.lqr_cost == want and type(out.lqr_cost) is float
                assert out.stable == (out.lqr_cost < math.inf)
                assert out.cner_bps == control.cner_bps(eff, period)
        assert [o.stable for o in sets[0]] == [True, True, False, True, False]
        assert [o.time_feasible for o in sets[1]] == [True, True, True, True, False]

    def test_objective_squares_a_as_the_outcomes_do(self):
        """The solver's cost and the reported cost share one a^2 (a * a).

        For this a, a ** 2 is 1 ulp away from a * a, and at these resources
        the loop sits so close to its data-rate threshold that a ** 2 would
        make the solver's cost a third higher.
        """
        base = _default_joint()
        robot = base.robots[0]
        plant = dataclasses.replace(robot.plant, a=1.6533124743845402)
        assert plant.a ** 2 != plant.a * plant.a
        ev = JointEvaluator(dataclasses.replace(base, robots=(RobotLoop(robot.downlink, plant),)))
        power, compute = np.array([6.759952021773342e-07]), np.array([1e10])
        cost = ev.cost_vector(power, compute)[0]
        assert cost == ev.outcomes(power, compute)[0].lqr_cost == 3.5492351208945565e15


class TestOutcomesOnRequest:
    """Joint solves score from the evaluator's arrays; LoopOutcomes are built
    only by the single-loop result and JointEvaluator.outcomes."""

    def test_joint_solves_build_no_outcomes(self, monkeypatch, tmp_path):
        def refused(*args, **kwargs):
            raise AssertionError("a joint solve built LoopOutcomes")
        monkeypatch.setattr(pipeline, "loop_outcome", refused)
        problem = _default_joint()
        for scheme in MultiLoopScheme:
            result = solve_multi_loop(dataclasses.replace(problem, scheme=scheme))
            assert result.per_loop_outcomes == ()
        sweep_contour(problem, [2.0, 5.0], [5e9, 1e10])
        assert main(["multi-loop", "--out", str(tmp_path), "--format", "csv"]) == 0

    def test_single_loop_document_builds_three_outcomes(self, monkeypatch, tmp_path):
        built = []
        init = LoopOutcome.__init__

        def counted(outcome, *args):
            built.append(outcome)
            init(outcome, *args)
        monkeypatch.setattr(LoopOutcome, "__init__", counted)
        assert main(["single-loop", "--out", str(tmp_path), "--format", "csv"]) == 0
        assert len(built) == 3

    def test_single_loop_document_scores_on_python_floats(self, monkeypatch, tmp_path):
        """A single-loop document takes the float form of the cycle, the
        reported cost and the penalty: no array form runs."""
        def refused(*args, **kwargs):
            raise AssertionError("a single-loop document used an array form")
        monkeypatch.setattr(pipeline, "store_and_forward", refused)
        monkeypatch.setattr(control, "rate_gap", refused)
        monkeypatch.setattr(optimize, "_penalized", refused)
        assert main(["single-loop", "--out", str(tmp_path), "--format", "csv"]) == 0

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_robots=st.integers(1, 4), stable=st.booleans(),
           cap_bits=st.one_of(st.none(), st.floats(0.5, 8.0)),
           starved=st.sampled_from(("none", "power", "compute", "all")))
    def test_all_infeasible_and_total_match_the_outcomes(self, seed, n_robots, stable,
                                                          cap_bits, starved):
        """_multi_result's all_infeasible is True exactly when every outcome of
        the decision costs math.inf, and its lqr_total is cost_vector's sum bit
        for bit. Starved decisions give one robot no power (0 bits, a finite
        open-loop cost on a stable plant) or no compute (its cycle overruns),
        or give every robot neither: then every loop is time-infeasible and
        delivers -0.0 bits, which the objective scores at the open-loop cost
        on a stable plant. A low extraction cap makes loops capped or
        rate-infeasible."""
        rng = np.random.default_rng(seed)
        problem = random_joint_problem(rng, n_robots=n_robots, stable=stable)
        if cap_bits is not None:
            budget = dataclasses.replace(
                problem.budget, extraction_ratio=cap_bits / problem.uplink_fixed_bits)
            problem = dataclasses.replace(problem, budget=budget)
        power = rng.dirichlet(np.ones(n_robots)) * problem.total_power_w * rng.uniform(0.5, 1.0)
        compute = (rng.dirichlet(np.ones(n_robots)) * problem.total_compute_cps
                   * rng.uniform(0.5, 1.0))
        robot = rng.integers(n_robots)
        if starved in ("power", "all"):
            power[robot if starved == "power" else slice(None)] = 0.0
        if starved in ("compute", "all"):
            compute[robot if starved == "compute" else slice(None)] = 0.0
        ev = JointEvaluator(problem)
        result = optimize._multi_result(ev, problem, power, compute, 0.0,
                                        optimize.SolverTrace(iterations=0, converged=True))
        outs = ev.outcomes(power, compute)
        assert result.solver_trace.all_infeasible == all(o.lqr_cost == math.inf for o in outs)
        assert result.solver_trace.all_infeasible or starved != "all"
        assert result.lqr_total == ev.cost_vector(power, compute).sum()
        assert result.per_loop_outcomes == ()

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_robots=st.integers(1, 4), stable=st.booleans(),
           starved=st.sampled_from(("none", "power", "compute", "all")))
    def test_outcomes_equal_the_array_form(self, seed, n_robots, stable, starved):
        """JointEvaluator.outcomes, one pipeline.loop_outcome per robot on
        Python floats, against the array reference oracles.loop_outcomes on
        the same cycle: every field but stable and lqr_cost is equal bit for
        bit; those two are each form's outcome_formula on its own power of
        4^eff, and where the powers agree every field is equal. Stable and
        unstable plants, with one robot or every robot given no power or no
        compute."""
        rng = np.random.default_rng(seed)
        problem = random_joint_problem(rng, n_robots=n_robots, stable=stable)
        power = rng.dirichlet(np.ones(n_robots)) * problem.total_power_w
        compute = rng.dirichlet(np.ones(n_robots)) * problem.total_compute_cps
        robot = rng.integers(n_robots)
        if starved in ("power", "all"):
            power[robot if starved == "power" else slice(None)] = 0.0
        if starved in ("compute", "all"):
            compute[robot if starved == "compute" else slice(None)] = 0.0
        ev = JointEvaluator(problem)
        got = ev.outcomes(power, compute)
        rate, t_comp, window, eff = ev._cycle(power, compute)
        with np.errstate(divide="ignore"):
            t_down = np.where(eff >= ev.cap_bits, ev.cap_bits / rate, np.maximum(window, 0.0))
        want = loop_outcomes(ev.models, problem.budget.cycle_period_s, 0.0, rate, 0.0, t_comp,
                             t_down, ev.t_prop, eff, window >= 0.0)
        assert len(got) == len(want) == n_robots
        for model, g, w in zip(ev.models, got, want):
            bits = min(g.effective_bits_per_cycle, control.RATE_CLAMP_BITS)
            libm, numpy_pow = 4.0 ** bits, numpy_pow4(bits)
            assert (g.stable, g.lqr_cost) == outcome_formula(
                model, g.effective_bits_per_cycle, g.time_feasible, libm)
            assert (w.stable, w.lqr_cost) == outcome_formula(
                model, g.effective_bits_per_cycle, g.time_feasible, numpy_pow)
            assert _bits(g) == _bits(dataclasses.replace(w, stable=g.stable,
                                                         lqr_cost=g.lqr_cost)), (g, w)
            if libm == numpy_pow:
                assert _bits(g) == _bits(w), (g, w)


class TestAnalyticGradient:
    """The gradient of JointEvaluator.first_order against the central-difference oracle."""

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
            analytic = ev.first_order(power, compute)[1]
            with np.errstate(invalid="ignore"):  # probes below zero power are unused
                oracle = central_difference_gradient(ev, power, compute,
                                                     total_power_w=problem.total_power_w,
                                                     rel_step=rel_step)
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
        d_power, d_compute = ev.first_order(power, compute)[1]
        o_power, o_compute = central_difference_gradient(
            ev, power, compute, total_power_w=problem.total_power_w)
        assert d_power[0] > 1e15  # deep in the penalty: more power only loses bits
        assert d_compute[0] == 0.0 == o_compute[0]
        np.testing.assert_allclose(d_power, o_power, rtol=1e-5)
        np.testing.assert_allclose(d_compute, o_compute, rtol=1e-5)


class TestAnalyticHessian:
    """JointEvaluator.hessian_blocks, from first_order's chain-rule terms, against
    central differences of the analytic gradient."""

    @staticmethod
    def _compared(problem, mask_fn, rtol, draws=200):
        ev = JointEvaluator(problem)
        rng = np.random.default_rng(12)
        compared = 0
        for _ in range(draws):
            power = rng.dirichlet(np.ones(ev.n)) * problem.total_power_w
            compute = rng.dirichlet(np.ones(ev.n)) * problem.total_compute_cps
            window = ev.t_budget - ev.comp_cycles / compute
            raw = ev.rates_bps(power) * window
            mask = mask_fn(ev, power, raw, window)
            if not mask.any():
                continue
            with np.errstate(divide="ignore", invalid="ignore"):
                analytic = ev.hessian_blocks(ev.first_order(power, compute)[2])
                oracle = central_difference_hessian(ev, power, compute,
                                                    total_power_w=problem.total_power_w)
            for got, want in zip(analytic, oracle):
                np.testing.assert_allclose(got[mask], want[mask], rtol=rtol, atol=0.0)
            compared += int(mask.sum())
        return compared

    def test_interior_points(self):
        def interior(ev, power, raw, window):
            return (raw > ev.threshold_bits + 0.05) & (raw < 0.999 * ev.cap_bits)
        assert self._compared(_default_joint(), interior, 1e-6) > 50

    def test_near_the_extraction_cap(self):
        # below the cap and within 5% of it, where the block is about to vanish
        def near_cap(ev, power, raw, window):
            return (raw > 0.95 * ev.cap_bits) & (raw < 0.999 * ev.cap_bits)
        assert self._compared(_default_joint(extraction_scale=0.03), near_cap, 1e-6,
                              draws=1000) > 20

    def test_capped_robots_have_a_zero_block(self):
        def capped(ev, power, raw, window):
            return raw > 1.001 * ev.cap_bits
        assert self._compared(_default_joint(extraction_scale=0.03), capped, 0.0) > 50

    def test_penalty_region(self):
        def penalty(ev, power, raw, window):
            return ((raw < ev.threshold_bits - 0.05)
                    & (np.abs(window) > 0.1 * ev.t_budget) & (power > 0.05))
        assert self._compared(_default_joint(), penalty, 1e-6) > 50

    def test_zero_compute_boundary(self):
        """No compute: the compute row and column vanish, the power entry does not."""
        problem = _default_joint()
        ev = JointEvaluator(problem)
        power = np.full(ev.n, problem.total_power_w / ev.n)
        compute = np.full(ev.n, problem.total_compute_cps / (ev.n - 1))
        compute[0] = 0.0
        analytic = ev.hessian_blocks(ev.first_order(power, compute)[2])
        oracle = central_difference_hessian(ev, power, compute,
                                            total_power_w=problem.total_power_w)
        assert analytic[0][0] < 0.0  # the penalty, concave in power: not positive definite
        assert analytic[1][0] == 0.0 == analytic[2][0]
        for got, want in zip(analytic, oracle):
            np.testing.assert_allclose(got, want, rtol=1e-6)


def _dense_face_newton(grad, blocks, z, n, optimize_power):
    """The face-Newton step from one dense (2n + 2) KKT solve, for one row.

    [[H, A^T], [A, 0]] (d, nu) = (-g, b) with H the full Hessian, A the two
    sum constraints and b what each budget has left; with the power frozen, A
    pins every power move to 0 instead of summing it.
    """
    h_xx, h_xy, h_yy = blocks
    hess = np.zeros((2 * n, 2 * n))
    idx = np.arange(n)
    hess[idx, idx], hess[idx + n, idx + n] = h_xx, h_yy
    hess[idx, idx + n] = hess[idx + n, idx] = h_xy
    a = np.zeros((2, 2 * n))
    a[0, :n], a[1, n:] = 1.0, 1.0
    b = np.array([1.0 - z[:n].sum(), 1.0 - z[n:].sum()])
    if not optimize_power:
        hess[:n, :] = hess[:, :n] = 0.0
        hess[idx, idx] = 1.0
        a = np.vstack([np.eye(2 * n)[:n], a[1:]])
        b = np.concatenate([np.zeros(n), b[1:]])
    m = len(a)
    kkt = np.block([[hess, a.T], [a, np.zeros((m, m))]])
    rhs = np.concatenate([-np.where(np.arange(2 * n) < n, grad * optimize_power, grad), b])
    return np.linalg.solve(kkt, rhs)[:2 * n]


def _gradient_and_blocks(hessian, first_order, z):
    """The scaled gradient and Hessian blocks at the rows z, from one
    first_order call on them."""
    grad, terms, _ = first_order(z)[1]
    return grad, hessian(terms)


def _scheme(ev, problem, optimize_power: bool) -> tuple:
    """(objective, hessian, first_order, project) for the problem under the
    task-oriented scheme, or under compute-only: the value-only objective
    (scaled_objective), then optimize._scaled_scheme's pieces."""
    scheme = (MultiLoopScheme.TASK_ORIENTED_JOINT if optimize_power
              else MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM)
    problem = dataclasses.replace(problem, scheme=scheme)
    return (scaled_objective(ev, problem), *optimize._scaled_scheme(ev, problem, ())[1:4])


class TestNewtonDirection:
    @pytest.mark.parametrize("optimize_power", [True, False])
    def test_matches_dense_kkt_solve(self, optimize_power):
        """The block-wise step equals a dense KKT solve and spends both budgets."""
        rng = np.random.default_rng(21)
        compared = 0
        for k in (1, 2, 3, 5):
            problem = random_joint_problem(rng, n_robots=k)
            ev = JointEvaluator(problem)
            _, hessian, first_order, project = _scheme(ev, problem, optimize_power)
            shares = np.concatenate([rng.dirichlet(np.ones(k), 40),
                                     rng.dirichlet(np.ones(k), 40)], axis=1)
            z = shares * rng.uniform(0.9, 1.0, (40, 1))  # on the face and inside it
            z[:10] = shares[:10]
            with np.errstate(divide="ignore", invalid="ignore"):  # robots below threshold
                grad, blocks = _gradient_and_blocks(hessian, first_order, z)
            d, ok = optimize._newton_direction(grad, blocks, z)
            for row in np.flatnonzero(ok):
                want = _dense_face_newton(grad[row], tuple(h[row] for h in blocks), z[row], k,
                                          optimize_power)
                # the whole step, or with the power frozen its compute block (the
                # power move is the projection's to discard); atol: a lone
                # robot's step is the budget left, 0 up to rounding
                got, want = (d[row], want) if optimize_power else (d[row, k:], want[k:])
                np.testing.assert_allclose(got, want, rtol=1e-8,
                                           atol=1e-8 * np.abs(want).max() + 1e-15)
                new = z[row] + d[row]
                assert abs(new[k:].sum() - 1.0) <= 1e-12
                if optimize_power:
                    assert abs(new[:k].sum() - 1.0) <= 1e-12
                else:  # the scheme's projection puts the equal-split power shares back
                    p_tot = problem.total_power_w
                    assert np.array_equal(project(new[None, :])[0, :k],
                                          np.full(k, p_tot / k) / p_tot)
                compared += 1
        assert compared > 50

    def test_not_positive_definite_rows_are_refused(self):
        """A capped robot (zero block) or one starved of compute (no compute curvature)."""
        problem = _default_joint(extraction_scale=0.03)
        ev = JointEvaluator(problem)
        _, hessian, first_order, _ = _scheme(ev, problem, True)
        n = ev.n
        z = np.tile(np.full(2 * n, 1.0 / n), (2, 1))
        z[1, n], z[1, n + 1] = 0.0, 2.0 / n  # row 1: robot 0 gets no compute
        power, compute = z[:, :n] * problem.total_power_w, z[:, n:] * problem.total_compute_cps
        with np.errstate(divide="ignore", invalid="ignore"):
            eff = ev.rates_bps(power) * (ev.t_budget - ev.comp_cycles / compute)
            assert (eff[0] > ev.cap_bits).any() and eff[1, 0] < 0.0
            d, ok = optimize._newton_direction(*_gradient_and_blocks(hessian, first_order, z), z)
        assert not ok.any()


def _random_starts(ev, problem, count: int, seed: int) -> np.ndarray:
    """The solver's starts of the (task-oriented) problem topped up to `count`
    rows by seeded random feasible points, so that a batch holds many
    different rows."""
    starts = optimize._scaled_scheme(ev, problem, ())[0]
    rng = np.random.default_rng(seed)
    while len(starts) < count:
        starts.append(np.concatenate([rng.dirichlet(np.ones(ev.n)),
                                      rng.dirichlet(np.ones(ev.n))]))
    return np.array(starts)


def _stable(problem: MultiLoopProblem) -> MultiLoopProblem:
    """The problem with every robot's plant made stable (a = 0.5), so that
    every start of a solve descends."""
    return dataclasses.replace(problem, robots=tuple(
        dataclasses.replace(r, plant=dataclasses.replace(r.plant, a=0.5))
        for r in problem.robots))


def _record_starts(patch) -> list:
    """Record, for each optimize._best_start call made under patch, its starts
    and their projected values (the objective each row's descent starts from)."""
    calls = []
    best_start = optimize._best_start

    def recording(evaluator, problem, extra_starts):
        starts, _, _, project, _ = optimize._scaled_scheme(evaluator, problem, extra_starts)
        starts = np.array(starts)
        calls.append((starts, scaled_objective(evaluator, problem)(project(starts))))
        return best_start(evaluator, problem, extra_starts)
    patch.setattr(optimize, "_best_start", recording)
    return calls


def _patch_gradient(patch, fill: float):
    """Make every gradient a joint solve reads equal to fill (0 or NaN), at
    its one source, JointEvaluator.first_order; the value, the chain-rule
    terms (and so the Hessian blocks) and the costs stay."""
    first_order = JointEvaluator.first_order

    def patched(self, power_w, compute_cps):
        value, _, terms, cost = first_order(self, power_w, compute_cps)
        return (value, (np.full(power_w.shape, fill), np.full(compute_cps.shape, fill)), terms,
                cost)
    patch.setattr(JointEvaluator, "first_order", patched)


def _descend(pieces, starts):
    """optimize._projected_gradient on one scheme's pieces (_scheme) from the
    starts, projected and scored first as optimize._best_start does."""
    _, hessian, first_order, project = pieces
    z0 = project(np.array(starts, dtype=float))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        f0, score = first_order(z0)
    return optimize._projected_gradient(hessian, z0, f0, first_order=first_order,
                                        project=project, start=score)


class TestBatchedPgd:
    @pytest.mark.parametrize("optimize_power", [True, False])
    def test_rows_match_single_row_runs(self, optimize_power):
        problem = _default_joint()
        ev = JointEvaluator(problem)
        pieces = _scheme(ev, problem, optimize_power)
        starts = _random_starts(ev, problem, 6, 3)
        batch = _descend(pieces, starts)
        for row, z0 in enumerate(starts):
            alone = _descend(pieces, z0[None, :])
            assert batch.value[row] == pytest.approx(alone.value[0], rel=1e-12)
            assert batch.converged[row] == alone.converged[0]

    @pytest.mark.parametrize("optimize_power", [True, False])
    def test_batch_equals_plain_loop_bit_for_bit(self, optimize_power, monkeypatch):
        """Every row's iterates, value, flag and iteration count equal a plain loop."""
        monkeypatch.setattr(optimize, "PGD_MAX_ITER", 150)
        rng = np.random.default_rng(8)
        problems = [_default_joint(), _default_joint(extraction_scale=0.03)]
        problems += [random_joint_problem(rng, n_robots=k) for k in (2, 3, 4)]
        for problem in problems:
            ev = JointEvaluator(problem)
            pieces = _scheme(ev, problem, optimize_power)
            starts = _random_starts(ev, problem, 12, 5)
            starts[-1] = np.concatenate([np.eye(ev.n)[0], np.eye(ev.n)[-1]])  # a vertex
            batch = _descend(pieces, starts)
            iterations = 0
            for row, z0 in enumerate(starts):
                z, value, converged, iters = reference_projected_gradient(
                    *pieces, z0, max_halvings=optimize.MAX_HALVINGS, max_iter=150)
                assert np.array_equal(batch.z[row], z)
                assert batch.value[row] == value and batch.converged[row] == converged
                iterations += iters
            assert batch.iterations == iterations

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_robots=st.integers(1, 4), stable=st.booleans(),
           cap_bits=st.one_of(st.none(), st.floats(2.0, 8.0)), count=st.integers(1, 8),
           vertex=st.booleans(), optimize_power=st.booleans(), max_iter=st.integers(1, 40))
    def test_any_batch_equals_plain_loop_bit_for_bit(self, seed, n_robots, stable, cap_bits,
                                                      count, vertex, optimize_power, max_iter):
        """Rows that leave the batch at different iterations, or stop at a
        lowered iteration cap, still equal a plain loop bit for bit, and the
        batch counts the same iterations and the same rows stopped at the cap."""
        rng = np.random.default_rng(seed)
        problem = random_joint_problem(rng, n_robots=n_robots, stable=stable)
        if cap_bits is not None:
            budget = dataclasses.replace(
                problem.budget, extraction_ratio=cap_bits / problem.uplink_fixed_bits)
            problem = dataclasses.replace(problem, budget=budget)
        ev = JointEvaluator(problem)
        pieces = _scheme(ev, problem, optimize_power)
        starts = _random_starts(ev, problem, count, seed)[:count]
        if vertex:
            starts[-1] = np.concatenate([np.eye(ev.n)[0], np.eye(ev.n)[-1]])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(optimize, "PGD_MAX_ITER", max_iter)
            batch = _descend(pieces, starts)

        def reference(z0, cap):
            return reference_projected_gradient(*pieces, z0, max_halvings=optimize.MAX_HALVINGS,
                                                max_iter=cap)
        iterations = capped = 0
        for row, z0 in enumerate(starts):
            z, value, converged, iters = reference(z0, max_iter)
            assert np.array_equal(batch.z[row], z)
            assert batch.value[row] == value and batch.converged[row] == converged
            iterations += iters
            if not converged and iters == max_iter:
                # at the cap, unless the gradient stopped the row in its last
                # iteration: only a row at the cap runs on under a higher one
                capped += reference(z0, max_iter + 1)[3] > max_iter
        assert batch.iterations == iterations and batch.max_iter_rows == capped

    @pytest.mark.parametrize("document, backtracks",
                             [(None, False), ("multi_loop: {n_robots: 20}\n", True)],
                             ids=["baseline", "robots-20"])
    def test_multi_loop_run_equals_plain_loop_bit_for_bit(self, tmp_path, monkeypatch,
                                                          document, backtracks):
        """Every descent of one multi-loop run (42 one-row runs, each from its
        solve's lowest start) equals a plain loop bit for bit: on the
        baseline, where no row backtracks, and on the penalised 20-robot
        document, where rows move by backtracking. A row carries the score
        of the trial it moved to, so no one-row run scores a point again:
        _carried never returns None."""
        runs, objectives, moved, rescored = [], [], [], []
        original, scheme, backtrack, carried = (optimize._projected_gradient,
                                                optimize._scaled_scheme, optimize._backtrack,
                                                optimize._carried)

        def recorded_scheme(evaluator, problem, extra_starts):  # the next descent's objective
            objectives.append(scaled_objective(evaluator, problem))
            return scheme(evaluator, problem, extra_starts)

        def recorded(hessian, z0, f0, **kwargs):
            result = original(hessian, z0, f0, **kwargs)
            runs.append((objectives[-1], hessian, kwargs["first_order"], kwargs["project"],
                         z0.copy(), result))
            return result

        def counted_backtrack(*args):
            result = backtrack(*args)
            moved.append(int(result[0].sum()))
            return result

        def counted_carried(*args):
            result = carried(*args)
            rescored.append(result is None)
            return result
        monkeypatch.setattr(optimize, "_scaled_scheme", recorded_scheme)
        monkeypatch.setattr(optimize, "_projected_gradient", recorded)
        monkeypatch.setattr(optimize, "_backtrack", counted_backtrack)
        monkeypatch.setattr(optimize, "_carried", counted_carried)
        argv = ["multi-loop", "--out", str(tmp_path / "out"), "--format", "csv"]
        if document is not None:
            (tmp_path / "doc.yaml").write_text(document, encoding="utf-8")
            argv += ["--scenario", str(tmp_path / "doc.yaml")]
        assert main(argv) == 0
        assert len(runs) == 42
        assert (sum(moved) > 0) == backtracks
        assert rescored and not any(rescored)
        for objective, hessian, first_order, project, z0, result in runs:
            assert len(z0) == 1
            z, value, converged, iters = reference_projected_gradient(
                objective, hessian, first_order, project, z0[0],
                max_halvings=optimize.MAX_HALVINGS)
            assert np.array_equal(result.z[0], z) and result.value[0] == value
            assert result.converged[0] == converged and result.iterations == iters
            assert result.max_iter_rows == 0

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_robots=st.integers(2, 4),
           cap_bits=st.one_of(st.none(), st.floats(2.0, 8.0)), optimize_power=st.booleans())
    def test_no_row_ends_worse_than_its_start(self, seed, n_robots, cap_bits, optimize_power):
        """Every accepted step lowers the objective, Newton or backtracking, with
        the extraction cap binding (a cap of a few bits) or not (the default)."""
        rng = np.random.default_rng(seed)
        problem = random_joint_problem(rng, n_robots=n_robots)
        if cap_bits is not None:
            budget = dataclasses.replace(
                problem.budget, extraction_ratio=cap_bits / problem.uplink_fixed_bits)
            problem = dataclasses.replace(problem, budget=budget)
        ev = JointEvaluator(problem)
        pieces = _scheme(ev, problem, optimize_power)
        objective, _, _, project = pieces
        starts = _random_starts(ev, problem, 6, seed)
        result = _descend(pieces, starts)
        assert np.isfinite(result.z).all() and np.isfinite(result.value).all()
        assert (result.value <= objective(project(starts))).all()
        assert np.array_equal(result.value, objective(result.z))

    @staticmethod
    def _backtracking_batch():
        """(objective, first_order, project, z, grad, step) of 40 random rows
        on the default problem, with steps from no halving to dozens."""
        problem = _default_joint()
        ev = JointEvaluator(problem)
        objective, _, first_order, project = _scheme(ev, problem, True)
        rng = np.random.default_rng(4)
        z = project(np.concatenate([rng.dirichlet(np.ones(ev.n), 40),
                                    rng.dirichlet(np.ones(ev.n), 40)], axis=1))
        step = 10.0 ** rng.uniform(-12.0, 8.0, len(z))
        grad = first_order(z)[1][0]
        # row 0 sits on a vertex and is pushed straight out of it: the
        # projected move is exactly zero, so the row stops unaccepted
        z[0] = np.concatenate([np.eye(ev.n)[0], np.eye(ev.n)[1]])
        grad[0], step[0] = -z[0], 4.0
        return objective, first_order, project, z, grad, step

    @staticmethod
    def _one_halving_at_a_time(objective, project, z, fz, grad, step):
        """((accepted, z, f, step), k) of one row, halving one step at a
        time; k is the halving it stopped at (MAX_HALVINGS if none)."""
        s = step
        for k in range(optimize.MAX_HALVINGS):
            cand = project(z[None, :] - s * grad[None, :])[0]
            move_sq = float((cand - z) @ (cand - z))
            if move_sq == 0.0:
                return (False, z, fz, step), k
            fc = float(objective(cand[None, :])[0])
            if fc <= fz - 1e-2 * move_sq / s:
                return (True, cand, fc, s), k
            s *= 0.5
        return (False, z, fz, step), optimize.MAX_HALVINGS

    def test_backtracking_matches_one_halving_at_a_time(self):
        """Each row takes the first passing halving. Halving k makes one
        first_order call, on exactly the trials of halving k that moved:
        never the zero-move row 0, and no call once no row searches. Each
        accepted row carries its trial's score, which equals a fresh
        first_order call at its point bit for bit."""
        objective, first_order, project, z, grad, step = self._backtracking_batch()
        calls = []

        def counted(batch):
            calls.append(batch.copy())
            return first_order(batch)
        fz = objective(z)
        got = optimize._backtrack(counted, project, z, fz, grad, step)
        wants, stops = zip(*[
            self._one_halving_at_a_time(objective, project, z[i], fz[i], grad[i], step[i])
            for i in range(len(z))])
        # the rows whose trial moves at halving k: those that search past
        # it, and those that accept it
        want_calls = []
        for k in range(optimize.MAX_HALVINGS):
            rows = [i for i, (want, stop) in enumerate(zip(wants, stops))
                    if k < stop or (k == stop and want[0])]
            if rows:
                want_calls.append(project(z[rows] - (step[rows] * 0.5 ** k)[:, None] * grad[rows]))
        assert len(calls) == len(want_calls) > 8
        assert all(np.array_equal(c, w) for c, w in zip(calls, want_calls))
        assert stops[0] == 0 and not wants[0][0]
        assert max(stops) >= 8
        for i, want in enumerate(wants):
            assert got[0][i] == want[0]
            assert np.array_equal(got[1][i], want[1])
            assert got[2][i] == want[2] and got[3][i] == want[3]
        assert got[0].sum() > 20
        scores = got[4]
        assert sorted(scores) == np.flatnonzero(got[0]).tolist()
        for i, (score, j) in scores.items():
            fresh = first_order(got[1][i:i + 1])[1]
            kept = optimize._rows_of(score, slice(j, j + 1))
            assert _same_bits(kept[0], fresh[0]) and _same_bits(kept[2], fresh[2])
            assert all(_same_bits(a, b) for a, b in zip(kept[1], fresh[1]))

    def test_backtracking_in_one_call_when_every_row_takes_its_first_halving(self):
        objective, first_order, project, z, grad, step = self._backtracking_batch()
        fz = objective(z)
        wants, stops = zip(*[
            self._one_halving_at_a_time(objective, project, z[i], fz[i], grad[i], step[i])
            for i in range(len(z))])
        # the rows that accept their first halving
        keep = [i for i, (want, k) in enumerate(zip(wants, stops)) if want[0] and k == 0]
        assert len(keep) > 5
        calls = []

        def counted(batch):
            calls.append(len(batch))
            return first_order(batch)
        got = optimize._backtrack(counted, project, z[keep], fz[keep], grad[keep], step[keep])
        assert calls == [len(keep)]
        assert got[0].all() and np.array_equal(got[3], step[keep])
        for i, row in enumerate(keep):
            assert np.array_equal(got[1][i], wants[row][1]) and got[2][i] == wants[row][2]

    @pytest.mark.parametrize("optimize_power", [True, False])
    def test_direct_call_emits_no_warning(self, optimize_power):
        """The first Barzilai-Borwein quotient is 0/0; the run stays silent."""
        problem = _default_joint()
        ev = JointEvaluator(problem)
        starts = _random_starts(ev, problem, 6, 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = _descend(_scheme(ev, problem, optimize_power), starts)
        assert result.iterations > len(starts)

    # The tests below that count rows run on a stable-plant copy of the
    # baseline, where every start descends; each has a one-descent
    # counterpart on the (unstable) baseline.

    def test_nonfinite_gradient_never_converges(self, monkeypatch):
        _patch_gradient(monkeypatch, np.nan)
        for scheme in (MultiLoopScheme.TASK_ORIENTED_JOINT,
                       MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM):
            problem = _stable(default_scenario().multi_loop_problem(scheme, total_power_w=5.0))
            result = solve_multi_loop(problem)
            assert not result.solver_trace.converged
            assert result.solver_trace.iterations == result.solver_trace.restarts
            assert result.solver_trace.max_iter_rows == 0
            assert math.isnan(result.solver_trace.projected_gradient_norm)

    def test_nonfinite_gradient_stops_the_one_descent(self, monkeypatch):
        _patch_gradient(monkeypatch, np.nan)
        for scheme, starts in ((MultiLoopScheme.TASK_ORIENTED_JOINT, 2),
                               (MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM, 1)):
            problem = default_scenario().multi_loop_problem(scheme, total_power_w=5.0)
            trace = solve_multi_loop(problem).solver_trace
            assert not trace.converged
            assert trace.iterations == 1 and trace.restarts == starts
            assert trace.max_iter_rows == 0
            assert math.isnan(trace.projected_gradient_norm)

    def test_rows_stopped_at_the_iteration_cap_are_counted(self, monkeypatch):
        schemes = (MultiLoopScheme.TASK_ORIENTED_JOINT, MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM)
        problems = [_stable(default_scenario().multi_loop_problem(s, total_power_w=5.0))
                    for s in schemes]
        for problem in problems:
            trace = solve_multi_loop(problem).solver_trace
            assert trace.converged and trace.max_iter_rows == 0
        # fewer iterations than PGD_PATIENCE, and a zero tolerance that no
        # accepted step's decrease can meet: no row can converge
        monkeypatch.setattr(optimize, "PGD_MAX_ITER", optimize.PGD_PATIENCE - 1)
        monkeypatch.setattr(optimize, "PGD_REL_TOL", 0.0)
        for problem, starts in zip(problems, (2, 1)):
            trace = solve_multi_loop(problem).solver_trace
            assert not trace.converged and trace.max_iter_rows == trace.restarts == starts
            assert trace.iterations == starts * (optimize.PGD_PATIENCE - 1)
        traces = []
        sweep_contour(problems[0], [5.0, 6.0], [1e10], trace_out=traces)
        # the second cell adds the first cell's decision to the two starts
        assert [t.max_iter_rows for t in traces] == [t.restarts for t in traces] == [2, 3]

    def test_the_one_descent_stopped_at_the_iteration_cap_is_counted(self, monkeypatch):
        schemes = (MultiLoopScheme.TASK_ORIENTED_JOINT, MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM)
        problems = [default_scenario().multi_loop_problem(s, total_power_w=5.0) for s in schemes]
        for problem in problems:
            trace = solve_multi_loop(problem).solver_trace
            assert trace.converged and trace.max_iter_rows == 0
        monkeypatch.setattr(optimize, "PGD_MAX_ITER", optimize.PGD_PATIENCE - 1)
        monkeypatch.setattr(optimize, "PGD_REL_TOL", 0.0)
        for problem, starts in zip(problems, (2, 1)):
            trace = solve_multi_loop(problem).solver_trace
            assert not trace.converged and trace.max_iter_rows == 1 and trace.restarts == starts
            assert trace.iterations == optimize.PGD_PATIENCE - 1
        traces = []
        sweep_contour(problems[0], [5.0, 6.0], [1e10], trace_out=traces)
        assert [t.max_iter_rows for t in traces] == [1, 1]
        assert [t.restarts for t in traces] == [2, 3]

    def test_zero_gradient_is_stationary(self, monkeypatch):
        _patch_gradient(monkeypatch, 0.0)
        problem = default_scenario().multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT,
                                                        total_power_w=5.0)
        result = solve_multi_loop(_stable(problem))
        assert result.solver_trace.converged
        assert result.solver_trace.iterations == optimize.PGD_PATIENCE * 2  # patience per start
        assert result.solver_trace.projected_gradient_norm == 0.0
        one = solve_multi_loop(problem).solver_trace  # the baseline: one descent
        assert one.converged and one.restarts == 2
        assert one.iterations == optimize.PGD_PATIENCE
        assert one.projected_gradient_norm == 0.0

    def test_trace_names_why_the_winning_start_stopped(self, monkeypatch):
        """stopped_on: the decrement on the baseline, patience at a zero
        gradient, nonfinite_gradient at a NaN one and max_iter at a lowered
        cap; the solves that run no projected gradient leave it empty."""
        schemes = (MultiLoopScheme.TASK_ORIENTED_JOINT, MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM)
        problems = [default_scenario().multi_loop_problem(s, total_power_w=5.0) for s in schemes]

        def stopped_on():
            return [solve_multi_loop(p).solver_trace.stopped_on for p in problems]
        assert stopped_on() == ["decrement", "decrement"]
        water = dataclasses.replace(problems[0], scheme=MultiLoopScheme.MAX_THROUGHPUT_JOINT)
        assert solve_multi_loop(water).solver_trace.stopped_on == ""
        single = default_scenario().single_loop_problem(SingleLoopObjective.TASK_ORIENTED)
        assert solve_single_loop(single).solver_trace.stopped_on == ""
        with monkeypatch.context() as patch:
            _patch_gradient(patch, 0.0)
            assert stopped_on() == ["patience", "patience"]
        with monkeypatch.context() as patch:
            _patch_gradient(patch, np.nan)
            assert stopped_on() == ["nonfinite_gradient", "nonfinite_gradient"]
        monkeypatch.setattr(optimize, "PGD_MAX_ITER", optimize.PGD_PATIENCE - 1)
        monkeypatch.setattr(optimize, "PGD_REL_TOL", 0.0)
        assert stopped_on() == ["max_iter", "max_iter"]

    @pytest.mark.parametrize("scheme", [MultiLoopScheme.TASK_ORIENTED_JOINT,
                                        MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM])
    def test_converged_reports_the_winning_start(self, monkeypatch, scheme):
        """The winning start is unconverged: the solve is not converged, even
        when a losing start converged."""
        def fake_pgd(hessian, z0, f0, **kwargs):
            value = np.full(len(z0), 3.0)
            value[-1] = 1.0  # the winner, unconverged
            converged = np.ones(len(z0), dtype=bool)
            converged[-1] = False
            stopped_on = ("decrement",) * (len(z0) - 1) + ("nonfinite_gradient",)
            return optimize._PgdResult(z0.copy(), value, converged, 7, stopped_on,
                                       {row: (kwargs["start"], row) for row in range(len(z0))})
        monkeypatch.setattr(optimize, "_projected_gradient", fake_pgd)
        problem = _stable(default_scenario().multi_loop_problem(scheme, total_power_w=5.0))
        trace = solve_multi_loop(problem).solver_trace
        # two starts for the task-oriented scheme, the equal split alone for compute-only
        want = 2 if scheme == MultiLoopScheme.TASK_ORIENTED_JOINT else 1
        assert trace.restarts == want and trace.best_restart == want - 1
        assert not trace.converged

    @pytest.mark.parametrize("scheme", [MultiLoopScheme.TASK_ORIENTED_JOINT,
                                        MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM])
    def test_one_descent_reports_the_lowest_start(self, monkeypatch, scheme):
        """With unstable plants only the lowest-valued start descends, and the
        trace names it and reports its convergence."""
        problem = default_scenario().multi_loop_problem(scheme, total_power_w=5.0)
        # a starved vertex start, then the compute-only decision, the lowest start
        compute_only = solve_multi_loop(dataclasses.replace(
            problem, scheme=MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM)).decision
        vertex = {"power_w": np.eye(5)[0] * 5.0, "compute_cps": np.eye(5)[0] * 1e10}
        descended = []

        def fake_pgd(hessian, z0, f0, **kwargs):
            descended.append(z0.copy())
            return optimize._PgdResult(z0.copy(), f0.copy(), np.zeros(len(z0), bool), 7,
                                       ("nonfinite_gradient",) * len(z0),
                                       {row: (kwargs["start"], row) for row in range(len(z0))})
        calls = _record_starts(monkeypatch)
        monkeypatch.setattr(optimize, "_projected_gradient", fake_pgd)
        trace = solve_multi_loop(problem, extra_starts=[vertex, compute_only]).solver_trace
        [(starts, values)] = calls
        lowest = len(starts) - 1
        assert values.argmin() == lowest
        assert len(descended) == 1 and np.array_equal(descended[0], starts[lowest:])
        assert trace.restarts == len(starts) and trace.best_restart == lowest
        assert not trace.converged and trace.iterations == 7


def _record_ends(patch) -> list:
    """Record, for each projected-gradient solve made under patch, (evaluator,
    power, compute, first_order, project, its _projected_gradient result,
    its AllocationResult)."""
    pending, ends = [], []
    pgd, multi_result = optimize._projected_gradient, optimize._multi_result

    def recorded_pgd(hessian, z0, f0, **kwargs):
        result = pgd(hessian, z0, f0, **kwargs)
        pending.append((kwargs["first_order"], kwargs["project"], result))
        return result

    def recorded_result(evaluator, problem, power, compute, *args, **kwargs):
        result = multi_result(evaluator, problem, power, compute, *args, **kwargs)
        if pending:  # the max-throughput solve runs no projected gradient
            ends.append((evaluator, power, compute, *pending.pop(), result))
        return result
    patch.setattr(optimize, "_projected_gradient", recorded_pgd)
    patch.setattr(optimize, "_multi_result", recorded_result)
    return ends


def _same_bits(got, want) -> bool:
    return np.asarray(got).tobytes() == np.asarray(want).tobytes()


class TestCarriedEndPoint:
    """A solve's certificate and all_infeasible flag come from the score
    (gradient, chain-rule terms, costs) its end point carries, a start's or
    a kept Newton trial's, where it has one: they must equal a fresh
    first_order call, projection and cycle evaluation bit for bit."""

    @staticmethod
    def _assert_exact(ends) -> int:
        """Check every recorded end point; returns how many carried their
        score."""
        carried = 0
        for evaluator, power, compute, first_order, project, pgd, result in ends:
            row = int(np.argmin(pgd.value))
            z = pgd.z[row:row + 1]
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                grad = first_order(z)[1][0]
                _, _, window, eff = evaluator._cycle(power, compute)
                if row in pgd.scores:
                    score, i = pgd.scores[row]
                    kept_grad, (_, kept_window, kept_eff, *_), kept_cost = optimize._rows_of(
                        score, i)
                    assert _same_bits(kept_grad, grad[0])
                    assert _same_bits(kept_eff, eff) and _same_bits(kept_window, window)
                    assert _same_bits(kept_cost, control.rate_cost(
                        eff, evaluator.a_sq, evaluator.sens_w, evaluator.j_ideal))
                    carried += 1
                residual = z - project(z - grad)
                certificate = float(np.sqrt((residual * residual).sum()))
            reported = reported_costs(evaluator.a_sq, evaluator.sens_w, evaluator.j_ideal,
                                      eff, window >= 0.0)[2]
            trace = result.solver_trace
            assert _same_bits(trace.projected_gradient_norm, certificate)
            assert trace.all_infeasible == bool(np.all(reported == math.inf))
        return carried

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_robots=st.integers(1, 4), stable=st.booleans(),
           cap_bits=st.one_of(st.none(), st.floats(2.0, 8.0)),
           scheme=st.sampled_from([MultiLoopScheme.TASK_ORIENTED_JOINT,
                                   MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM]))
    def test_random_solves(self, seed, n_robots, stable, cap_bits, scheme):
        problem = random_joint_problem(np.random.default_rng(seed), n_robots=n_robots,
                                       stable=stable)
        if cap_bits is not None:
            budget = dataclasses.replace(
                problem.budget, extraction_ratio=cap_bits / problem.uplink_fixed_bits)
            problem = dataclasses.replace(problem, budget=budget)
        with pytest.MonkeyPatch.context() as patch:
            ends = _record_ends(patch)
            solve_multi_loop(dataclasses.replace(problem, scheme=scheme))
        assert len(ends) == 1
        self._assert_exact(ends)

    def test_baseline_sweep(self, tmp_path, monkeypatch):
        """Every descent of the baseline multi-loop run ends at a kept Newton
        point, so every certificate is the carried one."""
        ends = _record_ends(monkeypatch)
        assert main(["multi-loop", "--out", str(tmp_path), "--format", "csv"]) == 0
        assert len(ends) == 42 and self._assert_exact(ends) == 42

    def test_first_order_is_total_cost_and_gradient(self):
        """JointEvaluator.first_order scores a batch as total_cost and _cycle
        do, bit for bit, penalised and capped robots included (the
        central-difference tests check its gradient)."""
        rng = np.random.default_rng(31)
        for problem in (_default_joint(), _default_joint(extraction_scale=0.03),
                        random_joint_problem(rng, n_robots=3, stable=True)):
            ev = JointEvaluator(problem)
            power = rng.dirichlet(np.ones(ev.n), 50) * problem.total_power_w
            compute = rng.dirichlet(np.ones(ev.n), 50) * problem.total_compute_cps
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                value, _, (_, window, eff, *_), cost = ev.first_order(power, compute)
                _, _, want_window, want_eff = ev._cycle(power, compute)
                assert _same_bits(value, ev.total_cost(power, compute))
                assert _same_bits(cost, control.rate_cost(want_eff, ev.a_sq, ev.sens_w,
                                                          ev.j_ideal))
            assert _same_bits(eff, want_eff) and _same_bits(window, want_window)


def _assert_power_frozen(problem: MultiLoopProblem, result) -> None:
    """A compute-only solve keeps the equal split's power shares: its power is
    (p / n / p) * p bit for bit, and its certificate's power residual is
    exactly 0."""
    n, p_tot = len(problem.robots), problem.total_power_w
    assert _same_bits(result.decision["power_w"], (np.full(n, p_tot / n) / p_tot) * p_tot)
    z, grad, project = result.solver_trace.end_point
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        residual = z - project(z - grad)
    assert (residual[0, :n] == 0.0).all()


class TestFrozenPower:
    """Compute-only is the projected-gradient descent with every power frozen
    at the equal split (optimize._scaled_scheme): no solve moves it."""

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_robots=st.integers(1, 4), stable=st.booleans(),
           n_extra=st.integers(0, 2))
    def test_random_solves(self, seed, n_robots, stable, n_extra):
        """Stable and unstable draws, with random feasible extra starts whose
        power the scheme ignores."""
        rng = np.random.default_rng(seed)
        problem = dataclasses.replace(random_joint_problem(rng, n_robots, stable=stable),
                                      scheme=MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM)
        extra = [{"power_w": rng.dirichlet(np.ones(n_robots)) * problem.total_power_w,
                  "compute_cps": rng.dirichlet(np.ones(n_robots)) * problem.total_compute_cps}
                 for _ in range(n_extra)]
        _assert_power_frozen(problem, solve_multi_loop(problem, extra_starts=extra))

    @pytest.mark.parametrize("document", [None, "plant: {a: 0.5}\n",
                                          "multi_loop: {n_robots: 20}\n"],
                             ids=["baseline", "stable-0.5", "robots-20"])
    def test_multi_loop_runs(self, tmp_path, monkeypatch, document):
        """Each of a multi-loop run's 21 compute-only solves, warm-started
        along the power sweep."""
        solves = []
        original = satloop.report.solve_multi_loop

        def recorded(problem, **kwargs):
            result = original(problem, **kwargs)
            solves.append((problem, result))
            return result
        monkeypatch.setattr(satloop.report, "solve_multi_loop", recorded)
        argv = ["multi-loop", "--out", str(tmp_path / "out"), "--format", "csv"]
        if document is not None:
            (tmp_path / "doc.yaml").write_text(document, encoding="utf-8")
            argv += ["--scenario", str(tmp_path / "doc.yaml")]
        assert main(argv) == 0
        frozen = [(problem, result) for problem, result in solves
                  if problem.scheme == MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM]
        assert len(frozen) == 21
        for problem, result in frozen:
            _assert_power_frozen(problem, result)


# Per-robot power and compute, in budget-scaled shares: none, a tiny or a
# typical share, and one past any budget (a rate-clamped loop, given a cap
# above control.RATE_CLAMP_BITS); compute below pipeline.COMPUTE_FLOOR_CPS too
_POWER_SHARES = st.sampled_from([0.0, 1e-300, 0.05, 0.3, 0.9, 1e250])
_COMPUTE_SHARES = st.one_of(st.sampled_from([0.0, 1e-25, 1e250]), st.floats(0.01, 1.0))


class TestScoredOnce:
    """Each point of a joint solve is scored once (JointEvaluator.first_order),
    and what reads that score must equal what a fresh call would give, bit
    for bit: the Hessian blocks built from carried chain-rule terms, and the
    result's all_infeasible flag taken from carried costs and windows."""

    @settings(max_examples=150, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_robots=st.integers(1, 4), stable=st.booleans(),
           cap_bits=st.sampled_from([None, 3.0, 1000.0]),
           w_cov=st.sampled_from([1.0, 1e300, 1e308]), data=st.data())
    def test_blocks_from_carried_terms_equal_a_fresh_score(self, seed, n_robots, stable,
                                                           cap_bits, w_cov, data):
        """Random batches with penalised robots (starved of power or compute),
        capped ones (a cap of 3 bits), rate-clamped ones (a cap of 1000 bits
        and power past any budget), robots below the compute floor and, with
        a plant noise of 1e300 or 1e308 on robot 0, slopes and costs that
        overflow, on stable and unstable plants: the gradient and the blocks
        from the carried terms equal those of a fresh first_order call at the
        same point, for the whole batch and for each row carried alone out
        of it (the start a one-descent solve keeps, or a row that a batch
        rescoring scored), in watts and in scaled shares."""
        problem = random_joint_problem(np.random.default_rng(seed), n_robots=n_robots,
                                       stable=stable)
        robots = list(problem.robots)
        robots[0] = dataclasses.replace(
            robots[0], plant=dataclasses.replace(robots[0].plant, w_cov=w_cov))
        problem = dataclasses.replace(problem, robots=tuple(robots))
        if cap_bits is not None:
            budget = dataclasses.replace(
                problem.budget, extraction_ratio=cap_bits / problem.uplink_fixed_bits)
            problem = dataclasses.replace(problem, budget=budget)
        rows = data.draw(st.integers(1, 6))
        z = np.array([data.draw(st.lists(_POWER_SHARES, min_size=n_robots, max_size=n_robots))
                      + data.draw(st.lists(_COMPUTE_SHARES, min_size=n_robots,
                                           max_size=n_robots)) for _ in range(rows)])
        ev = JointEvaluator(problem)
        p_tot, f_tot = problem.total_power_w, problem.total_compute_cps
        power, compute = z[:, :n_robots] * p_tot, z[:, n_robots:] * f_tot
        _, hessian, first_order, _ = _scheme(ev, problem, True)
        pairs = []  # (carried, fresh): each a gradient and its Hessian blocks
        with np.errstate(all="ignore"):
            _, grad, terms, _ = ev.first_order(power, compute)
            score = first_order(z)[1]
            for i in (None, *range(rows)):  # the whole batch, then each row alone
                at = slice(None) if i is None else slice(i, i + 1)
                _, fresh_grad, fresh_terms, _ = ev.first_order(power[at], compute[at])
                pairs.append(([g[at] for g in grad] + list(ev.hessian_blocks(
                                  tuple(t[at] for t in terms))),
                              list(fresh_grad) + list(ev.hessian_blocks(fresh_terms))))
                held = score if i is None else optimize._carried({0: (score, i)}, [0])
                fresh = first_order(z[at])[1]
                pairs.append(([held[0], *hessian(held[1])], [fresh[0], *hessian(fresh[1])]))
        for got, want in pairs:
            assert len(got) == len(want)
            assert all(_same_bits(g, w) for g, w in zip(got, want))

    @settings(max_examples=300, deadline=None)
    @given(columns=st.lists(st.tuples(
               st.sampled_from([-math.inf, -1.0, -0.0, 0.0, 1e-3, 0.01, math.inf, math.nan]),
               st.sampled_from([0.0, 1.0, 1e4, 1e5, 1e300, math.inf, math.nan]),
               st.sampled_from([0.25, 0.81, 1.0, 4.0, 2.25]),
               st.sampled_from([1.0, 1e300, math.inf])),
           min_size=1, max_size=5),
           cap_bits=st.sampled_from([3.0, 200.0, 1000.0]))
    @example(columns=[(0.01, 1e4, 4.0, 1e300)], cap_bits=1.000000000001)  # the cost overflows
    @example(columns=[(-0.0, 1e4, 0.25, 1.0), (0.01, 0.0, 4.0, 1.0)], cap_bits=3.0)
    def test_all_infeasible_is_the_reported_rule(self, columns, cap_bits):
        """_multi_result's all_infeasible from carried (rate_cost, window)
        equals oracles.reported_costs' rule on the same cycle. The columns
        are what JointEvaluator._cycle gives, eff = min(cap, rate * window)
        at a rate >= 0, with windows of -0.0, 0, NaN and +-inf, rates of 0,
        inf and NaN (eff NaN), stable and unstable plants and, with a
        sensitivity of 1e300 and eff capped just past the threshold, a
        stable loop whose cost overflows to inf."""
        window, rate, a_sq, sens_w = (np.array(c) for c in zip(*columns))
        with np.errstate(all="ignore"):
            eff = np.minimum(cap_bits, rate * window)
            cost = control.rate_cost(eff, a_sq, sens_w, 1.0)
            reported = reported_costs(a_sq, sens_w, 1.0, eff, window >= 0.0)[2]
        problem = random_joint_problem(np.random.default_rng(0), n_robots=len(columns))
        ev = JointEvaluator(problem)
        power = np.full(ev.n, problem.total_power_w / ev.n)
        compute = np.full(ev.n, problem.total_compute_cps / ev.n)
        result = optimize._multi_result(ev, problem, power, compute, 0.0,
                                        optimize.SolverTrace(iterations=0, converged=True),
                                        scored=(0.0, cost, window))
        assert result.solver_trace.all_infeasible == bool(np.all(reported == math.inf))


class TestDeterministicStarts:
    """One batch of deterministic starts against the seeded ten-start reference."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_robots=st.integers(1, 4),
           stable=st.booleans(),
           scheme=st.sampled_from([MultiLoopScheme.TASK_ORIENTED_JOINT,
                                   MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM]))
    def test_random_restarts_buy_nothing(self, seed, n_robots, stable, scheme):
        """The deterministic starts' lqr_total is never above the best of ten
        starts (the same starts plus eight or nine random ones) by more than
        1e-9 relative, on stable and unstable plants."""
        rng = np.random.default_rng(seed)
        problem = dataclasses.replace(random_joint_problem(rng, n_robots, stable=stable),
                                      scheme=scheme)
        one = solve_multi_loop(problem)
        ref = multi_start_solve(problem, seed=seed)
        assert one.solver_trace.restarts == (2 if scheme == MultiLoopScheme.TASK_ORIENTED_JOINT
                                             else 1)
        assert ref.solver_trace.restarts == 10
        assert one.lqr_total <= ref.lqr_total + 1e-9 * abs(ref.lqr_total)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP item 1: cost cliff at zero bits")
    @pytest.mark.parametrize("seed, n_robots, scheme", [
        # Each draw's gap above the reference, relative. The three compute-only
        # draws stop on patience (stopped_on) with certificates of 6.5e-3 (914),
        # 5.1e-2 (1615) and 3.9e-2 (724); the task-oriented ones on the decrement.
        (914, 4, MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM),   # 9.6e-6 relative above
        (985, 3, MultiLoopScheme.TASK_ORIENTED_JOINT),       # 4.8e-7
        (1615, 4, MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM),  # 1.2e-4
        (724, 4, MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM),   # 1.3e-4
        (24548, 3, MultiLoopScheme.TASK_ORIENTED_JOINT),     # 7.4e-5
        (870688, 4, MultiLoopScheme.TASK_ORIENTED_JOINT),    # 1.2e-5
    ])
    def test_recorded_stable_draws_above_the_bound(self, seed, n_robots, scheme):
        """The stable-plant draws of test_random_restarts_buy_nothing that end
        above the ten-start reference by more than its 1e-9 bound."""
        problem = dataclasses.replace(
            random_joint_problem(np.random.default_rng(seed), n_robots, stable=True),
            scheme=scheme)
        one = solve_multi_loop(problem)
        ref = multi_start_solve(problem, seed=seed)
        assert one.lqr_total <= ref.lqr_total + 1e-9 * abs(ref.lqr_total)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_robots=st.integers(1, 5),
           n_extra=st.integers(0, 2),
           scheme=st.sampled_from([MultiLoopScheme.TASK_ORIENTED_JOINT,
                                   MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM]))
    def test_one_descent_is_never_above_a_start(self, seed, n_robots, n_extra, scheme):
        """On unstable plants one descent from the lowest start ends at or below
        every start's projected value, exactly, and within 1e-9 relative of
        the reference that descends all of them and eight or nine random
        ones. The extra starts are random feasible decisions."""
        rng = np.random.default_rng(seed)
        problem = dataclasses.replace(random_joint_problem(rng, n_robots), scheme=scheme)
        extra = [{"power_w": rng.dirichlet(np.ones(n_robots)) * problem.total_power_w,
                  "compute_cps": rng.dirichlet(np.ones(n_robots)) * problem.total_compute_cps}
                 for _ in range(n_extra)]
        with pytest.MonkeyPatch.context() as patch:
            calls = _record_starts(patch)
            one = solve_multi_loop(problem, extra_starts=extra)
        [(starts, values)] = calls
        assert len(starts) == (2 if scheme == MultiLoopScheme.TASK_ORIENTED_JOINT else 1) + n_extra
        assert one.solver_trace.best_restart == values.argmin()
        assert one.objective_value <= values.min()
        ref = multi_start_solve(problem, seed=seed, extra_starts=extra)
        assert one.lqr_total <= ref.lqr_total + 1e-9 * abs(ref.lqr_total)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_robots=st.integers(1, 4), stable=st.booleans(),
           lower=st.floats(0.3, 0.95))
    def test_a_warm_start_from_a_lower_total(self, seed, n_robots, stable, lower):
        """One more task-oriented start after the two baselines' decisions, as
        report passes along the power sweep: the decision solved at a lower
        power total with its power scaled to the problem's total. Every
        accepted step lowers a row's value, so the result is at or below the
        lowest projected start value, and on unstable plants the start of
        that value is the one that descends. On stable plants every start
        descends and the rows are independent bit for bit, so the result is
        never above the solve without the warm start."""
        problem = random_joint_problem(np.random.default_rng(seed), n_robots, stable=stable)
        p_tot = problem.total_power_w
        baselines = [solve_multi_loop(dataclasses.replace(problem, scheme=scheme)).decision
                     for scheme in (MultiLoopScheme.MAX_THROUGHPUT_JOINT,
                                    MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM)]
        below = solve_multi_loop(dataclasses.replace(problem, total_power_w=lower * p_tot))
        warm = {"power_w": below.decision["power_w"] * (p_tot / (lower * p_tot)),
                "compute_cps": below.decision["compute_cps"]}
        with pytest.MonkeyPatch.context() as patch:
            calls = _record_starts(patch)
            warmed = solve_multi_loop(problem, extra_starts=baselines + [warm])
        [(starts, values)] = calls
        assert len(starts) == 5 and warmed.solver_trace.restarts == 5
        assert warmed.objective_value <= values.min()
        if stable:
            cold = solve_multi_loop(problem, extra_starts=baselines)
            assert warmed.objective_value <= cold.objective_value
        else:
            assert warmed.solver_trace.best_restart == values.argmin()

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1),
           scheme=st.sampled_from([MultiLoopScheme.TASK_ORIENTED_JOINT,
                                   MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM]))
    def test_one_robot_stops_after_one_iteration(self, seed, scheme):
        """One robot's shares start at the simplex vertex, where the Newton
        step predicts no decrease and the projected-gradient residual is
        exactly 0: the solve stops converged on the decrement after one
        iteration (five, on patience, before that stop), at the full budgets."""
        problem = dataclasses.replace(random_joint_problem(np.random.default_rng(seed), 1),
                                      scheme=scheme)
        trace = solve_multi_loop(problem).solver_trace
        assert (trace.iterations, trace.stopped_on, trace.converged) == (1, "decrement", True)
        assert trace.projected_gradient_norm == 0.0

    @pytest.mark.parametrize("scheme", [MultiLoopScheme.TASK_ORIENTED_JOINT,
                                        MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM])
    def test_a_stable_plant_descends_every_start(self, scheme):
        """With one stable plant among unstable ones, a solve's iterations are
        those of _projected_gradient run on all of its starts, and its result
        is their best end point."""
        problem = default_scenario().multi_loop_problem(scheme, total_power_w=5.0)
        robots = list(problem.robots)
        robots[2] = dataclasses.replace(robots[2],
                                        plant=dataclasses.replace(robots[2].plant, a=0.5))
        problem = dataclasses.replace(problem, robots=tuple(robots))
        extra = [solve_multi_loop(dataclasses.replace(
            problem, scheme=MultiLoopScheme.MAX_THROUGHPUT_JOINT)).decision]
        with pytest.MonkeyPatch.context() as patch:
            calls = _record_starts(patch)
            solved = solve_multi_loop(problem, extra_starts=extra)
        [(starts, _)] = calls
        ev = JointEvaluator(problem)
        power = scheme == MultiLoopScheme.TASK_ORIENTED_JOINT
        z, value, every = all_starts_descend(ev, problem, list(starts), method="every start")
        assert len(starts) == (3 if power else 2)
        assert solved.solver_trace.iterations == every.iterations > len(starts)
        assert solved.solver_trace.best_restart == every.best_restart
        assert solved.objective_value == value

    def test_certificate_at_the_returned_point(self, monkeypatch):
        """A converged baseline solve ends near a KKT point; a run cut after one
        iteration does not."""
        for scheme in (MultiLoopScheme.TASK_ORIENTED_JOINT,
                       MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM):
            problem = default_scenario().multi_loop_problem(scheme, total_power_w=5.0)
            solved = solve_multi_loop(problem).solver_trace
            assert solved.converged and solved.projected_gradient_norm < 1e-6
            with monkeypatch.context() as patch:
                patch.setattr(optimize, "PGD_MAX_ITER", 1)
                cut = solve_multi_loop(problem).solver_trace
            assert cut.projected_gradient_norm > 1e3 * solved.projected_gradient_norm
        single = solve_single_loop(_symmetric_problem(SingleLoopObjective.TASK_ORIENTED))
        assert math.isnan(single.solver_trace.projected_gradient_norm)


class TestPredictedStarts:
    """optimize.predicted_start, and a power sweep that adds it as report does."""

    @staticmethod
    def _point(power, compute, p_tot, f_tot):
        return {"power_w": np.array(power), "compute_cps": np.array(compute)}, p_tot, f_tot

    def test_weighted_shares_in_order_clipped_at_zero(self):
        """The corner z(i-1, j) + z(i, j-1) - z(i-1, j-1), summed in that order
        on budget shares, clipped at 0 and scaled to the new totals."""
        a = self._point([1.0, 3.0], [4.0, 4.0], 4.0, 8.0)  # shares (0.25, 0.75), (0.5, 0.5)
        b = self._point([2.0, 6.0], [2.0, 8.0], 8.0, 10.0)  # (0.25, 0.75), (0.2, 0.8)
        c = self._point([3.0, 1.0], [1.0, 7.0], 4.0, 8.0)  # (0.75, 0.25), (0.125, 0.875)
        start = optimize.predicted_start([(1.0, *a), (1.0, *b), (-1.0, *c)], 10.0, 20.0)
        assert np.array_equal(start["power_w"], np.array([0.0, 1.25]) * 10.0)
        assert np.array_equal(start["compute_cps"], np.array([0.575, 0.425]) * 20.0)
        one = optimize.predicted_start([(1.0, *b)], 8.0, 10.0)  # one point: its own decision
        assert np.array_equal(one["power_w"], b[0]["power_w"])
        assert np.array_equal(one["compute_cps"], b[0]["compute_cps"])

    def test_not_finite_predicts_nothing(self):
        """A weight past the float range (a secant after a zero spacing), or
        shares past it (a subnormal total), give no start and no warning."""
        a = self._point([1.0, 3.0], [4.0, 4.0], 4.0, 8.0)
        tiny = self._point([1.0, 3.0], [4.0, 4.0], 5e-324, 8.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert optimize.predicted_start([(math.inf, *a), (-math.inf, *a)], 4.0, 8.0) is None
            assert optimize.predicted_start([(2.0, *tiny), (-1.0, *a)], 4.0, 8.0) is None
            assert optimize.predicted_start([(1e308, *a)], 4.0, 8.0) is None

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_robots=st.integers(1, 4),
           points=st.integers(3, 4))
    def test_a_secant_start_along_a_sweep(self, seed, n_robots, points):
        """A power sweep on unstable plants, solved as report solves it: from
        the second point each solve starts also from the previous point's
        decision (task-oriented: its budget shares), and from the third also
        from the secant prediction of the previous two points' shares. Each
        lqr_total is at most the projected value of its zero-order warm start
        and within 1e-12 relative of the solve without the secant start."""
        rng = np.random.default_rng(seed)
        base = random_joint_problem(rng, n_robots)
        totals = np.cumsum(rng.uniform(0.5, 5.0, points)).tolist()
        f_tot = base.total_compute_cps
        chain = {MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM: [],
                 MultiLoopScheme.TASK_ORIENTED_JOINT: []}
        for k, total in enumerate(totals):
            problem = dataclasses.replace(base, total_power_w=total)
            baselines = [solve_multi_loop(dataclasses.replace(problem, scheme=scheme)).decision
                         for scheme in (MultiLoopScheme.MAX_THROUGHPUT_JOINT,
                                        MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM)]
            for scheme, solved in chain.items():
                task = scheme == MultiLoopScheme.TASK_ORIENTED_JOINT
                problem = dataclasses.replace(problem, scheme=scheme)
                extra = baselines[:] if task else []
                if k:
                    previous = solved[-1].decision
                    extra.append({"power_w": previous["power_w"] * (total / totals[k - 1]),
                                  "compute_cps": previous["compute_cps"]} if task else previous)
                result = solve_multi_loop(problem, extra_starts=extra)
                if k >= 2:
                    t = (total - totals[k - 1]) / (totals[k - 1] - totals[k - 2])
                    secant = optimize.predicted_start(
                        [(1.0 + t, solved[k - 1].decision, totals[k - 1], f_tot),
                         (-t, solved[k - 2].decision, totals[k - 2], f_tot)], total, f_tot)
                    with pytest.MonkeyPatch.context() as patch:
                        calls = _record_starts(patch)
                        predicted = solve_multi_loop(problem, extra_starts=extra + [secant])
                    [(starts, values)] = calls
                    assert len(starts) == predicted.solver_trace.restarts \
                        == len(extra) + 2 + task
                    warm_value = values[-2]  # the zero-order warm start, before the secant
                    assert predicted.lqr_total <= warm_value
                    assert abs(predicted.lqr_total - result.lqr_total) \
                        <= 1e-12 * abs(result.lqr_total)
                    result = predicted
                solved.append(result)


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
            "    _multi_result(ev, problem, power, compute, 0.0, SolverTrace(1, True))\n"
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
        matrix = sweep_contour(problem, [5.0], [1e10])
        direct = solve_multi_loop(
            dataclasses.replace(problem, total_power_w=5.0, total_compute_cps=1e10))
        assert matrix.shape == (1, 1)
        assert matrix[0, 0] == direct.lqr_total

    def test_small_grid_monotone(self):
        scn = default_scenario()
        problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT)
        matrix = sweep_contour(problem, [1.0, 5.0, 20.0], [0.9e10, 1.4e10, 2.5e10])
        assert np.all(np.diff(matrix, axis=0) <= 1e-9)
        assert np.all(np.diff(matrix, axis=1) <= 1e-9)

    def test_one_joint_evaluator_per_sweep(self, monkeypatch):
        built = []
        original = JointEvaluator.__init__

        def counted(self, problem):
            built.append(problem)
            original(self, problem)
        monkeypatch.setattr(JointEvaluator, "__init__", counted)
        problem = default_scenario().multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT)
        sweep_contour(problem, [1.0, 5.0, 20.0], [0.9e10, 1.4e10, 2.5e10])
        assert len(built) == 1

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


class TestReadmeLibrary:
    def test_library_block_runs(self, capsys):
        """The README's `## Library` example executes as written: a joint
        solve whose certificate, read on request, is a converged one, and the
        five per-robot outcomes built for its decision."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("\n## Library\n", 1)[1]
        block = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace = {}
        exec(compile(block, "README.md", "exec"), namespace)
        trace = namespace["joint"].solver_trace
        assert trace.converged and 0.0 <= trace.projected_gradient_norm < 1e-6
        assert len(namespace["outcomes"]) == 5
        assert repr(trace.projected_gradient_norm) in capsys.readouterr().out


class TestReadmeNames:
    README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

    def test_command_line_verbs_and_flags_exist(self):
        """Each `satloop` command under `## Command line` names a verb of
        report._parser() and flags of that verb; each flag named on its own
        is a flag of some verb, with the choices it lists."""
        section = self.README.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
        sub, = [a for a in report._parser()._actions
                if isinstance(a, argparse._SubParsersAction)]
        actions = {verb: {name: action for action in parser._actions
                          for name in action.option_strings}
                   for verb, parser in sub.choices.items()}
        blocks = "".join(re.findall(r"```sh\n(.*?)```", section, re.S))
        commands = re.findall(r"^satloop ([^#\n]*)", blocks, re.M)
        commands += re.findall(r"`satloop ([^`]*)`", section)
        assert {command.split()[0] for command in commands} == set(actions)
        for command in commands:
            verb, *words = command.split()
            assert {w for w in words if w.startswith("--")} <= set(actions[verb]), command
        spans = [span.split() for span in re.findall(r"`(--[^`]*)`", section)]
        assert spans
        for flag, *value in spans:
            owners = [names[flag] for names in actions.values() if flag in names]
            assert owners, flag
            if owners[0].choices and value:
                assert set(value[0].split("|")) <= set(owners[0].choices), flag

    def test_repository_paths_exist(self):
        """Each repository path the README names exists (a glob matches),
        and its Layout lists every module of src/satloop."""
        root = Path(__file__).resolve().parents[1]
        paths = set(re.findall(r"(?<![\w./])((?:src|tests|scripts|demos|bench)/[\w./*-]*\w)",
                               self.README))
        assert {"scripts/output_diff.py", "demos/0*.py", "tests/oracles.py",
                "tests/test_acceptance.py", "bench/run.py"} <= paths
        for path in paths:
            assert list(root.glob(path)), path
        layout = self.README.split("\n## Layout\n", 1)[1]
        modules = {path.name for path in (root / "src" / "satloop").glob("*.py")}
        assert set(re.findall(r"^  (\w+\.py) ", layout, re.M)) == modules - {"__init__.py"}

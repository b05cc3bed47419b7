"""Cycle timing model tests, including the frozen balanced-times solve."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satloop import control, pipeline
from satloop.control import RATE_CLAMP_BITS, Plant, RateCostModel, is_stabilizable_at
from satloop.linkgeom import Geometry, LinkParams, shannon_rate_bps
from satloop.pipeline import (COMPUTE_FLOOR_CPS, LoopBudget, NoBudgetError, balanced_times,
                              evaluate_cycle, loop_outcome,
                              propagation_delay_s, store_and_forward)
from oracles import BUDGET, loop_outcomes, numpy_pow4, outcome_formula, reported_costs

C = 299792458.0


def _link(bandwidth, tx_power_w, tx_gain, rx_gain, elevation=90.0):
    return LinkParams(
        tx_power_w=tx_power_w, tx_gain_dbi=tx_gain, rx_gain_dbi=rx_gain,
        carrier_freq_hz=30e9, bandwidth_hz=bandwidth, noise_temperature_k=290.0,
        geometry=Geometry(600e3, elevation))


def _uplink(bandwidth):
    return _link(bandwidth, 0.2, 14.0, 38.5)


def _downlink(bandwidth):
    return _link(bandwidth, 20.0, 38.5, 14.0)


def _model(a=2.0):
    return RateCostModel.from_plant(Plant(a=a, b=1.0, w_cov=1.0, q=1.0, r_u=1.0))


class TestPropagation:
    def test_reference_both_legs(self):
        """600 + 600 km: 1.2e6 / c ~ 4.003 ms (hand evaluated)."""
        assert propagation_delay_s(600e3, 600e3) == pytest.approx(
            0.0040027691423778246, rel=1e-12)

    def test_zero(self):
        assert propagation_delay_s(0.0, 0.0) == 0.0

    def test_one_light_second(self):
        assert propagation_delay_s(C, 0.0) == pytest.approx(1.0, rel=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            propagation_delay_s(-1.0, 0.0)


class TestLoopBudget:
    @pytest.mark.parametrize("name, value", [
        ("cycle_period_s", 0.0), ("cycles_per_bit", -1.0), ("compute_rate_cps", 0.0),
        ("extraction_ratio", 0.0), ("extraction_ratio", 1.5)])
    def test_range_checks(self, name, value):
        """The cycle period lives here only; a non-positive one is refused."""
        with pytest.raises(ValueError):
            dataclasses.replace(BUDGET, **{name: value})


class TestEvaluateCycle:
    def test_compute_time_reference(self):
        """1 Mbit uplinked at 100 cycles/bit over 10 GC/s takes 10 ms."""
        budget = BUDGET
        uplink = _uplink(20e3)
        r_up = shannon_rate_bps(uplink)
        t_up = 1e6 / r_up  # deliver exactly 1 Mbit
        out = evaluate_cycle(uplink, _downlink(20e3), budget, _model(), t_up, 1e-3)
        assert out.t_comp_s == pytest.approx(0.01, rel=1e-12)

    def test_extraction_thousand_to_one(self):
        """1000 uplinked bits with 0.1% extraction deliver 1 command bit."""
        budget = BUDGET
        uplink = _uplink(20e3)
        t_up = 1000.0 / shannon_rate_bps(uplink)
        out = evaluate_cycle(uplink, _downlink(20e3), budget, _model(a=0.5), t_up, 1e-3)
        assert out.effective_bits_per_cycle == pytest.approx(1.0, rel=1e-12)

    def test_no_uplink_no_stability(self):
        out = evaluate_cycle(_uplink(20e3), _downlink(20e3), BUDGET,
                             _model(a=2.0), 0.0, 1e-3)
        assert out.effective_bits_per_cycle == 0.0
        assert not out.stable
        assert out.lqr_cost == math.inf

    def test_time_infeasible(self):
        out = evaluate_cycle(_uplink(20e3), _downlink(20e3), BUDGET,
                             _model(), 0.019, 0.019)
        assert not out.time_feasible
        assert out.effective_bits_per_cycle == 0.0
        assert out.cner_bps == 0.0
        assert not out.stable

    def test_downlink_capacity_caps_delivery(self):
        budget = BUDGET
        uplink = _uplink(20e3)
        downlink = _downlink(20e3)
        t_down = 2.0 / shannon_rate_bps(downlink)  # room for 2 bits only
        t_up = 0.015  # extraction output ~2.9 bits, above the downlink cap
        out = evaluate_cycle(uplink, downlink, budget, _model(), t_up, t_down)
        assert out.time_feasible
        assert out.effective_bits_per_cycle == pytest.approx(2.0, rel=1e-9)

    def test_cner_consistency(self):
        out = evaluate_cycle(_uplink(20e3), _downlink(20e3), BUDGET,
                             _model(), 0.01, 1e-4)
        assert out.cner_bps == pytest.approx(
            out.effective_bits_per_cycle / 0.02, rel=1e-12)


# Effective bits of a loop: -0.0, 0, negative, past the rate clamp, any float
# in a wide range, or None for the loop's data-rate threshold 0.5 log2(a^2).
_EFFECTIVE_BITS = st.one_of(
    st.sampled_from([-0.0, 0.0, -1e-300, -1.0, None, RATE_CLAMP_BITS,
                     math.nextafter(RATE_CLAMP_BITS, math.inf), RATE_CLAMP_BITS + 1.0, 1e6]),
    st.floats(-50.0, 1e3))


class TestReportedCosts:
    @settings(max_examples=200, deadline=None)
    @given(loops=st.lists(st.tuples(
        st.one_of(st.sampled_from([0.0, 0.25, 1.0, 4.0, 9.0]), st.floats(0.0, 1e4)),
        _EFFECTIVE_BITS, st.floats(0.0, 1e300), st.floats(0.0, 1e6), st.booleans()),
        min_size=1, max_size=8))
    def test_costs_are_rate_cost_bit_for_bit(self, loops):
        """Each loop's cost is control.rate_cost at its bits clipped at 0 where
        its cycle fits, and math.inf where it does not (time-infeasible), bit
        for bit; it is stable where that fits and rate_gap calls finite."""
        rows = []
        for a_sq, eff, sens_w, j_ideal, ok in loops:
            if eff is None:  # at the threshold, where 4^eff = a^2 up to rounding
                eff = 0.5 * math.log2(a_sq) if a_sq > 0.0 else 0.0
            rows.append((a_sq, eff, sens_w, j_ideal, ok))
        a_sq, eff, sens_w, j_ideal, ok = (np.array(column) for column in zip(*rows))
        got_eff, got_stable, got_cost = reported_costs(a_sq, sens_w, j_ideal, eff, ok)
        clipped = np.where(ok, np.maximum(eff, 0.0), 0.0)
        want = np.where(ok, control.rate_cost(clipped, a_sq, sens_w, j_ideal), math.inf)
        assert got_eff.tobytes() == clipped.tobytes()
        assert got_cost.tobytes() == want.tobytes(), (got_cost, want)
        assert got_stable.tolist() == (ok & control.rate_gap(clipped, a_sq)[2]).tolist()

    def test_one_rate_gap_per_call(self, monkeypatch):
        calls = []
        rate_gap = control.rate_gap

        def counted(*args):
            calls.append(args)
            return rate_gap(*args)
        monkeypatch.setattr(control, "rate_gap", counted)
        reported_costs(np.array([4.0, 0.25]), np.ones(2), np.ones(2), np.array([1.5, -0.0]),
                       np.array([True, False]))
        assert len(calls) == 1


def _bits(values) -> list:
    """Each value as (type, float.hex) for floats, itself otherwise: equal
    lists mean equal to the bit, the sign of zero included."""
    return [(type(v), v.hex()) if isinstance(v, float) else v for v in values]


def _cycle_on_arrays(budget, r_up, r_down, t_prop, times):
    """pipeline._cycle_at_rates through store_and_forward on length-1 arrays:
    the cycle's array form, with the balanced t_up formula written out."""
    if times is None:
        remaining = budget.cycle_period_s - t_prop
        if remaining <= 0.0:
            raise NoBudgetError("no budget")
        fill = budget.extraction_ratio * r_up / r_down if r_down > 0.0 else math.inf
        t_up = remaining / (1.0 + budget.cycles_per_bit * r_up / budget.compute_rate_cps + fill)
    else:
        t_up, t_down = times
    with np.errstate(all="ignore"):
        t_comp, window, delivered = (column[0].item() for column in store_and_forward(
            np.array([r_up * t_up]), np.array([t_up]), np.array([r_down]), np.array([t_prop]),
            np.array([budget.compute_rate_cps]), budget))
        if times is None:
            t_down = max(window, 0.0)
        eff = np.minimum(np.array([delivered]), np.array([r_down * t_down]))[0].item()
    return t_up, t_comp, t_down, eff, t_down <= window + 1e-12


_POSITIVE = st.floats(0.0, 1e300, exclude_min=True)
# compute at, one ulp either side of and far below COMPUTE_FLOOR_CPS, or any
_COMPUTE = st.one_of(st.sampled_from([COMPUTE_FLOOR_CPS, math.nextafter(COMPUTE_FLOOR_CPS, 0.0),
                                      math.nextafter(COMPUTE_FLOOR_CPS, 1.0), 1e-21, 1e10]),
                     _POSITIVE)
_RATE = st.one_of(st.just(0.0), st.floats(0.0, 1e300))


class TestFloatCycle:
    """The one-loop cycle on Python floats (pipeline._cycle_at_rates) is the
    array form's (store_and_forward) bit for bit."""

    @settings(max_examples=400, deadline=None)
    @given(period=st.one_of(st.just(0.02), _POSITIVE), cycles_per_bit=_POSITIVE,
           compute=_COMPUTE, extraction=st.floats(0.0, 1.0, exclude_min=True),
           r_up=_RATE, r_down=_RATE, prop_share=st.sampled_from([0.0, 0.2, 1.0, 1.5]),
           times=st.one_of(st.none(), st.tuples(
               st.one_of(st.sampled_from([0.0, -0.0, "rest"]), st.floats(0.0, 1e3)),
               st.one_of(st.sampled_from([0.0, -0.0]), st.floats(0.0, 1e3)))))
    def test_balanced_and_given_times(self, period, cycles_per_bit, compute, extraction,
                                      r_up, r_down, prop_share, times):
        """Balanced and given times, with windows of 0.0 (an uplink that
        takes the rest of the period), overruns, links that carry no bits,
        and compute at, below and above the floor."""
        budget = LoopBudget(period, cycles_per_bit, compute, extraction)
        t_prop = prop_share * period
        if times is not None and times[0] == "rest":
            times = (period - t_prop, times[1])
        try:
            want = _cycle_on_arrays(budget, r_up, r_down, t_prop, times)
        except NoBudgetError:
            with pytest.raises(NoBudgetError):
                pipeline._cycle_at_rates(budget, r_up, r_down, t_prop, times)
            return
        got = pipeline._cycle_at_rates(budget, r_up, r_down, t_prop, times)
        assert _bits(got) == _bits(want), (got, want)

    def test_no_bits_over_an_overrun(self):
        """A cycle that uplinks nothing, over a downlink that carries no bits,
        in a period its uplink time overruns: the array form delivers -0.0
        bits, and each cycle takes np.minimum's tie rule to +0.0."""
        budget = LoopBudget(0.02, 100.0, 1e10, 1e-3)
        for r_up, t_up in ((0.0, 0.03), (1e5, 0.0), (0.0, -0.0)):
            got = pipeline._cycle_at_rates(budget, r_up, 0.0, 0.0, (t_up, 0.01))
            assert _bits(got) == _bits(_cycle_on_arrays(budget, r_up, 0.0, 0.0, (t_up, 0.01)))

    def test_compute_below_the_floor(self):
        """Compute below COMPUTE_FLOOR_CPS computes at the floor."""
        budget = LoopBudget(0.02, 100.0, 1e-21, 1e-3)
        _, t_comp, _, _, _ = pipeline._cycle_at_rates(budget, 1e5, 1e5, 0.0, (1e-3, 1e-3))
        assert t_comp == 100.0 * 1e5 * 1e-3 / COMPUTE_FLOOR_CPS


class TestFloatOutcome:
    """loop_outcome, one loop's outcome on Python floats, takes 4^R by libm's
    pow (4.0 ** R), and the array reference loop_outcomes((model,), ...)[0]
    by numpy's power loop. Each form's stable and lqr_cost are
    outcome_formula on its own power, bit for bit; every other field is the
    same in both, and where the two powers agree (everywhere unless numpy
    runs its AVX-512 loop) so are all fields. control.lqr_cost is the float
    form and control.rate_cost the array form."""

    @settings(max_examples=400, deadline=None)
    @given(a=st.one_of(st.sampled_from([0.0, 0.5, 1.0, -1.0, 2.0, 30.0]), st.floats(-64.0, 64.0)),
           w_cov=st.one_of(st.sampled_from([0.0, 1.0, 1e300]), st.floats(0.0, 1e300)),
           eff=_EFFECTIVE_BITS, ok=st.booleans(),
           period=st.one_of(st.just(0.02), _POSITIVE),
           times=st.tuples(*[st.floats(0.0, 1e6)] * 6))
    # where numpy's AVX-512 power loop and libm's pow round 4^eff apart
    @example(a=1.5, w_cov=1.0, eff=1.6641407969579731, ok=True, period=0.02, times=(0.0,) * 6)
    def test_each_form_is_the_formula_on_its_own_pow(self, a, w_cov, eff, ok, period, times):
        """Effective bits of -0.0, 0, negative, at the threshold, at and past
        RATE_CLAMP_BITS, time-infeasible cycles, and costs that overflow to
        inf (w_cov up to 1e300)."""
        model = RateCostModel.from_plant(Plant(a=a, b=1.0, w_cov=w_cov, q=1.0, r_u=1.0))
        if eff is None:  # at the threshold, where 4^eff = a^2 up to rounding
            eff = 0.5 * math.log2(a * a) if a * a > 0.0 else 0.0
        got = loop_outcome(model, period, *times, eff, ok)
        with np.errstate(all="ignore"):
            want = loop_outcomes((model,), period, *times, eff, ok)[0]
        fields = dataclasses.astuple(got)
        rate = min(got.effective_bits_per_cycle, RATE_CLAMP_BITS)
        libm, numpy_pow = 4.0 ** rate, numpy_pow4(rate)
        assert _bits((got.stable, got.lqr_cost)) == _bits(outcome_formula(
            model, got.effective_bits_per_cycle, ok, libm))
        assert _bits((want.stable, want.lqr_cost)) == _bits(outcome_formula(
            model, got.effective_bits_per_cycle, ok, numpy_pow))
        assert _bits(fields) == _bits(dataclasses.astuple(dataclasses.replace(
            want, stable=got.stable, lqr_cost=got.lqr_cost))), (got, want)
        if libm == numpy_pow:
            assert _bits(fields) == _bits(dataclasses.astuple(want)), (got, want)

    def test_float_and_array_costs_are_the_formula_on_their_pows(self):
        """At 400 rates, loop_outcome's cost and control.lqr_cost are
        outcome_formula on 4.0 ** R, and control.rate_cost on numpy's power,
        bit for bit: the two forms are equal at each rate where the powers
        agree, and numpy's AVX-512 loop makes about one rate in twenty differ."""
        model = _model(a=1.5)
        rates = np.random.default_rng(3).uniform(0.6, 40.0, 400)
        array_costs = control.rate_cost(rates, 1.5 * 1.5, model.sensitivity * model.plant.w_cov,
                                        model.j_ideal).tolist()
        for r, array_cost in zip(rates.tolist(), array_costs):
            cost = loop_outcome(model, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, r, True).lqr_cost
            assert cost.hex() == outcome_formula(model, r, True, 4.0 ** r)[1].hex(), r
            assert control.lqr_cost(model, r).hex() == cost.hex(), r
            assert array_cost.hex() == outcome_formula(
                model, r, True, numpy_pow4(r))[1].hex(), r


class TestStableMeansFiniteCost:
    """LoopOutcome.stable is the rate-limited cost's own test: 4^eff > a^2
    (control.rate_gap), where J(eff) is finite unless it overflows."""

    @staticmethod
    def _outcome(a, eff):
        model = RateCostModel.from_plant(Plant(a=a, b=1.0, w_cov=1.0, q=1.0, r_u=1.0))
        return loop_outcomes((model,), 0.02, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, eff, True)[0]

    def test_at_the_threshold_and_one_ulp_either_side(self):
        rng = np.random.default_rng(7)
        magnitudes = np.concatenate([[1.8099524881343727, 2.0, 30.0],
                                     rng.uniform(1.0, 64.0, 300)])
        for a in [s * m for m in magnitudes.tolist() for s in (1.0, -1.0)]:
            threshold = math.log2(abs(a))
            for eff in (math.nextafter(threshold, 0.0), threshold,
                        math.nextafter(threshold, math.inf)):
                out = self._outcome(a, eff)
                assert out.stable == (out.lqr_cost < math.inf), (a, eff, out)

    def test_agrees_with_is_stabilizable_at_up_to_huge_noise(self):
        """stable is is_stabilizable_at's answer for w_cov up to 1e300, also
        where the cost overflows the float range: the loop clears its
        threshold, and its lqr_cost stays math.inf."""
        period = 2.0 ** -6  # eff / period * period == eff: both tests see one rate
        rng = np.random.default_rng(11)
        magnitudes = np.concatenate([[0.5, 1.0, 2.0, 30.0], rng.uniform(1.0, 64.0, 60)])
        for w_cov in (1.0, 1e100, 1e200, 1e300):
            for a in [s * m for m in magnitudes.tolist() for s in (1.0, -1.0)]:
                plant = Plant(a=a, b=1.0, w_cov=w_cov, q=1.0, r_u=1.0)
                model = RateCostModel.from_plant(plant)
                threshold = max(math.log2(abs(a)), 0.0)
                for eff in (0.0, math.nextafter(threshold, 0.0), threshold,
                            math.nextafter(threshold, math.inf)):
                    out = loop_outcomes((model,), period, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, eff,
                                        True)[0]
                    assert out.stable == is_stabilizable_at(plant, out.cner_bps, period), (
                        a, w_cov, eff, out)
        plant = Plant(a=2.0, b=1.0, w_cov=1e300, q=1.0, r_u=1.0)
        out = loop_outcomes((RateCostModel.from_plant(plant),), period, 1.0, 1.0, 0.0, 0.0,
                            0.0, 0.0, math.nextafter(1.0, math.inf), True)[0]
        assert out.stable and out.lqr_cost == math.inf

    def test_float_forms_agree_at_each_threshold(self):
        """loop_outcome, control.lqr_cost and control.is_stabilizable_at give
        one answer bit for bit at each data-rate threshold and 1 ulp either
        side, for w_cov up to 1e300 (where a stable loop's cost overflows)."""
        period = 2.0 ** -6  # eff / period * period == eff: every form sees one rate
        rng = np.random.default_rng(13)
        magnitudes = np.concatenate([[0.5, 1.0, 1.5, 1.8099524881343727, 2.0, 30.0],
                                     rng.uniform(1.0, 64.0, 100)])
        for w_cov in (1.0, 1e100, 1e200, 1e300):
            for a in [s * m for m in magnitudes.tolist() for s in (1.0, -1.0)]:
                plant = Plant(a=a, b=1.0, w_cov=w_cov, q=1.0, r_u=1.0)
                model = RateCostModel.from_plant(plant)
                threshold = max(math.log2(abs(a)), 0.0)
                for eff in (0.0, math.nextafter(threshold, 0.0), threshold,
                            math.nextafter(threshold, math.inf)):
                    out = loop_outcome(model, period, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, eff, True)
                    assert out.lqr_cost.hex() == control.lqr_cost(model, eff).hex(), (a, eff)
                    assert out.stable is is_stabilizable_at(plant, out.cner_bps, period), (
                        a, w_cov, eff, out)
                    assert out.stable == (4.0 ** eff > a * a)
                    assert out.stable or out.lqr_cost == math.inf

    @pytest.mark.parametrize("a, stable", [(1.0, False), (-1.0, False), (0.5, True)])
    def test_no_bits(self, a, stable):
        """A marginal plant has no finite cost at 0 bits; a stable plant has one."""
        out = self._outcome(a, 0.0)
        assert out.stable is stable
        assert (out.lqr_cost < math.inf) is stable


class TestBalancedTimes:
    def test_frozen_reference_equal_split(self):
        """Equal 20/20 kHz split of the baseline: independent linear solve.

        R_up = 192175.55305993149, R_down = 325016.0681043339,
        t_up = T' / (1 + 100 R_up / 1e10 + 0.001 R_up / R_down).
        """
        budget = BUDGET
        t_prop = propagation_delay_s(600e3, 600e3)
        t_up, t_down = balanced_times(_uplink(20e3), _downlink(20e3), budget, t_prop)
        assert t_up == pytest.approx(0.015957130020346359, rel=1e-9)
        assert t_down == pytest.approx(9.4351344067238331e-06, rel=1e-9)
        out = evaluate_cycle(_uplink(20e3), _downlink(20e3), budget, _model(),
                             t_up, t_down)
        assert out.effective_bits_per_cycle == pytest.approx(3.0665702869092973, rel=1e-9)
        assert out.time_feasible

    def test_symmetric_toy_case(self):
        """Equal rates, rho = 1, negligible compute: even time split."""
        budget = LoopBudget(cycle_period_s=0.02, cycles_per_bit=1e-6,
                            compute_rate_cps=1e15, extraction_ratio=1.0)
        link = _link(1e4, 1.0, 20.0, 20.0)
        t_up, t_down = balanced_times(link, link, budget, 0.0)
        assert t_up == pytest.approx(0.01, rel=1e-6)
        assert t_down == pytest.approx(0.01, rel=1e-6)

    def test_vanishing_extraction_limit(self):
        budget = dataclasses.replace(BUDGET, extraction_ratio=1e-12)
        uplink, downlink = _uplink(20e3), _downlink(20e3)
        t_prop = propagation_delay_s(600e3, 600e3)
        t_up, t_down = balanced_times(uplink, downlink, budget, t_prop)
        r_up = shannon_rate_bps(uplink)
        expected_t_up = (0.02 - t_prop) / (1.0 + 100.0 * r_up / 1e10)
        assert t_up == pytest.approx(expected_t_up, rel=1e-6)
        assert t_down < 1e-9

    def test_no_budget(self):
        with pytest.raises(NoBudgetError):
            balanced_times(_uplink(20e3), _downlink(20e3), BUDGET, 0.03)

    def test_budget_exactly_filled(self):
        budget = BUDGET
        t_prop = propagation_delay_s(600e3, 600e3)
        t_up, t_down = balanced_times(_uplink(20e3), _downlink(20e3), budget, t_prop)
        out = evaluate_cycle(_uplink(20e3), _downlink(20e3), budget, _model(),
                             t_up, t_down)
        total_latency_s = out.t_up_s + out.t_comp_s + out.t_down_s + out.t_prop_s
        assert total_latency_s <= budget.cycle_period_s + 1e-12
        assert total_latency_s == pytest.approx(budget.cycle_period_s, rel=1e-9)


class TestOptimalityProperty:
    def test_balanced_beats_random_feasible_splits(self):
        """Balanced times dominate 1000 random feasible (t_up, t_down) pairs."""
        budget = BUDGET
        uplink, downlink = _uplink(15e3), _downlink(25e3)
        model = _model()
        t_prop = propagation_delay_s(600e3, 600e3)
        t_up_b, t_down_b = balanced_times(uplink, downlink, budget, t_prop)
        best = evaluate_cycle(uplink, downlink, budget, model, t_up_b,
                              t_down_b).effective_bits_per_cycle
        r_up = shannon_rate_bps(uplink)
        remaining = budget.cycle_period_s - t_prop
        rng = np.random.default_rng(99)
        for _ in range(1000):
            t_up = rng.uniform(0.0, remaining)
            t_comp = budget.cycles_per_bit * r_up * t_up / budget.compute_rate_cps
            slack = remaining - t_up - t_comp
            if slack <= 0.0:
                continue
            t_down = rng.uniform(0.0, slack)
            out = evaluate_cycle(uplink, downlink, budget, model, t_up, t_down)
            assert out.effective_bits_per_cycle <= best + 1e-9

    def test_effective_bits_bounded_by_both_links(self):
        """Delivered bits never exceed extraction output or downlink capacity."""
        budget = BUDGET
        model = _model()
        rng = np.random.default_rng(404)
        uplink, downlink = _uplink(15e3), _downlink(25e3)
        r_up, r_down = shannon_rate_bps(uplink), shannon_rate_bps(downlink)
        for _ in range(300):
            t_up = rng.uniform(0.0, 0.015)
            t_down = rng.uniform(0.0, 0.004)
            out = evaluate_cycle(uplink, downlink, budget, model, t_up, t_down)
            assert out.effective_bits_per_cycle <= \
                budget.extraction_ratio * r_up * t_up + 1e-12
            assert out.effective_bits_per_cycle <= r_down * t_down + 1e-12

    def test_effective_bits_monotone_in_resources(self):
        budget = BUDGET
        model = _model()
        t_prop = propagation_delay_s(600e3, 600e3)

        def eff(b_up=15e3, b_down=25e3, compute=1e10):
            bud = dataclasses.replace(BUDGET, compute_rate_cps=compute)
            up, down = _uplink(b_up), _downlink(b_down)
            t_up, t_down = balanced_times(up, down, bud, t_prop)
            return evaluate_cycle(up, down, bud, model, t_up,
                                  t_down).effective_bits_per_cycle

        ups = [eff(b_up=b) for b in np.linspace(5e3, 35e3, 12)]
        assert all(a <= b + 1e-12 for a, b in zip(ups, ups[1:]))
        downs = [eff(b_down=b) for b in np.linspace(5e3, 35e3, 12)]
        assert all(a <= b + 1e-12 for a, b in zip(downs, downs[1:]))
        comps = [eff(compute=c) for c in np.logspace(8.5, 11.0, 12)]
        assert all(a <= b + 1e-12 for a, b in zip(comps, comps[1:]))

"""Riccati, entropy-rate, and rate-limited cost tests."""
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from satloop import control
from satloop.control import (RATE_CLAMP_BITS, NonConvergentError, Plant, RateCostModel,
                             cner_bps, dare_solve, intrinsic_entropy_rate,
                             is_stabilizable_at, lqr_cost, rate_cost)
from oracles import (dare_residual, riccati_fixed_point, scalar_dare_root,
                     simulate_quantized_loop)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


def _plant(a=2.0, b=1.0, w=1.0, q=1.0, r=1.0):
    return Plant(a=a, b=b, w_cov=w, q=q, r_u=r)


class TestDare:
    def test_memoryless_plant(self):
        s = dare_solve(_plant(a=0.0))
        assert s == pytest.approx(1.0, rel=1e-12)

    def test_a1_hand_solved(self):
        """s = q + s/(1+s) -> s^2 - s - 1 = 0 -> golden ratio."""
        s = dare_solve(_plant(a=1.0))
        assert s == pytest.approx(GOLDEN, rel=1e-9)

    def test_a2_hand_solved(self):
        """s^2 - 4s - 1 = 0 -> s = 2 + sqrt(5)."""
        s = dare_solve(_plant(a=2.0))
        assert s == pytest.approx(2.0 + math.sqrt(5.0), rel=1e-9)

    def test_random_scalar_plants_match_quadratic(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            a = rng.uniform(-2.0, 2.0)
            b = rng.uniform(0.7, 1.5) * rng.choice([-1.0, 1.0])
            q = rng.uniform(0.2, 2.0)
            r = rng.uniform(0.2, 2.0)
            plant = _plant(a=a, b=b, q=q, r=r)
            s = dare_solve(plant)
            assert s == pytest.approx(scalar_dare_root(a, b, q, r), rel=1e-9)
            assert dare_residual(plant, dare_solve(plant)) <= 10e-12

    @pytest.mark.parametrize("a, b, r", [(2.0, 1.0, 1.0), (-1.5, 0.8, 2.0), (3.0, -1.2, 0.5)])
    def test_zero_state_weight_takes_stabilizing_root(self, a, b, r):
        """q = 0 leaves S = 0 a fixed point; the stabilizing root is r (a^2 - 1) / b^2.

        At q = 0 the oracle's quadratic has no constant term, so its formula
        does not cancel. For a = 2, b = r = 1 the root is 3.
        """
        s = dare_solve(_plant(a=a, b=b, q=0.0, r=r))
        assert s == pytest.approx(scalar_dare_root(a, b, 0.0, r), rel=1e-9)
        assert s == pytest.approx(r * (a * a - 1.0) / (b * b), rel=1e-9)

    def test_zero_state_weight_stable_plant_reaches_zero(self):
        """A stable plant with q = 0 has S = 0."""
        for a in (0.5, 0.99):
            assert abs(dare_solve(_plant(a=a, q=0.0))) < 1e-9


class TestScalarClosedForm:
    """The closed-form root against the fixed-point Riccati iteration."""

    @settings(max_examples=150, deadline=None)
    @given(a=st.floats(-3.0, 3.0),
           b=st.floats(0.2, 3.0).flatmap(lambda m: st.sampled_from([m, -m])),
           q=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
           r=st.floats(0.1, 5.0))
    @example(a=1.0, b=1.0, q=1e-10, r=1.0)  # the iteration settles like 1/n
    @example(a=-1.0, b=1.0, q=1e-300, r=1.0)  # the closed loop rounds to 1
    def test_matches_fixed_point_iteration(self, a, b, q, r):
        # a marginal plant without state weight converges too slowly to iterate
        assume(q > 0.0 or abs(abs(a) - 1.0) > 0.05)
        plant = _plant(a=a, b=b, q=q, r=r)
        root = scalar_dare_root(a, b, q, r)
        if not abs(a * r / (r + b * b * root)) < 1.0:
            # |a| = 1 and a tiny q: the closed loop |a - b k| rounds to 1
            with pytest.raises(NonConvergentError):
                dare_solve(plant)
            return
        s = dare_solve(plant)
        try:
            want = riccati_fixed_point(a, b, q, r)
        except ArithmeticError:
            # |a| near 1 and a small q: the iteration cannot settle, so check
            # the quadratic's root and the Riccati residual instead
            assert s == pytest.approx(root, rel=1e-9, abs=1e-9)
            assert dare_residual(plant, s) <= 1e-11
            return
        assert s == pytest.approx(want, rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("a, q", [(0.0, 1.0), (0.5, 1.0), (-0.9, 0.0), (0.3, 0.0)])
    def test_no_input_authority_on_a_stable_mode(self, a, q):
        """b = 0 leaves s = q + a^2 s, so s = q / (1 - a^2)."""
        s = dare_solve(_plant(a=a, b=0.0, q=q))
        assert s == pytest.approx(q / (1.0 - a * a), rel=1e-15)
        assert s == pytest.approx(riccati_fixed_point(a, 0.0, q, 1.0), rel=1e-9, abs=1e-9)

    @pytest.mark.parametrize("a, b, q", [(2.0, 0.0, 1.0), (1.0, 0.0, 1.0), (-1.0, 0.0, 0.0),
                                         (1.0, 1.0, 0.0), (-1.0, 2.0, 0.0)])
    def test_no_stabilizing_root_raises(self, a, b, q):
        """b = 0 with |a| >= 1, and q = 0 with |a| = 1 (closed loop |a - b k| = 1)."""
        with pytest.raises(NonConvergentError):
            dare_solve(_plant(a=a, b=b, q=q))
        with pytest.raises(NonConvergentError):
            RateCostModel.from_plant(_plant(a=a, b=b, q=q))

    def test_no_cancellation_for_small_state_weight(self):
        """c1 > 0 and q tiny: the root is about q / (1 - a^2) to full precision."""
        s = dare_solve(_plant(a=0.5, q=1e-20))
        assert s == pytest.approx(1e-20 / 0.75, rel=1e-12, abs=0.0)

    def test_from_plant_builds_no_mode_plant(self, monkeypatch):
        built = []
        original = Plant.__post_init__
        monkeypatch.setattr(Plant, "__post_init__",
                            lambda self: built.append(self) or original(self))
        plant = _plant(a=1.7, b=0.8, w=2.0, q=3.0, r=0.5)
        built.clear()
        RateCostModel.from_plant(plant)
        assert built == []


class TestEntropyRate:
    def test_stable_plant_zero(self):
        assert intrinsic_entropy_rate(_plant(a=0.5), 1.0) == 0.0

    def test_a2_at_20ms(self):
        """log2(2) = 1 bit per step over a 20 ms cycle = 50 bit/s."""
        assert intrinsic_entropy_rate(_plant(a=2.0), 0.02) == pytest.approx(50.0)

    def test_marginally_stable_excluded(self):
        assert intrinsic_entropy_rate(_plant(a=1.0), 1.0) == 0.0


class TestStabilizable:
    def test_stable_plant_any_rate(self):
        plant = _plant(a=0.9)
        assert is_stabilizable_at(plant, 0.0, 0.02)
        assert is_stabilizable_at(plant, 123.0, 0.02)

    def test_boundary_strict(self):
        plant = _plant(a=2.0)
        assert not is_stabilizable_at(plant, 50.0, 0.02)
        assert is_stabilizable_at(plant, 51.0, 0.02)

    def test_monotone_in_rate(self):
        plant = _plant(a=2.0)
        flags = [is_stabilizable_at(plant, r, 0.02) for r in np.linspace(0.0, 120.0, 60)]
        assert flags == sorted(flags)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            is_stabilizable_at(_plant(), -1.0, 0.02)


def _ulps(x: float, k: int) -> float:
    """x moved k ulps, up for k > 0 and down for k < 0."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


@st.composite
def _plant_and_rate(draw):
    """(a, R): a marginal, stable or unstable (|a| up to e^5) plant, and a rate
    in bits per step at 0, tiny, anywhere, or within 3 ulps of log2 |a|."""
    size = draw(st.one_of(
        st.sampled_from([1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0)]),
        st.floats(0.0, 1.0, exclude_max=True),
        st.floats(0.01, 5.0).map(math.exp)))
    threshold = math.log2(size) if size > 0.0 else 0.0
    rate = draw(st.one_of(
        st.just(0.0), st.sampled_from([5e-324, 1e-300]), st.floats(0.0, 1e-300),
        st.floats(0.0, 20.0),
        st.integers(-3, 3).map(lambda k: max(_ulps(threshold, k), 0.0))))
    return draw(st.sampled_from([size, -size])), rate


class TestOneStabilityAnswer:
    """is_stabilizable_at gives the rate-cost curve's answer: stable exactly
    where J(cner * T) is finite."""

    @settings(max_examples=400, deadline=None)
    @given(case=_plant_and_rate(), period=st.floats(1e-3, 1.0),
           b=st.floats(0.2, 3.0), w=st.floats(1e-3, 1e3), q=st.floats(0.1, 5.0),
           r=st.floats(0.1, 5.0))
    @example(case=(1.0, 0.0), period=0.02, b=1.0, w=1.0, q=1.0, r=1.0)
    @example(case=(-1.0, 0.0), period=0.02, b=1.0, w=1.0, q=1.0, r=1.0)
    def test_agrees_with_finite_cost(self, case, period, b, w, q, r):
        a, rate = case
        plant = _plant(a=a, b=b, w=w, q=q, r=r)
        model = RateCostModel.from_plant(plant)
        cner = rate / period
        assert is_stabilizable_at(plant, cner, period) == \
            (lqr_cost(model, cner * period) < math.inf)


class TestCner:
    def test_arithmetic(self):
        assert cner_bps(1.0, 0.02) == pytest.approx(50.0)
        assert cner_bps(0.0, 0.5) == 0.0
        assert cner_bps(1000.0, 0.02) == pytest.approx(50000.0)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            cner_bps(-1.0, 0.02)
        with pytest.raises(ValueError):
            cner_bps(1.0, 0.0)


class TestLqrCost:
    def test_asymptote_is_ideal_cost(self):
        model = RateCostModel.from_plant(_plant(a=2.0))
        j_inf = lqr_cost(model, 1000.0)
        assert j_inf == pytest.approx(model.j_ideal, rel=1e-12)

    def test_boundary_infeasible(self):
        """a = 2, R = 1 bit: 2^(2R) = a^2 exactly, strictly infeasible."""
        model = RateCostModel.from_plant(_plant(a=2.0))
        assert lqr_cost(model, 1.0) == math.inf
        assert lqr_cost(model, 0.5) == math.inf
        assert lqr_cost(model, 1.0 + 1e-9) != math.inf

    def test_hand_evaluated_closed_form(self):
        """a=2, b=q=r=w=1, R=2: j_ideal = 2+sqrt5, sensitivity = 7+3*sqrt5."""
        model = RateCostModel.from_plant(_plant(a=2.0))
        assert model.j_ideal == pytest.approx(2.0 + math.sqrt(5.0), rel=1e-9)
        assert model.sensitivity == pytest.approx(7.0 + 3.0 * math.sqrt(5.0), rel=1e-9)
        expected = (2.0 + math.sqrt(5.0)) + (7.0 + 3.0 * math.sqrt(5.0)) / 12.0
        assert lqr_cost(model, 2.0) == pytest.approx(expected, rel=1e-12)
        assert lqr_cost(model, 2.0) == pytest.approx(5.378418305208070, rel=1e-12)

    def test_decreasing_and_convex_on_grid(self):
        model = RateCostModel.from_plant(_plant(a=2.0))
        rates = np.linspace(1.2, 20.0, 200)
        costs = np.array([lqr_cost(model, r) for r in rates])
        diffs = np.diff(costs)
        assert np.all(diffs < 0.0)
        assert np.all(np.diff(diffs) >= -1e-12)

    def test_close_to_ideal_at_64_bits(self):
        for a in (-4.0, -1.5, 0.5, 2.0, 4.0):
            model = RateCostModel.from_plant(_plant(a=a))
            cost = lqr_cost(model, 64.0)
            assert abs(cost - model.j_ideal) < 1e-6 * max(model.j_ideal, 1e-12)

    def test_stable_plant_finite_at_zero_rate(self):
        model = RateCostModel.from_plant(_plant(a=0.5))
        cost = lqr_cost(model, 0.0)
        assert cost != math.inf
        # P_est(0) = w / (1 - a^2)
        assert cost == pytest.approx(model.j_ideal + model.sensitivity / 0.75, rel=1e-9)

    def test_cached_values_match_recomputation(self):
        plant = _plant(a=1.7, b=0.8, w=2.0, q=3.0, r=0.5)
        model = RateCostModel.from_plant(plant)
        s = dare_solve(plant)
        k = 1.7 * 0.8 * s / (0.5 + 0.64 * s)
        assert model.j_ideal == pytest.approx(s * 2.0, rel=1e-12)
        assert model.sensitivity == pytest.approx(k * k * (0.5 + 0.64 * s), rel=1e-12)

    def test_non_scalar_plant_rejected(self):
        """A matrix in any field is refused when the plant is built."""
        fields = dict(a=2.0, b=1.0, w_cov=1.0, q=1.0, r_u=1.0)
        for name in fields:
            with pytest.raises((ValueError, TypeError)):
                Plant(**{**fields, name: np.eye(2)})

    @pytest.mark.parametrize("name, value", [("w_cov", -1e-12), ("q", -1.0), ("r_u", 0.0)])
    def test_plant_range_checks(self, name, value):
        fields = dict(a=2.0, b=1.0, w_cov=1.0, q=1.0, r_u=1.0)
        with pytest.raises(ValueError):
            Plant(**{**fields, name: value})

    def test_plant_holds_floats(self):
        plant = Plant(a=2, b=np.float64(1.0), w_cov=1, q=1, r_u=1)
        assert [type(v) for v in vars(plant).values()] == [float] * 5

    def test_rejects_negative_rate(self):
        model = RateCostModel.from_plant(_plant())
        with pytest.raises(ValueError):
            lqr_cost(model, -0.1)


class TestCachedRiccati:
    def test_lqr_gain_uses_the_cached_root(self, monkeypatch):
        a, b, r = 1.7, 0.8, 0.5
        plant = _plant(a=a, b=b, w=2.0, q=3.0, r=r)
        s = dare_solve(plant)
        model = RateCostModel.from_plant(plant)

        def no_solve(*args, **kwargs):
            raise AssertionError("lqr_gain solved the Riccati equation again")
        monkeypatch.setattr(control, "dare_solve", no_solve)
        assert model.lqr_gain() == a * b * s / (r + b * b * s)


class TestQuantizedLoopOracle:
    """Monte-Carlo cross-check: the closed form lower-bounds a crude quantizer."""

    def test_empirical_cost_dominates_analytic(self):
        plant = _plant(a=2.0)
        model = RateCostModel.from_plant(plant)
        gain = model.lqr_gain()
        assert gain == pytest.approx(GOLDEN, rel=1e-9)
        for rate in (3, 5):
            emp = simulate_quantized_loop(2.0, 1.0, 1.0, 1.0, 1.0, gain,
                                          rate, steps=20000, seed=1234)
            ana = lqr_cost(model, float(rate))
            assert emp >= ana


class TestRateCostCurve:
    """The array-valued J(R) against the scalar lqr_cost, element by element."""

    PLANTS = {
        "unstable": _plant(a=2.0),
        "stable": _plant(a=0.5),
        "negative": _plant(a=-3.0, w=2.0, q=0.5),
    }

    def test_threshold_counts_unstable_modes_only(self):
        assert RateCostModel.from_plant(_plant(a=0.0)).threshold_bits == 0.0
        assert RateCostModel.from_plant(_plant(a=-0.5)).threshold_bits == 0.0
        assert RateCostModel.from_plant(_plant(a=2.0)).threshold_bits == 1.0

    @pytest.mark.parametrize("name", sorted(PLANTS))
    def test_matches_lqr_cost(self, name):
        model = RateCostModel.from_plant(self.PLANTS[name])
        t = model.threshold_bits
        rates = np.array([0.0, 0.5 * t, t, t + 1e-9, t + 0.3, t + 2.0, 64.0,
                          RATE_CLAMP_BITS, 450.0, 1e6])
        costs = model.cost(rates)
        assert costs.shape == rates.shape
        for rate, cost in zip(rates, costs):
            want = lqr_cost(model, float(rate))
            if want == math.inf:
                assert cost == math.inf, rate
            else:
                assert cost == want, rate
        assert costs[2] == math.inf or t == 0.0  # at the threshold
        assert costs[-3] == costs[-2] == costs[-1] == pytest.approx(model.j_ideal, rel=1e-15)

    @pytest.mark.parametrize("name", sorted(PLANTS))
    def test_one_rate_equals_its_entry_in_an_array(self, name):
        """A single rate costs exactly what it costs inside an array of rates."""
        model = RateCostModel.from_plant(self.PLANTS[name])
        rates = np.linspace(0.0, 20.0, 2001)
        costs = model.cost(rates)
        assert [model.cost(r) for r in rates] == costs.tolist()
        assert [lqr_cost(model, r) for r in rates.tolist()] == costs.tolist()

    def test_scalar_closed_form(self):
        """a=2, b=q=r=w=1: J(R) = (2+sqrt5) + (7+3 sqrt5) / (4^R - 4)."""
        rates = np.array([-0.5, 0.5, 1.0, 1.5, 2.0, 3.0])
        costs = rate_cost(rates, 4.0, 7.0 + 3.0 * math.sqrt(5.0), 2.0 + math.sqrt(5.0))
        assert np.all(np.isinf(costs[:3]))
        np.testing.assert_allclose(
            costs[3:], 2.0 + math.sqrt(5.0) + (7.0 + 3.0 * math.sqrt(5.0)) / (4.0 ** rates[3:] - 4.0),
            rtol=1e-15)

    def test_negative_rate_is_infinite(self):
        model = RateCostModel.from_plant(_plant(a=0.5))
        assert model.cost(-1e-9) == math.inf
        assert np.all(model.cost(np.array([-1.0, -1e-12])) == math.inf)
        with pytest.raises(ValueError):
            lqr_cost(model, -1e-9)

    def test_clamp_keeps_huge_rates_finite(self):
        model = RateCostModel.from_plant(self.PLANTS["unstable"])
        with np.errstate(over="raise"):
            assert model.cost(np.array([1e6, 1e300])).tolist() == [model.j_ideal] * 2

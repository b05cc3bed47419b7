"""Tests of the benchmark's own helpers: tail rule, self time, speed
adjustment, generator, and that the tracer's wrappers see every call
cProfile sees."""
import importlib

import pytest

from bench import measure, speed, tracer, workloads


class TestTailPercentile:
    @pytest.mark.parametrize("n, expected", [
        (1, 50.0), (19, 50.0), (20, 50.0), (36, 72.0), (63, 84.0), (100, 90.0),
        (199, 94.0), (200, 95.0), (999, 98.0), (1000, 99.0), (9999, 99.0),
        (10000, 99.9)])
    def test_highest_ladder_step_with_ten_beyond(self, n, expected):
        assert measure.tail_percentile(n) == expected

    @pytest.mark.parametrize("n", [20, 57, 126, 200, 333, 1000, 4321, 10000])
    def test_at_least_ten_beyond_and_next_step_has_fewer(self, n):
        p = measure.tail_percentile(n)
        assert measure.items_beyond_x1000(n, p) >= 10_000
        ladder = measure.PERCENTILE_LADDER
        higher = ladder[ladder.index(p) + 1:]
        assert all(measure.items_beyond_x1000(n, q) < 10_000 for q in higher)

    def test_rank_quantile_is_the_largest_of_few_values(self):
        assert measure.rank_quantile([3.0, 1.0, 2.0, 5.0, 4.0], 5 / 6) == 5.0
        assert measure.rank_quantile([1.0], 5 / 6) == 1.0
        values = [float(v) for v in range(1, 21)]  # rank 17.5 of 20
        assert measure.rank_quantile(values, 5 / 6) == pytest.approx(17.5)
        assert measure.rank_quantile(values, 0.0) == 1.0

    def test_percentile_interpolates(self):
        values = list(range(101))
        assert measure.percentile(values, 90.0) == 90.0
        assert measure.percentile([1.0, 2.0], 50.0) == 1.5
        assert measure.percentile([3.0], 99.9) == 3.0


class TestSelfTime:
    def test_no_children(self):
        assert tracer.self_time(1.0, 4.0, []) == 3.0

    def test_overlapping_children_counted_once(self):
        # union of [1, 4] and [3, 6] is [1, 6]: 5 s covered of 10
        assert tracer.self_time(0.0, 10.0, [(3.0, 6.0), (1.0, 4.0)]) == pytest.approx(5.0)

    def test_nested_and_duplicate_children(self):
        children = [(2.0, 8.0), (3.0, 4.0), (2.0, 8.0)]
        assert tracer.self_time(0.0, 10.0, children) == pytest.approx(4.0)

    def test_children_clipped_to_parent(self):
        children = [(-5.0, 1.0), (9.0, 20.0), (30.0, 40.0)]
        assert tracer.self_time(0.0, 10.0, children) == pytest.approx(8.0)

    def test_tracer_self_times_partition_the_outer_span(self):
        spans = tracer.Tracer()

        def leaf():
            return sum(range(2000))

        leaf_w = spans.wrap(leaf, "m.leaf", "inner", True, None)

        def outer():
            return leaf_w() + leaf_w()

        outer_w = spans.wrap(outer, "m.outer", "outer", True, None)
        outer_w()
        recorded = list(spans.spans())
        assert [(name, parent) for name, parent, _, _ in recorded] == [
            ("m.outer", -1), ("m.leaf", 0), ("m.leaf", 0)]
        total = recorded[0][3] - recorded[0][2]
        per_name = spans.self_times()
        assert per_name["m.outer"] + per_name["m.leaf"] == pytest.approx(total, abs=1e-12)
        assert spans.layer_self_times()["inner"] == per_name["m.leaf"]
        assert spans.calls == {"m.outer": 1, "m.leaf": 2}


class TestSpeedAdjust:
    def test_reference_speed_leaves_latencies_alone(self):
        ref = speed.REFERENCE_S
        assert speed.adjust([0.01, 0.02, 0.03], [ref] * 3) == pytest.approx(
            [0.01, 0.02, 0.03])

    def test_slow_probes_scale_latencies_down(self):
        ref = speed.REFERENCE_S
        assert speed.adjust([0.04, 0.06], [2 * ref, 2 * ref]) == pytest.approx(
            [0.02, 0.03])

    def test_local_median_ignores_one_odd_probe(self):
        ref = speed.REFERENCE_S
        probes = [ref] * 9
        probes[4] = 10 * ref
        assert speed.adjust([0.01] * 9, probes) == pytest.approx([0.01] * 9)

    def test_window_follows_a_speed_change(self):
        ref = speed.REFERENCE_S
        probes = [ref] * 10 + [2 * ref] * 10
        adjusted = speed.adjust([0.01] * 20, probes)
        assert adjusted[:8] == pytest.approx([0.01] * 8)
        assert adjusted[12:] == pytest.approx([0.005] * 8)

    def test_one_probe_per_item(self):
        with pytest.raises(ValueError):
            speed.adjust([0.01, 0.02], [speed.REFERENCE_S])

    def test_probe_takes_time(self):
        assert 0.0 < speed.probe() < 1.0


class TestGenerator:
    def test_same_seed_same_bytes(self):
        assert workloads.generate_documents(7) == workloads.generate_documents(7)

    def test_seeds_differ(self):
        assert workloads.generate_documents(7) != workloads.generate_documents(8)

    def test_documents_are_valid_and_cover_the_ranges(self):
        from satloop.scenario import load_scenario
        docs = workloads.generate_documents(3)
        assert len(docs) == workloads.SINGLE_LOOP_DOCS
        trees = [load_scenario(doc).tree for doc in docs]
        regular = [t for k, t in enumerate(trees)
                   if k % workloads.STARVED_EVERY != workloads.STARVED_EVERY - 1]
        for key, lo, hi in workloads.SINGLE_LOOP_RANGES:
            values = []
            for tree in regular:
                node = tree
                for part in key:
                    node = node[part]
                values.append(node)
            assert lo <= min(values) and max(values) <= hi
            # Latin-hypercube strata: both ends of each range are reached
            assert min(values) < lo + 0.05 * (hi - lo)
            assert max(values) > hi - 0.05 * (hi - lo)


def _tiny_cli_runs(tmp_path):
    from satloop import report
    doc = tmp_path / "tiny.yaml"
    doc.write_text("multi_loop:\n  n_robots: 2\n  power_sweep_points: 2\n"
                   "contour:\n  power_points: 2\n  compute_points: 2\n", encoding="utf-8")

    def run():
        for verb in ("single-loop", "multi-loop", "contour"):
            assert report.main([verb, "--scenario", str(doc), "--out",
                                str(tmp_path / verb), "--seed", "2"]) == 0
        assert report.main(["single-loop", "--out", str(tmp_path / "default")]) == 0
    return run


class TestCoverage:
    def test_wrappers_see_every_profiled_call(self, tmp_path, capsys):
        calls, mismatches = tracer.coverage_check(_tiny_cli_runs(tmp_path))
        assert not mismatches
        for name in ("optimize.solve_multi_loop", "optimize.sweep_contour",
                     "optimize.JointEvaluator.total_cost", "control.dare_solve",
                     "scenario.dump_scenario", "svgplot.heatmap", "report.main"):
            assert calls[name] > 0, name

    def test_originals_restored(self):
        from satloop.control import RateCostModel
        from satloop.optimize import JointEvaluator
        owners = [importlib.import_module(m) for m in tracer.MODULES]
        owners += [RateCostModel, JointEvaluator]
        before = [dict(vars(owner)) for owner in owners]
        with tracer.traced(tracer.Tracer()):
            assert vars(JointEvaluator)["total_cost"] is not before[-1]["total_cost"]
        for owner, saved in zip(owners, before):
            for key, value in saved.items():
                assert vars(owner)[key] is value, f"{owner.__name__}.{key}"

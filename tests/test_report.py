"""CLI and emission tests: schemas, metadata, determinism, exit codes."""
import math

import pytest

from satloop import optimize, report, scenario
from satloop.report import cmd_multi_loop, cmd_single_loop, main
from satloop.scenario import default_scenario, dump_scenario, load_scenario


def _read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


class TestSingleLoopCommand:
    def test_csv_schema_and_ordering(self, tmp_path):
        record = cmd_single_loop(default_scenario(), tmp_path)
        header, rows = _read_rows(tmp_path / "single_loop.csv")
        assert header == ["scheme", "bandwidth_up_hz", "bandwidth_down_hz",
                          "uplink_rate_bps", "downlink_rate_bps", "t_up_s",
                          "t_comp_s", "t_down_s", "effective_bits", "cner_bps",
                          "lqr_cost"]
        assert [r["scheme"] for r in rows] == ["task_oriented", "min_latency",
                                               "max_throughput"]
        costs = [float(r["lqr_cost"]) for r in rows]
        assert costs[0] == min(costs)
        assert record.converged

    def test_metadata_block(self, tmp_path):
        cmd_single_loop(default_scenario(), tmp_path)
        text = (tmp_path / "single_loop.csv").read_text()
        meta = [l for l in text.splitlines() if l.startswith("#")]
        assert meta[0].startswith("# satloop ")
        assert any(l.startswith("# scenario_hash = ") for l in meta)
        assert any(l.startswith("# seed = ") for l in meta)
        assert any("[reference]" in l for l in meta)
        assert any("[assumed]" in l for l in meta)

    def test_svg_emitted(self, tmp_path):
        cmd_single_loop(default_scenario(), tmp_path, fmt="csv+svg")
        svg = (tmp_path / "single_loop_lqr.svg").read_text()
        assert svg.startswith("<svg ")
        assert "</svg>" in svg

    def test_csv_only_format(self, tmp_path):
        cmd_single_loop(default_scenario(), tmp_path, fmt="csv")
        assert not (tmp_path / "single_loop_lqr.svg").exists()


class TestCli:
    def test_validate_ok(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "cycle_period_ms" in out

    def test_validate_bad_scenario(self, tmp_path, capsys):
        bad = tmp_path / "bad.yaml"
        bad.write_text("links:\n  uplink:\n    altitude_km: -5\n")
        assert main(["validate", "--scenario", str(bad)]) == 2
        assert "scenario error" in capsys.readouterr().err

    def test_unknown_key_exit_code(self, tmp_path):
        bad = tmp_path / "bad.yaml"
        bad.write_text("what: 1\n")
        assert main(["validate", "--scenario", str(bad)]) == 2

    def test_missing_file_is_io_error(self):
        assert main(["validate", "--scenario", "/nonexistent/nope.yaml"]) == 4

    def test_single_loop_verb_and_determinism(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["single-loop", "--out", str(out1)]) == 0
        assert main(["single-loop", "--out", str(out2)]) == 0
        assert (out1 / "single_loop.csv").read_bytes() == \
            (out2 / "single_loop.csv").read_bytes()

    def test_seed_override_changes_hash(self, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["single-loop", "--out", str(out1), "--seed", "1"]) == 0
        assert main(["single-loop", "--out", str(out2), "--seed", "2"]) == 0
        h1 = [l for l in (out1 / "single_loop.csv").read_text().splitlines()
              if l.startswith("# scenario_hash")]
        h2 = [l for l in (out2 / "single_loop.csv").read_text().splitlines()
              if l.startswith("# scenario_hash")]
        assert h1 != h2

    def test_numbers_have_full_precision(self, tmp_path):
        assert main(["single-loop", "--out", str(tmp_path), "--format", "csv"]) == 0
        _, rows = _read_rows(tmp_path / "single_loop.csv")
        value = rows[0]["bandwidth_up_hz"]
        assert float(value) > 0
        # 17 significant digits survive the round trip
        assert format(float(value), ".17g") == value


class TestInfeasibleRendering:
    def test_infinite_cost_written_as_inf(self, tmp_path):
        cmd_single_loop(default_scenario(), tmp_path, fmt="csv")
        _, rows = _read_rows(tmp_path / "single_loop.csv")
        max_t = next(r for r in rows if r["scheme"] == "max_throughput")
        assert max_t["lqr_cost"] == "inf"
        assert math.isinf(float(max_t["lqr_cost"]))

    def test_stable_plant_all_schemes_finite_and_stable(self, tmp_path):
        scn = load_scenario("plant:\n  a: 0.9\n")
        cmd_single_loop(scn, tmp_path, fmt="csv")
        _, rows = _read_rows(tmp_path / "single_loop.csv")
        for row in rows:
            assert math.isfinite(float(row["lqr_cost"]))


class TestSingleRobotMultiLoop:
    def test_all_schemes_coincide(self, tmp_path):
        """With one robot there is no allocation freedom across loops."""
        scn = load_scenario(
            "multi_loop:\n  n_robots: 1\n  power_sweep_points: 4\n")
        cmd_multi_loop(scn, tmp_path, fmt="csv")
        _, rows = _read_rows(tmp_path / "multi_loop_sweep.csv")
        assert len(rows) == 4
        for row in rows:
            task = float(row["lqr_task_oriented"])
            maxt = float(row["lqr_max_throughput"])
            comp = float(row["lqr_compute_only"])
            assert abs(task - maxt) <= 1e-6 * abs(task)
            assert abs(task - comp) <= 1e-6 * abs(task)


class TestPlantCorners:
    SMALL = ("multi_loop:\n  n_robots: 2\n  power_sweep_points: 2\n"
             "contour:\n  power_points: 2\n  compute_points: 2\n")

    @pytest.mark.parametrize("verb", ["single-loop", "multi-loop", "contour"])
    def test_memoryless_plant_runs_every_verb(self, tmp_path, verb):
        """a = 0 has no unstable mode: a zero data-rate threshold, not log2(0)."""
        doc = tmp_path / "memoryless.yaml"
        doc.write_text("plant:\n  a: 0.0\n" + self.SMALL)
        assert main([verb, "--scenario", str(doc), "--out", str(tmp_path / "out")]) == 0

    def test_zero_state_weight_keeps_a_positive_cost(self, tmp_path):
        """q = 0, a = 2: the stabilizing Riccati root 3 is the cost floor, not 0."""
        doc = tmp_path / "no_state_weight.yaml"
        doc.write_text("plant:\n  q: 0.0\n")
        assert main(["single-loop", "--scenario", str(doc), "--out", str(tmp_path)]) == 0
        _, rows = _read_rows(tmp_path / "single_loop.csv")
        costs = {r["scheme"]: float(r["lqr_cost"]) for r in rows}
        assert 3.0 < costs["task_oriented"] <= costs["min_latency"] < 4.0


class TestFailureExitCodes:
    """Documents that cannot run end with the documented code, not a traceback."""

    @pytest.mark.parametrize("verb", ["single-loop", "multi-loop"])
    @pytest.mark.parametrize("body, code", [
        ("plant:\n  b: 0.0\n", 3),              # unstable mode, no input authority
        ("plant:\n  a: 1.0\n  q: 0.0\n", 3),    # marginal plant, no stabilizing root
        ("budget:\n  cycle_period_ms: 1.0\n", 2),  # propagation exceeds the period
        ("seed: -3\n", 2),                       # numpy seeds must be non-negative
    ])
    def test_exit_code_and_one_line_message(self, tmp_path, capsys, verb, body, code):
        doc = tmp_path / "doc.yaml"
        doc.write_text(body + TestPlantCorners.SMALL)
        assert main([verb, "--scenario", str(doc), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("solver error: " if code == 3 else "scenario error: ")

    @pytest.mark.parametrize("verb", ["multi-loop", "contour"])
    def test_no_budget_for_the_sampled_robots(self, tmp_path, capsys, verb):
        """5 ms passes validate and single-loop, but seed 1 places one of the five
        robots so low that its downlink pair takes 6.0 ms: NoBudgetError, exit 2."""
        doc = tmp_path / "doc.yaml"
        doc.write_text("budget: {cycle_period_ms: 5.0}\n")
        assert main(["validate", "--scenario", str(doc)]) == 0
        assert main(["single-loop", "--scenario", str(doc), "--out", str(tmp_path / "s")]) == 0
        capsys.readouterr()
        assert main([verb, "--scenario", str(doc), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("scenario error: multi_loop: propagation 0.006")
        assert err.endswith("s leaves no budget in the 0.005s cycle (budget.cycle_period_ms)\n")

    def test_unconverged_solve_exits_3_after_writing(self, tmp_path, capsys, monkeypatch):
        original = optimize._projected_gradient

        def never_converges(*args, **kwargs):
            result = original(*args, **kwargs)
            result.converged[:] = False
            return result
        monkeypatch.setattr(optimize, "_projected_gradient", never_converges)
        doc = tmp_path / "doc.yaml"
        doc.write_text(TestPlantCorners.SMALL)
        out = tmp_path / "out"
        assert main(["multi-loop", "--scenario", str(doc), "--out", str(out)]) == 3
        assert capsys.readouterr().err == "warning: at least one solve did not converge\n"
        for name in ("multi_loop_sweep.csv", "multi_loop_allocation.csv"):
            _, rows = _read_rows(out / name)
            assert len(rows) == 2

    @pytest.mark.parametrize("body, where", [
        ("budget: {cycle_period_ms: 3.0}\n", "links"),  # 4.0 ms of propagation
        # 300 + 600 km fit in 3.5 ms; the multi-loop downlink pair (2 x 600 km) does not
        ("links: {uplink: {altitude_km: 300.0}}\nbudget: {cycle_period_ms: 3.5}\n",
         "multi_loop"),
    ])
    def test_validate_rejects_a_period_the_propagation_fills(self, tmp_path, capsys,
                                                              body, where):
        doc = tmp_path / "doc.yaml"
        doc.write_text(body)
        assert main(["validate", "--scenario", str(doc)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"scenario error: {where}: propagation")

    def test_validate_accepts_a_period_just_above_the_propagation(self, tmp_path):
        doc = tmp_path / "doc.yaml"
        doc.write_text("budget: {cycle_period_ms: 4.01}\n")
        assert main(["validate", "--scenario", str(doc)]) == 0
        assert main(["validate"]) == 0

    @pytest.mark.parametrize("verb", ["single-loop", "multi-loop"])
    def test_negative_seed_option(self, tmp_path, capsys, verb):
        assert main([verb, "--out", str(tmp_path), "--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("scenario error: seed: ")


class TestScientificNotation:
    @pytest.mark.parametrize("text", ["1e-3", "1E-3", "1.0e-3", "+1e-3", "0.1e-2"])
    def test_ratio_without_dot_loads_like_the_default(self, tmp_path, capsys, text):
        """extraction_ratio: 1e-3 is the default 0.001; the dump keeps its bytes."""
        doc = tmp_path / "doc.yaml"
        doc.write_text(f"budget:\n  extraction_ratio: {text}\n")
        assert main(["validate", "--scenario", str(doc)]) == 0
        assert capsys.readouterr().out == dump_scenario(default_scenario())


class TestParserReuse:
    def test_error_then_runs_in_one_process(self, tmp_path, capsys):
        """An argparse error leaves the cached parser fit for the next calls."""
        assert report._parser() is report._parser()
        with pytest.raises(SystemExit) as exc:
            main(["single-loop", "--format", "pdf"])
        assert exc.value.code == 2
        assert main(["single-loop", "--out", str(tmp_path), "--format", "csv"]) == 0
        assert (tmp_path / "single_loop.csv").exists()
        capsys.readouterr()
        assert main(["validate"]) == 0
        assert capsys.readouterr().out == dump_scenario(default_scenario())


class TestScenarioHashOnce:
    @pytest.mark.parametrize("verb", ["single-loop", "multi-loop", "contour"])
    def test_one_dump_per_invocation(self, tmp_path, monkeypatch, verb):
        calls = []
        original = scenario.dump_scenario

        def counted(scn):
            calls.append(scn)
            return original(scn)
        monkeypatch.setattr(scenario, "dump_scenario", counted)
        monkeypatch.setattr(report, "dump_scenario", counted)
        doc = tmp_path / "small.yaml"
        doc.write_text(TestPlantCorners.SMALL)
        assert main([verb, "--scenario", str(doc), "--out", str(tmp_path / "out"),
                     "--seed", "3"]) == 0
        assert len(calls) == 1

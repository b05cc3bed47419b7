"""CLI and emission tests: schemas, metadata, determinism, exit codes."""
import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import stat
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satloop import optimize, report, scenario, svgplot
from satloop.report import cmd_multi_loop, cmd_single_loop, main
from satloop.scenario import default_scenario, dump_scenario, load_scenario


def _read_rows(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def _quiet_main(argv):
    """(exit code, stderr) of main(argv), with stdout dropped and any
    RuntimeWarning raised as an error."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    return code, err.getvalue()


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

    def test_task_split_serves_a_loop_whatever_its_noise(self, tmp_path):
        """a = 30: the best split carries 5.29 bits, above log2 30 = 4.907. It
        serves the loop at w_cov = 1e6 as at w_cov = 1, where a split scored
        through a finite penalty once starved it at 4.9068905941 bits."""
        splits = []
        for w_cov in ("1.0e6", "1"):
            doc = tmp_path / f"w{w_cov}.yaml"
            doc.write_text(f"plant: {{a: 30.0, w_cov: {w_cov}}}\n")
            out = tmp_path / w_cov
            assert main(["single-loop", "--scenario", str(doc), "--out", str(out)]) == 0
            _, rows = _read_rows(out / "single_loop.csv")
            task = rows[0]
            assert task["scheme"] == "task_oriented"
            assert float(task["effective_bits"]) > math.log2(30.0)
            assert float(task["lqr_cost"]) < math.inf
            splits.append(task["bandwidth_up_hz"])
        assert splits[0] == splits[1]

    @pytest.mark.parametrize("verb", ["multi-loop", "contour"])
    def test_gradient_whose_square_overflows_is_finite(self, tmp_path, capsys, verb):
        """The projected gradient's entries stay finite while their squared sum
        overflows: the rows descend along the rescaled gradient, with no
        warning, and the task-oriented cost does not rise with power."""
        doc = tmp_path / "doc.yaml"
        doc.write_text("plant: {a: 8.78e-51, b: -18.1, q: 1.02e134, r_u: 1.0e-300, "
                       "w_cov: 2.36e145}\n" + self.SMALL)
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main([verb, "--scenario", str(doc), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        if verb == "multi-loop":
            _, rows = _read_rows(out / "multi_loop_sweep.csv")
            columns = [[float(r["lqr_task_oriented"]) for r in rows]]
        else:  # one row per power total, one column per compute total
            header, rows = _read_rows(out / "contour.csv")
            columns = [[float(r[k]) for r in rows] for k in header[1:]]
        for costs in columns:
            assert len(costs) == 2 and costs[1] <= costs[0]


class TestFailureExitCodes:
    """Documents that cannot run end with the documented code, not a traceback."""

    @pytest.mark.parametrize("verb", ["single-loop", "multi-loop"])
    @pytest.mark.parametrize("body, code", [
        ("plant:\n  b: 0.0\n", 3),              # unstable mode, no input authority
        ("plant:\n  a: 1.0\n  q: 0.0\n", 3),    # marginal plant, no stabilizing root
        ("budget:\n  cycle_period_ms: 1.0\n", 2),  # propagation exceeds the period
        ("seed: -3\n", 2),                       # numpy seeds must be non-negative
        ("plant:\n  q: 1.0e300\n", 3),           # the Riccati root S overflows
        ("plant:\n  a: 0.0\n  r_u: 1.0e300\n", 3),  # the discriminant overflows
        ("plant:\n  b: 1.0e-200\n", 3),          # b^2 underflows: no input authority
        ("plant:\n  a: 1.0e200\n", 3),           # a^2 overflows
    ])
    def test_exit_code_and_one_line_message(self, tmp_path, capsys, verb, body, code):
        doc = tmp_path / "doc.yaml"
        doc.write_text(body + TestPlantCorners.SMALL)
        assert main([verb, "--scenario", str(doc), "--out", str(tmp_path / "out")]) == code
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("solver error: " if code == 3 else "scenario error: ")

    @pytest.mark.parametrize("verb", ["validate", "single-loop"])
    @pytest.mark.parametrize("body, message", [
        # PyYAML's message puts each of its two marks on a line of its own
        ("plant:\n  a: [1\n", "not valid YAML: while parsing a flow sequence\\n  in "),
        ('"a\\nb": 1\n', "unknown key: a\\nb\n"),  # a quoted key that holds a line break
        ('plant: {"a\\rb": 1}\n', "unknown key: plant.a\\rb\n"),
    ])
    def test_a_message_with_line_breaks_prints_one_line(self, tmp_path, capsys, verb, body,
                                                       message):
        """Exit 2 and one stderr line, each line break of the message
        written as its escape."""
        doc = tmp_path / "doc.yaml"
        doc.write_text(body, encoding="utf-8")
        out = [] if verb == "validate" else ["--out", str(tmp_path / "out")]
        assert main([verb, "--scenario", str(doc)] + out) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.endswith("\n")
        assert err.startswith("scenario error: " + message)

    @pytest.mark.parametrize("verb", ["validate", "single-loop"])
    @pytest.mark.parametrize("name", ["x\nrobot,1,2", "x\rrobot,1,2", "tab\there", "a\u2028b",
                                      "\x85"])
    def test_name_that_is_not_printable(self, tmp_path, capsys, verb, name):
        """The name is echoed into one metadata line of each CSV; a line break
        in it would write a row above the header."""
        doc = tmp_path / "doc.yaml"
        doc.write_text(json.dumps({"name": name}))
        out = [] if verb == "validate" else ["--out", str(tmp_path / "out")]
        assert main([verb, "--scenario", str(doc)] + out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("scenario error: name: expected a printable string")
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("verb", ["validate", "single-loop", "multi-loop"])
    @pytest.mark.parametrize("body, where", [
        ("single_loop: {total_bandwidth_hz: 1.0e-300}\n", "links"),  # k T B underflows to 0
        ("single_loop: {total_bandwidth_hz: 1.0e300}\n", "links"),   # the rate rounds to 0
        ("links: {downlink: {carrier_freq_ghz: 1.0e300}}\n", "links"),  # no received power
        ("links: {uplink: {tx_gain_dbi: 1.0e300}}\n", "links"),      # the gain overflows
        ("links: {downlink: {rx_gain_dbi: 4000}}\n", "links"),
        ("links: {uplink: {carrier_freq_ghz: 1.0e-300}}\n", "links"),  # the power overflows
        ("links: {uplink: {altitude_km: 1.0e-300}}\n", "links"),     # the slant range is 0
        ("links: {uplink: {tx_power_w: 1.0e308}}\n", "links"),       # the SNR overflows
        ("multi_loop: {downlink_bandwidth_total_hz: 1.0e-300}\n", "multi_loop"),
        ("budget: {cycle_period_ms: 1.0e306}\n", "links"),  # the bits per period overflow
    ])
    def test_link_budget_outside_the_float_range(self, tmp_path, capsys, verb, body, where):
        doc = tmp_path / "doc.yaml"
        doc.write_text(body)
        out = [] if verb == "validate" else ["--out", str(tmp_path / "out")]
        assert main([verb, "--scenario", str(doc)] + out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(
            f"scenario error: {where}: the link budget leaves the float range (")

    @pytest.mark.parametrize("verb", ["validate", "multi-loop"])
    @pytest.mark.parametrize("body, message", [
        ("multi_loop: {total_compute_gcps: 1.8e299}\n",
         "multi_loop.total_compute_gcps: 1.8e+299 times 1e9 leaves the float range"),
        ("budget: {compute_gcps: 1.8e299}\n",
         "budget.compute_gcps: 1.8e+299 times 1e9 leaves the float range"),
        ("multi_loop: {uplink_fixed_bits: 7.1e307}\n",  # c V / 1e-9 cps overflows
         "multi_loop: the link budget leaves the float range (bits per window inf)"),
        ("multi_loop: {n_robots: 2, power_sweep_max_w: 1.0e308}\n",
         "multi_loop: the link budget leaves the float range (bits per window inf)"),
        ("multi_loop: {uplink_fixed_bits: 5.0e-324}\n",
         "multi_loop: the extraction cap (budget.extraction_ratio times uplink_fixed_bits) "
         "underflows to 0 bits"),
    ])
    def test_multi_loop_quantities_outside_the_float_range(self, tmp_path, capsys, verb, body,
                                                          message):
        """Documents whose joint-solver arithmetic would overflow or divide 0 by 0."""
        doc = tmp_path / "doc.yaml"
        doc.write_text(body)
        out = [] if verb == "validate" else ["--out", str(tmp_path / "out")]
        assert main([verb, "--scenario", str(doc)] + out) == 2
        assert capsys.readouterr().err == f"scenario error: {message}\n"

    def test_slant_range_that_rounds_to_zero(self, tmp_path, capsys):
        """At a 1 nm altitude the sampled robot's slant range is rounding noise, 0 m."""
        doc = tmp_path / "doc.yaml"
        doc.write_text("links: {downlink: {altitude_km: 1.0e-12}}\n"
                       "multi_loop: {n_robots: 1, power_sweep_points: 1}\n")
        assert main(["multi-loop", "--scenario", str(doc), "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err == ("scenario error: multi_loop: a robot's slant range "
                                           "rounds to 0.0 m (links.downlink.altitude_km)\n")

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

    @pytest.mark.parametrize("verb", ["validate", "single-loop"])
    def test_scenario_not_utf8(self, tmp_path, capsys, verb):
        doc = tmp_path / "doc.yaml"
        doc.write_bytes(b"name: \xff\xfe\n")
        out = [] if verb == "validate" else ["--out", str(tmp_path / "out")]
        assert main([verb, "--scenario", str(doc)] + out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"scenario error: {doc}: not UTF-8 text (")

    @pytest.mark.parametrize("verb", ["validate", "single-loop"])
    @pytest.mark.parametrize("body, message", [
        # float() of the integer overflows
        ("plant: {a: " + "9" * 400 + "}\n", "plant.a: must be finite"),
        # past Python's 4300-digit int/str conversion limit, in the YAML constructor
        ("seed: " + "9" * 5000 + "\n", "not valid YAML: "),
    ])
    def test_huge_integer(self, tmp_path, capsys, verb, body, message):
        doc = tmp_path / "doc.yaml"
        doc.write_text(body)
        out = [] if verb == "validate" else ["--out", str(tmp_path / "out")]
        assert main([verb, "--scenario", str(doc)] + out) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("scenario error: " + message)

    @pytest.mark.parametrize("verb", ["validate", "multi-loop", "contour"])
    @pytest.mark.parametrize("body, path, value", [
        ("multi_loop: {n_robots: " + "9" * 400 + "}\n", "multi_loop.n_robots", "9" * 400),
        ("multi_loop: {power_sweep_points: " + "9" * 400 + "}\n",
         "multi_loop.power_sweep_points", "9" * 400),
        (f"contour: {{power_points: {scenario.MAX_COUNT + 1}}}\n", "contour.power_points",
         str(scenario.MAX_COUNT + 1)),
        (f"contour: {{compute_points: {scenario.MAX_COUNT + 1}}}\n", "contour.compute_points",
         str(scenario.MAX_COUNT + 1)),
    ])
    def test_count_past_its_bound(self, tmp_path, capsys, verb, body, path, value):
        """A count above scenario.MAX_COUNT fails validation, before any float
        arithmetic or array is sized by it."""
        doc = tmp_path / "doc.yaml"
        doc.write_text(body)
        out = [] if verb == "validate" else ["--out", str(tmp_path / "out")]
        assert main([verb, "--scenario", str(doc)] + out) == 2
        assert capsys.readouterr().err == (
            f"scenario error: {path}: must be <= {scenario.MAX_COUNT}, got {value}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key", ["multi_loop: {n_robots", "multi_loop: {power_sweep_points",
                                     "contour: {power_points", "contour: {compute_points"])
    def test_count_at_its_bound_validates(self, tmp_path, key):
        doc = tmp_path / "doc.yaml"
        doc.write_text(f"{key}: {scenario.MAX_COUNT}}}\n")
        assert main(["validate", "--scenario", str(doc)]) == 0

    @pytest.mark.parametrize("verb", ["single-loop", "multi-loop"])
    def test_negative_seed_option(self, tmp_path, capsys, verb):
        assert main([verb, "--out", str(tmp_path), "--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("scenario error: seed: ")


class TestAnyPlant:
    """Every finite plant section, from 0 through subnormals to +-1e300."""
    _FINITE = st.floats(allow_nan=False, allow_infinity=False)
    _NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)

    @settings(max_examples=150, deadline=None)
    @given(a=_FINITE, b=_FINITE, q=_NON_NEGATIVE, w_cov=_NON_NEGATIVE,
           r_u=st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))
    @example(a=2.0, b=1.0, q=1e300, r_u=1.0, w_cov=1.0)  # S overflows
    @example(a=-1e300, b=5e-324, q=0.0, r_u=5e-324, w_cov=1e300)  # b^2 underflows
    @example(a=5e-324, b=-1e300, q=1e300, r_u=1e300, w_cov=0.0)
    @example(a=0.0, b=0.0, q=0.0, r_u=1.0, w_cov=0.0)
    @example(a=1.0, b=1.0, q=1.0, r_u=1.0, w_cov=2.0931746065873602e307)  # J overflows
    def test_single_loop_exits_0_or_3_without_nan(self, a, b, q, w_cov, r_u):
        """single-loop exits 0 with no nan in its CSV, or 3 with one stderr line.

        An exception escaping main (a traceback at the command line) fails the test.
        """
        with tempfile.TemporaryDirectory() as tmp:
            doc = Path(tmp) / "doc.yaml"
            doc.write_text(f"plant: {{a: {a!r}, b: {b!r}, q: {q!r}, r_u: {r_u!r}, "
                           f"w_cov: {w_cov!r}}}\n")
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = main(["single-loop", "--scenario", str(doc), "--out", tmp,
                             "--format", "csv"])
            assert code in (0, 3), err.getvalue()
            if code == 3:
                assert err.getvalue().count("\n") == 1, err.getvalue()
            if code == 0:
                _, rows = _read_rows(Path(tmp) / "single_loop.csv")
                assert not any("nan" in value for row in rows for value in row.values())


class TestAnyLinkBudget:
    """Every finite links and single_loop section, from subnormals to +-1e300."""
    _FINITE = st.floats(allow_nan=False, allow_infinity=False)
    _POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
    _LINK = st.fixed_dictionaries({}, optional={
        "tx_power_w": _POSITIVE, "tx_gain_dbi": _FINITE, "rx_gain_dbi": _FINITE,
        "carrier_freq_ghz": _POSITIVE, "noise_temperature_k": _POSITIVE,
        "altitude_km": _POSITIVE,
        "elevation_deg": st.floats(min_value=0.0, max_value=90.0, exclude_min=True)})
    _SINGLE_LOOP = st.fixed_dictionaries({}, optional={
        "total_bandwidth_hz": _POSITIVE, "min_latency_payload_bits": _POSITIVE})

    @settings(max_examples=150, deadline=None)
    @given(uplink=_LINK, downlink=_LINK, single_loop=_SINGLE_LOOP)
    @example(uplink={}, downlink={}, single_loop={"total_bandwidth_hz": 1e300})
    @example(uplink={"tx_power_w": 1e308}, downlink={}, single_loop={})
    @example(uplink={"altitude_km": 5e-324}, downlink={"elevation_deg": 5e-324},
             single_loop={"total_bandwidth_hz": 5e-324})
    def test_validate_and_single_loop_exit_0_2_or_3_without_nan(self, uplink, downlink,
                                                                single_loop):
        """Each verb exits 0, 2 or 3, with one stderr line for 2 and 3 and no
        nan in the CSV for 0. An exception or a RuntimeWarning escaping main
        (a traceback at the command line) fails the test.
        """
        with tempfile.TemporaryDirectory() as tmp:
            doc = Path(tmp) / "doc.yaml"
            doc.write_text(json.dumps({"links": {"uplink": uplink, "downlink": downlink},
                                       "single_loop": single_loop}))  # JSON is YAML
            for argv in (["validate"], ["single-loop", "--out", tmp, "--format", "csv"]):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                        warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    code = main(argv[:1] + ["--scenario", str(doc)] + argv[1:])
                assert code in (0, 2, 3), err.getvalue()
                if code != 0:
                    assert err.getvalue().count("\n") == 1, err.getvalue()
            if code == 0:
                _, rows = _read_rows(Path(tmp) / "single_loop.csv")
                assert not any("nan" in value for row in rows for value in row.values())


class TestAnyChart:
    """Every chart draws any finite or infinite values, from subnormals to
    +-1.7e308, whose spans can underflow a tick step or overflow the float
    range, without raising and without a nan in the SVG."""
    _VALUE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.7e308, -1.7e308,
                                        math.inf, -math.inf]),
                       st.floats(allow_nan=False))
    _X = st.one_of(st.sampled_from([0.0, 5e-324, 1.7e308, -1.7e308]),
                   st.floats(allow_nan=False, allow_infinity=False))

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(_VALUE, max_size=6), xs=st.lists(_X, min_size=1, max_size=4),
           series=st.lists(st.lists(_VALUE, max_size=4), min_size=1, max_size=3),
           matrix=st.lists(st.lists(_VALUE, min_size=1, max_size=4), min_size=1, max_size=3))
    @example(values=[5e-324], xs=[0.0], series=[[0.0, 5e-324]], matrix=[[0.0, 5e-324]])
    @example(values=[-1.7e308, 1.7e308], xs=[-1.7e308, 1.7e308], series=[[-1.7e308, 1.7e308]],
             matrix=[[-1.7e308, 1.7e308]])
    @example(values=[1.7e308], xs=[1e300], series=[[1e300, 1e300]], matrix=[[1e300]])
    def test_no_chart_raises(self, values, xs, series, matrix):
        labelled = [(f"s{i}", ys) for i, ys in enumerate(series)]
        n_cols = min(len(xs), *map(len, matrix))
        svgs = [svgplot.bar_chart([f"b{i}" for i in range(len(values))], values, "t", "y"),
                svgplot.line_chart(xs, labelled, "t", "x", "y"),
                svgplot.grouped_bar_chart([f"g{i}" for i in range(len(xs))], labelled, "t", "y"),
                svgplot.heatmap(list(range(len(matrix))), xs[:n_cols],
                                [row[:n_cols] for row in matrix], "t", "x", "y")]
        for svg in svgs:
            assert svg.startswith("<svg ") and svg.endswith("</svg>\n")
            assert "nan" not in svg

    def test_single_loop_at_a_subnormal_noise_writes_csv_and_svg(self, tmp_path):
        """w_cov = 5e-324 puts every cost within a subnormal of 0: the tick
        step of the bar chart underflows, and single-loop still writes both
        outputs in its default format."""
        doc = tmp_path / "doc.yaml"
        doc.write_text("plant: {w_cov: 5.0e-324}\n")
        code, err = _quiet_main(["single-loop", "--scenario", str(doc), "--out", str(tmp_path)])
        assert code == 0, err
        assert (tmp_path / "single_loop.csv").stat().st_size > 0
        assert (tmp_path / "single_loop_lqr.svg").read_text().endswith("</svg>\n")


class TestAnySmallMultiLoop:
    """Every small document (at most 3 robots and 2 sweep points) through multi-loop.

    The plant, the downlink, the budget and the multi_loop section are drawn
    from their whole float ranges, so the joint solver meets plants far from
    the baseline: penalties, capped and starved loops, and Newton blocks that
    are not positive definite.
    """
    _FINITE, _NON_NEGATIVE = TestAnyPlant._FINITE, TestAnyPlant._NON_NEGATIVE
    _POSITIVE = TestAnyLinkBudget._POSITIVE
    _ELEVATION = st.floats(min_value=0.0, max_value=90.0, exclude_min=True)
    _PLANT = st.fixed_dictionaries({}, optional={
        "a": _FINITE, "b": _FINITE, "q": _NON_NEGATIVE, "w_cov": _NON_NEGATIVE,
        "r_u": _POSITIVE})
    _BUDGET = st.fixed_dictionaries({}, optional={
        "cycle_period_ms": _POSITIVE, "cycles_per_bit": _POSITIVE, "compute_gcps": _POSITIVE,
        "extraction_ratio": st.floats(min_value=0.0, max_value=1.0, exclude_min=True)})
    _MULTI_LOOP = st.fixed_dictionaries(
        {"n_robots": st.integers(1, 3), "power_sweep_points": st.integers(1, 2)},
        optional={"elevation_min_deg": _ELEVATION, "elevation_max_deg": _ELEVATION,
                  "downlink_bandwidth_total_hz": _POSITIVE, "uplink_fixed_bits": _POSITIVE,
                  "total_compute_gcps": _POSITIVE, "power_sweep_min_w": _POSITIVE,
                  "power_sweep_max_w": _POSITIVE, "allocation_power_w": _POSITIVE})

    @settings(max_examples=60, deadline=None)
    @given(plant=_PLANT, downlink=TestAnyLinkBudget._LINK, budget=_BUDGET,
           multi_loop=_MULTI_LOOP)
    @example(plant={"a": 8.78e-51, "b": -18.1, "q": 1.02e134, "r_u": 1e-300, "w_cov": 2.36e145},
             downlink={}, budget={}, multi_loop={"n_robots": 2, "power_sweep_points": 2})
    @example(plant={}, downlink={}, budget={"extraction_ratio": 3e-5},
             multi_loop={"n_robots": 3, "power_sweep_points": 2})  # caps of 6 bits bind
    @example(plant={"b": 3.97e-93, "q": 3.24e307}, downlink={}, budget={},  # w ln4 overflows
             multi_loop={"n_robots": 1, "power_sweep_points": 1})
    def test_multi_loop_exits_0_2_or_3_without_nan(self, plant, downlink, budget, multi_loop):
        """multi-loop exits 0, 2 or 3, with one stderr line for 2 and 3 and no nan
        in either CSV for 0. An exception or a RuntimeWarning escaping main (a
        traceback at the command line) fails the test.
        """
        with tempfile.TemporaryDirectory() as tmp:
            doc = Path(tmp) / "doc.yaml"
            doc.write_text(json.dumps({"plant": plant, "links": {"downlink": downlink},
                                       "budget": budget, "multi_loop": multi_loop}))
            err = io.StringIO()
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()), \
                    warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(["multi-loop", "--scenario", str(doc), "--out", tmp,
                             "--format", "csv"])
            assert code in (0, 2, 3), err.getvalue()
            if code != 0:
                assert err.getvalue().count("\n") == 1, err.getvalue()
            if code in (0, 3) and (Path(tmp) / "multi_loop_sweep.csv").exists():
                for name in ("multi_loop_sweep.csv", "multi_loop_allocation.csv"):
                    _, rows = _read_rows(Path(tmp) / name)
                    assert not any("nan" in value for row in rows for value in row.values())

    _RANGE = st.one_of(st.none(), st.lists(_POSITIVE, min_size=2, max_size=2,
                                           unique=True).map(sorted))
    # Ranges that validation accepts, a few decades around the baseline: with
    # altitudes to 1,200 km, elevations from 20 deg and periods from 20 ms,
    # propagation always leaves part of the period.
    _NEAR_LINK = st.fixed_dictionaries({}, optional={
        "tx_power_w": st.floats(0.01, 100.0), "tx_gain_dbi": st.floats(0.0, 50.0),
        "rx_gain_dbi": st.floats(0.0, 50.0), "carrier_freq_ghz": st.floats(1.0, 100.0),
        "noise_temperature_k": st.floats(50.0, 1000.0), "altitude_km": st.floats(300.0, 1200.0),
        "elevation_deg": st.floats(20.0, 90.0)})
    _NEAR_BUDGET = st.fixed_dictionaries({}, optional={
        "cycle_period_ms": st.floats(20.0, 200.0), "cycles_per_bit": st.floats(1.0, 1000.0),
        "compute_gcps": st.floats(0.1, 100.0), "extraction_ratio": st.floats(1e-5, 1.0)})
    # a plant from the whole float ranges mostly stops at a Riccati root that
    # overflows, before the joint solver
    _NEAR_PLANT = st.fixed_dictionaries({}, optional={
        "a": st.floats(-100.0, 100.0),
        "b": st.one_of(st.floats(0.01, 100.0), st.floats(-100.0, -0.01)),
        "q": st.floats(0.0, 100.0), "w_cov": st.floats(0.0, 100.0),
        "r_u": st.floats(0.01, 100.0)})
    _NEAR_RANGE = st.one_of(st.none(), st.lists(st.floats(0.1, 100.0), min_size=2, max_size=2,
                                                unique=True).map(sorted))
    # three documents in four draw from the accepted ranges, so that most reach
    # the solver; the rest draw the whole float ranges
    _NEAR_DOC = st.fixed_dictionaries({
        "plant": _NEAR_PLANT, "downlink": _NEAR_LINK, "budget": _NEAR_BUDGET,
        "n_robots": st.integers(1, 3), "power": _NEAR_RANGE, "compute": _NEAR_RANGE})
    _WHOLE_DOC = st.fixed_dictionaries({
        "plant": _PLANT, "downlink": TestAnyLinkBudget._LINK, "budget": _BUDGET,
        "n_robots": st.integers(1, 3), "power": _RANGE, "compute": _RANGE})
    _CONTOUR_DOC = st.sampled_from((_NEAR_DOC,) * 3 + (_WHOLE_DOC,)).flatmap(lambda doc: doc)

    @settings(max_examples=60, deadline=None)
    @given(doc=_CONTOUR_DOC)
    @example(doc={"plant": {}, "downlink": {}, "budget": {"extraction_ratio": 3e-5},
                  "n_robots": 3, "power": None, "compute": None})  # caps of 6 bits bind
    def test_contour_exits_0_2_or_3_monotone_without_nan(self, doc):
        """contour on a 2x2 grid exits 0, 2 or 3, with one stderr line for 2 and 3.
        A written matrix holds no nan and never rises along either budget axis:
        each cell starts from its lower neighbours' decisions. An exception or a
        RuntimeWarning escaping main fails the test.
        """
        contour = {"power_points": 2, "compute_points": 2}
        if doc["power"] is not None:
            contour["power_min_w"], contour["power_max_w"] = doc["power"]
        if doc["compute"] is not None:
            contour["compute_min_gcps"], contour["compute_max_gcps"] = doc["compute"]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "doc.yaml"
            path.write_text(json.dumps({"plant": doc["plant"],
                                        "links": {"downlink": doc["downlink"]},
                                        "budget": doc["budget"],
                                        "multi_loop": {"n_robots": doc["n_robots"]},
                                        "contour": contour}))
            code, err = _quiet_main(["contour", "--scenario", str(path), "--out", tmp,
                                     "--format", "csv"])
            assert code in (0, 2, 3), err
            if code != 0:
                assert err.count("\n") == 1, err
            if code in (0, 3) and (Path(tmp) / "contour.csv").exists():
                header, rows = _read_rows(Path(tmp) / "contour.csv")
                matrix = [[float(row[name]) for name in header[1:]] for row in rows]
                assert not any(math.isnan(v) for line in matrix for v in line)
                for i in range(2):
                    for j in range(2):
                        if i:
                            assert matrix[i][j] <= matrix[i - 1][j], matrix
                        if j:
                            assert matrix[i][j] <= matrix[i][j - 1], matrix


class TestSubnormalSweepTotal:
    def test_multi_loop_sweeps_up_from_a_subnormal_total(self, tmp_path):
        """The second sweep point's warm start scales the first point's
        power by total / 5e-324, past the float range: it starts cold
        instead, with no RuntimeWarning."""
        doc = tmp_path / "doc.yaml"
        doc.write_text('{"multi_loop": {"n_robots": 1, "power_sweep_points": 2, '
                       '"power_sweep_min_w": 5e-324}}')
        code, err = _quiet_main(["multi-loop", "--scenario", str(doc), "--out", str(tmp_path),
                                 "--format", "csv"])
        assert code == 0, err


class TestAnySingleLoopDocument:
    """The plant, both links, the budget and the single_loop section drawn
    together from their whole float ranges (ROADMAP item 5)."""

    @staticmethod
    def _splits(doc, tmp):
        """(exit code, each scheme's bandwidth_up_hz as written) of validate,
        then single-loop, on doc."""
        path = Path(tmp) / "doc.yaml"
        path.write_text(json.dumps(doc))
        for argv in (["validate"], ["single-loop", "--out", tmp, "--format", "csv"]):
            code, err = _quiet_main(argv[:1] + ["--scenario", str(path)] + argv[1:])
            assert code in (0, 2, 3), err
            if code != 0:
                assert err.count("\n") == 1, err
                return code, None
        _, rows = _read_rows(Path(tmp) / "single_loop.csv")
        assert not any("nan" in value for row in rows for value in row.values())
        return code, [row["bandwidth_up_hz"] for row in rows]

    @settings(max_examples=100, deadline=None)
    @given(plant=TestAnySmallMultiLoop._PLANT, uplink=TestAnyLinkBudget._LINK,
           downlink=TestAnyLinkBudget._LINK, budget=TestAnySmallMultiLoop._BUDGET,
           single_loop=TestAnyLinkBudget._SINGLE_LOOP, k=st.integers(-20, 20))
    @example(plant={"a": 30.0, "w_cov": 1.0e6}, uplink={}, downlink={}, budget={},
             single_loop={}, k=-20)
    def test_exit_0_2_or_3_and_a_split_free_of_the_cost_scale(self, plant, uplink, downlink,
                                                              budget, single_loop, k):
        """validate and single-loop exit 0, 2 or 3, with one stderr line for 2
        and 3 and no nan in the CSV for 0; an exception or a RuntimeWarning
        escaping main fails the test. Scaling w_cov, or q and r_u together, by
        2^k scales every cost above the plant's full-information floor alike,
        so where both runs exit 0 each scheme's split is the same to the bit.
        """
        doc = {"plant": plant, "links": {"uplink": uplink, "downlink": downlink},
               "budget": budget, "single_loop": single_loop}
        with tempfile.TemporaryDirectory() as tmp:
            code, splits = self._splits(doc, tmp)
            if code != 0:
                return
            resolved = load_scenario(json.dumps(doc)).tree["plant"]
            for names in (("w_cov",), ("q", "r_u")):
                scaled = dict(resolved, **{name: resolved[name] * 2.0 ** k for name in names})
                if not (all(math.isfinite(scaled[name]) for name in names)
                        and scaled["r_u"] > 0.0):
                    continue
                code, scaled_splits = self._splits(dict(doc, plant=scaled), tmp)
                if code == 0:
                    assert scaled_splits == splits, (names, k)


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

    def test_hash_is_sha256_of_the_validate_output(self, tmp_path, capsys):
        """A name that needs quoting, too: the CSV's hash is that of the text
        `satloop validate` prints for the same document."""
        doc = tmp_path / "quoted.yaml"
        doc.write_text("name: 'say \"yes\": \\ x'\n" + TestPlantCorners.SMALL)
        assert main(["validate", "--scenario", str(doc)]) == 0
        text = capsys.readouterr().out
        assert 'name: "say \\"yes\\": \\\\ x"\n' in text
        assert main(["single-loop", "--scenario", str(doc), "--format", "csv",
                     "--out", str(tmp_path / "out")]) == 0
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        csv = (tmp_path / "out" / "single_loop.csv").read_text()
        assert f"# scenario_hash = {digest}\n" in csv

    def test_validate_takes_the_seed(self, tmp_path, capsys):
        """`validate --seed 3` prints the reseeded scenario whose sha256 is the
        hash of a `--seed 3` run."""
        assert main(["validate", "--seed", "3"]) == 0
        text = capsys.readouterr().out
        assert "\nseed: 3\n" in text
        assert main(["single-loop", "--seed", "3", "--format", "csv",
                     "--out", str(tmp_path)]) == 0
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert f"# scenario_hash = {digest}\n" in (tmp_path / "single_loop.csv").read_text()


class TestBaselineSweepWork:
    def test_multi_loop_descends_at_most_100_rows(self, tmp_path, monkeypatch):
        """One descent per solve from its lowest start, and warm compute-only
        and task-oriented starts along the sweep, keep the baseline multi-loop
        run at 100 PGD row-iterations or fewer (595 when every start
        descended, 121 with cold task-oriented starts, 76 with the previous
        point's starts only, 58 with the predicted starts)."""
        iterations = []
        original = optimize._projected_gradient

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            iterations.append(result.iterations)
            return result
        monkeypatch.setattr(optimize, "_projected_gradient", counted)
        assert main(["multi-loop", "--out", str(tmp_path), "--format", "csv"]) == 0
        assert len(iterations) == 42 and sum(iterations) <= 100

    def test_contour_descends_at_most_600_rows(self, tmp_path, monkeypatch):
        """The baseline 20x20 contour: one descent per cell, and each interior
        cell starts also from the corner prediction of its three solved
        neighbours, which keeps it at 600 PGD row-iterations or fewer (855
        from the two lower neighbours' decisions only)."""
        iterations = []
        original = optimize._projected_gradient

        def counted(*args, **kwargs):
            result = original(*args, **kwargs)
            iterations.append(result.iterations)
            return result
        monkeypatch.setattr(optimize, "_projected_gradient", counted)
        assert main(["contour", "--out", str(tmp_path), "--format", "csv"]) == 0
        assert len(iterations) == 400 and sum(iterations) <= 600

    def test_multi_loop_work_per_run(self, tmp_path, monkeypatch):
        """The solver work of one baseline multi-loop run, pinned: a leaner
        iteration must not add descents, row-iterations (task-oriented ones
        counted apart), cycle evaluations, objective calls, scorings,
        projections or water-fills. The max-throughput solve
        and the task-oriented starts at one power total share one water-fill.
        With the predicted starts no row backtracks (42 task-oriented and 34
        compute-only row-iterations, 125 objective calls, 167 projections and
        4 backtracking searches without them). Each point a solve stands on
        is scored once: the 42 start batches (by total_cost alone before)
        and the 58 Newton trials by first_order, the 21 water-filled
        decisions by one _cycle (no gradient is read there), each summing
        its value through total_cost. The first iteration builds its
        Hessian blocks from the chosen start's terms and every later one
        from its kept Newton point's (a row that moved by backtracking
        would be scored again by first_order; none does here, and 58 full
        gradient-and-Hessian calls were made before each point carried its
        score); each certificate takes the carried gradient, and each
        result's all_infeasible the carried costs and window (63 calls of
        the array outcome rule before). That is 121 _cycle calls,
        one per point scored (179 before). The certificate is computed on
        first read and the CLI reads none, so no solve projects for it: 100
        projections, 142 when each of the 42 descents projected its end
        point once more for the certificate.
        """
        counts, schemes = {}, []
        best_start = optimize._best_start

        def tagged(evaluator, problem, extra_starts):  # the scheme of the next descent
            schemes.append(problem.scheme)
            return best_start(evaluator, problem, extra_starts)
        monkeypatch.setattr(optimize, "_best_start", tagged)

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                result = original(*args, **kwargs)
                counts[name] = counts.get(name, 0) + 1
                if name == "_projected_gradient":
                    key = ("task_oriented_row_iterations"
                           if schemes[-1] == optimize.MultiLoopScheme.TASK_ORIENTED_JOINT
                           else "compute_only_row_iterations")
                    counts[key] = counts.get(key, 0) + result.iterations
                return result
            monkeypatch.setattr(owner, name, counted)
        count(optimize, "_projected_gradient")
        count(optimize.JointEvaluator, "_cycle")
        count(optimize.JointEvaluator, "total_cost")
        count(optimize.JointEvaluator, "first_order")
        count(optimize, "project_capped_simplex")
        count(optimize, "water_fill_power")
        count(optimize, "_backtrack")
        assert main(["multi-loop", "--out", str(tmp_path), "--format", "csv"]) == 0
        assert counts == {"_projected_gradient": 42, "task_oriented_row_iterations": 29,
                          "compute_only_row_iterations": 29, "_cycle": 121,
                          "first_order": 100, "total_cost": 121,
                          "project_capped_simplex": 100,
                          "water_fill_power": 21}

    def test_penalised_multi_loop_scores_a_backtracked_row_once(self, tmp_path, monkeypatch):
        """On multi_loop: {n_robots: 20}, where rows move by backtracking
        (115 searches, 100 of them stopped at their first trial by a zero
        move, which is not scored), each halving scores the trials that
        moved in one first_order call, and a row carries the score of the
        trial it moves to, on to its next iteration, the certificate and
        the result. That is 83 first_order calls and 104 _cycle calls per
        run, one per first_order call and one per water-filled decision
        (78 and 218 when backtracking scored its trials by total_cost alone,
        in blocks of 1, 7 and 72 halvings, and first_order scored a moved
        row again at its next iteration)."""
        counts = {}

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                counts[name] = counts.get(name, 0) + 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)
        for name in ("_cycle", "first_order"):
            count(optimize.JointEvaluator, name)
        count(optimize, "_backtrack")
        doc = tmp_path / "robots20.yaml"
        doc.write_text("multi_loop: {n_robots: 20}\n", encoding="utf-8")
        assert main(["multi-loop", "--scenario", str(doc), "--out", str(tmp_path / "out"),
                     "--format", "csv"]) == 0
        assert counts == {"_cycle": 104, "first_order": 83, "_backtrack": 115}

    def test_certificates_cost_one_projection_on_read(self, tmp_path, monkeypatch):
        """A baseline multi-loop run projects nothing for its certificates:
        reading them afterwards takes one projection per projected-gradient
        solve (42) and none for a max-throughput one (NaN), and a second
        read none. Each trace keeps one-row copies of its end point and
        gradient, read-only and owning their data (a view would keep the
        start batch alive), and a dataclasses.replace copy, as
        _multi_result makes for all_infeasible, certifies bit for bit alike."""
        solves = self._record_solves(monkeypatch)
        assert main(["multi-loop", "--out", str(tmp_path), "--format", "csv"]) == 0
        calls = []
        original = optimize.project_capped_simplex

        def counted(*args):
            calls.append(1)
            return original(*args)
        monkeypatch.setattr(optimize, "project_capped_simplex", counted)
        traces = [result.solver_trace for _, _, result in solves]
        first = [trace.projected_gradient_norm for trace in traces]
        assert len(calls) == 42 == sum(trace.end_point is not None for trace in traces)
        assert [t.projected_gradient_norm.hex() for t in traces] == [c.hex() for c in first]
        assert len(calls) == 42
        for (problem, _, _), trace, certificate in zip(solves, traces, first):
            if problem.scheme == optimize.MultiLoopScheme.MAX_THROUGHPUT_JOINT:
                assert trace.end_point is None and math.isnan(certificate)
                continue
            z, grad, _ = trace.end_point
            # compute-only's gradient carries its frozen power block as 0
            assert (grad[0, :5] == 0.0).all() == (
                problem.scheme == optimize.MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM)
            for array in (z, grad):
                assert array.shape == (1, 10)
                assert array.base is None and not array.flags.writeable
            flagged = dataclasses.replace(trace, all_infeasible=True)
            assert flagged.end_point is trace.end_point
            assert flagged.projected_gradient_norm.hex() == certificate.hex()

    def test_newton_trials_below_the_tolerance_end_their_solves(self, tmp_path, monkeypatch):
        """Three baseline solves once ran on to PGD_PATIENCE (6, 5 and 5
        iterations), and then settled after 2: their second face-Newton trial
        predicted a decrease below PGD_REL_TOL of the value but scored 1-2 ulp
        above it. Each now descends from its secant start (the last start),
        whose first Newton trial already predicts a decrease that small: it
        settles after 1 iteration, with an lqr_total 1 ulp from the
        2-iteration one. Every descent of the run stops on the Newton
        decrement."""
        solves = self._record_solves(monkeypatch)
        assert main(["multi-loop", "--out", str(tmp_path), "--format", "csv"]) == 0
        schemes = optimize.MultiLoopScheme
        # solve index: the sweep point's power total, scheme, lqr_total, and
        # the lqr_total after 2 iterations from the previous point's starts
        settled = {22: (15.36842105263158, schemes.COMPUTE_ONLY_EQUAL_COMM,
                        "0x1.5354d48740e4ep+4", "0x1.5354d48740e4fp+4"),
                   23: (15.36842105263158, schemes.TASK_ORIENTED_JOINT,
                        "0x1.535405f62a1ddp+4", "0x1.535405f62a1dcp+4"),
                   41: (27.68421052631579, schemes.TASK_ORIENTED_JOINT,
                        "0x1.533624bc3d402p+4", "0x1.533624bc3d401p+4")}
        for index, (total, scheme, lqr_total, two_iterations) in settled.items():
            problem, _, result = solves[index]
            trace = result.solver_trace
            assert (problem.total_power_w, problem.scheme) == (total, scheme)
            assert trace.iterations == 1 and trace.best_restart == trace.restarts - 1
            assert result.lqr_total == float.fromhex(lqr_total)
            assert abs(result.lqr_total - float.fromhex(two_iterations)) \
                == math.ulp(result.lqr_total)
        descents = [result.solver_trace for problem, _, result in solves
                    if problem.scheme != schemes.MAX_THROUGHPUT_JOINT]
        assert len(descents) == 42
        assert {trace.stopped_on for trace in descents} == {"decrement"}

    @staticmethod
    def _record_solves(monkeypatch) -> list:
        """(problem, extra starts, result) of every solve_multi_loop call report makes."""
        solves = []
        original = report.solve_multi_loop

        def recorded(problem, **kwargs):
            result = original(problem, **kwargs)
            solves.append((problem, kwargs.get("extra_starts", ()), result))
            return result
        monkeypatch.setattr(report, "solve_multi_loop", recorded)
        return solves

    @staticmethod
    def _predicted(solves, weights, problem):
        """optimize.predicted_start at the problem's totals from the recorded
        solves {index: weight}."""
        return optimize.predicted_start(
            [(w, solves[i][2].decision, solves[i][0].total_power_w,
              solves[i][0].total_compute_cps) for i, w in weights.items()],
            problem.total_power_w, problem.total_compute_cps)

    @staticmethod
    def _secant(sweep, k) -> dict:
        """The weights {k - 1: 1 + t, k - 2: -t} of sweep point k's secant start."""
        totals = [problem.total_power_w for problem, _, _ in sweep]
        t = (totals[k] - totals[k - 1]) / (totals[k - 1] - totals[k - 2])
        assert abs(t - 1.0) < 1e-12  # the baseline sweep is evenly spaced
        return {k - 1: 1.0 + t, k - 2: -t}

    @staticmethod
    def _interpolation(sweep, detail) -> dict:
        """The weights of the detail point's start: the baseline's 5 W lies
        between the second and third sweep points."""
        lo, hi = sweep[1][0].total_power_w, sweep[2][0].total_power_w
        frac = (detail[0].total_power_w - lo) / (hi - lo)
        assert lo < detail[0].total_power_w == 5.0 < hi
        return {1: 1.0 - frac, 2: frac}

    @staticmethod
    def _assert_same_start(start, expected):
        assert start.keys() == expected.keys() == {"power_w", "compute_cps"}
        assert all(np.array_equal(start[key], expected[key]) for key in start)

    def test_each_compute_only_solve_starts_from_the_previous_one(self, tmp_path,
                                                                   monkeypatch):
        """Every compute-only sweep solve after the first starts also from the
        previous point's decision and, from the third point on, from the
        secant prediction of the previous two points' compute shares. The
        detail point, solved last, starts also from the last point's decision
        and the shares interpolated between the two points around its total."""
        solves = self._record_solves(monkeypatch)
        assert main(["multi-loop", "--out", str(tmp_path), "--format", "csv"]) == 0
        compute_only = [s for s in solves
                        if s[0].scheme == optimize.MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM]
        assert len(solves) == 63 and len(compute_only) == 21
        *sweep, detail = compute_only
        assert list(sweep[0][1]) == [] and sweep[0][2].solver_trace.restarts == 1
        for k in range(1, len(sweep)):
            (_, _, previous), (problem, extra, result) = sweep[k - 1], sweep[k]
            assert extra[0] is previous.decision
            if k >= 2:
                [predicted] = extra[1:]
                self._assert_same_start(predicted,
                                        self._predicted(sweep, self._secant(sweep, k), problem))
            assert result.solver_trace.restarts == 1 + len(extra) == min(k + 1, 3)
        problem, extra, result = detail
        [last, interpolated] = extra
        assert last is sweep[-1][2].decision and result.solver_trace.restarts == 3
        self._assert_same_start(
            interpolated, self._predicted(sweep, self._interpolation(sweep, detail), problem))

    def test_each_task_oriented_solve_starts_from_the_previous_one(self, tmp_path,
                                                                    monkeypatch):
        """Every sweep point after the first starts its task-oriented solve
        from the two baselines' decisions, then the previous point's budget
        shares (its task-oriented power scaled by the ratio of the totals,
        its compute unchanged) and, from the third point on, the secant
        prediction of the previous two points' shares. The detail point,
        solved last, starts from the two baselines' decisions and the shares
        interpolated between the two sweep points around its total."""
        solves = self._record_solves(monkeypatch)
        assert main(["multi-loop", "--out", str(tmp_path), "--format", "csv"]) == 0
        assert len(solves) == 63
        points = [solves[i:i + 3] for i in range(0, 63, 3)]  # one point per three solves
        schemes = optimize.MultiLoopScheme
        for point in points:
            assert [s[0].scheme for s in point] == [schemes.MAX_THROUGHPUT_JOINT,
                                                    schemes.COMPUTE_ONLY_EQUAL_COMM,
                                                    schemes.TASK_ORIENTED_JOINT]
        *sweep, detail = points
        task = [point[2] for point in sweep]
        for k, point in enumerate(points):
            (_, _, max_throughput), (_, _, compute_only), (problem, extra, result) = point
            assert [d is r.decision for d, r in zip(extra, (max_throughput, compute_only))] \
                == [True, True]
            if point is detail:
                [interpolated] = extra[2:]
                self._assert_same_start(interpolated, self._predicted(
                    task, self._interpolation(task, detail[2]), problem))
                assert result.solver_trace.restarts == 5
                continue
            if k == 0:
                assert len(extra) == 2 and result.solver_trace.restarts == 4
                continue
            previous_problem, _, previous = task[k - 1]
            warm, *predicted = extra[2:]
            ratio = problem.total_power_w / previous_problem.total_power_w
            assert np.array_equal(warm["power_w"], previous.decision["power_w"] * ratio)
            assert np.array_equal(warm["compute_cps"], previous.decision["compute_cps"])
            if k >= 2:
                [secant] = predicted
                self._assert_same_start(secant,
                                        self._predicted(task, self._secant(task, k), problem))
            assert result.solver_trace.restarts == 2 + len(extra) == min(k + 4, 6)
        assert detail[2][0].total_power_w == default_scenario().multi_loop_problem(
            schemes.TASK_ORIENTED_JOINT).total_power_w

    def test_no_task_oriented_warm_start_with_a_stable_plant(self, tmp_path, monkeypatch):
        """With a stable plant every start descends, so a warm start would
        only add a row: each task-oriented solve starts from the two
        baselines' decisions only."""
        solves = self._record_solves(monkeypatch)
        (tmp_path / "stable.yaml").write_text("plant:\n  a: 0.9\n", encoding="utf-8")
        assert main(["multi-loop", "--scenario", str(tmp_path / "stable.yaml"),
                     "--out", str(tmp_path), "--format", "csv"]) == 0
        task = [(extra, result) for problem, extra, result in solves
                if problem.scheme == optimize.MultiLoopScheme.TASK_ORIENTED_JOINT]
        assert len(task) == 21
        for extra, result in task:
            assert len(extra) == 2 and result.solver_trace.restarts == 4

    @pytest.mark.parametrize("verb", ["multi-loop", "contour"])
    def test_a_stable_plant_keeps_its_starts_and_bytes(self, tmp_path, monkeypatch, verb):
        """With a stable plant every start descends, so no predicted start is
        added: the compute-only sweep solves start from the previous point's
        decision only, the task-oriented ones from the two baselines' decisions
        (a contour cell from its two lower neighbours'), and every CSV byte is
        that of a run in which no start can be predicted."""
        doc = tmp_path / "stable.yaml"
        doc.write_text("plant: {a: 0.5}\n"
                       "contour: {power_points: 3, compute_points: 3}\n", encoding="utf-8")
        csv = {"multi-loop": ("multi_loop_sweep.csv", "multi_loop_allocation.csv"),
               "contour": ("contour.csv",)}[verb]

        def run(out) -> dict:
            assert main([verb, "--scenario", str(doc), "--out", str(out),
                         "--format", "csv"]) == 0
            return {name: (out / name).read_bytes() for name in csv}

        starts = []
        original = optimize.solve_multi_loop

        def recorded(problem, *, extra_starts=()):
            result = original(problem, extra_starts=extra_starts)
            starts.append((problem.scheme, len(extra_starts), result.solver_trace.restarts))
            return result
        monkeypatch.setattr(report, "solve_multi_loop", recorded)
        monkeypatch.setattr(optimize, "solve_multi_loop", recorded)
        outputs = run(tmp_path / "run")
        schemes = optimize.MultiLoopScheme
        if verb == "contour":
            assert [extra for _, extra, _ in starts] == [0, 1, 1, 1, 2, 2, 1, 2, 2]
        else:
            compute_only = [extra for scheme, extra, _ in starts
                            if scheme == schemes.COMPUTE_ONLY_EQUAL_COMM]
            assert compute_only == [0] + [1] * 20
            assert {extra for scheme, extra, _ in starts
                    if scheme == schemes.TASK_ORIENTED_JOINT} == {2}
        assert all(restarts == extra + (2 if scheme == schemes.TASK_ORIENTED_JOINT else 1)
                   for scheme, extra, restarts in starts
                   if scheme != schemes.MAX_THROUGHPUT_JOINT)

        def none(*args, **kwargs):
            return None
        monkeypatch.setattr(report, "predicted_start", none)
        monkeypatch.setattr(optimize, "predicted_start", none)
        assert run(tmp_path / "unpredicted") == outputs

    def test_one_joint_evaluator_per_run(self, tmp_path, monkeypatch):
        """The 63 solves of one multi-loop run share its robots, budget and
        uplink volume, so they build one JointEvaluator between them."""
        built = []
        original = optimize.JointEvaluator.__init__

        def counted(self, problem):
            built.append(problem)
            original(self, problem)
        monkeypatch.setattr(optimize.JointEvaluator, "__init__", counted)
        assert main(["multi-loop", "--out", str(tmp_path), "--format", "csv"]) == 0
        assert len(built) == 1


_OUTPUTS = {"single-loop": ("single_loop.csv", "single_loop_lqr.svg"),
            "multi-loop": ("multi_loop_sweep.csv", "multi_loop_allocation.csv",
                           "multi_loop_sweep.svg", "multi_loop_allocation.svg"),
            "contour": ("contour.csv", "contour.svg")}


def _run_small(tmp_path, verb, out) -> dict:
    """Run verb on the small document into out; output name -> bytes."""
    doc = tmp_path / "small.yaml"
    doc.write_text(TestPlantCorners.SMALL)
    assert main([verb, "--scenario", str(doc), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(_OUTPUTS[verb])
    return {name: (out / name).read_bytes() for name in _OUTPUTS[verb]}


class TestRerunInPlace:
    """A run into a directory that already holds its outputs writes over them
    in place, with the bytes a run into a fresh directory writes."""

    @pytest.mark.parametrize("verb", ["single-loop", "multi-loop", "contour"])
    def test_rerun_over_any_old_bytes_matches_a_fresh_run(self, tmp_path, verb):
        fresh = _run_small(tmp_path, verb, tmp_path / "fresh")
        out = tmp_path / "again"
        out.mkdir()
        for old in (lambda data: data,                               # its own bytes
                    lambda data: b"\xff" * (len(data) + 4096),       # longer junk
                    lambda data: b"\xff" * (len(data) // 2)):        # shorter junk
            for name, data in fresh.items():
                (out / name).write_bytes(old(data))
            assert _run_small(tmp_path, verb, out) == fresh

    def test_output_directory_is_made_only_when_missing(self, tmp_path, monkeypatch):
        made = []
        original = Path.mkdir

        def recorded(self, *args, **kwargs):
            made.append(self)
            return original(self, *args, **kwargs)
        monkeypatch.setattr(Path, "mkdir", recorded)
        out = tmp_path / "out"
        for _ in range(2):  # made by the first write of the first run only
            _run_small(tmp_path, "single-loop", out)
        assert made == [out]

    def test_new_file_has_the_mode_of_open_w(self, tmp_path):
        previous = os.umask(0o027)
        try:
            with open(tmp_path / "probe", "w"):
                pass
            _run_small(tmp_path, "single-loop", tmp_path / "out")
        finally:
            os.umask(previous)
        want = stat.S_IMODE((tmp_path / "probe").stat().st_mode)
        assert want == 0o640
        for name in _OUTPUTS["single-loop"]:
            assert stat.S_IMODE((tmp_path / "out" / name).stat().st_mode) == want


class TestWriteFailure:
    @pytest.mark.parametrize("blocker", ["output_is_a_directory", "out_under_a_file"])
    def test_exit_4_and_one_line_message(self, tmp_path, capsys, blocker):
        if blocker == "output_is_a_directory":
            out = tmp_path / "out"
            (out / "single_loop.csv").mkdir(parents=True)
        else:
            (tmp_path / "file").write_text("x")
            out = tmp_path / "file" / "out"
        assert main(["single-loop", "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("cannot write ")


class TestNoTruncatingOpen:
    @pytest.mark.parametrize("verb", ["single-loop", "multi-loop", "contour"])
    def test_outputs_are_opened_once_without_o_trunc(self, tmp_path, monkeypatch, verb):
        """Each output is opened through os.open once per run, fresh or over an
        old output, and never with O_TRUNC: on ext4 (auto_da_alloc) a truncate
        to zero flushes the file at close, which made reruns slow."""
        out = tmp_path / "out"
        opened = []
        original = os.open

        def recorded(path, flags, *args, **kwargs):
            if Path(path).parent == out:
                opened.append((Path(path).name, flags))
            return original(path, flags, *args, **kwargs)
        monkeypatch.setattr(os, "open", recorded)
        for _ in range(2):
            _run_small(tmp_path, verb, out)
        assert sorted(name for name, _ in opened) == sorted(_OUTPUTS[verb] * 2)
        for _, flags in opened:
            assert flags & os.O_TRUNC == 0
            assert flags & (os.O_WRONLY | os.O_CREAT) == os.O_WRONLY | os.O_CREAT


class TestSingleLoopBytesPinned:
    """single-loop's CSV and SVG, sha256 per document, for documents at the
    edges of the single-loop cycle: the outcome is scored on Python floats,
    and these bytes were recorded when it was scored on numpy arrays."""

    _DOCS = {
        "baseline": ("{}\n",
                     "5fca3dca67b650c1864a9dc558f31a9946638b8e8791b73229f9e0a0891f5bd9",
                     "4ccd56b6b336b6f5e5689135782804dcdd0da5e3487ec416fda26b323194dcec"),
        # every split starves the loop: the task-oriented cost is inf
        "starved_uplink": ("links:\n  uplink:\n    tx_power_w: 1.0e-12\n",
                           "dfa2b1db136dab6203d947bf29d72d01f561237d2b4cfb5a288878172816823a",
                           "a168903927b98a68f13cc31c6c62a9b50936e7b3e42444712e7a6f77c9970343"),
        "stable_plant": ("plant:\n  a: 0.5\n",
                         "7c289eaab7ac70d1efefb25865fb489ff2c63abb10dd1a437b8635f0cd96e04e",
                         "6d373418387ddc95b02d477e2a8469d2a4ba8c905d25e7a2ef21ff77509b5c53"),
        # 1e-21 cycles/s, below pipeline.COMPUTE_FLOOR_CPS
        "compute_below_floor": ("budget:\n  compute_gcps: 1.0e-30\n",
                                "4173d5fa3e99be8f7d8b22a057342f519b10d07c7e507ae5d69c380d332f2fe0",
                                "a168903927b98a68f13cc31c6c62a9b50936e7b3e42444712e7a6f77c9970343"),
        # bench.workloads.generate_documents(7)[71]: the task-oriented split
        # sits where the rounding of the rate's log2 decides it
        "log2_rounding": ("name: bench-single-7-071\n"
                          "seed: 7\n"
                          "budget:\n"
                          "  compute_gcps: 8.573171873\n"
                          "  extraction_ratio: 0.002070192\n"
                          "links:\n"
                          "  downlink:\n"
                          "    elevation_deg: 61.288662796\n"
                          "    tx_power_w: 10.478934483\n"
                          "  uplink:\n"
                          "    elevation_deg: 69.879603236\n"
                          "    tx_power_w: 0.107093244\n"
                          "plant:\n"
                          "  a: 1.522411689\n"
                          "single_loop:\n"
                          "  total_bandwidth_hz: 463.042206754\n",
                          "7eb109f1285802d9a9b1bb86c08f786a64ff7bab5ebcf1dd4027ec7dacda29f2",
                          "a168903927b98a68f13cc31c6c62a9b50936e7b3e42444712e7a6f77c9970343"),
    }

    @pytest.mark.parametrize("name", sorted(_DOCS))
    def test_csv_and_svg_bytes(self, tmp_path, name):
        text, csv_sha, svg_sha = self._DOCS[name]
        doc = tmp_path / "doc.yaml"
        doc.write_text(text)
        code, err = _quiet_main(["single-loop", "--scenario", str(doc), "--out", str(tmp_path)])
        assert code == 0, err
        got = [hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
               for f in ("single_loop.csv", "single_loop_lqr.svg")]
        assert got == [csv_sha, svg_sha]


class TestScenarioLineEnds:
    """A scenario file is read as bytes and decoded as UTF-8, with no newline
    translation: YAML reads CR and CRLF as line breaks and skips a leading
    byte-order mark, so the CRLF, lone-CR and BOM copies of a document
    behave exactly like its LF copy."""

    VALID = (
        TestSingleLoopBytesPinned._DOCS["log2_rounding"][0],
        "# a comment line\nname: 'two\n  words'\nplant: {a: 1.5}  # inline\n",
        "name: >-\n  folded\n  name\nseed: 3\nbudget:\n  extraction_ratio: 2e-3\n",
        'name: "escaped\\\n  break"\nlinks:\n  uplink:\n    tx_power_w: 0.35\n',
    )
    MALFORMED = (
        "plant:\n  a: [1\n",                      # an unclosed flow sequence
        "plant:\n  a: 1\n b: 2\n",                 # a key at no indent of the map
        "name: 'unterminated\nseed: 2\n",
        "plant:\n\ta: 1\n",                        # a tab indent
        "links:\n  uplink:\n    frobnicate: 1\n",  # an unknown key
        "seed: 1\nplant:\n  r_u: 0\n",            # a value out of range
    )

    @staticmethod
    def _copies(text) -> dict:
        return {"lf": text.encode(), "crlf": text.replace("\n", "\r\n").encode(),
                "cr": text.replace("\n", "\r").encode(), "bom": b"\xef\xbb\xbf" + text.encode()}

    @pytest.mark.parametrize("text", VALID)
    def test_valid_document(self, tmp_path, capsys, text):
        doc = tmp_path / "doc.yaml"
        seen = {}
        for kind, data in self._copies(text).items():
            doc.write_bytes(data)
            out = tmp_path / kind
            assert main(["validate", "--scenario", str(doc)]) == 0
            assert main(["single-loop", "--scenario", str(doc), "--out", str(out)]) == 0
            seen[kind] = (capsys.readouterr().out.replace(str(out), "OUT"),
                          [(out / name).read_bytes() for name in _OUTPUTS["single-loop"]])
        assert all(value == seen["lf"] for value in seen.values())

    @pytest.mark.parametrize("text", MALFORMED)
    @pytest.mark.parametrize("verb", ["validate", "single-loop"])
    def test_malformed_document(self, tmp_path, capsys, verb, text):
        doc = tmp_path / "doc.yaml"
        out = [] if verb == "validate" else ["--out", str(tmp_path / "out")]
        seen = {}
        for kind, data in self._copies(text).items():
            doc.write_bytes(data)
            seen[kind] = (main([verb, "--scenario", str(doc)] + out), capsys.readouterr())
        assert seen["lf"][0] == 2 and seen["lf"][1].err.startswith("scenario error: ")
        assert all(value == seen["lf"] for value in seen.values())

    @pytest.mark.parametrize("verb", ["validate", "single-loop"])
    def test_scenario_that_is_a_directory(self, tmp_path, capsys, verb):
        out = [] if verb == "validate" else ["--out", str(tmp_path / "out")]
        assert main([verb, "--scenario", str(tmp_path)] + out) == 4
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"cannot read {tmp_path}: ")


class TestBenchmarkBatchPinned:
    """single-loop on the benchmark's seed-1 batch of 100 documents
    (bench.workloads.generate_documents(1)). Each digest is the sha256 of the
    documents' sha256 hex digests in order: the CSVs' as bench/workloads.py
    combines them, and the SVGs' the same way."""

    CSV_SHA = "a200df8477576466bc0e6900bd787a34453bbbc9b85d727fce97f20e153e4cb2"
    SVG_SHA = "ad7067a421ebc935afc7a01cf1e0bc75308d3854733e9319c3c1b1b9ce936b03"

    def test_combined_csv_and_svg_digests(self, tmp_path):
        from bench.workloads import generate_documents
        doc = tmp_path / "doc.yaml"
        digests = {name: [] for name in _OUTPUTS["single-loop"]}
        for k, text in enumerate(generate_documents(1)):
            doc.write_text(text, encoding="utf-8")
            out = tmp_path / f"doc{k:03d}"
            code, err = _quiet_main(["single-loop", "--scenario", str(doc), "--out", str(out)])
            assert code == 0, err
            for name, hexes in digests.items():
                hexes.append(hashlib.sha256((out / name).read_bytes()).hexdigest())
        got = [hashlib.sha256("".join(digests[name]).encode("ascii")).hexdigest()
               for name in _OUTPUTS["single-loop"]]
        assert got == [self.CSV_SHA, self.SVG_SHA]

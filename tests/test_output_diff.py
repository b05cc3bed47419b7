"""scripts/output_diff.py: the per-column report and its exit status."""
import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("output_diff", ROOT / "scripts" / "output_diff.py")
output_diff = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(output_diff)

HEADER = "# satloop 0.1.0\nscheme,lqr_cost\n"


def _outputs(tmp_path, *texts) -> list:
    """One output directory per side, each holding run/x.csv with the text."""
    outs = []
    for k, text in enumerate(texts):
        (tmp_path / f"side{k}" / "run").mkdir(parents=True)
        (tmp_path / f"side{k}" / "run" / "x.csv").write_text(HEADER + text, encoding="utf-8")
        outs.append(tmp_path / f"side{k}")
    return outs


def test_relative_move():
    assert output_diff.relative_move("1.0", "1.0") == 0.0
    assert output_diff.relative_move("2.0", "1.0") == 0.5
    assert output_diff.relative_move("inf", "1.0") == output_diff.relative_move("a", "b")
    assert output_diff.relative_move("nan", "nan") == 0.0


def test_a_move_counts_against_the_tolerance(tmp_path, capsys):
    outs = _outputs(tmp_path, "a,1.0\nb,3.0\n", "a,1.0000000000000002\nb,3.0\n")
    runs, codes = [("run", "single-loop", None)], [{"run": 0}, {"run": 0}]
    assert output_diff.compare(runs, codes, outs, 1e-14)
    assert not output_diff.compare(runs, codes, outs, 0.0)
    report = capsys.readouterr().out
    assert "x.csv lqr_cost  moved      1 of      2  largest relative move 2.22e-16" in report
    assert "x.csv scheme    moved      0 of      2  largest relative move 0" in report


def test_a_changed_exit_code_or_shape_fails(tmp_path, capsys):
    outs = _outputs(tmp_path, "a,1.0\n", "a,1.0\n")
    runs = [("run", "single-loop", None)]
    assert not output_diff.compare(runs, [{"run": 0}, {"run": 3}], outs, 0.0)
    assert "run: exit code 0 -> 3" in capsys.readouterr().out
    (outs[1] / "run" / "x.csv").write_text(HEADER + "a,1.0\nb,2.0\n", encoding="utf-8")
    assert not output_diff.compare(runs, [{"run": 0}, {"run": 0}], outs, 0.0)
    assert "run: x.csv changed shape" in capsys.readouterr().out


def test_a_tree_against_itself_moves_nothing(capsys):
    assert output_diff.main(["--tree", str(ROOT), "--tree", str(ROOT), "--corpus", "default",
                             "--verbs", "single-loop"]) == 0
    assert capsys.readouterr().out.endswith(
        "1 runs (exit codes {0: 1}): 0 of 33 values moved, largest relative move 0, "
        "0 changed exit codes, files or shapes\n")


def test_the_joint_group_runs_valid_documents(tmp_path):
    """The joint group: multi-loop and a 6x6 contour on each of its three
    documents, every one a valid scenario that differs from the default."""
    from satloop.scenario import default_scenario, load_scenario
    runs = output_diff.corpus(["joint"], None, tmp_path)
    assert [verb for _, verb, _ in runs] == ["multi-loop", "contour"] * 3
    for _, _, path in runs:
        scenario = load_scenario(path.read_text(encoding="utf-8"))
        assert scenario != default_scenario()
        contour = scenario.tree["contour"]
        assert (contour["power_points"], contour["compute_points"]) == (6, 6)


def test_a_tree_against_itself_has_no_differing_solve(capsys):
    """Each of the default multi-loop run's 63 joint solves is recorded on
    both sides (trace, certificate, lqr_total, decision) and compares equal."""
    assert output_diff.main(["--tree", str(ROOT), "--tree", str(ROOT), "--corpus", "default",
                             "--verbs", "multi-loop"]) == 0
    report = capsys.readouterr().out
    assert ("63 joint solves: 0 differ in their solver trace, certificate, lqr_total or "
            "decision\n") in report


def test_a_differing_solve_is_named(tmp_path, capsys):
    """A solve that differs in one field, or is on one side only, counts."""
    solve = {"iterations": 3, "lqr_total": "0x1.8p+1", "power_w": ["0x1.0p+0"]}
    sides = [{"run": [solve, solve]}, {"run": [dict(solve, lqr_total="0x1.9p+1")]}]
    outs = []
    for k, solves in enumerate(sides):
        (tmp_path / f"side{k}").mkdir()
        (tmp_path / f"side{k}" / "solves.json").write_text(json.dumps(solves))
        outs.append(tmp_path / f"side{k}")
    assert output_diff.compare_solves([("run", "multi-loop", None)], outs) == 2
    report = capsys.readouterr().out
    assert "run: solve 0 differs in lqr_total\n" in report
    assert "run: solve 1 differs in iterations, lqr_total, power_w\n" in report
    assert "2 joint solves: 2 differ" in report

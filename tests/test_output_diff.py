"""scripts/output_diff.py: the per-column report and its exit status."""
import importlib.util
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

"""numpy is executed on first use: single-loop and validate run without it,
in a fresh interpreter, and the array verbs load it and write the same bytes."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import satloop
from satloop import report

_SRC = str(Path(satloop.__file__).resolve().parent.parent)

# main(argv) in a fresh interpreter; its last stdout line is the exit code
# and every numpy module that was executed
_RUN_MAIN = """
import json, sys
from satloop import report
code = report.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules if m.startswith("numpy."))]))
"""


def _fresh(script: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [_SRC] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    proc = subprocess.run([sys.executable, "-c", script, *args], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc


def _main_in_fresh_interpreter(*argv: str) -> list:
    """[exit code, executed numpy modules] of report.main(argv) in a fresh interpreter."""
    return json.loads(_fresh(_RUN_MAIN, *argv).stdout.splitlines()[-1])


@pytest.fixture
def small_doc(tmp_path):
    doc = tmp_path / "doc.yaml"
    doc.write_text("plant:\n  a: 1.5\nsingle_loop:\n  total_bandwidth_hz: 2000.0\n")
    return str(doc)


@pytest.mark.parametrize("verb, with_doc", [("single-loop", False), ("single-loop", True),
                                            ("validate", False), ("validate", True)])
def test_single_loop_and_validate_execute_no_numpy(tmp_path, small_doc, verb, with_doc):
    argv = [verb] + (["--scenario", small_doc] if with_doc else [])
    if verb == "single-loop":
        argv += ["--out", str(tmp_path / "out")]
    code, numpy_modules = _main_in_fresh_interpreter(*argv)
    assert code == 0
    assert numpy_modules == []  # numpy._core and every other numpy module
    if verb == "single-loop":
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
            "single_loop.csv", "single_loop_lqr.svg"]


def test_multi_loop_loads_numpy_and_writes_the_in_process_bytes(tmp_path):
    code, numpy_modules = _main_in_fresh_interpreter(
        "multi-loop", "--format", "csv", "--out", str(tmp_path / "fresh"))
    assert code == 0 and "numpy._core" in numpy_modules
    assert report.main(["multi-loop", "--format", "csv", "--out", str(tmp_path / "here")]) == 0
    names = ["multi_loop_allocation.csv", "multi_loop_sweep.csv"]
    assert sorted(p.name for p in (tmp_path / "fresh").iterdir()) == names
    for name in names:
        assert (tmp_path / "fresh" / name).read_bytes() == (tmp_path / "here" / name).read_bytes()


def test_missing_numpy_fails_at_import():
    """numpy stays a required dependency: without it `import satloop` raises,
    not the first array call."""
    proc = _fresh("import sys\n"
                  "sys.modules['numpy'] = None  # unfindable\n"
                  "try:\n"
                  "    import satloop\n"
                  "except ModuleNotFoundError as exc:\n"
                  "    print('import failed:', exc.name)\n"
                  "else:\n"
                  "    print('imported')\n")
    assert proc.stdout.strip() == "import failed: numpy"

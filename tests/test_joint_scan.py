"""scripts/joint_scan.py: a two-seed slice of the stable group and its JSON."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_stable_slice_reports_the_recorded_draw():
    """Seeds 723-724 are 16 draws. Among them is seed 724's four-robot
    compute-only draw, which ends 1.3e-4 relative above its reference
    after stopping on patience (test_recorded_stable_draws_above_the_bound)."""
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "joint_scan.py"),
                           "--first", "723", "--last", "724"],
                          capture_output=True, text=True, timeout=300, check=True)
    report = json.loads(proc.stdout)
    assert (report["group"], report["seeds"], report["draws"]) == ("stable", [723, 724], 16)
    failures = report["failures"]
    assert report["above_bound"] == len(failures)
    assert all(f["gap"] > report["bound"] == 1e-9 for f in failures)
    assert report["worst_gap"] == max(f["gap"] for f in failures)
    worst = max(failures, key=lambda f: f["gap"])
    assert (worst["seed"], worst["n_robots"], worst["scheme"], worst["stopped_on"]) \
        == (724, 4, "compute_only_equal_comm", "patience")
    assert 1.3e-4 <= worst["gap"] < 1.4e-4

#!/usr/bin/env python3
"""Check that a multi_loop_sweep.csv's task-oriented total is at or below
both baselines' at every sweep point (within 1e-12 relative):

    python3 scripts/dominates.py OUT/multi_loop_sweep.csv

Exits 0 and prints the row count when it holds, else names the first point
where it does not.
"""
import csv
import sys

with open(sys.argv[1], encoding="utf-8") as f:
    rows = list(csv.DictReader(line for line in f if not line.startswith("#")))
if not rows:
    sys.exit("multi_loop_sweep.csv has no sweep rows")
for row in rows:
    task = float(row["lqr_task_oriented"])
    for baseline in ("lqr_max_throughput", "lqr_compute_only"):
        other = float(row[baseline])
        if not task <= other + 1e-12 * abs(other):
            sys.exit(f"at {row['total_power_w']} W lqr_task_oriented {task!r} "
                     f"is above {baseline} {other!r}")
print(f"{len(rows)} sweep rows: the task-oriented total dominates both baselines")

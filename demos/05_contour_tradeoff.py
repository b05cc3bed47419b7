"""Cost contour over joint power and compute budgets (coarse, fast).

A 10x10 version of the full contour: total LQR cost falls as either budget
grows, with visibly diminishing returns in both directions.
"""
from pathlib import Path

import numpy as np

from satloop import MultiLoopScheme, default_scenario, sweep_contour
from satloop import svgplot

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

scn = default_scenario()
problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT)
power_grid = np.linspace(1.0, 40.0, 10)
compute_grid = np.linspace(8e9, 3e10, 10)

matrix = sweep_contour(problem, power_grid, compute_grid)

print("total LQR cost (rows: power 1->40 W; cols: compute 8->30 GC/s)")
for i, p in enumerate(power_grid):
    row = " ".join(f"{v:8.4f}" for v in matrix[i])
    print(f"P={p:5.1f} | {row}")

d_power = np.diff(matrix, axis=0)
d_compute = np.diff(matrix, axis=1)
print()
print(f"monotone in power:   {bool(np.all(d_power <= 1e-9))}")
print(f"monotone in compute: {bool(np.all(d_compute <= 1e-9))}")
print(f"largest single-step gain from power:   {-d_power.min():.4f}")
print(f"largest single-step gain from compute: {-d_compute.min():.4f}")
print("steps shrink toward the high-budget corner: diminishing returns.")

svg = svgplot.heatmap(list(power_grid), list(compute_grid),
                      [list(r) for r in matrix],
                      "Total LQR cost over power x compute budgets",
                      "compute (cycles/s)", "power (W)")
(OUT / "contour.svg").write_text(svg)
print(f"\nwrote {OUT / 'contour.svg'}")

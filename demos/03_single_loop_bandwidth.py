"""Single-loop bandwidth split: task-oriented vs link-level objectives.

Plots each scheme's objective landscape over the uplink share, solves all
three, and compares the closed-loop cost each split actually achieves.
"""
import math
from pathlib import Path

import numpy as np

from satloop import (RateCostModel, SingleLoopObjective,
                     balanced_times, default_scenario, evaluate_cycle,
                     propagation_delay_s, slant_range_m, solve_single_loop)
from satloop import svgplot

OUT = Path(__file__).resolve().parent / "output"
OUT.mkdir(exist_ok=True)

scn = default_scenario()
problem = scn.single_loop_problem(SingleLoopObjective.TASK_ORIENTED)
b_tot = problem.total_bandwidth_hz
model = RateCostModel.from_plant(problem.plant)
t_prop = propagation_delay_s(
    slant_range_m(problem.uplink_template.geometry),
    slant_range_m(problem.downlink_template.geometry))

print(f"total bandwidth: {b_tot / 1e3:.0f} kHz; cycle 20 ms; extraction 0.1%")
print()

# closed-loop cost as a function of the uplink share, for intuition
shares = np.linspace(0.02, 0.98, 49)
costs = []
for share in shares:
    uplink = problem.uplink_template.with_bandwidth(float(share) * b_tot)
    downlink = problem.downlink_template.with_bandwidth((1.0 - float(share)) * b_tot)
    t_up, t_down = balanced_times(uplink, downlink, problem.budget, t_prop)
    outcome = evaluate_cycle(uplink, downlink, problem.budget, model, t_up, t_down)
    costs.append(1e9 if outcome.lqr_cost == math.inf else outcome.lqr_cost)
svg = svgplot.line_chart(
    [float(s) for s in shares], [("closed-loop cost", costs)],
    "LQR cost vs uplink bandwidth share", "uplink share", "cost")
(OUT / "single_loop_landscape.svg").write_text(svg)

print(f"{'scheme':>15} {'B_up kHz':>9} {'eff bits':>9} {'LQR':>12}")
labels, lqr_values = [], []
for objective in SingleLoopObjective:
    result = solve_single_loop(scn.single_loop_problem(objective))
    outcome = result.per_loop_outcomes[0]
    labels.append(objective.value)
    lqr_values.append(result.lqr_total)
    print(f"{objective.value:>15} {result.decision['bandwidth_up_hz'] / 1e3:9.2f} "
          f"{outcome.effective_bits_per_cycle:9.3f} {outcome.lqr_cost!r:>12}")

print()
print("the task-oriented split pushes nearly all bandwidth to the uplink:")
print("only 0.1% of sensed bits come back down, so uplink volume is what")
print("buys command information; pure throughput maximization starves it.")

svg2 = svgplot.bar_chart(labels, lqr_values,
                         "Closed-loop cost by allocation scheme", "LQR cost")
(OUT / "single_loop_schemes.svg").write_text(svg2)
print(f"\nwrote {OUT / 'single_loop_landscape.svg'} and single_loop_schemes.svg")

"""Time satloop's set-up in a fresh interpreter; prints its seconds and the
median host-speed probe (bench/speed.py) taken right after it.

Usage: setup_child.py {multi|single} [SCENARIO_PATH]

Set-up is what a CLI invocation pays before its first solve: import the
package and its CLI module, load and validate the scenario (the built-in
baseline without a path), and build the first problem together with its
rate-cost models.
"""
import os
import sys
import time

t0 = time.perf_counter()
import satloop.report  # noqa: E402,F401  (the CLI imports every module)
from satloop import optimize, scenario  # noqa: E402
from satloop.control import RateCostModel  # noqa: E402

kind, path = sys.argv[1], sys.argv[2] if len(sys.argv) > 2 else ""
if path:
    with open(path, encoding="utf-8") as fh:
        scn = scenario.load_scenario(fh.read())
else:
    scn = scenario.default_scenario()
if kind == "multi":
    power = float(scn.power_sweep_w()[0])
    problem = scn.multi_loop_problem(optimize.MultiLoopScheme.TASK_ORIENTED_JOINT,
                                     total_power_w=power)
    optimize.JointEvaluator(problem)
else:
    problem = scn.single_loop_problem(optimize.SingleLoopObjective.TASK_ORIENTED)
    RateCostModel.from_plant(problem.plant)
elapsed = time.perf_counter() - t0

# The host's speed at this moment: the median of five probes, run after the
# timed set-up (the first is slow while the probe's code paths warm up).
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from bench import speed  # noqa: E402

probes = sorted(speed.probe() for _ in range(5))
print(f"{elapsed:.9f} {probes[2]:.9f}")

#!/usr/bin/env python3
"""Scan the joint solver against its ten-start reference and print JSON.

    python3 scripts/joint_scan.py                      # seeds 0-999
    python3 scripts/joint_scan.py --first 0 --last 124

Its one group, `stable`, draws for each seed and 1-4 robots the
stable-plant problem tests/oracles.random_joint_problem(default_rng(seed),
n_robots, stable=True) and solves it under both projected-gradient schemes
(task-oriented and compute-only). Each solve is compared with
tests/oracles.multi_start_solve on the same problem and seed, which
descends the same starts plus eight or nine random ones. A draw fails when
its lqr_total is above the reference's by more than 1e-9 relative, the
bound of test_optimize's test_random_restarts_buy_nothing.

The JSON holds the number of draws, each failing draw (seed, robots,
scheme, its relative gap above the reference and the solve's stopped_on),
their count and the worst gap (0.0 when none fails). The exit status is 0
whatever the scan finds: it is a report, not a gate.
"""
import argparse
import dataclasses
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

import numpy as np  # noqa: E402
from oracles import multi_start_solve, random_joint_problem  # noqa: E402
from satloop.optimize import MultiLoopScheme, solve_multi_loop  # noqa: E402

BOUND = 1e-9  # relative
SCHEMES = (MultiLoopScheme.TASK_ORIENTED_JOINT, MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM)


def scan_stable(seeds) -> dict:
    """The `stable` group over the seeds (module docstring)."""
    draws, failures = 0, []
    for seed in seeds:
        for n_robots in range(1, 5):
            for scheme in SCHEMES:
                problem = dataclasses.replace(
                    random_joint_problem(np.random.default_rng(seed), n_robots, stable=True),
                    scheme=scheme)
                one = solve_multi_loop(problem)
                ref = multi_start_solve(problem, seed=seed)
                draws += 1
                if one.lqr_total > ref.lqr_total + BOUND * abs(ref.lqr_total):
                    failures.append({"seed": seed, "n_robots": n_robots, "scheme": scheme.value,
                                     "gap": (one.lqr_total - ref.lqr_total) / abs(ref.lqr_total),
                                     "stopped_on": one.solver_trace.stopped_on})
    return {"group": "stable", "seeds": [seeds.start, seeds.stop - 1], "draws": draws,
            "bound": BOUND, "above_bound": len(failures),
            "worst_gap": max((f["gap"] for f in failures), default=0.0), "failures": failures}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=0, help="first seed (default 0)")
    parser.add_argument("--last", type=int, default=999, help="last seed, inclusive (default 999)")
    args = parser.parse_args(argv)
    if not 0 <= args.first <= args.last:
        parser.error("need 0 <= --first <= --last")
    print(json.dumps(scan_stable(range(args.first, args.last + 1)), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

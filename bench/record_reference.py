"""Record bench/reference.json: outputs on the default seed, and, as a record
of the commit it runs on, the call counts of one multi-loop-baseline pass.

    python3 bench/record_reference.py

Run it only on a commit whose outputs are trusted; every later run whose
inputs are the default seed's is compared against the outputs it writes. The
call counts are not compared by later runs (a correct change may lower them);
they are kept so that a traced run can be read against them.
"""
import json
import shutil
import sys

import run  # sets the thread environment before numpy loads
from bench import tracer
from bench.workloads import WORKLOADS

TABLE = ("optimize.solve_multi_loop", "optimize._projected_gradient",
         "optimize.JointEvaluator.total_cost", "optimize.project_capped_simplex",
         "control.RateCostModel.from_plant", "control.dare_solve")


def main() -> int:
    reference = {}
    for name, wl in WORKLOADS.items():
        work = run.WORK / f"{name}-reference"
        shutil.rmtree(work, ignore_errors=True)
        ctx = wl.prepare(run.DEFAULT_SEED, work / "inputs")
        result = wl.run_pass(ctx, work / "out")
        if result.problems:
            print(f"{name}: {result.problems[:5]}", file=sys.stderr)
            return 1
        reference[name] = {"outputs": result.outputs}
        print(f"{name}: outputs recorded")
    wl = WORKLOADS["multi-loop-baseline"]
    work = run.WORK / "multi-loop-baseline-reference"
    ctx = wl.prepare(run.DEFAULT_SEED, work / "inputs")
    calls, mismatches = tracer.coverage_check(lambda: wl.run_pass(ctx, work / "out"))
    if mismatches:
        print("\n".join(mismatches), file=sys.stderr)
        return 1
    counts = {fn_name: calls[fn_name] for fn_name in TABLE}
    reference["multi-loop-baseline"]["trace_calls"] = counts
    print(f"multi-loop-baseline call counts (wrappers = cProfile): {counts}")
    run.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n",
                             encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())

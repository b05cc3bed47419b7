#!/usr/bin/env python3
"""Run satloop's verbs on a fixed corpus in two configurations and report
every CSV value that moved between them.

The two configurations are two source trees, or one tree under numpy's
default SIMD dispatch and under NPY_DISABLE_CPU_FEATURES:

    python3 scripts/output_diff.py --tree PARENT --tree .
    python3 scripts/output_diff.py --tree . --disable "X86_V4 AVX512_ICL AVX512_SPR"

The corpus (--corpus, all four groups by default):

    default  single-loop, multi-loop and contour on the built-in scenario
    docs     single-loop on the 1,000 generated documents of seeds 1-10
             (bench/workloads.generate_documents, 100 per seed)
    large    multi-loop at 50, 500 and 2,000 robots, each with the
             baseline's per-robot budgets
    joint    multi-loop and a 6x6 contour on two stable plants (a = 0.5
             and a = 0.05, where every start of a solve descends) and on
             20 robots (penalised loops, rows that move by backtracking)

--verbs keeps only the runs of the named verbs. Each configuration runs the
whole corpus in one child process (PYTHONPATH=TREE/src), which calls
satloop.report.main once per run with --format csv. The child also wraps
solve_multi_loop under both names that call it (satloop.optimize, for
sweep_contour, and satloop.report) and records every joint solve of each
run: its SolverTrace fields but the end point, its certificate
(projected_gradient_norm), lqr_total and decision arrays, each float as
float.hex.

For each CSV column, summed over the corpus, the report prints how many
values moved (their text differs) and the largest relative move
|a - b| / max(|a|, |b|), which is inf where a value is not a finite number
on one side only. It prints every run whose exit code changed, and every
output file or CSV shape (header, row count) found on one side only. It
also prints how many joint solves differ in any recorded field, naming the
first few. The exit status is 1 when an exit code, a file or a shape
changed, a value moved by more than --tolerance relative (default 0), or,
comparing two trees, a joint solve differs; else 0. Under --disable a
differing solve is only reported: the joint solves may move by rounding.
"""
import argparse
import csv
import itertools
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(1, 11)
LARGE_N = (50, 500, 2000)
JOINT = {"stable-0.5": "plant: {a: 0.5}\n", "stable-0.05": "plant: {a: 0.05}\n",
         "robots-20": "multi_loop: {n_robots: 20}\n"}
JOINT_CONTOUR = "contour: {power_points: 6, compute_points: 6}\n"

# one child per configuration: run every job, record its exit code and its
# joint solves
RUNNER = """
import contextlib, dataclasses, io, json, sys
from satloop import optimize, report
jobs, codes, solves = json.load(open(sys.argv[1])), {}, {}
solve = optimize.solve_multi_loop

def recorded(problem, **kwargs):
    result = solve(problem, **kwargs)
    trace = result.solver_trace
    entry = {f.name: getattr(trace, f.name) for f in dataclasses.fields(trace)
             if f.name != "end_point"}
    entry["projected_gradient_norm"] = trace.projected_gradient_norm.hex()
    entry["lqr_total"] = result.lqr_total.hex()
    for key, values in result.decision.items():
        entry[key] = [v.hex() for v in values.tolist()]
    run.append(entry)
    return result
optimize.solve_multi_loop = report.solve_multi_loop = recorded
for name, argv in jobs:
    solves[name] = run = []
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            codes[name] = report.main(argv)
        except SystemExit as exc:
            codes[name] = exc.code
json.dump(codes, open(sys.argv[2], "w"))
json.dump(solves, open(sys.argv[3], "w"))
"""


def large_document(n: int) -> str:
    """multi-loop at n robots with the baseline's per-robot budgets (5 robots:
    250 Hz, 10 Gcps, 5 W at the detail point, a 1-40 W sweep)."""
    scale = n / 5
    return (f"name: large-n-{n}\nmulti_loop:\n  n_robots: {n}\n"
            f"  allocation_power_w: {5.0 * scale}\n"
            f"  downlink_bandwidth_total_hz: {250.0 * scale}\n"
            f"  total_compute_gcps: {10.0 * scale}\n"
            f"  power_sweep_min_w: {1.0 * scale}\n  power_sweep_max_w: {40.0 * scale}\n")


def corpus(groups, verbs, inputs: Path) -> list:
    """(name, verb, scenario path or None) of every run."""
    runs = []
    if "default" in groups:
        runs += [(f"default-{verb}", verb, None)
                 for verb in ("single-loop", "multi-loop", "contour")]
    if "docs" in groups:
        sys.path.insert(0, str(ROOT))
        from bench.workloads import generate_documents
        for seed in SEEDS:
            for k, text in enumerate(generate_documents(seed)):
                path = inputs / f"doc-{seed}-{k:03d}.yaml"
                path.write_text(text, encoding="utf-8")
                runs.append((path.stem, "single-loop", path))
    if "large" in groups:
        for n in LARGE_N:
            path = inputs / f"large-{n}.yaml"
            path.write_text(large_document(n), encoding="utf-8")
            runs.append((path.stem, "multi-loop", path))
    if "joint" in groups:
        for name, text in JOINT.items():
            path = inputs / f"joint-{name}.yaml"
            path.write_text(text + JOINT_CONTOUR, encoding="utf-8")
            runs += [(f"{path.stem}-{verb}", verb, path) for verb in ("multi-loop", "contour")]
    return [run for run in runs if verbs is None or run[1] in verbs]


def run_side(tree: Path, disable, runs, out: Path) -> dict:
    """Run the corpus in one child; {run name: exit code}."""
    jobs = []
    for name, verb, scenario in runs:
        argv = [verb, "--format", "csv", "--out", str(out / name)]
        jobs.append((name, argv + (["--scenario", str(scenario)] if scenario else [])))
    out.mkdir(parents=True)
    (out / "jobs.json").write_text(json.dumps(jobs))
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disable:
        env["NPY_DISABLE_CPU_FEATURES"] = disable
    subprocess.run([sys.executable, "-c", RUNNER, str(out / "jobs.json"), str(out / "codes.json"),
                    str(out / "solves.json")], env=env, check=True)
    return json.loads((out / "codes.json").read_text())


def read_csv(path: Path) -> list:
    with open(path, encoding="utf-8", newline="") as f:
        return list(csv.reader(line for line in f if not line.startswith("#")))


def relative_move(a: str, b: str) -> float:
    try:
        x, y = float(a), float(b)
    except ValueError:
        return math.inf
    if x == y or (math.isnan(x) and math.isnan(y)):
        return 0.0
    if not (math.isfinite(x) and math.isfinite(y)):
        return math.inf
    return abs(x - y) / max(abs(x), abs(y))


def compare(runs, codes, outs, tolerance: float) -> bool:
    """Print the report; True when nothing moved beyond the tolerance."""
    columns = defaultdict(lambda: [0, 0, 0.0])  # (file, column) -> [values, moved, max rel]
    problems = []
    for name, _, _ in runs:
        if codes[0].get(name) != codes[1].get(name):
            problems.append(f"{name}: exit code {codes[0].get(name)} -> {codes[1].get(name)}")
        files = [{p.name for p in (out / name).glob("*.csv")} if (out / name).is_dir() else set()
                 for out in outs]
        for missing in sorted(files[0] ^ files[1]):
            problems.append(f"{name}: {missing} on one side only")
        for file in sorted(files[0] & files[1]):
            a, b = (read_csv(out / name / file) for out in outs)
            if len(a) != len(b) or not a or a[0] != b[0] or \
                    any(len(r) != len(s) for r, s in zip(a, b)):
                problems.append(f"{name}: {file} changed shape")
                continue
            for row_a, row_b in zip(a[1:], b[1:]):
                for column, x, y in zip(a[0], row_a, row_b):
                    entry = columns[(file, column)]
                    entry[0] += 1
                    if x != y:
                        entry[1] += 1
                        entry[2] = max(entry[2], relative_move(x, y))
    width = max((len(f"{f} {c}") for f, c in columns), default=0)
    for (file, column), (values, moved, largest) in sorted(columns.items()):
        print(f"{file + ' ' + column:<{width}}  moved {moved:>6} of {values:>6}  "
              f"largest relative move {largest:.3g}")
    for problem in problems:
        print(problem)
    total = sum(entry[1] for entry in columns.values())
    largest = max((entry[2] for entry in columns.values()), default=0.0)
    exits = dict(Counter(codes[0][name] for name, _, _ in runs))
    print(f"{len(runs)} runs (exit codes {exits}): {total} of "
          f"{sum(e[0] for e in columns.values())} values moved, largest relative move "
          f"{largest:.3g}, {len(problems)} changed exit codes, files or shapes")
    return not problems and largest <= tolerance


def compare_solves(runs, outs, shown: int = 10) -> int:
    """Print how many joint solves differ between the sides, naming the
    first `shown` and their differing fields; returns that count. A solve
    on one side only differs."""
    sides = [json.loads((out / "solves.json").read_text()) for out in outs]
    total = differ = 0
    for name, _, _ in runs:
        pairs = itertools.zip_longest(sides[0].get(name, []), sides[1].get(name, []),
                                      fillvalue={})
        for k, (a, b) in enumerate(pairs):
            total += 1
            if a != b:
                differ += 1
                if differ <= shown:
                    fields = sorted(f for f in a.keys() | b.keys() if a.get(f) != b.get(f))
                    print(f"{name}: solve {k} differs in {', '.join(fields)}")
    print(f"{total} joint solves: {differ} differ in their solver trace, certificate, "
          f"lqr_total or decision")
    return differ


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", type=Path, required=True,
                        help="a source tree (twice: compare two trees)")
    parser.add_argument("--disable", help="NPY_DISABLE_CPU_FEATURES of the second run "
                                          "of a single tree")
    parser.add_argument("--corpus", nargs="+", choices=("default", "docs", "large", "joint"),
                        default=["default", "docs", "large", "joint"])
    parser.add_argument("--verbs", nargs="+", choices=("single-loop", "multi-loop", "contour"))
    parser.add_argument("--tolerance", type=float, default=0.0)
    args = parser.parse_args(argv)
    if (len(args.tree) == 2) == (args.disable is not None) or len(args.tree) > 2:
        parser.error("give two --tree, or one --tree and --disable")
    sides = ([(tree, None) for tree in args.tree] if len(args.tree) == 2
             else [(args.tree[0], None), (args.tree[0], args.disable)])
    with tempfile.TemporaryDirectory() as scratch:
        work = Path(scratch)
        (work / "inputs").mkdir()
        runs = corpus(args.corpus, args.verbs, work / "inputs")
        outs = [work / f"side{k}" for k in (1, 2)]
        codes = [run_side(tree.resolve(), disable, runs, out)
                 for (tree, disable), out in zip(sides, outs)]
        # printed first: the CSV summary stays the report's last line
        solves_agree = compare_solves(runs, outs) == 0 or args.disable is not None
        return 0 if compare(runs, codes, outs, args.tolerance) and solves_agree else 1


if __name__ == "__main__":
    sys.exit(main())

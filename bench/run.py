"""satloop benchmark: run one workload (or all) and print every metric.

    python3 bench/run.py --workload multi-loop-baseline --seed 1 --seconds 55 --trace 0

Prints a readable summary, then as its last line one JSON object with the
keys correct, attempted, failed and metrics. With --trace 0 the metrics are
the end-to-end metrics of an untraced run; with --trace 1 they are the
per-layer metrics of a traced run (see bench/README.md), which first runs one
pass under both the tracer and cProfile and is correct only if their call
counts agree for every wrapped function.
"""
import os

# Pin native thread pools before numpy is imported anywhere in this process,
# so eigvals and solve on 1x1 matrices never start threads.
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
           "BLIS_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
           "VECLIB_MAXIMUM_THREADS": "1"}
os.environ.update(THREADS)

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path[:0] = [str(SRC), str(ROOT)]

from bench import measure, speed, tracer  # noqa: E402
from bench.workloads import (WORKLOADS, compare_outputs, is_infeasible,  # noqa: E402
                             setup_time)

REFERENCE = Path(__file__).resolve().parent / "reference.json"
WORK = ROOT / ".bench_out"
DEFAULT_SEED = 1
SETUP_REPEATS = 15


def _paths_ok() -> bool:
    return (SRC / "satloop" / "__init__.py").is_file()


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def _passes(wl, ctx, out, seconds, trace, between):
    """Repeat units for about `seconds`: an untraced pass (trace 0), or an
    untraced and a traced pass (trace 1). After at least min_passes untraced
    passes (trace 0) or one unit (trace 1), another unit runs only while it
    still fits in the budget. `between(units_left)` runs after every unit,
    with the number of units the budget is still expected to hold, and its
    time counts inside the budget."""
    untraced, traced = [], []
    started = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        if trace:
            untraced.append(wl.run_pass(ctx, out))
            spans = tracer.Tracer()
            with tracer.traced(spans):
                result = wl.run_pass(ctx, out)
            result.tracer = spans
            traced.append(result)
            needed = 0
        else:
            untraced.append(wl.run_pass(ctx, out))
            needed = wl.min_passes - len(untraced)
        unit_s = time.perf_counter() - unit_start
        elapsed = time.perf_counter() - started
        between(max(0, needed, int((seconds - elapsed) // unit_s)))
        elapsed = time.perf_counter() - started
        if needed <= 0 and elapsed + unit_s > seconds:
            return untraced, traced


def _check_passes(wl, ctx, passes, problems, reference):
    """Outputs must be identical across passes, and match the reference
    recorded from the seed commit when the inputs are the default seed's."""
    first = passes[0]
    for p in passes[1:]:
        if p.csv_sha256 != first.csv_sha256:
            problems.append("CSV outputs differ between passes of one run")
            break
    if ctx["inputs_seed"] == DEFAULT_SEED and not first.problems:
        ref = reference.get(wl.name, {}).get("outputs")
        if ref is None:
            problems.append("no reference outputs recorded")
        else:
            problems.extend(compare_outputs(first.outputs, ref, wl.rel_tol))


def _task_summary(values):
    feasible = [v for v in values if not is_infeasible(v)]
    mean = sum(feasible) / len(feasible) if feasible else 0.0
    share = 1.0 - len(feasible) / len(values) if values else 0.0
    return mean, share, len(feasible)


def _layer_metrics(result, self_by_name, self_by_layer) -> dict:
    calls, counters = result.tracer.calls, result.tracer.counters

    def name_self(*names):
        return sum(self_by_name.get(n, 0.0) for n in names)

    svg = ("svgplot.bar_chart", "svgplot.line_chart", "svgplot.grouped_bar_chart",
           "svgplot.heatmap")
    iterations = counters["optimize.pgd_iterations"]
    rows = counters["optimize.total_cost.rows"]
    multi_start = counters["optimize.multi_start_solves"]
    return {
        "optimize.solve.calls": (calls["optimize.solve_multi_loop"]
                                 + calls["optimize.solve_single_loop"], "count"),
        "optimize.solve.self_s": (name_self("optimize.solve_multi_loop",
                                            "optimize.solve_single_loop",
                                            "optimize.sweep_contour"), "s"),
        "optimize.total_cost.calls": (calls["optimize.JointEvaluator.total_cost"], "count"),
        "optimize.total_cost.rows": (rows, "count"),
        "optimize.total_cost.self_s": (name_self("optimize.JointEvaluator.total_cost"), "s"),
        "optimize.project_capped_simplex.calls": (
            calls["optimize.project_capped_simplex"], "count"),
        "optimize.project_capped_simplex.self_s": (
            name_self("optimize.project_capped_simplex"), "s"),
        "optimize.water_fill_power.calls": (calls["optimize.water_fill_power"], "count"),
        "optimize.water_fill_power.self_s": (name_self("optimize.water_fill_power"), "s"),
        "optimize.pgd_runs": (counters["optimize.pgd_runs"], "count"),
        "optimize.pgd_iterations": (iterations, "count"),
        "optimize.restarts": (counters["optimize.restarts"], "count"),
        "optimize.evals_per_iteration": (rows / iterations if iterations else 0.0, "rows/iter"),
        "optimize.random_restart_win_share": (
            counters["optimize.random_restart_wins"] / multi_start if multi_start else 0.0,
            "share"),
        "optimize.golden_evals": (counters["optimize.golden_evals"], "count"),
        "optimize.dense_grid_fallbacks": (counters["optimize.dense_grid_fallbacks"], "count"),
        "control.from_plant.calls": (calls["control.RateCostModel.from_plant"], "count"),
        "control.from_plant.self_s": (name_self("control.RateCostModel.from_plant"), "s"),
        "control.dare_solve.calls": (calls["control.dare_solve"], "count"),
        "control.lqr_cost.calls": (calls["control.lqr_cost"], "count"),
        "control.is_stabilizable_at.calls": (calls["control.is_stabilizable_at"], "count"),
        "control.self_s": (self_by_layer.get("control", 0.0), "s"),
        "pipeline.evaluate_cycle.calls": (calls["pipeline.evaluate_cycle"], "count"),
        "pipeline.balanced_times.calls": (calls["pipeline.balanced_times"], "count"),
        "pipeline.self_s": (self_by_layer.get("pipeline", 0.0), "s"),
        "linkgeom.shannon_rate_bps.calls": (calls["linkgeom.shannon_rate_bps"], "count"),
        "linkgeom.self_s": (self_by_layer.get("linkgeom", 0.0), "s"),
        "scenario.load_scenario.calls": (calls["scenario.load_scenario"], "count"),
        "scenario.load_scenario.self_s": (name_self("scenario.load_scenario"), "s"),
        "scenario.dump_scenario.calls": (calls["scenario.dump_scenario"], "count"),
        "scenario.dump_scenario.self_s": (name_self("scenario.dump_scenario"), "s"),
        "report.self_s": (self_by_layer.get("report", 0.0), "s"),
        "report.bytes_written": (counters["report.bytes_written"], "bytes"),
        "svgplot.calls": (sum(calls[n] for n in svg), "count"),
        "svgplot.self_s": (self_by_layer.get("svgplot", 0.0), "s"),
    }


def _item_times(passes, quantile, problems):
    """Each item's speed-adjusted latency at `quantile` over the passes, and
    from those the wall time of one pass at the reference speed: their sum
    plus the same quantile of the adjusted time a pass spent outside items.

    Every pass repeats the same items in the same order. An item's latency
    is scaled by speed.adjust with the probes around it; the time outside
    items (CLI set-up, writing files) by the median probe of its pass.
    workloads.py says why the quantile depends on the workload.
    """
    n = len(passes[0].items)
    same = [p for p in passes if len(p.items) == n]
    if len(same) < len(passes):
        problems.append("passes differ in item count")
    adjusted = [speed.adjust([item.latency_s for item in p.items],
                             [item.probe_s for item in p.items]) for p in same]
    per_item = [measure.rank_quantile([a[i] for a in adjusted], quantile)
                for i in range(n)]
    outside = measure.rank_quantile(
        [(p.wall_s - sum(item.latency_s for item in p.items)) * speed.REFERENCE_S
         / measure.median([item.probe_s for item in p.items]) for p in same], quantile)
    return per_item, sum(per_item) + max(outside, 0.0)


def _median_of(dicts) -> dict:
    keys = set().union(*dicts)
    return {k: measure.median([d.get(k, 0.0) for d in dicts]) for k in keys}


def run_workload(wl, seed: int, seconds: int, trace: int, reference: dict) -> dict:
    work = WORK / f"{wl.name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    out = work / "out"
    ctx = wl.prepare(seed, work / "inputs")
    setups, problems = [], []

    def sample_setup(units_left):
        # Set-up is sampled only in untraced runs, spread evenly over the gaps
        # between passes, so a slow or fast stretch of the host does not set
        # every sample.
        if not trace:
            missing = SETUP_REPEATS - len(setups)
            for _ in range(math.ceil(missing / (units_left + 1))):
                setups.append(setup_time(wl, ctx, ROOT, _child_env()))

    started = time.perf_counter()
    ticks_before = measure.cpu_ticks()
    coverage_calls = {}
    if trace:
        # One pass under the tracer and cProfile together: equal counts prove
        # that no call escapes the wrappers. Its time counts in the budget.
        coverage_calls, mismatches = tracer.coverage_check(lambda: wl.run_pass(ctx, out))
        problems.extend(f"coverage: {msg}" for msg in mismatches)
    else:
        sample_setup(SETUP_REPEATS)  # one sample before the first pass
    untraced, traced = _passes(wl, ctx, out, seconds - (time.perf_counter() - started),
                               trace, sample_setup)
    sample_setup(0)
    measured_s = time.perf_counter() - started
    steal = measure.steal_between(ticks_before, measure.cpu_ticks())

    passes = untraced + traced
    problems.extend(msg for p in passes for msg in p.problems)
    _check_passes(wl, ctx, passes, problems, reference)
    items = [item for p in passes for item in p.items]
    failed = sum(item.failed for item in items)
    task_mean, infeasible, n_feasible = _task_summary(untraced[0].task_values)
    if not n_feasible:
        problems.append("no feasible task-oriented item")

    per_item, wall = _item_times(untraced, wl.quantile, problems)
    tail_p = measure.tail_percentile(len(per_item))
    summary = {
        "fail_ratio": (failed / len(items), "ratio"),
        "infeasible_ratio": (infeasible, "ratio"),
    }
    record = {
        "workload": wl.name, "why": wl.why, "seed": seed, "seconds": seconds,
        "trace": trace, "environment": measure.environment(ROOT),
        "measured_s": measured_s, **steal,
        "setup_s_samples": [setup for setup, _ in setups],
        "setup_probe_s_samples": [probe for _, probe in setups],
        "untraced_pass_wall_s": [p.wall_s for p in untraced],
        "median_pass_wall_s": measure.median([p.wall_s for p in untraced]),
        "median_probe_s": measure.median([item.probe_s for p in untraced
                                          for item in p.items]),
        "reference_probe_s": speed.REFERENCE_S,
        "traced_pass_wall_s": [p.wall_s for p in traced],
        "items_per_pass": len(per_item),
        "item_quantile_over_passes": wl.quantile,
        "item_latency_s_per_pass": [[item.latency_s for item in p.items] for p in untraced],
        "item_probe_s_per_pass": [[item.probe_s for item in p.items] for p in untraced],
        "tail_percentile": tail_p,
        "csv_sha256": untraced[0].csv_sha256,
        "task_items": len(untraced[0].task_values),
    }
    if trace:
        first = traced[0].tracer
        for p in traced:
            if (any(p.tracer.calls[name] != n for name, n in coverage_calls.items())
                    or p.tracer.counters != first.counters):
                problems.append("traced passes disagree on call counts")
        self_names = _median_of([p.tracer.self_times() for p in traced])
        self_layers = _median_of([p.tracer.layer_self_times() for p in traced])
        metrics = _layer_metrics(traced[0], self_names, self_layers)
        overhead = (measure.median([p.wall_s for p in traced])
                    - measure.median([p.wall_s for p in untraced]))
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics.update(summary)
        record["calls"] = dict(first.calls)
        record["counters"] = dict(first.counters)
        record["self_s_by_function"] = self_names
        record["self_s_by_layer"] = self_layers
        spans_path = work / "spans.csv"
        first.write_spans(spans_path)
        record["spans"] = str(spans_path.relative_to(ROOT))
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (measure.median([setup * speed.REFERENCE_S / probe
                                        for setup, probe in setups]), "s"),
            "item_p50_ms": (measure.median(per_item) * 1e3, "ms"),
            "item_tail_ms": (measure.percentile(per_item, tail_p) * 1e3, "ms"),
            "task_lqr_mean": (task_mean, "cost"),
            "feasible_ratio": (1.0 - infeasible, "ratio"),
            "peak_rss_mb": (measure.peak_rss_mb(), "MB"),
        }
        record["summary"] = {k: v[0] for k, v in summary.items()}
    record["problems"] = problems
    record["metrics"] = {k: v[0] for k, v in metrics.items()}
    work.mkdir(parents=True, exist_ok=True)
    (work / "run.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n",
                                   encoding="utf-8")
    _print_summary(record, metrics, summary)
    return {"correct": failed == 0 and not problems, "attempted": len(items),
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def _print_summary(record, metrics, summary) -> None:
    env = record["environment"]
    print(f"satloop benchmark: {record['workload']}  seed={record['seed']}  "
          f"seconds={record['seconds']}  trace={record['trace']}")
    print(f"  passes: {len(record['untraced_pass_wall_s'])} untraced, "
          f"{len(record['traced_pass_wall_s'])} traced; {record['items_per_pass']} items "
          f"per pass; item times speed-adjusted, at quantile "
          f"{record['item_quantile_over_passes']:g} over passes; "
          f"tail = p{record['tail_percentile']:g}")
    walls = ", ".join(f"{w:.3f}" for w in record["untraced_pass_wall_s"])
    print(f"  measured untraced pass wall times: {walls} s (median "
          f"{record['median_pass_wall_s']:.3f} s, not speed-adjusted)")
    print(f"  speed probe: median {1e3 * record['median_probe_s']:.3f} ms, reference "
          f"{1e3 * record['reference_probe_s']:.3f} ms")
    for name, (value, unit) in {**metrics, **summary}.items():
        print(f"  {name:42s} {value:.6g} {unit}")
    print(f"  git {env['git_revision']}  source {env['source_sha256'][:12]}  "
          f"python {env['python']}  numpy {env['numpy']}  pyyaml {env['pyyaml']}  "
          f"nproc {env['nproc']}")
    if record["steal_s"] is not None:
        print(f"  cpu steal during run: {record['steal_s']:.2f} s "
              f"({100 * record['steal_share']:.1f}% of cpu time)")
    for name, digest in record["csv_sha256"].items():
        print(f"  sha256 {name}: {digest}")
    for problem in record["problems"][:20]:
        print(f"  PROBLEM: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=55)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not _paths_ok():
        print(f"satloop sources not found under {SRC}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workload {unknown[0]!r}; choose from {', '.join(WORKLOADS)} "
              f"or all", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("--seconds must be at least 1", file=sys.stderr)
        return 2
    reference = json.loads(REFERENCE.read_text(encoding="utf-8")) if REFERENCE.exists() else {}
    results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, args.trace, reference)
               for n in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{n}.{k}": v for n, r in results.items()
                             for k, v in r["metrics"].items()}}
    print(json.dumps(final, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""CLI entry point and result emission.

Verbs map one-to-one onto the study's result families: `single-loop` (LQR
cost per bandwidth-allocation scheme), `multi-loop` (power sweep and
per-robot allocation), `contour` (LQR over power x compute budgets), and
`validate`. CSV files are the contract; every output starts with a metadata
block sufficient to re-run it exactly, and identical runs are byte-identical.

Exit codes: 0 ok, 2 validation error, 3 solver non-convergence, 4 I/O.
"""
import argparse
import bisect
import dataclasses
import functools
import hashlib
import math
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from . import __version__, svgplot
from .control import NonConvergentError
from .optimize import (MultiLoopProblem, MultiLoopScheme, SingleLoopObjective,
                       descends_one_start, predicted_start, solve_multi_loop,
                       solve_single_loop, sweep_contour)
from .pipeline import NoBudgetError
from .scenario import (ParseError, Scenario, ScenarioError, default_scenario,
                       dump_scenario, load_scenario, provenance_map)

_SINGLE_SCHEMES = (
    ("task_oriented", SingleLoopObjective.TASK_ORIENTED),
    ("min_latency", SingleLoopObjective.MIN_LATENCY),
    ("max_throughput", SingleLoopObjective.MAX_THROUGHPUT),
)
_MULTI_SCHEMES = ("task_oriented", "max_throughput", "compute_only")  # CSV column order


@dataclass(frozen=True)
class RunRecord:
    """Reproducibility record for one CLI invocation."""
    scenario_hash: str
    wall_clock_s: float
    converged: bool


def scenario_hash(scn: Scenario) -> str:
    return hashlib.sha256(dump_scenario(scn).encode("utf-8")).hexdigest()


def _num(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


_PROVENANCE = provenance_map()


def _csv(scn: Scenario, digest: str, header, rows) -> str:
    """The metadata block, then the header and each row, every cell through _num."""
    lines = [f"# satloop {__version__}",
             f"# scenario_hash = {digest}",
             f"# seed = {scn.seed}"]
    for path, value in scn.flat_items():
        lines.append(f"# param {path} = {_num(value)} [{_PROVENANCE[path]}]")
    lines += [",".join(_num(v) for v in row) for row in [header, *rows]]
    return "\n".join(lines) + "\n"


def _write(path: Path, text: str) -> None:
    """Write text as UTF-8 over path in place, then cut what is left of a longer
    old file: no truncate to zero, after which ext4 (auto_da_alloc) flushes at close."""
    data = text.encode("utf-8")
    try:
        if not os.path.isdir(path.parent):
            path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0), 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise _IoFailure(f"cannot write {path}: {exc}") from exc


class _IoFailure(RuntimeError):
    pass


def cmd_single_loop(scn: Scenario, out_dir: Path, fmt: str = "csv+svg") -> RunRecord:
    """Solve all three bandwidth-split schemes and emit CSV (+ bar chart)."""
    started = time.perf_counter()
    digest = scenario_hash(scn)
    rows = []
    converged = True
    # one problem (and one validated Plant) serves all three objectives
    base = scn.single_loop_problem(_SINGLE_SCHEMES[0][1])
    for name, objective in _SINGLE_SCHEMES:
        result = solve_single_loop(dataclasses.replace(base, objective=objective))
        outcome = result.per_loop_outcomes[0]
        converged = converged and result.solver_trace.converged
        rows.append([
            name,
            result.decision["bandwidth_up_hz"],
            result.decision["bandwidth_down_hz"],
            outcome.uplink_rate_bps,
            outcome.downlink_rate_bps,
            outcome.t_up_s,
            outcome.t_comp_s,
            outcome.t_down_s,
            outcome.effective_bits_per_cycle,
            outcome.cner_bps,
            outcome.lqr_cost,
        ])
    header = ("scheme,bandwidth_up_hz,bandwidth_down_hz,uplink_rate_bps,downlink_rate_bps,"
              "t_up_s,t_comp_s,t_down_s,effective_bits,cner_bps,lqr_cost").split(",")
    _write(out_dir / "single_loop.csv", _csv(scn, digest, header, rows))
    if fmt == "csv+svg":
        values = [r[-1] for r in rows]
        svg = svgplot.bar_chart([r[0] for r in rows], values,
                                "Closed-loop cost by bandwidth allocation scheme",
                                "LQR cost")
        _write(out_dir / "single_loop_lqr.svg", svg)
    return RunRecord(digest, time.perf_counter() - started, converged)


def _solve_schemes(problem: MultiLoopProblem, compute_only_starts=(),
                   task_oriented_starts=()) -> dict:
    """Scheme name -> result on the problem's robots and totals. The
    baselines are solved first; the task-oriented scheme starts also from
    their decisions and then from task_oriented_starts, and the compute-only
    scheme also from compute_only_starts."""
    results = {
        "max_throughput": solve_multi_loop(
            dataclasses.replace(problem, scheme=MultiLoopScheme.MAX_THROUGHPUT_JOINT)),
        "compute_only": solve_multi_loop(
            dataclasses.replace(problem, scheme=MultiLoopScheme.COMPUTE_ONLY_EQUAL_COMM),
            extra_starts=compute_only_starts),
    }
    results["task_oriented"] = solve_multi_loop(
        dataclasses.replace(problem, scheme=MultiLoopScheme.TASK_ORIENTED_JOINT),
        extra_starts=[r.decision for r in results.values()] + list(task_oriented_starts))
    return results


def cmd_multi_loop(scn: Scenario, out_dir: Path, fmt: str = "csv+svg") -> RunRecord:
    """Power sweep per scheme plus per-robot allocation at the detail point.

    The sweep runs in ascending power and the detail point (the scenario's
    allocation_power_w) last, each solve through this module's
    solve_multi_loop. Each sweep point after the first starts its
    compute-only solve also from the previous point's decision. When every
    plant is unstable (descends_one_start) the starts add numerical
    continuation: the task-oriented solve after the first point starts also
    from the previous point's budget shares, and from the third point on
    both projected-gradient schemes start also from the secant prediction of
    the previous two points' shares (optimize.predicted_start). The detail
    point starts its two schemes from the shares interpolated between the
    sweep points around its total, or from the nearest end point's outside
    the sweep, and its compute-only solve also from the last point's.
    """
    started = time.perf_counter()
    digest = scenario_hash(scn)
    names = _MULTI_SCHEMES
    # one problem at the allocation (detail) point; every solve varies only
    # its power total and its scheme, and the detail point is solved last
    base = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT)
    sweep = scn.power_sweep_w().tolist()
    f_tot = base.total_compute_cps
    # the unchanged compute budget keeps the previous compute-only decision
    # feasible. Where only the lowest start descends (every plant unstable),
    # a predicted start can only lower the start a solve descends from;
    # where every start descends, one more start only adds work.
    predict = descends_one_start(base)

    def predicted(name, weights, total):
        """predicted_start at the total from the scheme's solved sweep points
        {index: weight}, as a list of no or one start."""
        start = predicted_start([(w, solves[i][name].decision, sweep[i], f_tot)
                                 for i, w in weights.items()], total, f_tot)
        return [] if start is None else [start]

    solves = []
    for k, total in enumerate(sweep):
        compute_warm, task_warm = [], []
        if k:
            previous = solves[-1]
            compute_warm.append(previous["compute_only"].decision)
            # a ratio past the float range (after a subnormal total) starts cold
            scale = total / sweep[k - 1]
            if predict and scale < math.inf:
                shares = previous["task_oriented"].decision
                task_warm.append({"power_w": shares["power_w"] * scale,
                                  "compute_cps": shares["compute_cps"]})
        if predict and k >= 2:  # the secant (1 + t) z_{k-1} - t z_{k-2}
            gap = sweep[k - 1] - sweep[k - 2]
            t = (total - sweep[k - 1]) / gap if gap > 0.0 else math.inf
            secant = {k - 1: 1.0 + t, k - 2: -t}
            compute_warm += predicted("compute_only", secant, total)
            task_warm += predicted("task_oriented", secant, total)
        solves.append(_solve_schemes(dataclasses.replace(base, total_power_w=total),
                                     compute_warm, task_warm))
    detail_compute, detail_task = [solves[-1]["compute_only"].decision], []
    if predict:
        # (1 - frac) z_a + frac z_{a+1} between the sweep points around the
        # detail total, else the nearest end point's shares
        power = base.total_power_w
        a = max(bisect.bisect_right(sweep, power) - 1, 0)
        if sweep[a] <= power and a + 1 < len(sweep):
            frac = (power - sweep[a]) / (sweep[a + 1] - sweep[a])
            weights = {a: 1.0 - frac, a + 1: frac}
        else:
            weights = {a: 1.0}
        detail_compute += predicted("compute_only", weights, power)
        detail_task += predicted("task_oriented", weights, power)
    detail = _solve_schemes(base, detail_compute, detail_task)
    converged = all(r.solver_trace.converged for s in solves + [detail] for r in s.values())

    columns = {name: [s[name].lqr_total for s in solves] for name in names}
    _write(out_dir / "multi_loop_sweep.csv", _csv(
        scn, digest, ["total_power_w"] + [f"lqr_{name}" for name in names],
        [[float(p)] + [s[name].lqr_total for name in names] for p, s in zip(sweep, solves)]))

    elevations = [robot.downlink.geometry.elevation_deg for robot in base.robots]
    powers = {name: [float(p) for p in detail[name].decision["power_w"]] for name in names}
    _write(out_dir / "multi_loop_allocation.csv", _csv(
        scn, digest, ["robot", "elevation_deg"] + [f"power_{name}_w" for name in names],
        [[i + 1, elev] + [powers[name][i] for name in names]
         for i, elev in enumerate(elevations)]))

    if fmt == "csv+svg":
        series = [(name, columns[name]) for name in names]
        svg = svgplot.line_chart(list(sweep), series,
                                 "Total LQR cost vs downlink power budget",
                                 "total power (W)", "total LQR cost")
        _write(out_dir / "multi_loop_sweep.svg", svg)
        groups = [f"robot {i + 1}" for i in range(len(elevations))]
        bars = [(name, powers[name]) for name in names]
        svg2 = svgplot.grouped_bar_chart(groups, bars,
                                         f"Per-robot power at {base.total_power_w:g} W total",
                                         "power (W)")
        _write(out_dir / "multi_loop_allocation.svg", svg2)
    return RunRecord(digest, time.perf_counter() - started, converged)


def cmd_contour(scn: Scenario, out_dir: Path, fmt: str = "csv+svg") -> RunRecord:
    """Task-oriented LQR total over the scenario's power x compute grids."""
    started = time.perf_counter()
    digest = scenario_hash(scn)
    power_grid, compute_grid = scn.contour_grids()
    problem = scn.multi_loop_problem(MultiLoopScheme.TASK_ORIENTED_JOINT)
    traces = []
    matrix = sweep_contour(problem, power_grid, compute_grid, trace_out=traces)
    converged = all(t.converged for t in traces)

    _write(out_dir / "contour.csv", _csv(
        scn, digest, ["power_w"] + [float(c) for c in compute_grid],
        [[float(p)] + [float(v) for v in row] for p, row in zip(power_grid, matrix)]))

    if fmt == "csv+svg":
        svg = svgplot.heatmap(list(power_grid), list(compute_grid),
                              [list(row) for row in matrix],
                              "Total LQR cost over power x compute budgets",
                              "compute budget (cycles/s)", "power budget (W)")
        _write(out_dir / "contour.svg", svg)
    return RunRecord(digest, time.perf_counter() - started, converged)


def _load_from_args(args) -> Scenario:
    if args.scenario is None:
        scn = default_scenario()
    else:
        try:
            with open(args.scenario, "rb") as f:
                text = f.read().decode("utf-8")
        except OSError as exc:
            raise _IoFailure(f"cannot read {args.scenario}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise ParseError(f"{args.scenario}: not UTF-8 text ({exc})") from exc
        scn = load_scenario(text)
    if args.seed is not None:
        scn = scn.with_seed(args.seed)
    return scn


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="satloop",
        description="Closed-loop satellite link resource allocation toolkit")
    source = argparse.ArgumentParser(add_help=False)  # the scenario a verb runs
    source.add_argument("--scenario", help="scenario YAML file (default: built-in baseline)")
    source.add_argument("--seed", type=int, help="override the scenario seed")
    common = argparse.ArgumentParser(add_help=False, parents=[source])
    common.add_argument("--out", default="out", help="output directory")
    common.add_argument("--format", choices=("csv", "csv+svg"), default="csv+svg")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("single-loop", parents=[common],
                   help="bandwidth split under three objectives")
    sub.add_parser("multi-loop", parents=[common],
                   help="joint power/compute allocation across robots")
    sub.add_parser("contour", parents=[common],
                   help="LQR cost over power x compute budget grids")
    sub.add_parser("validate", parents=[source], help="check a scenario and print it resolved")
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        scn = _load_from_args(args)
        if args.command == "validate":
            sys.stdout.write(dump_scenario(scn))
            return 0
        runner = {"single-loop": cmd_single_loop,
                  "multi-loop": cmd_multi_loop,
                  "contour": cmd_contour}[args.command]
        record = runner(scn, Path(args.out), fmt=args.format)
    except (ScenarioError, NoBudgetError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except NonConvergentError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 3
    except _IoFailure as exc:
        print(str(exc), file=sys.stderr)
        return 4
    print(f"{args.command}: scenario {record.scenario_hash[:12]} "
          f"done in {record.wall_clock_s:.2f}s -> {args.out}")
    if not record.converged:
        print("warning: at least one solve did not converge", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

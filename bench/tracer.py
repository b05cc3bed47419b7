"""In-memory span tracer that wraps satloop's public functions from outside.

A traced run replaces each function in `TARGETS` by a wrapper that records
one span (name, start, end, parent) per call and, for a few functions, adds
to named counters from the call's arguments or result. Every name under
which satloop code looks the function up is patched with the same wrapper
(`report` from-imports `solve_multi_loop`, while `sweep_contour` calls it as
a module global), so no call site escapes; `coverage_check` proves that
against cProfile. Nothing inside `src/satloop` changes.

A span's self time is its duration minus the part of its interval covered by
its child spans; a layer's self time is the sum over the layer's spans.
"""
import contextlib
import cProfile
import importlib
import inspect
import pstats
import time
from array import array
from collections import Counter

MODULES = ("satloop", "satloop.control", "satloop.linkgeom", "satloop.pipeline",
           "satloop.optimize", "satloop.scenario", "satloop.report", "satloop.svgplot")


def _rows(args, kwargs, result, counters):
    evaluator, power = args[0], args[1]
    counters["optimize.total_cost.rows"] += power.size // evaluator.n


def _pgd(args, kwargs, result, counters):
    counters["optimize.pgd_runs"] += 1
    counters["optimize.pgd_iterations"] += result.iterations


def _multi_solve(args, kwargs, result, counters):
    trace = result.solver_trace
    if trace.restarts <= 1:
        return
    counters["optimize.restarts"] += trace.restarts
    counters["optimize.multi_start_solves"] += 1
    # Start order is fixed by the solver: the task-oriented scheme tries the
    # equal split, water-filled power and the callers' extra starts before its
    # seeded random points; the compute-only scheme tries the equal split only.
    if trace.method == "projected_gradient":
        deterministic = 2 + len(kwargs.get("extra_starts", ()))
    else:
        deterministic = 1
    if trace.best_restart >= deterministic:
        counters["optimize.random_restart_wins"] += 1


def _single_solve(args, kwargs, result, counters):
    counters["optimize.golden_evals"] += result.solver_trace.iterations
    counters["optimize.dense_grid_fallbacks"] += int(result.solver_trace.fallback_dense_grid)


def _bytes(args, kwargs, result, counters):
    counters["report.bytes_written"] += len(args[1].encode("utf-8"))


# (module, attribute path, layer, record a span, counter hook). Spans sit at
# layer boundaries -- functions other layers call -- plus the optimize kernels
# and the Riccati solve whose counts and self time are reported on their own.
# Helpers called only from inside their own layer (snr, fspl_db, ...) get no
# span: their time is part of the calling span's self time.
TARGETS = (
    ("satloop.report", "main", "report", True, None),
    ("satloop.report", "cmd_single_loop", "report", True, None),
    ("satloop.report", "cmd_multi_loop", "report", True, None),
    ("satloop.report", "cmd_contour", "report", True, None),
    ("satloop.report", "_write", "report", False, _bytes),
    ("satloop.scenario", "load_scenario", "scenario", True, None),
    ("satloop.scenario", "dump_scenario", "scenario", True, None),
    ("satloop.scenario", "default_scenario", "scenario", True, None),
    ("satloop.scenario", "Scenario.with_seed", "scenario", True, None),
    ("satloop.scenario", "Scenario.single_loop_problem", "scenario", True, None),
    ("satloop.scenario", "Scenario.multi_loop_problem", "scenario", True, None),
    ("satloop.scenario", "Scenario.robot_elevations", "scenario", True, None),
    ("satloop.optimize", "solve_single_loop", "optimize", True, _single_solve),
    ("satloop.optimize", "solve_multi_loop", "optimize", True, _multi_solve),
    ("satloop.optimize", "sweep_contour", "optimize", True, None),
    ("satloop.optimize", "JointEvaluator.total_cost", "optimize", True, _rows),
    ("satloop.optimize", "project_capped_simplex", "optimize", True, None),
    ("satloop.optimize", "water_fill_power", "optimize", True, None),
    ("satloop.optimize", "_projected_gradient", "optimize", False, _pgd),
    ("satloop.control", "RateCostModel.from_plant", "control", True, None),
    ("satloop.control", "dare_solve", "control", True, None),
    ("satloop.control", "lqr_cost", "control", True, None),
    ("satloop.control", "is_stabilizable_at", "control", True, None),
    ("satloop.control", "cner_bps", "control", True, None),
    ("satloop.pipeline", "evaluate_cycle", "pipeline", True, None),
    ("satloop.pipeline", "balanced_times", "pipeline", True, None),
    ("satloop.pipeline", "propagation_delay_s", "pipeline", True, None),
    ("satloop.linkgeom", "shannon_rate_bps", "linkgeom", True, None),
    ("satloop.linkgeom", "received_power_w", "linkgeom", True, None),
    ("satloop.linkgeom", "slant_range_m", "linkgeom", True, None),
    ("satloop.linkgeom", "LinkParams.with_bandwidth", "linkgeom", True, None),
    ("satloop.svgplot", "bar_chart", "svgplot", True, None),
    ("satloop.svgplot", "line_chart", "svgplot", True, None),
    ("satloop.svgplot", "grouped_bar_chart", "svgplot", True, None),
    ("satloop.svgplot", "heatmap", "svgplot", True, None),
)


def self_time(start: float, end: float, children) -> float:
    """Duration of [start, end] not covered by any child interval.

    Children may overlap each other or stick out of the parent; only the
    union of their parts inside [start, end] is subtracted.
    """
    covered = 0.0
    reach = start
    for c_start, c_end in sorted(children):
        c_start, c_end = max(c_start, reach), min(c_end, end)
        if c_end > c_start:
            covered += c_end - c_start
            reach = c_end
    return (end - start) - covered


class Tracer:
    """Spans and counters of one traced pass, kept in memory.

    Span k occupies records[4k:4k+4] as (name id, parent offset, start, end);
    the parent offset is -1 for a span with no enclosing span.
    """

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.records = array("d")
        self.calls = Counter()
        self.counters = Counter()
        self._stack = [-1]

    def wrap(self, fn, name: str, layer: str, span: bool, hook):
        self.names.append(name)
        self.layer_of.append(layer)
        nid = len(self.names) - 1
        stack, calls, counters, records = self._stack, self.calls, self.counters, self.records
        clock = time.perf_counter

        if not span:
            def counted(*args, **kwargs):
                calls[name] += 1
                result = fn(*args, **kwargs)
                hook(args, kwargs, result, counters)
                return result
            return counted

        def spanned(*args, **kwargs):
            calls[name] += 1
            offset = len(records)
            records.extend((nid, stack[-1], 0.0, 0.0))
            stack.append(offset)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                records[offset + 3] = clock()
                records[offset + 2] = t0
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result, counters)
            return result
        return spanned

    def spans(self):
        """(name, parent span index or -1, start, end) per span, in call order."""
        rec = self.records
        for k in range(0, len(rec), 4):
            parent = int(rec[k + 1])
            yield (self.names[int(rec[k])], parent // 4 if parent >= 0 else -1,
                   rec[k + 2], rec[k + 3])

    def self_times(self) -> dict:
        """Self time in seconds summed per span name."""
        spans = list(self.spans())
        children = {}
        for _, parent, start, end in spans:
            if parent >= 0:
                children.setdefault(parent, []).append((start, end))
        out = Counter()
        for idx, (name, _, start, end) in enumerate(spans):
            out[name] += self_time(start, end, children.get(idx, ()))
        return out

    def layer_self_times(self) -> dict:
        layer = dict(zip(self.names, self.layer_of))
        out = Counter()
        for name, value in self.self_times().items():
            out[layer[name]] += value
        return out

    def write_spans(self, path) -> None:
        """Spans as CSV rows: index, parent index, name, start, end (seconds
        from the first span's start)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,parent,name,start_s,end_s\n")
            t0 = self.records[2] if self.records else 0.0
            for idx, (name, parent, start, end) in enumerate(self.spans()):
                fh.write(f"{idx},{parent},{name},{start - t0:.9f},{end - t0:.9f}\n")


def _resolve(module_name: str, path: str):
    """(owner, attribute, original function, kind) for a TARGETS entry."""
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    raw = inspect.getattr_static(owner, attr)
    if isinstance(raw, classmethod):
        return owner, attr, raw.__func__, "classmethod"
    return owner, attr, raw, "plain"


def _aliases(fn):
    """Every (module, name) in satloop that holds `fn` itself."""
    out = []
    for module_name in MODULES:
        module = importlib.import_module(module_name)
        for name, value in vars(module).items():
            if value is fn:
                out.append((module, name))
    return out


def originals() -> dict:
    """Span name -> the unwrapped function object, for coverage checks."""
    return {f"{mod.split('.')[-1]}.{path}": _resolve(mod, path)[2]
            for mod, path, *_ in TARGETS}


@contextlib.contextmanager
def traced(tracer: Tracer):
    """Patch every target (and each alias of it) for the duration of the block."""
    saved = []
    try:
        for module_name, path, layer, span, hook in TARGETS:
            name = f"{module_name.split('.')[-1]}.{path}"
            owner, attr, fn, kind = _resolve(module_name, path)
            wrapper = tracer.wrap(fn, name, layer, span, hook)
            if kind == "classmethod":
                saved.append((owner, attr, owner.__dict__[attr]))
                setattr(owner, attr, classmethod(wrapper))
                continue
            places = [(owner, attr)] if inspect.isclass(owner) else _aliases(fn)
            for place_owner, place_attr in places:
                saved.append((place_owner, place_attr, getattr(place_owner, place_attr)))
                setattr(place_owner, place_attr, wrapper)
        yield tracer
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


def coverage_check(run_once) -> tuple:
    """Run `run_once()` traced and under cProfile; compare call counts.

    Returns ({span name: wrapper calls} for every target, a message per
    target whose count differs from cProfile's). Equal counts prove that
    every call of the function went through its wrapper.
    """
    tracer = Tracer()
    profiler = cProfile.Profile()
    with traced(tracer):
        profiler.enable()
        try:
            run_once()
        finally:
            profiler.disable()
    by_code = {key: ncalls for key, (_, ncalls, *_) in pstats.Stats(profiler).stats.items()}
    counts, mismatches = {}, []
    for name, fn in originals().items():
        code = fn.__code__
        profiled = by_code.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        counts[name] = tracer.calls[name]
        if counts[name] != profiled:
            mismatches.append(f"{name}: wrapper counted {counts[name]}, "
                              f"cProfile {profiled}")
    return counts, mismatches

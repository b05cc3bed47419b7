"""The benchmark's three workloads: inputs, one timed pass, output checks.

Each workload is a closed loop with one caller: satloop runs in this process
on one thread, and the next item starts when the previous one returns. A
pass is one complete unit of user-visible work (one CLI verb invocation, or
one sweep over the generated document batch); a run repeats passes. Before
every item a pass runs the host-speed probe (speed.py) and records its time
with the item; probe time is in neither the item's latency nor the pass's
wall time.

Why these three:

* multi-loop-baseline -- the paper's power sweep (`satloop multi-loop` on the
  built-in baseline): 5 robots x 20 power points x 3 schemes, 63 solves and
  420 projected-gradient runs per pass. Nearly all time is in `optimize`; it
  shows PGD, objective and projection changes.
* contour-grid -- `satloop contour` on the baseline budget ranges with a 6x6
  power x compute grid (about 6 s per pass here; the default 20x20 takes
  about 44 s). The only workload that runs `sweep_contour`: warm starts from
  neighbouring cells, 6 restarts, no baseline schemes.
* single-loop-scenarios -- `satloop single-loop` once per document over a
  seeded batch of generated scenarios. No PGD; time is spread over
  `scenario`, `report`, `pipeline`, `control` and `linkgeom`, so it is the
  guard that a change aimed at PGD costs nothing elsewhere.

The two PGD workloads keep the baseline's own seed (1) whatever the
benchmark seed: satloop's seed also draws the robots' elevations, and those
change the PGD work per pass twofold (one multi-loop pass took 11.9 s at
seed 1 and 5.4 s at seed 14), far more than any bound on wall time allows.
Only the generated single-loop documents depend on the benchmark seed.
"""
import contextlib
import hashlib
import io
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from bench import speed

# Penalized LQR totals start at the solvers' infeasibility penalty.
INFEASIBLE_AT = 1e9
# Acceptance criteria 6 and 8 compare costs with this absolute slack.
ORDER_ABS_TOL = 1e-12
# The single-loop solver's relative tolerance (acceptance criterion 9).
SINGLE_REL_TOL = 1e-6
# Reference agreement for joint solves (acceptance criterion 9).
JOINT_REL_TOL = 1e-3

# The built-in baseline scenario's seed.
BASELINE_SEED = 1
CONTOUR_POINTS = 6
SINGLE_LOOP_DOCS = 100
# One document in STARVED_EVERY gets a starved link so that the data-rate
# threshold makes its task-oriented loop infeasible.
STARVED_EVERY = 8

# Parameter ranges of the generated single-loop documents, all inside the
# schema's valid ranges. They keep every regular document at least about three
# bits per cycle above its data-rate threshold, so the LQR cost stays near
# its full-information value instead of blowing up at the threshold.
SINGLE_LOOP_RANGES = (
    (("plant", "a"), 0.5, 2.0),
    (("links", "uplink", "tx_power_w"), 0.1, 0.4),
    (("links", "uplink", "elevation_deg"), 40.0, 90.0),
    (("links", "downlink", "tx_power_w"), 10.0, 40.0),
    (("links", "downlink", "elevation_deg"), 40.0, 90.0),
    (("budget", "extraction_ratio"), 0.001, 0.003),
    (("budget", "compute_gcps"), 5.0, 20.0),
    (("single_loop", "total_bandwidth_hz"), 30000.0, 80000.0),
)
STARVED_RANGES = (
    (("plant", "a"), 1.5, 2.0),
    (("single_loop", "total_bandwidth_hz"), 300.0, 600.0),
)

SETUP_CHILD = Path(__file__).with_name("setup_child.py")

# Each item counts with this quantile of its speed-adjusted latencies over a
# run's passes (run.py). Slow stretches that the speed probe does not feel
# hit some passes of a run; a low quantile keeps them out while most passes
# escape them. With the twenty passes of a single-loop run the lower quartile
# does that best; with the handful of passes of a PGD run it is nearly the
# minimum, which moves with one lucky pass, and the median spreads less.
MANY_PASSES_QUANTILE = 0.25
FEW_PASSES_QUANTILE = 0.5


@dataclass
class Item:
    latency_s: float
    failed: bool = False
    # time of the host-speed probe run just before the item (bench/speed.py)
    probe_s: float = 0.0


@dataclass
class PassResult:
    wall_s: float
    items: list
    task_values: list = field(default_factory=list)
    csv_sha256: dict = field(default_factory=dict)
    problems: list = field(default_factory=list)
    outputs: dict = field(default_factory=dict)

    def fail_all(self, reason: str) -> None:
        self.problems.append(reason)
        if not self.items:
            # no item ran, so no probe either: count the pass at reference speed
            self.items.append(Item(self.wall_s, probe_s=speed.REFERENCE_S))
        for item in self.items:
            item.failed = True


def is_infeasible(value: float) -> bool:
    return not math.isfinite(value) or value >= INFEASIBLE_AT


def read_csv(path: Path):
    """(header, rows of cells) from a satloop CSV, skipping the # metadata."""
    lines = [ln for ln in path.read_text(encoding="utf-8").splitlines()
             if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _cli(argv) -> tuple:
    """Run the satloop CLI in-process; (exit code, captured stdout+stderr)."""
    from satloop import report
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = report.main([str(a) for a in argv])
    return code, buf.getvalue()


@contextlib.contextmanager
def timed_items(owner, attr: str, items: list, tags: list):
    """Time every call of owner.attr as one item, after a host-speed probe;
    a solve that reports converged=False or raises is a failed item."""
    fn = getattr(owner, attr)

    def timed(*args, **kwargs):
        probe_s = speed.probe()
        t0 = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            items.append(Item(time.perf_counter() - t0, failed=True, probe_s=probe_s))
            tags.append(None)
            raise
        items.append(Item(time.perf_counter() - t0,
                          failed=not result.solver_trace.converged, probe_s=probe_s))
        tags.append(args[0].scheme.value)
        return result

    setattr(owner, attr, timed)
    try:
        yield
    finally:
        setattr(owner, attr, fn)


def _probe_free(t0: float, items: list) -> float:
    """Seconds since t0, less the probes taken before the items."""
    return time.perf_counter() - t0 - sum(item.probe_s for item in items)


def _run_cli_pass(argv, owner, attr) -> tuple:
    items, tags = [], []
    t0 = time.perf_counter()
    try:
        with timed_items(owner, attr, items, tags):
            code, log = _cli(argv)
    except Exception as exc:  # any traceback is a failed pass, not a crash
        result = PassResult(_probe_free(t0, items), items)
        result.fail_all(f"exception: {type(exc).__name__}: {exc}")
        return result, tags
    result = PassResult(_probe_free(t0, items), items)
    if code != 0:
        result.fail_all(f"exit code {code}: {log.strip()[-300:]}")
    return result, tags


def _close(value: float, ref, rel: float) -> bool:
    if ref is None:
        return is_infeasible(value)
    if is_infeasible(value) or is_infeasible(ref):
        return is_infeasible(value) == is_infeasible(ref)
    return abs(value - ref) <= rel * max(abs(ref), 1e-300)


def _floats(rows):
    return [[float(v) for v in row] for row in rows]


def _json_floats(matrix):
    """Infinite entries become None so the values fit in JSON."""
    return [[v if math.isfinite(v) else None for v in row] for row in matrix]


class MultiLoopBaseline:
    name = "multi-loop-baseline"
    why = ("paper power sweep: 63 solves and 420 PGD runs per pass, time almost "
           "all in optimize")
    min_passes = 3
    quantile = FEW_PASSES_QUANTILE
    setup_kind = "multi"
    rel_tol = JOINT_REL_TOL

    def prepare(self, seed: int, inputs: Path) -> dict:
        return {"inputs_seed": BASELINE_SEED, "scenario": None}

    def run_pass(self, ctx: dict, out: Path) -> PassResult:
        from satloop import report
        argv = ["multi-loop", "--out", out]
        result, tags = _run_cli_pass(argv, report, "solve_multi_loop")
        if result.problems:
            return result
        _, sweep = read_csv(out / "multi_loop_sweep.csv")
        _, alloc = read_csv(out / "multi_loop_allocation.csv")
        sweep, alloc = _floats(sweep), _floats(alloc)
        task_items = [item for item, tag in zip(result.items, tags)
                      if tag == "task_oriented_joint"]
        for row, item in zip(sweep, task_items):
            _, task, max_t, comp = row
            if task > max_t + ORDER_ABS_TOL or task > comp + ORDER_ABS_TOL:
                item.failed = True
                result.problems.append(f"task-oriented not lowest at {row[0]} W")
        result.task_values = [row[1] for row in sweep]
        result.csv_sha256 = {name: sha256_file(out / name) for name in
                             ("multi_loop_sweep.csv", "multi_loop_allocation.csv")}
        result.outputs = {"sweep": _json_floats(sweep), "allocation": _json_floats(alloc)}
        return result


class ContourGrid:
    name = "contour-grid"
    why = ("6x6 budget contour: the only workload that runs sweep_contour warm "
           "starts and random restarts")
    min_passes = 3
    quantile = FEW_PASSES_QUANTILE
    setup_kind = "multi"
    rel_tol = JOINT_REL_TOL

    def prepare(self, seed: int, inputs: Path) -> dict:
        inputs.mkdir(parents=True, exist_ok=True)
        path = inputs / "contour.yaml"
        path.write_text(f"name: bench-contour\ncontour:\n"
                        f"  power_points: {CONTOUR_POINTS}\n"
                        f"  compute_points: {CONTOUR_POINTS}\n", encoding="utf-8")
        return {"inputs_seed": BASELINE_SEED, "scenario": path}

    def run_pass(self, ctx: dict, out: Path) -> PassResult:
        from satloop import optimize
        argv = ["contour", "--scenario", ctx["scenario"], "--out", out]
        # sweep_contour looks solve_multi_loop up as a module global
        result, _ = _run_cli_pass(argv, optimize, "solve_multi_loop")
        if result.problems:
            return result
        _, rows = read_csv(out / "contour.csv")
        matrix = [row[1:] for row in _floats(rows)]
        n_cols = len(matrix[0])
        if len(result.items) != len(matrix) * n_cols:
            result.fail_all(f"{len(result.items)} solves for {len(matrix)}x{n_cols} cells")
            return result
        # criterion 8: non-increasing along both budget axes; cells are
        # solved in row-major order, so cell (i, j) is item i * n_cols + j
        for i, row in enumerate(matrix):
            for j, value in enumerate(row):
                worse = ((i > 0 and value > matrix[i - 1][j] + ORDER_ABS_TOL)
                         or (j > 0 and value > row[j - 1] + ORDER_ABS_TOL))
                if worse:
                    result.items[i * n_cols + j].failed = True
                    result.problems.append(f"contour cell ({i}, {j}) increases")
        result.task_values = [v for row in matrix for v in row]
        result.csv_sha256 = {"contour.csv": sha256_file(out / "contour.csv")}
        result.outputs = {"matrix": _json_floats(matrix)}
        return result


def _latin_hypercube(rng: random.Random, ranges, count: int) -> list:
    """count dicts of key -> value, one value per stratum of each range."""
    rows = [{} for _ in range(count)]
    for key, lo, hi in ranges:
        strata = list(range(count))
        rng.shuffle(strata)
        for row, stratum in zip(rows, strata):
            row[key] = lo + (hi - lo) * (stratum + rng.random()) / count
    return rows


def generate_documents(seed: int, count: int = SINGLE_LOOP_DOCS) -> list:
    """Seeded single-loop scenario documents as YAML text.

    Regular and starved documents are each Latin-hypercube sampled (one
    value per stratum of every range, strata shuffled), so a batch covers its
    ranges evenly whatever the seed. Values are written in fixed-point
    notation (PyYAML reads 1e-3 as a string), so the same seed gives
    byte-identical documents.
    """
    rng = random.Random(seed)
    n_starved = count // STARVED_EVERY
    regular = iter(_latin_hypercube(rng, SINGLE_LOOP_RANGES, count - n_starved))
    starved_ranges = dict((key, (lo, hi)) for key, lo, hi in SINGLE_LOOP_RANGES)
    starved_ranges.update((key, (lo, hi)) for key, lo, hi in STARVED_RANGES)
    starved = iter(_latin_hypercube(
        rng, [(key, lo, hi) for key, (lo, hi) in starved_ranges.items()], n_starved))
    docs = []
    for k in range(count):
        values = next(starved) if k % STARVED_EVERY == STARVED_EVERY - 1 else next(regular)
        tree = {}
        for key, value in values.items():
            node = tree
            for part in key[:-1]:
                node = node.setdefault(part, {})
            node[key[-1]] = value
        lines = [f"name: bench-single-{seed}-{k:03d}", f"seed: {seed}"]

        def emit(node, indent):
            for name in sorted(node):
                value = node[name]
                if isinstance(value, dict):
                    lines.append(f"{indent}{name}:")
                    emit(value, indent + "  ")
                else:
                    lines.append(f"{indent}{name}: {value:.9f}")

        emit(tree, "")
        docs.append("\n".join(lines) + "\n")
    return docs


class SingleLoopScenarios:
    name = "single-loop-scenarios"
    why = ("satloop single-loop on 100 generated documents: no PGD, time spread "
           "over scenario, report, pipeline, control and linkgeom")
    min_passes = 2
    quantile = MANY_PASSES_QUANTILE
    setup_kind = "single"
    rel_tol = SINGLE_REL_TOL

    def prepare(self, seed: int, inputs: Path) -> dict:
        inputs.mkdir(parents=True, exist_ok=True)
        paths = []
        for k, text in enumerate(generate_documents(seed)):
            path = inputs / f"doc{k:03d}.yaml"
            path.write_text(text, encoding="utf-8")
            paths.append(path)
        return {"inputs_seed": seed, "scenario": paths[0], "documents": paths}

    def run_pass(self, ctx: dict, out: Path) -> PassResult:
        result = PassResult(0.0, [])
        written = []
        started = time.perf_counter()
        for k, doc in enumerate(ctx["documents"]):
            doc_out = out / f"doc{k:03d}"
            probe_s = speed.probe()
            t0 = time.perf_counter()
            try:
                code, log = _cli(["single-loop", "--scenario", doc, "--out", doc_out])
            except Exception as exc:  # a traceback fails this document only
                code, log = -1, f"{type(exc).__name__}: {exc}"
            item = Item(time.perf_counter() - t0, probe_s=probe_s)
            result.items.append(item)
            if code != 0:
                item.failed = True
                result.problems.append(f"{doc.name}: exit {code}: {log.strip()[-200:]}")
            else:
                written.append((doc, item, doc_out / "single_loop.csv"))
        # the pass's wall time covers the CLI calls only: not the probes, and
        # not the checks below
        result.wall_s = _probe_free(started, result.items)
        rows_out, digests = [], []
        for doc, item, csv_path in written:
            header, rows = read_csv(csv_path)
            col = header.index("lqr_cost")
            cost = {row[0]: float(row[col]) for row in rows}
            task = cost["task_oriented"]
            for other in ("min_latency", "max_throughput"):
                bound = cost[other]
                if task > bound + SINGLE_REL_TOL * abs(bound):
                    item.failed = True
                    result.problems.append(f"{doc.name}: task-oriented above {other}")
            result.task_values.append(task)
            rows_out.append([task, cost["min_latency"], cost["max_throughput"]])
            digests.append(sha256_file(csv_path))
        combined = hashlib.sha256("".join(digests).encode("ascii")).hexdigest()
        result.csv_sha256 = {"single_loop.csv (all documents)": combined}
        result.outputs = {"lqr": _json_floats(rows_out)}
        return result


def compare_outputs(outputs: dict, reference: dict, rel: float) -> list:
    """Mismatches between a pass's outputs and the recorded reference."""
    problems = []
    for key, ref in reference.items():
        got = outputs.get(key)
        if got is None or len(got) != len(ref) or any(
                len(a) != len(b) for a, b in zip(got, ref)):
            problems.append(f"reference {key}: shape differs")
            continue
        for i, (row, ref_row) in enumerate(zip(got, ref)):
            for j, (value, ref_value) in enumerate(zip(row, ref_row)):
                value = math.inf if value is None else value
                if not _close(value, ref_value, rel):
                    problems.append(f"reference {key}[{i}][{j}]: {value!r} vs {ref_value!r}")
    return problems


def setup_time(workload, ctx: dict, root: Path, env: dict) -> tuple:
    """Seconds a fresh interpreter needs to import satloop, load and validate
    the scenario and build the first problem with its rate-cost models, and
    the median speed probe the same interpreter took right after."""
    scenario = "" if ctx["scenario"] is None else str(ctx["scenario"])
    out = subprocess.run([sys.executable, str(SETUP_CHILD), workload.setup_kind,
                          scenario], cwd=root, env=env, capture_output=True,
                         text=True, timeout=120, check=True)
    setup_s, probe_s = out.stdout.strip().splitlines()[-1].split()
    return float(setup_s), float(probe_s)


WORKLOADS = {w.name: w for w in (MultiLoopBaseline(), ContourGrid(), SingleLoopScenarios())}

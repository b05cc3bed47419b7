"""Statistics and run metadata for the benchmark (stdlib only)."""
import hashlib
import os
import platform
import resource
import statistics
import subprocess
from pathlib import Path

PERCENTILE_LADDER = tuple(float(p) for p in range(50, 100)) + (99.9,)
MIN_BEYOND = 10


def tail_percentile(n_items: int) -> float:
    """Highest percentile (whole, or 99.9) that leaves at least ten of n
    items beyond it, i.e. n * (1 - p/100) >= 10.

    With fewer than twenty items even the median has fewer than ten beyond,
    and the median is returned.
    """
    best = PERCENTILE_LADDER[0]
    for p in PERCENTILE_LADDER:
        if items_beyond_x1000(n_items, p) >= MIN_BEYOND * 1000:
            best = p
    return best


def items_beyond_x1000(n_items: int, p: float) -> int:
    """1000 x the number of items above the p-th percentile, in exact integers."""
    return n_items * (1000 - round(p * 10))


def percentile(values, p: float) -> float:
    """Linear-interpolated p-th percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("no values")
    pos = (len(data) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def rank_quantile(values, q: float) -> float:
    """q-quantile at rank q * (n + 1) of the sorted values, interpolated and
    clamped to the extremes: the largest value whenever n <= q / (1 - q)."""
    data = sorted(values)
    rank = min(max(q * (len(data) + 1), 1.0), float(len(data)))
    lo = int(rank)
    if lo == len(data):
        return data[-1]
    return data[lo - 1] + (data[lo] - data[lo - 1]) * (rank - lo)


def median(values) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (ru_maxrss is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_ticks():
    """(steal, total) jiffies summed over all CPUs, or None if unreadable."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    if not fields or fields[0] != "cpu" or len(fields) < 9:
        return None
    values = [int(v) for v in fields[1:]]
    # guest time is already counted in user time
    return values[7], sum(values[:8])


def steal_between(before, after) -> dict:
    if before is None or after is None:
        return {"steal_s": None, "steal_share": None}
    steal = after[0] - before[0]
    total = after[1] - before[1]
    return {"steal_s": steal / os.sysconf("SC_CLK_TCK"),
            "steal_share": steal / total if total > 0 else 0.0}


def git_revision(root: Path) -> str:
    if not (root / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30, check=True)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip()


def source_digest(src: Path) -> str:
    """SHA-256 over the package's .py files, identifying the code measured."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(path.relative_to(src).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(root: Path) -> dict:
    import numpy
    import yaml
    return {
        "git_revision": git_revision(root),
        "source_sha256": source_digest(root / "src" / "satloop"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "thread_env": {k: v for k, v in sorted(os.environ.items()) if "THREADS" in k},
    }

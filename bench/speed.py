"""Host-speed probe: a fixed piece of work timed next to every item.

The benchmark's host (a few vCPUs of a shared machine) changes speed from
one second to the next: it has stretches about 1.5x faster than usual, and
neighbours slow it down for seconds to minutes. The probe below does the
same kind of work satloop does -- PyYAML dump and load, numpy calls on
length-5 arrays, a 1x1 eigvals, Python float loops -- but none of satloop's
code, so a change to satloop cannot move it. Each item's latency is divided
by the median of the probe times around it and multiplied by REFERENCE_S,
which gives the item's latency at the speed the probe had when the
benchmark was tuned.

The probe feels the fast stretches and most slow ones, but not all: some
neighbours slow satloop, with its larger code and data, while the small
probe keeps its speed. run.py keeps those stretches out by taking a low
quantile of each item's adjusted latency over a run's passes.
"""
import statistics
import time

import numpy as np
import yaml

# Median probe time on the host the benchmark was tuned on (2 vCPUs,
# Python 3.11.7, numpy 2.4.6, PyYAML 6.0.3), rounded. A constant, so that
# adjusted times compare across runs.
REFERENCE_S = 4.0e-3
# An item is adjusted by the median of the probes taken before items
# i - WINDOW .. i + WINDOW of its pass.
WINDOW = 2

_DOC = {
    "name": "probe",
    "plant": {"a": 1.25, "b": 1.0, "q": 1.0, "r": 0.5, "sigma_w": 0.1},
    "links": {name: {"tx_power_w": 0.25 + k, "elevation_deg": 55.0 + k,
                     "gain_db": [10.0, 12.5, 3.0]}
              for k, name in enumerate(("uplink", "downlink"))},
    "budget": {"extraction_ratio": 0.002, "compute_gcps": 12.0},
}
_START = np.linspace(0.5, 2.0, 5)


def probe() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    tree = yaml.safe_load(yaml.safe_dump(_DOC, sort_keys=True,
                                         default_flow_style=False))
    acc = 0.0
    v = _START
    for k in range(25):
        v = np.minimum(np.sqrt(v * v + 1.0), 3.0)
        acc += float(v.sum())
        acc += float(np.linalg.eigvals(np.array([[1.0 + k * 1e-3]]))[0].real)
        acc += sum(x * 1.0001 for x in range(20))
    elapsed = time.perf_counter() - t0
    if tree["name"] != "probe" or not acc > 0.0:
        raise RuntimeError("speed probe computed a wrong result")
    return elapsed


def adjust(latencies, probes) -> list:
    """Each latency scaled to the reference speed by the median of the
    probes within WINDOW places of it (probes[i] was taken before item i)."""
    if len(probes) != len(latencies):
        raise ValueError("one probe per item expected")
    out = []
    for i, latency in enumerate(latencies):
        local = statistics.median(probes[max(0, i - WINDOW):i + WINDOW + 1])
        out.append(latency * REFERENCE_S / local)
    return out

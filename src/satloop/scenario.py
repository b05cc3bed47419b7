"""Scenario ingestion, validation, and the canonical default parameter set.

A scenario is a single YAML document; every key carries its unit in its name
and unknown keys are hard errors. Values missing from the document come from
the defaults below. Each default is labeled either "reference" (fixed by the
reproduced case study) or "assumed" (chosen by this tool, override freely);
the label is echoed into every output file's metadata header.
"""
from __future__ import annotations

import copy
import math
import re
from dataclasses import dataclass

import yaml

from ._lazy import lazy_import
from .control import Plant
from .linkgeom import (Geometry, LinkParams, shannon_rate_bps, slant_range_m,
                       snr_per_watt)
from .optimize import (MultiLoopProblem, MultiLoopScheme, RobotLoop,
                       SingleLoopProblem, SingleLoopObjective)
from .pipeline import COMPUTE_FLOOR_CPS, LoopBudget, propagation_delay_s

np = lazy_import("numpy")

REFERENCE = "reference"
ASSUMED = "assumed"
# The largest value of a count field (multi_loop.n_robots and the sweep and
# grid point counts). A larger count is refused by validation, before it can
# overflow the float arithmetic of the checks or size an array past memory.
MAX_COUNT = 10_000

# libyaml's C parser when PyYAML was built with it
_Loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


class ScenarioError(ValueError):
    """Base class for scenario-document problems."""


class ParseError(ScenarioError):
    """Document is not well-formed YAML or not a mapping."""


class ValidationError(ScenarioError):
    """A value violates its physical or structural range."""


class UnknownKeyError(ScenarioError):
    """Document contains a key outside the schema."""


# Scientific notation that YAML 1.1 (PyYAML) leaves a string: 1e-3, 2E+6, 1.5e3.
# It is read here, for numeric fields only, so a name such as 1e3 stays a string.
_EXPONENT_FLOAT = re.compile(r"[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+")


def _float(path, value):
    if isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value):
        value = float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError(f"{path}: expected a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer past the float range
        raise ValidationError(f"{path}: must be finite, got an integer past the "
                              "float range") from None
    if not math.isfinite(value):
        raise ValidationError(f"{path}: must be finite, got {value!r}")
    return value


def _int(path, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError(f"{path}: expected an integer, got {value!r}")
    return value


def _str(path, value):
    """A str.isprintable string: every output echoes it into one metadata line."""
    if not (isinstance(value, str) and value.isprintable()):
        raise ValidationError(f"{path}: expected a printable string, got {value!r}")
    return value


def _positive(path, value):
    if value <= 0:
        raise ValidationError(f"{path}: must be positive, got {value}")
    return value


def _non_negative(path, value):
    if value < 0:
        raise ValidationError(f"{path}: must be non-negative, got {value}")
    return value


def _elevation(path, value):
    if not 0.0 < value <= 90.0:
        raise ValidationError(f"{path}: elevation must lie in (0, 90] deg, got {value}")
    return value


def _ratio(path, value):
    if not 0.0 < value <= 1.0:
        raise ValidationError(f"{path}: must lie in (0, 1], got {value}")
    return value


def _giga(path, value):
    """A value in giga-units that stays finite in base units (times 1e9)."""
    if value * 1e9 == math.inf:
        raise ValidationError(f"{path}: {value} times 1e9 leaves the float range")
    return value


def _count(path, value):
    if value < 1:
        raise ValidationError(f"{path}: must be >= 1, got {value}")
    if value > MAX_COUNT:
        raise ValidationError(f"{path}: must be <= {MAX_COUNT}, got {value}")
    return value


# schema leaves are (default, provenance, converter, *checks)
def _link_section(power, tx_dbi, rx_dbi):
    return {
        "tx_power_w": (power, REFERENCE, _float, _positive),
        "tx_gain_dbi": (tx_dbi, REFERENCE, _float),
        "rx_gain_dbi": (rx_dbi, REFERENCE, _float),
        "carrier_freq_ghz": (30.0, REFERENCE, _float, _positive),
        "noise_temperature_k": (290.0, ASSUMED, _float, _positive),
        "altitude_km": (600.0, REFERENCE, _float, _positive),
        "elevation_deg": (90.0, REFERENCE, _float, _elevation),
    }

_SCHEMA = {
    "name": ("baseline", ASSUMED, _str),
    "seed": (1, ASSUMED, _int, _non_negative),
    "links": {
        "uplink": _link_section(0.2, 14.0, 38.5),
        "downlink": _link_section(20.0, 38.5, 14.0),
    },
    "budget": {
        "cycle_period_ms": (20.0, REFERENCE, _float, _positive),
        "cycles_per_bit": (100.0, REFERENCE, _float, _positive),
        "compute_gcps": (10.0, REFERENCE, _float, _positive, _giga),
        "extraction_ratio": (0.001, REFERENCE, _float, _ratio),
    },
    "plant": {
        "a": (2.0, ASSUMED, _float),
        "b": (1.0, ASSUMED, _float),
        "w_cov": (1.0, ASSUMED, _float, _non_negative),
        "q": (1.0, ASSUMED, _float, _non_negative),
        "r_u": (1.0, ASSUMED, _float, _positive),
    },
    "single_loop": {
        "total_bandwidth_hz": (40000.0, ASSUMED, _float, _positive),
        "min_latency_payload_bits": (10000.0, ASSUMED, _float, _positive),
    },
    "multi_loop": {
        "n_robots": (5, REFERENCE, _int, _count),
        "elevation_min_deg": (30.0, REFERENCE, _float, _elevation),
        "elevation_max_deg": (90.0, REFERENCE, _float, _elevation),
        "downlink_bandwidth_total_hz": (250.0, ASSUMED, _float, _positive),
        "uplink_fixed_bits": (200000.0, ASSUMED, _float, _positive),
        "total_compute_gcps": (10.0, REFERENCE, _float, _positive, _giga),
        "power_sweep_min_w": (1.0, ASSUMED, _float, _positive),
        "power_sweep_max_w": (40.0, ASSUMED, _float, _positive),
        "power_sweep_points": (20, ASSUMED, _int, _count),
        "allocation_power_w": (5.0, ASSUMED, _float, _positive),
    },
    "contour": {
        "power_min_w": (1.0, ASSUMED, _float, _positive),
        "power_max_w": (40.0, ASSUMED, _float, _positive),
        "power_points": (20, ASSUMED, _int, _count),
        "compute_min_gcps": (8.0, ASSUMED, _float, _positive, _giga),
        "compute_max_gcps": (30.0, ASSUMED, _float, _positive, _giga),
        "compute_points": (20, ASSUMED, _int, _count),
    },
}


def _is_leaf(node) -> bool:
    return isinstance(node, tuple)


def _default_tree(schema=_SCHEMA) -> dict:
    out = {}
    for key, node in schema.items():
        out[key] = node[0] if _is_leaf(node) else _default_tree(node)
    return out


def _compile(schema, keys=(), opening=""):
    """(key path, dotted name, provenance, dump prefix) for each leaf of the
    schema, each level's keys sorted. A leaf's dump prefix is its `key: `
    after the `key:` lines of the sections that open at it."""
    table = []
    for key in sorted(schema):
        node, path, line = schema[key], keys + (key,), f"{opening}{'  ' * len(keys)}{key}:"
        if _is_leaf(node):
            table.append((path, ".".join(path), node[1], line + " "))
        else:
            table += _compile(node, path, line + "\n")
        opening = ""
    return table


_LEAF_TABLE = tuple(_compile(_SCHEMA))  # read by dump_scenario, flat_items, provenance_map


def _leaf_values(tree) -> list:
    """The tree's leaf values in _LEAF_TABLE order."""
    values = []
    for keys, _, _, _ in _LEAF_TABLE:
        node = tree
        for key in keys:
            node = node[key]
        values.append(node)
    return values


def provenance_map() -> dict:
    """Dotted path -> provenance label for every scenario key."""
    return {dotted: provenance for _, dotted, provenance, _ in _LEAF_TABLE}


def _leaf_value(node, path, value):
    """value converted and checked by the schema leaf node."""
    _, _, convert, *checks = node
    value = convert(path, value)
    for check in checks:
        value = check(path, value)
    return value


def _merge(schema, doc, tree, prefix=""):
    if not isinstance(doc, dict):
        raise ValidationError(f"{prefix or 'document'}: expected a mapping, got {doc!r}")
    for key, value in doc.items():
        path = f"{prefix}{key}"
        if key not in schema:
            raise UnknownKeyError(f"unknown key: {path}")
        node = schema[key]
        if _is_leaf(node):
            if isinstance(value, (dict, list)):
                raise ValidationError(f"{path}: expected a scalar, got {value!r}")
            tree[key] = _leaf_value(node, path, value)
        else:
            _merge(node, value, tree[key], prefix=f"{path}.")


def _cross_validate(tree: dict) -> None:
    ml = tree["multi_loop"]
    if ml["elevation_min_deg"] > ml["elevation_max_deg"]:
        raise ValidationError("multi_loop: elevation_min_deg must be <= elevation_max_deg")
    if ml["power_sweep_min_w"] > ml["power_sweep_max_w"]:
        raise ValidationError("multi_loop: power_sweep_min_w must be <= power_sweep_max_w")
    if ml["power_sweep_points"] > 1 and ml["power_sweep_min_w"] == ml["power_sweep_max_w"]:
        raise ValidationError("multi_loop: power sweep range is degenerate")
    ct = tree["contour"]
    for axis, unit in (("power", "w"), ("compute", "gcps")):
        lo, hi = ct[f"{axis}_min_{unit}"], ct[f"{axis}_max_{unit}"]
        if lo > hi or (ct[f"{axis}_points"] > 1 and lo == hi):
            raise ValidationError(f"contour: {axis} grid must be ascending")
    # The link budget must stay inside the float range where the solvers use
    # it: both single-loop links at bandwidths 1e-6 B and B, with the bits they
    # carry in one period, and the multi-loop downlink rate at the extreme
    # elevations and the largest power total.
    # The multi-loop solvers also form the bits a downlink window can carry
    # (the window is at most the period plus the longest compute time, c V /
    # COMPUTE_FLOOR_CPS, in size), the summed rate of all robots and the
    # water-filling level bracket n (P + n / snr + B); each must stay finite.
    scn = Scenario(tree=tree)
    total = tree["single_loop"]["total_bandwidth_hz"]
    n_robots = ml["n_robots"]
    share = ml["downlink_bandwidth_total_hz"] / n_robots
    power_w = max(ml["power_sweep_max_w"], ml["allocation_power_w"], ct["power_max_w"])
    period_s = tree["budget"]["cycle_period_ms"] * 1e-3
    longest_s = period_s + tree["budget"]["cycles_per_bit"] * ml["uplink_fixed_bits"] / \
        COMPUTE_FLOOR_CPS
    checks = [("links", direction, bandwidth, None) for direction in ("uplink", "downlink")
              for bandwidth in (1e-6 * total, total)]
    checks += [("multi_loop", "downlink", share, ml[key])
               for key in ("elevation_min_deg", "elevation_max_deg")]
    for where, direction, bandwidth, elevation_deg in checks:
        try:
            link = scn._link(direction, bandwidth, elevation_deg)
            if where == "links":
                rate = shannon_rate_bps(link)
                quantities = (("bits per period", rate * period_s),)
            else:
                snr = snr_per_watt(link)
                rate = bandwidth * math.log2(1.0 + power_w * snr)
                quantities = (("bits per window", rate * longest_s),
                              ("summed rate", n_robots * rate),
                              ("water-filling bracket",
                               n_robots * (power_w + n_robots / snr + bandwidth)))
            for name, value in quantities:
                if not value < math.inf:
                    raise ArithmeticError(f"{name} {value!r}")
            if not 0.0 < rate < math.inf:
                raise ArithmeticError(f"a rate of {rate!r} bit/s")
        except (ArithmeticError, ValueError) as exc:
            raise ValidationError(f"{where}: the link budget leaves the float range ({exc})")
    cap_bits = tree["budget"]["extraction_ratio"] * ml["uplink_fixed_bits"]
    if cap_bits == 0.0:
        raise ValidationError("multi_loop: the extraction cap (budget.extraction_ratio times "
                              "uplink_fixed_bits) underflows to 0 bits")
    # the solvers' own test: propagation must leave part of the period. The
    # multi-loop check takes the shortest downlink (elevation_max_deg): when
    # that fails, no robot elevations can fit.
    def slant(direction, elevation_deg=None):
        return slant_range_m(scn._link(direction, total, elevation_deg).geometry)

    nearest = slant("downlink", ml["elevation_max_deg"])
    for where, t_prop in (("links", propagation_delay_s(slant("uplink"), slant("downlink"))),
                          ("multi_loop", propagation_delay_s(nearest, nearest))):
        if period_s - t_prop <= 0.0:
            raise ValidationError(
                f"{where}: propagation {t_prop}s leaves no budget in the "
                f"{period_s}s cycle (budget.cycle_period_ms)")


@dataclass(frozen=True, eq=False)
class Scenario:
    """Fully resolved scenario: a tree of primitives plus typed accessors."""
    tree: dict

    def __eq__(self, other):
        return isinstance(other, Scenario) and self.tree == other.tree

    @property
    def name(self) -> str:
        return self.tree["name"]

    @property
    def seed(self) -> int:
        return self.tree["seed"]

    def with_seed(self, seed: int) -> "Scenario":
        """A copy with another seed, checked like the document's (ValidationError)."""
        tree = copy.deepcopy(self.tree)
        tree["seed"] = _leaf_value(_SCHEMA["seed"], "seed", seed)
        return Scenario(tree=tree)

    def _link(self, direction: str, bandwidth_hz: float,
              elevation_deg: float | None = None) -> LinkParams:
        section = self.tree["links"][direction]
        return LinkParams(
            tx_power_w=section["tx_power_w"],
            tx_gain_dbi=section["tx_gain_dbi"],
            rx_gain_dbi=section["rx_gain_dbi"],
            carrier_freq_hz=section["carrier_freq_ghz"] * 1e9,
            bandwidth_hz=bandwidth_hz,
            noise_temperature_k=section["noise_temperature_k"],
            geometry=Geometry(
                satellite_altitude_m=section["altitude_km"] * 1e3,
                elevation_deg=section["elevation_deg"] if elevation_deg is None else elevation_deg,
            ),
        )

    def budget(self) -> LoopBudget:
        section = self.tree["budget"]
        return LoopBudget(
            cycle_period_s=section["cycle_period_ms"] * 1e-3,
            cycles_per_bit=section["cycles_per_bit"],
            compute_rate_cps=section["compute_gcps"] * 1e9,
            extraction_ratio=section["extraction_ratio"],
        )

    def plant(self) -> Plant:
        return Plant(**self.tree["plant"])

    def single_loop_problem(self, objective: SingleLoopObjective) -> SingleLoopProblem:
        total = self.tree["single_loop"]["total_bandwidth_hz"]
        half = total / 2.0  # template bandwidth; overridden by the solver
        return SingleLoopProblem(
            total_bandwidth_hz=total,
            uplink_template=self._link("uplink", half),
            downlink_template=self._link("downlink", half),
            budget=self.budget(),
            plant=self.plant(),
            objective=objective,
            fixed_payload_bits=self.tree["single_loop"]["min_latency_payload_bits"],
        )

    def robot_elevations(self) -> list:
        ml = self.tree["multi_loop"]
        return sample_elevations(ml["n_robots"], ml["elevation_min_deg"],
                                 ml["elevation_max_deg"], self.seed)

    def multi_loop_problem(self, scheme: MultiLoopScheme,
                           total_power_w: float | None = None) -> MultiLoopProblem:
        """The robots with their downlink shares, at the allocation power by default."""
        ml = self.tree["multi_loop"]
        share = ml["downlink_bandwidth_total_hz"] / ml["n_robots"]
        plant = self.plant()
        robots = tuple(
            RobotLoop(downlink=self._link("downlink", share, elevation_deg=elev), plant=plant)
            for elev in self.robot_elevations())
        return MultiLoopProblem(
            robots=robots,
            total_power_w=(ml["allocation_power_w"] if total_power_w is None
                           else total_power_w),
            total_compute_cps=ml["total_compute_gcps"] * 1e9,
            budget=self.budget(),
            scheme=scheme,
            uplink_fixed_bits=ml["uplink_fixed_bits"],
        )

    def power_sweep_w(self) -> np.ndarray:
        ml = self.tree["multi_loop"]
        return np.linspace(ml["power_sweep_min_w"], ml["power_sweep_max_w"],
                           ml["power_sweep_points"])

    def contour_grids(self) -> tuple:
        ct = self.tree["contour"]
        power = np.linspace(ct["power_min_w"], ct["power_max_w"], ct["power_points"])
        compute = np.linspace(ct["compute_min_gcps"] * 1e9, ct["compute_max_gcps"] * 1e9,
                              ct["compute_points"])
        return power, compute

    def flat_items(self) -> list:
        """Sorted (dotted path, value) pairs over the resolved tree."""
        return [(row[1], value) for row, value in zip(_LEAF_TABLE, _leaf_values(self.tree))]


def load_scenario(text: str) -> Scenario:
    """Parse, default-merge, and validate a scenario document.

    An empty document yields the pure default scenario. Unknown keys,
    malformed YAML, and non-physical values raise UnknownKeyError,
    ParseError, and ValidationError respectively.
    """
    try:
        doc = yaml.load(text, Loader=_Loader)
    # ValueError: an integer past Python's int/str conversion limit (4300 digits)
    except (yaml.YAMLError, ValueError) as exc:
        raise ParseError(f"not valid YAML: {exc}") from exc
    if doc is None:
        doc = {}
    if not isinstance(doc, dict):
        raise ParseError(f"scenario document must be a mapping, got {type(doc).__name__}")
    tree = _default_tree()
    _merge(_SCHEMA, doc, tree)
    _cross_validate(tree)
    return Scenario(tree=tree)


def _scalar(value) -> str:
    """value as a YAML 1.1 scalar that reads back as the same value. A finite
    float is spelled as repr spells it, with ".0" put before an exponent that
    follows no dot (YAML 1.1 reads 1e-05 as a string). A string is quoted with
    only backslash and double quote escaped: _str admits printable strings
    only, with no line break or other character that YAML must escape."""
    if isinstance(value, str):
        return '"' + value.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(value, float):
        text = repr(value).lower()
        return text.replace("e", ".0e", 1) if "." not in text and "e" in text else text
    return str(value)


def dump_scenario(scenario: Scenario) -> str:
    """Canonical normalized dump; load(dump(s)) == s and byte-stable.

    satloop's own canonical YAML, written without a YAML emitter: each
    level's keys sorted, a section as a `key:` line with its children two
    spaces further in, and a leaf as `key: value` (see _scalar). A section
    that appears twice in the tree is written out twice, with no anchor.
    It reads the schema's compiled leaf table (_LEAF_TABLE), so the tree
    must have the schema's shape, with any leaf values.
    """
    return "".join([f"{row[3]}{_scalar(value)}\n"
                    for row, value in zip(_LEAF_TABLE, _leaf_values(scenario.tree))])


def default_scenario() -> Scenario:
    return load_scenario("")


def sample_elevations(n: int, min_deg: float, max_deg: float, seed: int) -> list:
    """n elevation angles drawn uniformly from [min, max], sorted descending.

    Deterministic for a given seed; the first entry is the best channel.
    """
    if n < 1:
        raise ValueError(f"need at least one sample, got {n}")
    if not 0.0 < min_deg <= max_deg <= 90.0:
        raise ValueError(
            f"elevation range must satisfy 0 < min <= max <= 90, got [{min_deg}, {max_deg}]")
    rng = np.random.default_rng(seed)
    values = rng.uniform(min_deg, max_deg, n)
    return [float(v) for v in np.sort(values)[::-1]]

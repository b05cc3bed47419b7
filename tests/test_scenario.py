"""Scenario parsing, defaults, validation totality, and round-trips."""
import copy

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from satloop import report, scenario
from satloop.scenario import (ParseError, Scenario, ScenarioError, UnknownKeyError,
                              ValidationError, default_scenario, dump_scenario,
                              load_scenario, provenance_map, sample_elevations)

# frozen first draw for seed 1 over [30, 90] (numpy default_rng, pinned once)
ELEVATIONS_SEED1 = [87.02782177955612, 86.91896682823463, 60.7092974820154,
                    48.709887120629126, 38.649576763178025]


class TestDefaults:
    def test_empty_document_is_pure_defaults(self):
        assert load_scenario("") == default_scenario()
        assert load_scenario("   \n") == default_scenario()

    def test_reference_constants_unit_conversions(self):
        """Case-study constants survive unit conversion exactly."""
        scn = default_scenario()
        budget = scn.budget()
        assert budget.extraction_ratio == 0.001          # 0.1 %
        assert budget.compute_rate_cps == 1e10           # 10 GC/s
        assert budget.cycle_period_s == 0.02             # 20 ms
        assert budget.cycles_per_bit == 100.0
        up = scn.single_loop_problem(
            __import__("satloop.optimize", fromlist=["SingleLoopObjective"])
            .SingleLoopObjective.TASK_ORIENTED)
        assert up.uplink_template.tx_power_w == 0.2
        assert up.downlink_template.tx_power_w == 20.0
        assert up.uplink_template.tx_gain_dbi == 14.0
        assert up.uplink_template.rx_gain_dbi == 38.5
        assert up.uplink_template.carrier_freq_hz == 30e9
        assert up.uplink_template.geometry.satellite_altitude_m == 600e3

    def test_provenance_labels_cover_all_keys(self):
        scn = default_scenario()
        prov = provenance_map()
        for path, _ in scn.flat_items():
            assert path in prov
            assert prov[path] in ("reference", "assumed")
        assert prov["budget.extraction_ratio"] == "reference"
        assert prov["links.uplink.noise_temperature_k"] == "assumed"
        assert prov["single_loop.total_bandwidth_hz"] == "assumed"


class TestLoad:
    def test_override_applies(self):
        scn = load_scenario("single_loop:\n  total_bandwidth_hz: 50000\n")
        assert scn.tree["single_loop"]["total_bandwidth_hz"] == 50000.0

    def test_extraction_ratio_matches_reference_value(self):
        scn = load_scenario("budget:\n  extraction_ratio: 0.001\n")
        assert scn.budget().extraction_ratio == 0.001

    def test_unknown_key_rejected(self):
        with pytest.raises(UnknownKeyError):
            load_scenario("links:\n  uplink:\n    frobnicate: 1\n")
        with pytest.raises(UnknownKeyError):
            load_scenario("nonsense: 2\n")

    def test_zero_altitude_rejected(self):
        with pytest.raises(ValidationError):
            load_scenario("links:\n  uplink:\n    altitude_km: 0\n")

    def test_bad_elevation_rejected(self):
        with pytest.raises(ValidationError):
            load_scenario("links:\n  downlink:\n    elevation_deg: 91\n")

    def test_negative_power_rejected(self):
        with pytest.raises(ValidationError):
            load_scenario("links:\n  uplink:\n    tx_power_w: -3\n")

    def test_ratio_above_one_rejected(self):
        with pytest.raises(ValidationError):
            load_scenario("budget:\n  extraction_ratio: 1.5\n")

    def test_malformed_yaml_rejected(self):
        with pytest.raises(ParseError):
            load_scenario("links: [unclosed\n")
        with pytest.raises(ParseError):
            load_scenario("- just\n- a\n- list\n")

    def test_wrong_types_rejected(self):
        with pytest.raises(ValidationError):
            load_scenario("seed: not_an_int\n")
        with pytest.raises(ValidationError):
            load_scenario("name: 42\n")
        with pytest.raises(ValidationError):
            load_scenario("seed: true\n")

    def test_negative_seed_rejected(self):
        with pytest.raises(ValidationError, match="seed"):
            load_scenario("seed: -3\n")
        with pytest.raises(ValidationError, match="seed"):
            default_scenario().with_seed(-3)
        assert load_scenario("seed: 0\n").with_seed(0).seed == 0

    @pytest.mark.parametrize("text, value", [
        ("1e-3", 1e-3), ("2E+6", 2e6), ("1.5e3", 1.5e3), ("-4e-2", -4e-2),
        (".5e1", 5.0), ("3.e2", 300.0)])
    def test_scientific_notation_read_as_number(self, text, value):
        assert yaml.safe_load(f"v: {text}")["v"] == text  # YAML 1.1 leaves it a string
        assert load_scenario(f"plant:\n  b: {text}\n").tree["plant"]["b"] == value

    @pytest.mark.parametrize("text", ["1e", "e3", "1e3x", "1e 3", "0x1p3", "1_0e3", "1e3.5",
                                      "'12'", "nan"])
    def test_other_strings_still_rejected(self, text):
        with pytest.raises(ValidationError, match="expected a number"):
            load_scenario(f"plant:\n  b: {text}\n")

    def test_name_in_scientific_notation_stays_a_string(self):
        scn = load_scenario("name: 1e3\n")
        assert scn.name == "1e3"
        assert load_scenario(dump_scenario(scn)) == scn

    def test_section_where_scalar_expected(self):
        with pytest.raises(ValidationError):
            load_scenario("seed:\n  nested: 1\n")

    def test_scalar_where_section_expected(self):
        with pytest.raises(ValidationError):
            load_scenario("links: 5\n")


class TestRoundTrip:
    def test_default_round_trip(self):
        scn = default_scenario()
        assert load_scenario(dump_scenario(scn)) == scn

    def test_override_round_trip(self):
        doc = ("name: tweaked\nseed: 9\n"
               "links:\n  uplink:\n    tx_power_w: 0.35\n"
               "multi_loop:\n  n_robots: 3\n")
        scn = load_scenario(doc)
        assert load_scenario(dump_scenario(scn)) == scn

    def test_dump_is_byte_stable(self):
        a = dump_scenario(default_scenario())
        b = dump_scenario(default_scenario())
        assert a == b


class TestValidationTotality:
    def test_fuzzed_documents_never_crash(self):
        """Any fuzzed document loads or raises a declared error class."""
        rng = np.random.default_rng(123)
        fragments = ["links", "uplink", "tx_power_w", "seed", "plant", "a", "q",
                     ":", "-", "  ", "\n", "{", "}", "[", "]", "1e400", "nan",
                     "0.5", "-3", "true", "'x'", "!!python/object:os.system",
                     "budget", "extraction_ratio", "#c", "multi_loop", "n_robots"]
        for _ in range(400):
            n = int(rng.integers(1, 12))
            doc = "".join(str(fragments[int(i)]) for i in rng.integers(0, len(fragments), n))
            try:
                load_scenario(doc)
            except ScenarioError:
                pass

    def test_structured_fuzz(self):
        rng = np.random.default_rng(321)
        keys = ["name", "seed", "links", "budget", "plant", "single_loop",
                "multi_loop", "contour", "bogus"]
        subkeys = ["tx_power_w", "a", "extraction_ratio", "n_robots",
                   "cycle_period_ms", "uplink", "whatever"]
        values = ["1", "-1", "0", "0.5", "91", "1e-9", "abc", "true", "[1,2]"]
        for _ in range(300):
            k = keys[int(rng.integers(0, len(keys)))]
            sk = subkeys[int(rng.integers(0, len(subkeys)))]
            v = values[int(rng.integers(0, len(values)))]
            doc = f"{k}:\n  {sk}: {v}\n"
            try:
                load_scenario(doc)
            except ScenarioError:
                pass


class TestSampleElevations:
    def test_degenerate_interval(self):
        assert sample_elevations(1, 45.0, 45.0, 0) == [45.0]

    def test_deterministic(self):
        a = sample_elevations(5, 30.0, 90.0, 42)
        b = sample_elevations(5, 30.0, 90.0, 42)
        assert a == b

    def test_seed1_frozen_regression(self):
        got = sample_elevations(5, 30.0, 90.0, 1)
        assert got == pytest.approx(ELEVATIONS_SEED1, rel=1e-12)

    def test_sorted_descending_in_range(self):
        got = sample_elevations(8, 30.0, 90.0, 7)
        assert got == sorted(got, reverse=True)
        assert all(30.0 <= g <= 90.0 for g in got)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError):
            sample_elevations(0, 30.0, 90.0, 1)
        with pytest.raises(ValueError):
            sample_elevations(3, 0.0, 90.0, 1)
        with pytest.raises(ValueError):
            sample_elevations(3, 50.0, 30.0, 1)
        with pytest.raises(ValueError):
            sample_elevations(3, 30.0, 95.0, 1)


class TestAccessors:
    def test_with_seed(self):
        scn = default_scenario().with_seed(77)
        assert scn.seed == 77
        assert scn.tree["name"] == "baseline"

    def test_robot_elevations_use_seed(self):
        scn = default_scenario()
        assert scn.robot_elevations() == pytest.approx(ELEVATIONS_SEED1, rel=1e-12)

    def test_power_sweep_shape(self):
        sweep = default_scenario().power_sweep_w()
        assert len(sweep) == 20
        assert sweep[0] == 1.0 and sweep[-1] == 40.0

    def test_contour_grids(self):
        power, compute = default_scenario().contour_grids()
        assert len(power) == 20 and len(compute) == 20
        assert compute[0] == 8e9 and compute[-1] == 3e10


# the documents above that load
VALID_DOCUMENTS = (
    "",
    "   \n",
    "single_loop:\n  total_bandwidth_hz: 50000\n",
    "budget:\n  extraction_ratio: 0.001\n",
    "name: tweaked\nseed: 9\n"
    "links:\n  uplink:\n    tx_power_w: 0.35\n"
    "multi_loop:\n  n_robots: 3\n",
)


def _documents():
    """The fixtures above plus the benchmark's 100 generated documents."""
    from bench.workloads import generate_documents
    return list(VALID_DOCUMENTS) + generate_documents(1)


def _tree(schema, leaf, name):
    """A strategy for trees of the schema's shape with any leaf values."""
    return st.fixed_dictionaries({
        key: (name if key == "name" else leaf) if scenario._is_leaf(node)
        else _tree(node, leaf, name)
        for key, node in schema.items()})


def _exact(tree):
    """tree with each leaf as (type, repr), so -0.0 differs from 0.0 and 1 from 1.0."""
    return {key: _exact(value) if isinstance(value, dict) else (type(value), repr(value))
            for key, value in tree.items()}


_FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e17, 1.7976931348623157e308, 1e-05, 1e16]),
    st.integers(10**16, 10**300).map(float))  # integral floats above 1e16
# any str.isprintable name: no control, format, private-use, unassigned or
# separator character but the space
_PRINTABLE = st.characters(exclude_categories=("C", "Z"), include_characters=" ")
_NAME = st.one_of(
    st.text(_PRINTABLE), st.text(st.characters(min_codepoint=0x10000, exclude_categories=("C", "Z"))),
    st.sampled_from(["yes", "No", "null", "~", "on", "1e3", "123", "0x1f", "a: b", "a #b",
                     '"', "\\", '\\"', "' '", " a", "a ", " ", "", "&a", "*a", "!a",
                     "- a", "\U0001f6f0", "x" * 300]))


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestLibyaml:
    """The C loader reads what the pure-Python loader reads."""

    def test_scenario_uses_the_c_classes(self):
        assert scenario._Loader is yaml.CSafeLoader

    def test_loaders_give_equal_trees(self):
        for text in _documents():
            assert yaml.load(text, Loader=yaml.CSafeLoader) == \
                yaml.load(text, Loader=yaml.SafeLoader), text

    def test_fuzzed_documents_load_alike(self):
        """Both loaders accept the same fuzzed documents, or both reject them."""
        rng = np.random.default_rng(123)
        fragments = ["links", "uplink", "tx_power_w", "seed", "plant", "a", "q",
                     ":", "-", "  ", "\n", "{", "}", "[", "]", "1e400", "nan",
                     "0.5", "-3", "true", "'x'", "budget", "#c", "n_robots"]
        for _ in range(400):
            n = int(rng.integers(1, 12))
            doc = "".join(fragments[int(i)] for i in rng.integers(0, len(fragments), n))
            loaded = []
            for loader in (yaml.CSafeLoader, yaml.SafeLoader):
                try:
                    loaded.append(repr(yaml.load(doc, Loader=loader)))
                except yaml.YAMLError:
                    loaded.append("error")
            assert loaded[0] == loaded[1], doc

    @settings(max_examples=100, deadline=None)
    @given(_tree(scenario._SCHEMA, st.one_of(_FINITE, st.integers()), _NAME))
    def test_loaders_read_any_dump_as_its_tree(self, tree):
        """Both loaders read the dump of any tree of the schema's shape back
        as that tree: the same keys, types and float bits."""
        text = dump_scenario(Scenario(tree=tree))
        for loader in (yaml.CSafeLoader, yaml.SafeLoader):
            assert _exact(yaml.load(text, Loader=loader)) == _exact(tree), text


class TestDump:
    """dump_scenario writes satloop's own canonical YAML, with no YAML emitter."""

    @settings(max_examples=200, deadline=None)
    @given(_NAME, st.integers(0, 10**40), st.fixed_dictionaries({
        key: _FINITE if key in ("a", "b") else _FINITE.map(abs).filter(bool)
        for key in scenario._SCHEMA["plant"]}))
    def test_any_scenario_round_trips(self, name, seed, plant):
        """load_scenario(dump_scenario(s)) == s over trees of the schema's shape
        with any name and seed and any plant the schema admits (the plant is
        the section that no cross-check ties to the others)."""
        tree = copy.deepcopy(default_scenario().tree)
        tree.update(name=name, seed=seed, plant=plant)
        scn = Scenario(tree=tree)
        text = dump_scenario(scn)
        assert load_scenario(text) == scn
        assert dump_scenario(load_scenario(text)) == text

    @pytest.mark.parametrize("value, text", [
        (-0.0, "-0.0"), (5e-324, "5.0e-324"), (1e17, "1.0e+17"), (1e-05, "1.0e-05"),
        (1.7976931348623157e308, "1.7976931348623157e+308")])
    def test_float_spelling_round_trips(self, value, text):
        """A float keeps its bits; an exponent without a dot gets ".0" so that
        YAML 1.1 reads it as a float."""
        scn = load_scenario(f"plant:\n  a: {value!r}\n")
        dump = dump_scenario(scn)
        assert f"\n  a: {text}\n" in dump
        assert repr(load_scenario(dump).tree["plant"]["a"]) == repr(value)

    def test_documents_dump_without_yaml_emitters(self, monkeypatch):
        """The fixtures and the benchmark's documents dump with every PyYAML
        emitting function gone."""
        scenarios = [load_scenario(text) for text in _documents()]
        for name in ("dump", "dump_all", "safe_dump", "safe_dump_all", "emit",
                     "serialize", "serialize_all"):
            monkeypatch.setattr(yaml, name, None)
        texts = [dump_scenario(scn) for scn in scenarios]
        monkeypatch.undo()
        assert [load_scenario(text) for text in texts] == scenarios

    def test_shared_section_is_written_in_full(self):
        tree = copy.deepcopy(default_scenario().tree)
        tree["links"]["downlink"] = tree["links"]["uplink"]
        text = dump_scenario(Scenario(tree=tree))
        assert "&" not in text and "*" not in text
        assert text == dump_scenario(Scenario(tree=copy.deepcopy(tree)))
        assert yaml.safe_load(text) == tree

    def test_default_dump_and_hash_are_pinned(self):
        assert dump_scenario(default_scenario()) == DEFAULT_DUMP
        assert report.scenario_hash(default_scenario()) == \
            "223b0b5e2ebf622a6f45dee5998df573be96215195df0086590695d10ac536fc"


DEFAULT_DUMP = """\
budget:
  compute_gcps: 10.0
  cycle_period_ms: 20.0
  cycles_per_bit: 100.0
  extraction_ratio: 0.001
contour:
  compute_max_gcps: 30.0
  compute_min_gcps: 8.0
  compute_points: 20
  power_max_w: 40.0
  power_min_w: 1.0
  power_points: 20
links:
  downlink:
    altitude_km: 600.0
    carrier_freq_ghz: 30.0
    elevation_deg: 90.0
    noise_temperature_k: 290.0
    rx_gain_dbi: 14.0
    tx_gain_dbi: 38.5
    tx_power_w: 20.0
  uplink:
    altitude_km: 600.0
    carrier_freq_ghz: 30.0
    elevation_deg: 90.0
    noise_temperature_k: 290.0
    rx_gain_dbi: 38.5
    tx_gain_dbi: 14.0
    tx_power_w: 0.2
multi_loop:
  allocation_power_w: 5.0
  downlink_bandwidth_total_hz: 250.0
  elevation_max_deg: 90.0
  elevation_min_deg: 30.0
  n_robots: 5
  power_sweep_max_w: 40.0
  power_sweep_min_w: 1.0
  power_sweep_points: 20
  total_compute_gcps: 10.0
  uplink_fixed_bits: 200000.0
name: "baseline"
plant:
  a: 2.0
  b: 1.0
  q: 1.0
  r_u: 1.0
  w_cov: 1.0
seed: 1
single_loop:
  min_latency_payload_bits: 10000.0
  total_bandwidth_hz: 40000.0
"""


class TestWithSeed:
    def test_equals_the_yaml_round_trip(self):
        for text in VALID_DOCUMENTS:
            scn = load_scenario(text)
            want = yaml.safe_load(dump_scenario(scn))
            want["seed"] = 123
            assert scn.with_seed(123).tree == want

    @pytest.mark.parametrize("seed", [2.7, True, "5", -0.5, np.int64(5)])
    def test_refuses_what_a_document_refuses(self, seed):
        """No conversion first: 2.7 is not read as 2, True as 1 or "5" as 5."""
        with pytest.raises(ValidationError, match="seed"):
            default_scenario().with_seed(seed)

    def test_cli_seed_still_applies(self, tmp_path):
        assert report.main(["single-loop", "--seed", "3", "--format", "csv",
                            "--out", str(tmp_path)]) == 0
        assert "# seed = 3\n" in (tmp_path / "single_loop.csv").read_text()
        assert default_scenario().with_seed(3).seed == 3

    def test_copy_is_independent(self):
        scn = default_scenario()
        other = scn.with_seed(5)
        other.tree["plant"]["a"] = 9.0
        assert scn.tree["plant"]["a"] == 2.0
        assert scn.seed == 1

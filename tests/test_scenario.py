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


def _pure_python_dump(scn):
    return yaml.dump(scn.tree, Dumper=yaml.SafeDumper, sort_keys=True,
                     default_flow_style=False)


@pytest.mark.skipif(not yaml.__with_libyaml__, reason="PyYAML built without libyaml")
class TestLibyaml:
    """The C loader and emitter give what the pure-Python classes give."""

    def test_scenario_uses_the_c_classes(self):
        assert scenario._Loader is yaml.CSafeLoader

    def test_loaders_give_equal_trees(self):
        for text in _documents():
            assert yaml.load(text, Loader=yaml.CSafeLoader) == \
                yaml.load(text, Loader=yaml.SafeLoader), text

    def test_dumpers_give_identical_bytes(self):
        for text in _documents():
            scn = load_scenario(text)
            c_dump = yaml.dump(scn.tree, Dumper=yaml.CSafeDumper, sort_keys=True,
                               default_flow_style=False)
            assert c_dump == _pure_python_dump(scn)
            assert dump_scenario(scn) == c_dump

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

    @settings(max_examples=300, deadline=None)
    @given(st.text(max_size=120))
    def test_any_name_dumps_as_the_pure_python_emitter(self, name):
        """libyaml folds long escaped names elsewhere; dump_scenario must not."""
        scn = default_scenario()
        scn = Scenario(tree=dict(scn.tree, name=name))
        assert dump_scenario(scn) == _pure_python_dump(scn)


def _tree(schema, leaf, name):
    """A strategy for trees of the schema's shape with any leaf values."""
    return st.fixed_dictionaries({
        key: (name if key == "name" else leaf) if scenario._is_leaf(node)
        else _tree(node, leaf, name)
        for key, node in schema.items()})


class TestSchemaDump:
    """dump_scenario writes the fixed schema's trees itself, byte for byte as
    PyYAML's pure-Python SafeDumper; other trees take yaml.dump."""
    _FLOAT = st.one_of(
        st.floats(),
        st.sampled_from([1e17, 1e-05, -0.0, 5e-324, 1.7976931348623157e308,
                         float("nan"), float("inf"), float("-inf")]),
        st.integers(10**16, 10**300).map(float))  # integral floats above 1e16
    _NAME = st.one_of(st.text(), st.from_regex(scenario._PLAIN_NAME, fullmatch=True),
                      st.sampled_from(["yes", "No", "null", "NULL", "on", "1e3", "123", "a b",
                                       "a b ", "a: b", "a #b", "\u00e9", "x" * 90, "a" * 64,
                                       "a" * 65]))

    @settings(max_examples=300, deadline=None)
    @given(_tree(scenario._SCHEMA, st.one_of(_FLOAT, st.integers()), _NAME))
    def test_any_tree_dumps_as_safe_dumper(self, tree):
        assert dump_scenario(Scenario(tree=tree)) == yaml.dump(
            tree, Dumper=yaml.SafeDumper, sort_keys=True, default_flow_style=False)

    def test_documents_dump_as_safe_dumper_without_yaml(self, monkeypatch):
        """The fixtures and the benchmark's documents never reach yaml.dump."""
        scenarios = [load_scenario(text) for text in _documents()]
        want = [_pure_python_dump(scn) for scn in scenarios]
        monkeypatch.setattr(yaml, "dump", None)
        assert [dump_scenario(scn) for scn in scenarios] == want

    def test_shared_section_keeps_its_alias(self):
        tree = copy.deepcopy(default_scenario().tree)
        tree["links"]["downlink"] = tree["links"]["uplink"]
        scn = Scenario(tree=tree)
        assert "&id001" in dump_scenario(scn)
        assert dump_scenario(scn) == _pure_python_dump(scn)

    def test_default_scenario_hash_is_pinned(self):
        assert report.scenario_hash(default_scenario()) == \
            "0ad0bd1a0c66546c749e236586f837ea62098b118138b2b84674cd35aad5a1f4"


class TestWithSeed:
    def test_equals_the_yaml_round_trip(self):
        for text in VALID_DOCUMENTS:
            scn = load_scenario(text)
            want = yaml.safe_load(dump_scenario(scn))
            want["seed"] = 123
            assert scn.with_seed(123).tree == want

    def test_copy_is_independent(self):
        scn = default_scenario()
        other = scn.with_seed(5)
        other.tree["plant"]["a"] = 9.0
        assert scn.tree["plant"]["a"] == 2.0
        assert scn.seed == 1

"""Tests for the Table 2 gate library."""

import pytest

from repro.boolean.expr import parse_expr
from repro.gates import sptree
from repro.gates.library import (
    TABLE2_GATES,
    GateLibrary,
    GateTemplate,
    default_library,
)

#: The configuration counts of the paper's Table 2 (plus nand4/nor2).
EXPECTED_CONFIG_COUNTS = {
    "inv": 1,
    "nand2": 2,
    "nand3": 6,
    "nand4": 24,
    "nor2": 2,
    "nor3": 6,
    "nor4": 24,
    "aoi21": 4,
    "aoi22": 8,
    "aoi211": 12,
    "aoi221": 24,
    "aoi222": 48,
    "oai21": 4,
    "oai22": 8,
    "oai211": 12,
    "oai221": 24,
    "oai222": 48,
}


@pytest.fixture(scope="module")
def library():
    return default_library()


class TestTable2:
    def test_all_gates_present(self, library):
        assert set(library.names) == set(TABLE2_GATES)

    def test_configuration_counts_match_table2(self, library):
        counts = dict(library.configuration_table())
        assert counts == EXPECTED_CONFIG_COUNTS

    def test_enumerated_configs_match_declared_count(self, library):
        for template in library:
            configs = template.configurations()
            assert len(configs) == template.num_configurations()
            assert len({c.key() for c in configs}) == len(configs)

    def test_all_configs_same_function(self, library):
        # What lets a reordering leave every net's statistics alone:
        # the configurations a circuit accepts (config_index is not
        # None) all compute the template's function.
        for template in library:
            reference = template.function()
            for index, config in enumerate(template.configurations()):
                compiled = template.compile_config(config)
                assert compiled.output_tt == reference, template.name
                assert template.config_index(config) == index
            assert template.config_index(template.default_config()) \
                is not None

    def test_all_configs_same_area(self, library):
        """The paper: every instance of a gate has the same area."""
        for template in library:
            counts = {
                len(template.compile_config(c).network.transistors)
                for c in template.configurations()
            }
            assert counts == {template.num_transistors}


class TestGateTemplate:
    def test_function_nand2(self, library):
        tt = library["nand2"].function()
        assert tt == parse_expr("!(a & b)").to_truthtable(("a", "b"))

    def test_function_aoi221(self, library):
        tt = library["aoi221"].function()
        expected = parse_expr("!((a & b) | (c & d) | e)").to_truthtable(
            ("a", "b", "c", "d", "e")
        )
        assert tt == expected

    def test_num_transistors(self, library):
        assert library["inv"].num_transistors == 2
        assert library["nand3"].num_transistors == 6
        assert library["aoi222"].num_transistors == 12

    def test_default_config_is_canonical(self, library):
        t = library["oai21"]
        config = t.default_config()
        assert config.pdn == t.pdn
        assert sptree.canonical_key(config.pun) == sptree.canonical_key(
            sptree.dual(t.pdn)
        )

    def test_per_template_constants_memoised(self, library):
        t = library["aoi22"]
        assert t.default_config() is t.default_config()
        assert t.default_config().key() is t.default_config().key()
        assert t.num_configurations() == len(t.configurations())
        # Frozen templates stay equal and hashable after memoisation.
        fresh = GateTemplate(t.name, t.pdn_expr, t.pins)
        assert fresh == t and hash(fresh) == hash(t)

    def test_compile_config_cached(self, library):
        t = library["nand2"]
        assert t.compile_config() is t.compile_config()

    def test_repeated_signal_rejected(self):
        with pytest.raises(ValueError):
            GateTemplate("bad", "a & a", ("a",))

    def test_pin_mismatch_rejected(self):
        with pytest.raises(ValueError):
            GateTemplate("bad", "a & b", ("a", "c"))


class TestGateLibrary:
    def test_duplicate_rejected(self, library):
        lib = GateLibrary([GateTemplate("inv", "a", ("a",))])
        with pytest.raises(ValueError):
            lib.add(GateTemplate("inv", "a", ("a",)))

    def test_lookup(self, library):
        assert library["nand2"].name == "nand2"
        assert "nand2" in library
        assert "xor9" not in library

    def test_len_and_iter(self, library):
        assert len(library) == len(TABLE2_GATES)
        assert {t.name for t in library} == set(TABLE2_GATES)

    def test_max_inputs(self, library):
        assert library.max_inputs() == 6

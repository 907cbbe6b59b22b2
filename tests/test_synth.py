"""Tests for the synthesis substrates: SOP, AIG, cuts, mapper."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import parity_tree, ripple_carry_adder
from repro.circuit.blif import parse_blif
from repro.circuit.logic import LogicNetwork
from repro.circuit.netlist import CircuitError
from repro.gates.library import default_library
from repro.sim.logicsim import check_equivalence, random_vectors
from repro.synth.aig import AIG, aig_from_logic_network, lit_node, lit_not, lit_phase
from repro.synth.cuts import enumerate_cuts
from repro.synth.mapper import PatternIndex, TechMapper, map_circuit
from repro.synth.sop import (
    cover_to_expr,
    cube_contains,
    cube_distance,
    merge_cubes,
    simplify_cover,
)

LIB = default_library()


class TestSop:
    def test_cube_contains(self):
        assert cube_contains("1--", "110")
        assert not cube_contains("110", "1--")
        assert cube_contains("---", "010")

    def test_cube_distance(self):
        assert cube_distance("1--", "11-") == 0  # '-' never opposes
        assert cube_distance("10-", "01-") == 2
        assert cube_distance("111", "110") == 1

    def test_merge_adjacent(self):
        assert merge_cubes("10-", "11-") == "1--"
        assert merge_cubes("111", "110") == "11-"
        assert merge_cubes("1--", "0-1") is None
        assert merge_cubes("abc"[:2] * 0 + "11", "11") == "11"  # identical

    def test_simplify_removes_contained(self):
        assert set(simplify_cover(["1--", "110"])) == {"1--"}

    def test_simplify_merges(self):
        result = simplify_cover(["100", "101", "110", "111"])
        assert set(result) == {"1--"}

    @given(st.lists(
        st.text(alphabet="01-", min_size=3, max_size=3), min_size=1, max_size=6
    ))
    @settings(max_examples=60, deadline=None)
    def test_simplify_preserves_function(self, patterns):
        variables = ("a", "b", "c")
        before = cover_to_expr(patterns, variables).to_truthtable(variables)
        after_cover = simplify_cover(patterns)
        after = cover_to_expr(after_cover, variables).to_truthtable(variables)
        assert before == after
        assert len(after_cover) <= len(set(patterns))


class TestAIG:
    def test_constant_folding(self):
        aig = AIG()
        a = aig.add_pi("a")
        assert aig.and_(a, 0) == 0
        assert aig.and_(a, 1) == a
        assert aig.and_(a, a) == a
        assert aig.and_(a, lit_not(a)) == 0

    def test_strashing_shares_nodes(self):
        aig = AIG()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        assert aig.and_(a, b) == aig.and_(b, a)
        assert aig.num_ands == 1

    def test_or_xor_semantics(self):
        aig = AIG()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        aig.add_po("or", aig.or_(a, b))
        aig.add_po("xor", aig.xor_(a, b))
        for va, vb in itertools.product([False, True], repeat=2):
            out = aig.evaluate({"a": va, "b": vb})
            assert out["or"] == (va or vb)
            assert out["xor"] == (va != vb)

    def test_balanced_many(self):
        aig = AIG()
        lits = [aig.add_pi(f"x{i}") for i in range(5)]
        aig.add_po("all", aig.and_many(lits))
        aig.add_po("any", aig.or_many(lits))
        env = {f"x{i}": True for i in range(5)}
        assert aig.evaluate(env) == {"all": True, "any": True}
        env["x3"] = False
        assert aig.evaluate(env) == {"all": False, "any": True}

    def test_from_logic_network_equivalent(self):
        network = ripple_carry_adder(3)
        aig = aig_from_logic_network(network)
        rng = np.random.default_rng(0)
        for vector in random_vectors(list(network.inputs), 40, rng):
            assert aig.evaluate(vector) == network.evaluate_outputs(vector)

    def test_cone_truthtable(self):
        aig = AIG()
        a, b, c = (aig.add_pi(x) for x in "abc")
        n1 = aig.and_(a, b)
        n2 = aig.and_(lit_not(n1), c)
        tt = aig.cone_truthtable(lit_node(n2), (lit_node(a) // 1, lit_node(b), lit_node(c)),
                                 ("x0", "x1", "x2"))
        # f = !(a&b) & c
        for m in range(8):
            va, vb, vc = bool(m & 1), bool(m & 2), bool(m & 4)
            assert tt.evaluate_index(m) == ((not (va and vb)) and vc)

    def test_cone_escape_detected(self):
        aig = AIG()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        n = aig.and_(a, b)
        with pytest.raises(ValueError):
            aig.cone_truthtable(lit_node(n), (lit_node(a),), ("x0",))


class TestCuts:
    def test_pi_trivial_cut(self):
        aig = AIG()
        a = aig.add_pi("a")
        cuts = enumerate_cuts(aig)
        assert cuts[lit_node(a)] == [(lit_node(a),)]

    def test_and_cut_contains_fanin_pair(self):
        aig = AIG()
        a, b = aig.add_pi("a"), aig.add_pi("b")
        n = aig.and_(a, b)
        cuts = enumerate_cuts(aig)
        node = lit_node(n)
        assert (lit_node(a), lit_node(b)) in cuts[node]
        assert (node,) in cuts[node]

    def test_cut_size_bounded(self):
        network = ripple_carry_adder(4)
        aig = aig_from_logic_network(network)
        cuts = enumerate_cuts(aig, k=4, max_cuts=10)
        for node, node_cuts in cuts.items():
            for cut in node_cuts:
                assert len(cut) <= 4
            assert len(node_cuts) <= 11  # max_cuts + trivial

    def test_k_validation(self):
        with pytest.raises(ValueError):
            enumerate_cuts(AIG(), k=1)


class TestPatternIndex:
    def test_nand2_matches_with_phases(self):
        index = PatternIndex(LIB, {"nand2", "inv"})
        # f = !(x0 & x1): plain nand2 match.
        from repro.boolean.expr import parse_expr

        tt = parse_expr("!(x0 & x1)").to_truthtable(("x0", "x1"))
        match = index.lookup(2, tt.bits)
        assert match is not None and match.template.name == "nand2"
        # f = !(x0 & !x1): nand2 with one complemented pin.
        tt2 = parse_expr("!(x0 & !x1)").to_truthtable(("x0", "x1"))
        match2 = index.lookup(2, tt2.bits)
        assert match2 is not None and match2.template.name == "nand2"
        assert sum(match2.phases) == 1

    def test_aoi_matches_under_permutation(self):
        index = PatternIndex(LIB)
        from repro.boolean.expr import parse_expr

        # aoi21 with shuffled leaves: !((x2 & x0) | x1)
        tt = parse_expr("!((x2 & x0) | x1)").to_truthtable(("x0", "x1", "x2"))
        match = index.lookup(3, tt.bits)
        assert match is not None and match.template.name == "aoi21"

    def test_cache_keyed_by_library_content(self, monkeypatch):
        from repro.synth import mapper

        monkeypatch.setattr(mapper, "_PATTERN_CACHE", {})
        network = ripple_carry_adder(2)
        names = {"inv", "nand2", "nor2"}
        first = map_circuit(network, default_library(), gate_names=names)
        second = map_circuit(network, default_library(), gate_names=names)
        # Two equal (fresh) libraries share one index entry.
        assert len(mapper._PATTERN_CACHE) == 1
        assert [(g.name, g.template.name, g.pin_nets) for g in first.gates] \
            == [(g.name, g.template.name, g.pin_nets) for g in second.gates]

    def test_no_match_for_xor(self):
        index = PatternIndex(LIB)
        from repro.boolean.expr import parse_expr

        tt = parse_expr("x0 ^ x1 ^ x2").to_truthtable(("x0", "x1", "x2"))
        assert index.lookup(3, tt.bits) is None
        assert index.lookup(3, (~tt).bits) is None


class TestMapper:
    @pytest.mark.parametrize("builder", [
        lambda: ripple_carry_adder(2),
        lambda: parity_tree(4),
    ])
    def test_mapping_is_equivalent(self, builder):
        network = builder()
        circuit = map_circuit(network)
        assert check_equivalence(network, circuit)

    def test_po_names_preserved(self):
        network = ripple_carry_adder(2)
        circuit = map_circuit(network)
        assert set(circuit.outputs) == set(network.outputs)
        assert set(circuit.inputs) == set(network.inputs)

    def test_buffer_output_handled(self):
        """A PO that is just a copy of a PI needs a double inverter."""
        text = ".model buf\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"
        network = parse_blif(text)
        circuit = map_circuit(network)
        assert check_equivalence(network, circuit)
        assert len(circuit) == 2  # two inverters

    def test_shared_output_functions(self):
        """Two POs computing the same function both get driven."""
        text = (".model twin\n.inputs a b\n.outputs y z\n"
                ".names a b y\n11 1\n.names a b z\n11 1\n.end\n")
        network = parse_blif(text)
        circuit = map_circuit(network)
        assert check_equivalence(network, circuit)

    def test_constant_output_rejected(self):
        text = ".model k\n.inputs a\n.outputs y\n.names y\n1\n.end\n"
        network = parse_blif(text)
        with pytest.raises(CircuitError):
            map_circuit(network)

    def test_inverted_output(self):
        text = ".model n\n.inputs a\n.outputs y\n.names a y\n0 1\n.end\n"
        network = parse_blif(text)
        circuit = map_circuit(network)
        assert check_equivalence(network, circuit)
        assert len(circuit) == 1
        assert circuit.gates[0].template.name == "inv"

    def test_restricted_library_naive_mapping(self):
        """nand2/inv-only mapping still works (the guaranteed fallback)."""
        network = ripple_carry_adder(2)
        circuit = map_circuit(network, k=2, gate_names={"nand2", "inv"})
        assert check_equivalence(network, circuit)
        assert set(circuit.gate_count_by_template()) <= {"nand2", "inv"}

    def test_rich_library_maps_smaller(self):
        network = ripple_carry_adder(4)
        rich = map_circuit(network)
        naive = map_circuit(network, k=2, gate_names={"nand2", "inv"})
        assert rich.transistor_count() < naive.transistor_count()

    def test_aoi_gates_actually_used(self):
        network = ripple_carry_adder(8)
        circuit = map_circuit(network)
        mix = circuit.gate_count_by_template()
        assert any(name.startswith(("aoi", "oai")) for name in mix)

    @given(st.integers(min_value=0, max_value=2**20 - 1))
    @settings(max_examples=15, deadline=None)
    def test_random_two_level_functions_map_correctly(self, bits):
        """Any 3-input single-output function maps and stays equivalent."""
        variables = ("a", "b", "c")
        cubes = []
        for m in range(8):
            if (bits >> m) & 1:
                cubes.append("".join(
                    "1" if (m >> j) & 1 else "0" for j in range(3)
                ))
        if not cubes or len(cubes) == 8:
            return  # constant functions are rejected by design
        network = LogicNetwork("rand")
        for v in variables:
            network.add_input(v)
        network.add_cover("y", variables, tuple(cubes))
        network.add_output("y")
        circuit = map_circuit(network)
        assert check_equivalence(network, circuit)

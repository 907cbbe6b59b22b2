"""Tests for the synthesis substrates: SOP, AIG, cuts, mapper."""

import hashlib
import itertools

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.bench.generators import parity_tree, random_logic, ripple_carry_adder
from repro.boolean.truthtable import TruthTable
from repro.circuit.blif import parse_blif, write_mapped_blif
from repro.circuit.logic import LogicNetwork
from repro.circuit.netlist import CircuitError
from repro.gates.library import default_library
from repro.sim.logicsim import check_equivalence, random_vectors
from repro.synth.aig import AIG, aig_from_logic_network, lit_node, lit_not, lit_phase
from repro.synth.cuts import enumerate_cuts
from repro.synth.mapper import (
    PatternIndex,
    TechMapper,
    cut_function,
    map_circuit,
    shrink_word,
    word_support,
)
from repro.synth.reference import reference_enumerate_cuts, reference_pattern_tables
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


# ----------------------------------------------------------------------
# The integer front end against its readable oracles
# ----------------------------------------------------------------------
class TestPatternIndexOracle:
    @pytest.mark.parametrize("gate_names", [
        None, {"nand2", "inv", "aoi21"}, {"nand2", "inv", "oai222"},
    ], ids=["full", "aoi21", "oai222"])
    def test_tables_equal_readable_loop(self, gate_names):
        index = PatternIndex(LIB, gate_names)
        reference = reference_pattern_tables(LIB, gate_names)
        assert index._tables == reference
        # Same insertion order too: the first writer is the same match.
        assert [list(t.items()) for t in index._tables.values()] \
            == [list(t.items()) for t in reference.values()]


def _cut_networks():
    from repro.bench.suite import benchmark_suite

    cases = [pytest.param(case.network, id=case.name)
             for case in benchmark_suite("quick")]
    return cases + [pytest.param(lambda: random_logic(12, 100, 7),
                                 id="random_logic(12, 100, 7)")]


class TestCutsOracle:
    @pytest.mark.parametrize("build", _cut_networks())
    def test_cuts_equal_quadratic_filter(self, build):
        aig = aig_from_logic_network(build())
        for k, max_cuts in itertools.product((4, 6), (8, 16)):
            assert enumerate_cuts(aig, k, max_cuts) \
                == reference_enumerate_cuts(aig, k, max_cuts), (k, max_cuts)


@st.composite
def cone_and_cut(draw):
    """A random AIG, one of its AND nodes and a cut of that node."""
    num_pis = draw(st.integers(min_value=1, max_value=6))
    aig = AIG()
    lits = [aig.add_pi(f"i{j}") for j in range(num_pis)]
    for _ in range(draw(st.integers(min_value=1, max_value=14))):
        a = draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1))
        b = draw(st.sampled_from(lits)) ^ draw(st.integers(0, 1))
        lit = aig.and_(a, b)
        if lit_node(lit) != 0:
            lits.append(lit)
    ands = [n for n in range(aig.num_nodes) if aig.is_and(n)]
    assume(ands)
    node = draw(st.sampled_from(ands))
    cuts = [c for c in enumerate_cuts(aig)[node] if node not in c]
    cuts.append(tuple(range(1, num_pis + 1)))  # the primary inputs
    cut = draw(st.sampled_from(cuts))
    return aig, node, tuple(draw(st.permutations(cut)))


class TestConeWords:
    @given(cone_and_cut())
    @settings(max_examples=200, deadline=None)
    def test_word_functions_equal_truthtables(self, case):
        aig, node, cut = case
        variables = tuple(f"x{i}" for i in range(len(cut)))
        tt = aig.cone_truthtable(node, cut, variables)
        bits = aig.cone_word(node, cut)
        assert bits == tt.bits
        support = word_support(bits, len(cut))
        assert tuple(variables[j] for j in support) == tt.support()
        found = cut_function(aig, node, cut)
        if not support:
            assert tt.is_constant() and found is None
            return
        kept = tuple(variables[j] for j in support)
        shrunk = tt.expand(kept).rename(dict(zip(kept, variables)))
        assert found == (tuple(cut[j] for j in support), shrunk.bits)

    def test_shrink_word_drops_unused_variables(self):
        # f = x1 & !x3 over four variables, read over (x1, x3).
        tt = TruthTable.from_function(
            ("x0", "x1", "x2", "x3"), lambda v: v["x1"] and not v["x3"])
        assert word_support(tt.bits, 4) == (1, 3)
        assert shrink_word(tt.bits, (1, 3)) == 0b0010

    def test_cone_word_rejects_wide_cuts(self):
        aig = AIG()
        lits = [aig.add_pi(f"i{j}") for j in range(7)]
        top = lit_node(aig.and_many(lits))
        with pytest.raises(ValueError):
            aig.cone_word(top, tuple(range(1, 8)))


#: sha256 of ``write_mapped_blif(map_circuit(network))``, recorded with
#: the per-permutation pattern loop, the TruthTable cone functions and
#: the quadratic cut filter.  The integer front end must reproduce them.
MAPPED_DIGESTS = {
    "c17": "60206a7bc0b73533e352eaad5916386838c7840ca565d8d197aa3c1a016dc0e7",
    "xor5": "f5840d78790d06e0ea7dc158c4feb2dc2ec3d4284904be4f6074527cc877cf73",
    "maj3": "89ff86903c63ad848e2896077d0609ca050daf53e6049fb418e27bd585b43482",
    "fa1": "f3d1bc7d908a92176b0a7286037492d63103ad9e79a6fc299b64a9ecd5bd2363",
    "rca4": "8fbdb983eaa8fc70ac304f31895ce92789c9a9308928e7983648c124803f8238",
    "rca8": "11448b26eeb93b344f18a39748962377668d07b9ed014abaab341aad7e1f4e38",
    "rca16": "61307c5975ae92ba5dd368f13ba824a8b8791b9df339ff6ebf7eec4d0a46a1de",
    "mult2": "dc24b9639d68c5c924414ac6798d97d121ea3cd42f7003c10911ebd62e7db502",
    "mult3": "372ebf56fee1a4a51ef84fa40bb12dd207ac284f3ade03dc591fe976aa7cf9b6",
    "mult4": "86adc08dc5b7b81fa4ea269fde729cb68f71d9545efc3db50a7811ff6b8ecb13",
    "parity8": "93d1c04190a749168b8cc04d9747cff0c6dd289e25e87a6f4393acfa30c6e7f0",
    "parity16": "185e1616c66e27cd597296ad73f9d58dd6bdacb501a6e786ee9e6431ef6d354f",
    "eqcmp8": "ae40f14c7ff397527d65eb93293e1e1c31e56554de2d73cc8bce71473cef6983",
    "magcmp6": "823a353f0347438a7d1352485f248028beb0fe87ee77ac581d8382307ad9a743",
    "magcmp10": "975f7b5d34e3eeba5e311149af522c65e05220f494b248a0da2371556069c7ff",
    "dec3": "200d3c2c7a9358daafac8527f5958abee301c5cf4c8cc94c8ed04e04aa91fb49",
    "dec4": "11c0e98493a2b1966cfb5f10ae73513e04b89b639faf5b8863a01ba71ae68835",
    "mux8": "1a2bae05dcbc96462c2b8d3220d048fe5b6c41c98b208ee57ad7f54558fc2bed",
    "mux16": "2588b3ff7e6129bf9aba36e330507d8563816ef7844bf4925fe2b1c094bb7add",
    "alu2": "d69de27065e482cbc2a16eb198be54671664768abb69f5d406a6308dfdf89e54",
    "alu4": "9304fd5264113dfb57a7dca24e8a85d3f7ee29844b84b8bf7e3a808a3e5359b6",
    "maj5": "b9211829161abde8cfedfb8309f608df3c2284bf02ab6025e5548489a660e712",
    "rnd_a": "a69c35cdf5955d3453633d8f2679eddd5d2536b4520c4d5e7d29eae39cccc3f2",
    "rnd_b": "f9dee5d20cbb2ad4e732f337562ea9bbf25b0a7d584568f387a7bb69cd502569",
    "rnd_c": "eb649af69f9c67810442316935e9594a860f435bec076a6f56a6fe192c0ae04a",
    "rnd_d": "21df73bf1635f7813a6094e6e9f160087133beff1574bcf6960d15b8f1cedeb1",
    "rnd_e": "a29be66d0992251dec48ba9c630a2fe2e4dda62cfa6e0b4eb65ab3aeb25e6c1a",
    "rnd_f": "894f78e4f70ec0978855dd9007985108e2252b7abca6ea638060b5b44796bd78",
    "rnd_g": "e78cd4f20ee207391a913180a4740e84be2cf60e79e744f0ef0a08976ac64c9b",
    "rnd_h": "4ac92ab9e30b02affd1a62a8fa5318d4edad803d3786b7e984a55fcade975b8b",
}

RANDOM_DIGESTS = {
    (12, 100, 7): "664d799e419597216398669d65745028bd5f9f44d35263dd15e952e4d5ed6e48",
    (16, 220, 7): "a977d7ab3883e3c40a12242cf7ee64854f499c1c70e5e092217650195142140d",
    (16, 1000, 7): "be3b2dd08e31d01cdfa654453db8e5b2e9725c7fa042363527832bd7ac63ecae",
}


def _mapped_digest(network):
    text = write_mapped_blif(map_circuit(network))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class TestMappedGoldens:
    @pytest.mark.parametrize("name", sorted(MAPPED_DIGESTS))
    def test_suite_circuit(self, name):
        from repro.bench.suite import get_case

        assert _mapped_digest(get_case(name).network()) == MAPPED_DIGESTS[name]

    @pytest.mark.parametrize("shape", [
        (12, 100, 7),
        (16, 220, 7),
        pytest.param((16, 1000, 7), marks=pytest.mark.slow),
    ], ids=str)
    def test_random_logic(self, shape):
        assert _mapped_digest(random_logic(*shape)) == RANDOM_DIGESTS[shape]

    def test_every_suite_circuit_has_a_digest(self):
        from repro.bench.suite import benchmark_suite

        assert {case.name for case in benchmark_suite()} == set(MAPPED_DIGESTS)

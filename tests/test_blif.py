"""Tests for logic networks and the BLIF reader/writer."""

import itertools

import pytest

from repro.circuit.blif import (
    BlifError,
    parse_blif,
    parse_mapped_blif,
    write_blif,
    write_mapped_blif,
)
from repro.circuit.logic import Cube, LogicError, LogicNetwork, LogicNode
from repro.circuit.netlist import Circuit
from repro.gates.library import default_library

LIB = default_library()

FULL_ADDER_BLIF = """
# one-bit full adder
.model fa
.inputs a b cin
.outputs sum cout
.names a b cin sum
100 1
010 1
001 1
111 1
.names a b cin cout
11- 1
1-1 1
-11 1
.end
"""


class TestCube:
    def test_matches(self):
        cube = Cube("1-0")
        assert cube.matches([True, True, False])
        assert cube.matches([True, False, False])
        assert not cube.matches([False, True, False])
        assert not cube.matches([True, True, True])

    def test_bad_chars(self):
        with pytest.raises(LogicError):
            Cube("1x0")

    def test_arity_mismatch(self):
        with pytest.raises(LogicError):
            Cube("10").matches([True])


class TestLogicNode:
    def test_function_onset(self):
        node = LogicNode("f", ("a", "b"), (Cube("11"),))
        tt = node.function()
        assert tt.count_minterms() == 1

    def test_function_offset_phase(self):
        node = LogicNode("f", ("a", "b"), (Cube("11"),), phase=False)
        assert node.function().count_minterms() == 3
        assert node.evaluate({"a": True, "b": True}) is False

    def test_constant_node(self):
        one = LogicNode("k1", (), (Cube(""),))
        zero = LogicNode("k0", (), ())
        assert one.constant_value() is True
        assert zero.constant_value() is False

    def test_arity_check(self):
        with pytest.raises(LogicError):
            LogicNode("f", ("a",), (Cube("11"),))


class TestLogicNetwork:
    def test_evaluate_full_adder(self):
        network = parse_blif(FULL_ADDER_BLIF)
        for a, b, cin in itertools.product([0, 1], repeat=3):
            out = network.evaluate_outputs(
                {"a": bool(a), "b": bool(b), "cin": bool(cin)}
            )
            assert out["sum"] == bool((a + b + cin) & 1)
            assert out["cout"] == bool(a + b + cin >= 2)

    def test_topological_nodes_cycle_detection(self):
        net = LogicNetwork("cyc")
        net.add_input("a")
        net.add_cover("x", ("a", "z"), ["11"])
        net.add_cover("z", ("x",), ["1"])
        with pytest.raises(LogicError):
            net.topological_nodes()

    def test_duplicate_driver_rejected(self):
        net = LogicNetwork("dup")
        net.add_input("a")
        net.add_cover("x", ("a",), ["1"])
        with pytest.raises(LogicError):
            net.add_cover("x", ("a",), ["0"])

    def test_undriven_output_detected(self):
        net = LogicNetwork("bad")
        net.add_input("a")
        net.add_output("y")
        with pytest.raises(LogicError):
            net.validate()


class TestBlifParser:
    def test_parse_structure(self):
        network = parse_blif(FULL_ADDER_BLIF)
        assert network.name == "fa"
        assert network.inputs == ["a", "b", "cin"]
        assert network.outputs == ["sum", "cout"]
        assert len(network) == 2

    def test_comments_and_continuations(self):
        text = """
.model c  # trailing comment
.inputs a \\
        b
.outputs y
.names a b y
11 1
.end
"""
        network = parse_blif(text)
        assert network.inputs == ["a", "b"]
        assert network.evaluate_outputs({"a": True, "b": True})["y"] is True

    def test_offset_cover(self):
        text = ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 0\n.end\n"
        network = parse_blif(text)
        assert network.evaluate_outputs({"a": True, "b": True})["y"] is False
        assert network.evaluate_outputs({"a": False, "b": True})["y"] is True

    def test_mixed_phase_rejected(self):
        text = ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n"
        with pytest.raises(BlifError):
            parse_blif(text)

    def test_mixed_phase_error_names_the_names_line(self):
        text = ".model m\n.inputs a b\n.outputs y\n.names a b y\n11 1\n00 0\n.end\n"
        with pytest.raises(BlifError, match=r"^line 4: node y: mixed ON-set/OFF-set cover$"):
            parse_blif(text)

    def test_bad_cube_error_names_its_line(self):
        text = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n2 1\n.end\n"
        with pytest.raises(BlifError, match=r"^line 6: invalid cube characters \['2'\] in '2'$"):
            parse_blif(text)

    def test_constant_one_node(self):
        text = ".model m\n.inputs a\n.outputs y\n.names y\n1\n.end\n"
        network = parse_blif(text)
        assert network.evaluate_outputs({"a": False})["y"] is True

    def test_latch_rejected(self):
        text = ".model m\n.inputs a\n.outputs y\n.latch a y re clk 0\n.end\n"
        with pytest.raises(BlifError):
            parse_blif(text)

    def test_empty_rejected(self):
        with pytest.raises(BlifError):
            parse_blif("# nothing here\n")

    def test_roundtrip(self):
        network = parse_blif(FULL_ADDER_BLIF)
        back = parse_blif(write_blif(network))
        for vector in itertools.product([False, True], repeat=3):
            env = dict(zip(("a", "b", "cin"), vector))
            assert network.evaluate_outputs(env) == back.evaluate_outputs(env)


class TestMappedBlif:
    def _circuit(self):
        c = Circuit("m", LIB)
        c.add_input("a")
        c.add_input("b")
        c.add_output("y")
        c.add_gate("g0", "nand2", {"a": "a", "b": "b"}, "n0")
        c.add_gate("g1", "inv", {"a": "n0"}, "y")
        return c

    def test_roundtrip(self):
        circuit = self._circuit()
        text = write_mapped_blif(circuit)
        back = parse_mapped_blif(text, LIB)
        assert back.inputs == circuit.inputs
        assert back.outputs == circuit.outputs
        for vector in itertools.product([False, True], repeat=2):
            env = dict(zip(("a", "b"), vector))
            assert back.evaluate(env)["y"] == circuit.evaluate(env)["y"]

    def test_gate_lines_have_output_binding(self):
        text = ".model m\n.inputs a\n.outputs y\n.gate inv a=a\n.end\n"
        with pytest.raises(BlifError):
            parse_mapped_blif(text, LIB)

    def test_names_rejected_in_mapped(self):
        text = ".model m\n.inputs a\n.outputs y\n.names a y\n1 1\n.end\n"
        with pytest.raises(BlifError):
            parse_mapped_blif(text, LIB)

"""Tests for mapped netlists and topological traversals."""

import pytest

from repro.circuit.netlist import Circuit, CircuitError
from repro.circuit.topology import (
    levelize,
    reachable_from_outputs,
    topological_gates,
    transitive_fanin,
)
from repro.gates.capacitance import TechParams
from repro.gates.library import default_library

LIB = default_library()


def two_level_circuit():
    """y = !( !(a&b) & !(c&d) ) — an AND-OR built from NANDs."""
    c = Circuit("and_or", LIB)
    for net in ("a", "b", "c", "d"):
        c.add_input(net)
    c.add_output("y")
    c.add_gate("g0", "nand2", {"a": "a", "b": "b"}, "n1")
    c.add_gate("g1", "nand2", {"a": "c", "b": "d"}, "n2")
    c.add_gate("g2", "nand2", {"a": "n1", "b": "n2"}, "y")
    return c


class TestConstruction:
    def test_basic(self):
        c = two_level_circuit()
        c.validate()
        assert len(c) == 3
        assert c.driver("y").name == "g2"
        assert c.driver("a") is None

    def test_duplicate_gate_name(self):
        c = two_level_circuit()
        with pytest.raises(CircuitError):
            c.add_gate("g0", "inv", {"a": "a"}, "z")

    def test_multiple_drivers_rejected(self):
        c = two_level_circuit()
        with pytest.raises(CircuitError):
            c.add_gate("g3", "inv", {"a": "a"}, "n1")

    def test_driving_primary_input_rejected(self):
        c = two_level_circuit()
        with pytest.raises(CircuitError):
            c.add_gate("g3", "inv", {"a": "n1"}, "a")

    def test_wrong_pins_rejected(self):
        c = two_level_circuit()
        with pytest.raises(CircuitError):
            c.add_gate("g3", "nand2", {"a": "a"}, "z")  # missing pin b
        with pytest.raises(CircuitError):
            c.add_gate("g4", "inv", {"a": "a", "x": "b"}, "z")

    def test_undriven_net_detected(self):
        c = Circuit("bad", LIB)
        c.add_input("a")
        c.add_output("y")
        c.add_gate("g0", "nand2", {"a": "a", "b": "ghost"}, "y")
        with pytest.raises(CircuitError):
            c.validate()

    def test_undriven_output_detected(self):
        c = Circuit("bad", LIB)
        c.add_input("a")
        c.add_output("y")
        with pytest.raises(CircuitError):
            c.validate()

    def test_duplicate_io(self):
        c = Circuit("bad", LIB)
        c.add_input("a")
        with pytest.raises(CircuitError):
            c.add_input("a")
        c.add_output("y")
        with pytest.raises(CircuitError):
            c.add_output("y")


class TestQueries:
    def test_fanout(self):
        c = two_level_circuit()
        sinks = c.fanout("n1")
        assert [(g.name, pin) for g, pin in sinks] == [("g2", "a")]

    def test_nets(self):
        c = two_level_circuit()
        assert set(c.nets()) == {"a", "b", "c", "d", "n1", "n2", "y"}

    def test_output_load_counts_pins_and_po(self):
        c = two_level_circuit()
        tech = TechParams()
        # n1 feeds one nand2 pin: 2 gate terminals.
        assert c.output_load("n1", tech, po_load=0.0) == pytest.approx(2 * tech.c_gate)
        # y is a primary output with no fanout.
        assert c.output_load("y", tech, po_load=7e-15) == pytest.approx(7e-15)

    def test_gate_count_by_template(self):
        c = two_level_circuit()
        assert c.gate_count_by_template() == {"nand2": 3}

    def test_transistor_count_and_area(self):
        c = two_level_circuit()
        assert c.transistor_count() == 12
        assert c.area() == 12.0

    def test_copy_independent(self):
        c = two_level_circuit()
        clone = c.copy()
        clone.set_config("g0", LIB["nand2"].configurations()[1])
        assert c.gate("g0").config is None

    def test_evaluate(self):
        c = two_level_circuit()
        values = c.evaluate({"a": True, "b": True, "c": False, "d": False})
        # y = (a&b) | (c&d) = 1
        assert values["y"] is True
        values = c.evaluate({"a": True, "b": False, "c": False, "d": True})
        assert values["y"] is False


class TestTopology:
    def test_topological_order(self):
        c = two_level_circuit()
        order = [g.name for g in topological_gates(c)]
        assert order.index("g2") > order.index("g0")
        assert order.index("g2") > order.index("g1")

    def test_cycle_detected(self):
        c = Circuit("cyc", LIB)
        c.add_input("a")
        c.add_output("y")
        c.add_gate("g0", "nand2", {"a": "a", "b": "n2"}, "n1")
        c.add_gate("g1", "inv", {"a": "n1"}, "n2")
        c.add_gate("g2", "inv", {"a": "n1"}, "y")
        with pytest.raises(CircuitError):
            topological_gates(c)
        with pytest.raises(CircuitError):
            c.validate()

    def test_levelize(self):
        c = two_level_circuit()
        levels = levelize(c)
        assert levels["g0"] == 0 and levels["g1"] == 0 and levels["g2"] == 1

    def test_transitive_fanin(self):
        c = two_level_circuit()
        cone = [g.name for g in transitive_fanin(c, "n1")]
        assert cone == ["g0"]
        cone = [g.name for g in transitive_fanin(c, "y")]
        assert set(cone) == {"g0", "g1", "g2"}

    def test_reachable_from_outputs_drops_dangling(self):
        c = two_level_circuit()
        c.add_gate("dangling", "inv", {"a": "a"}, "unused")
        reachable = {g.name for g in reachable_from_outputs(c)}
        assert reachable == {"g0", "g1", "g2"}

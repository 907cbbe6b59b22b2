"""Tests for mapped netlists and topological traversals."""

import pytest

from repro.bench.suite import get_case
from repro.circuit.netlist import (
    AddGate,
    Circuit,
    CircuitError,
    SetConfig,
    SetTemplate,
)
from repro.circuit.topology import (
    levelize,
    reachable_from_outputs,
    topological_gates,
    transitive_fanin,
)
from repro.gates.capacitance import TechParams
from repro.gates.library import default_library
from repro.incremental import StatsCache, TimingCache
from repro.incremental.portfolio import circuit_spec
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit

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
        spec = circuit_spec(c)
        clone = c.copy()
        clone.set_config("g0", LIB["nand2"].configurations()[1])
        clone.set_template("g1", "nor2")
        clone.apply_edit(AddGate("extra", "inv", (("a", "a"),), "extra_n"))
        assert c.gate("g0").config is None
        assert circuit_spec(c) == spec
        assert "extra" not in c and c.driver("extra_n") is None

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


# ----------------------------------------------------------------------
# Configurations are orderings of their gate's template
# ----------------------------------------------------------------------
class TestForeignConfigurations:
    """A configuration of another template is refused before any
    mutation: without the check a ``nand3`` gate holding a ``nor3``
    ordering silently computes another function, and a cache that
    trusts reorders to keep the function would go stale."""

    @pytest.fixture
    def fa1(self):
        circuit = map_circuit(get_case("fa1").network())
        stats = ScenarioA(seed=1).input_stats(circuit.inputs)
        gate = next(g for g in circuit.gates if g.template.name == "nand3")
        return circuit, stats, gate, LIB["nor3"].configurations()[1]

    def test_foreign_config_function_differs(self, fa1):
        _, _, gate, foreign = fa1
        assert (gate.template.compile_config(foreign).output_tt
                != gate.template.function())
        assert gate.template.config_index(foreign) is None

    def test_every_entry_point_refuses(self, fa1):
        circuit, stats, gate, foreign = fa1
        with StatsCache(circuit, stats) as cache, \
                TimingCache(circuit, index=cache.index) as timing:
            spec = circuit_spec(circuit)
            net_stats = dict(cache.stats())
            power = cache.total_power()
            delay = timing.delay()
            pins = tuple((pin, gate.pin_nets[pin])
                         for pin in gate.template.pins)
            attempts = [
                lambda: circuit.apply_edit(SetConfig(gate.name, foreign)),
                lambda: circuit.set_config(gate.name, foreign),
                lambda: circuit.apply_edit(
                    SetTemplate(gate.name, "nand3", foreign)),
                lambda: circuit.apply_edit(
                    AddGate("extra", "nand3", pins, "extra_n", foreign)),
                lambda: circuit.add_gate("extra", "nand3", dict(pins),
                                         "extra_n", foreign),
            ]
            for attempt in attempts:
                with pytest.raises(
                        CircuitError,
                        match=rf"gate ({gate.name}|extra): .* template 'nand3'"):
                    attempt()
                assert circuit_spec(circuit) == spec
                assert cache.dirty_gates == frozenset()
                assert cache.stats() == net_stats
                assert cache.total_power() == power
                assert timing.delay() == delay
            assert "extra" not in circuit

    def test_message_names_gate_and_template(self, fa1):
        circuit, _, gate, foreign = fa1
        with pytest.raises(CircuitError,
                           match=rf"gate {gate.name}: .* template 'nand3'"):
            circuit.set_config(gate.name, foreign)

    def test_own_orderings_and_default_accepted(self, fa1):
        circuit, _, gate, _ = fa1
        for config in gate.template.configurations():
            circuit.set_config(gate.name, config)
        circuit.set_config(gate.name, None)
        circuit.set_template(gate.name, "nor3",
                             LIB["nor3"].configurations()[1])
        assert circuit.gate(gate.name).template.name == "nor3"


# ----------------------------------------------------------------------
# Circuit.copy clones gates directly
# ----------------------------------------------------------------------
class TestCopy:
    @pytest.fixture
    def mapped(self):
        circuit = map_circuit(get_case("rca4").network())
        gate = next(g for g in circuit.gates
                    if g.template.num_configurations() > 1)
        circuit.set_config(gate.name, gate.template.configurations()[-1])
        return circuit

    def test_spec_equal(self, mapped):
        assert circuit_spec(mapped.copy()) == circuit_spec(mapped)
        assert mapped.copy("other").name == "other"

    def test_gates_are_new_objects_on_library_templates(self, mapped):
        clone = mapped.copy()
        for gate in clone.gates:
            original = mapped.gate(gate.name)
            assert gate is not original
            assert gate.pin_nets is not original.pin_nets
            assert gate.template is mapped.library[gate.template.name]
            assert clone.driver(gate.output) is gate
        clone.validate()

    def test_edit_only_fields_stay_guarded(self, mapped):
        gate = mapped.copy().gates[0]
        with pytest.raises(AttributeError, match="read-only"):
            gate.config = None
        with pytest.raises(AttributeError, match="read-only"):
            gate.template = LIB["inv"]

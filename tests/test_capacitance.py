"""Tests for the structural capacitance model."""

import functools
import operator

import pytest

from repro.gates.capacitance import (
    TechParams,
    internal_node_capacitance,
    net_load,
    node_capacitance,
    output_intrinsic_capacitance,
    pin_capacitance,
)
from repro.gates.library import default_library
from repro.gates.network import OUT

LIB = default_library()
TECH = TechParams()


class TestTechParams:
    def test_defaults_positive(self):
        t = TechParams()
        assert t.vdd > 0 and t.c_diff > 0 and t.r_n > 0

    def test_validation(self):
        with pytest.raises(ValueError):
            TechParams(vdd=0.0)
        with pytest.raises(ValueError):
            TechParams(c_diff=-1e-15)

    def test_switch_energy_factor(self):
        t = TechParams(vdd=2.0)
        assert t.switch_energy_factor == pytest.approx(2.0)


class TestPinCapacitance:
    def test_ordinary_pin_two_gates(self):
        gate = LIB["nand2"].compile_config()
        # One N and one P transistor per pin.
        assert pin_capacitance(gate, "a", TECH) == pytest.approx(2 * TECH.c_gate)

    def test_unknown_pin(self):
        gate = LIB["inv"].compile_config()
        with pytest.raises(KeyError):
            pin_capacitance(gate, "z", TECH)


class TestNetLoad:
    def test_sinks_fold_left_to_right(self):
        """A net's load is a strict left fold of its sinks' pin caps.

        The compiled ``net_loads`` kernel adds in that order; Python's
        float ``sum()`` is compensated from 3.12 and already differs
        from the fold at seven equal sinks.
        """

        class Sink:
            def compiled(self):
                return LIB["nand2"].compile_config()

        sinks = [(Sink(), "a")] * 7 + [(Sink(), "b")] * 4
        caps = [pin_capacitance(g.compiled(), pin, TECH) for g, pin in sinks]
        for n in range(len(sinks) + 1):
            fold = functools.reduce(operator.add, caps[:n], 0.0)
            assert net_load(sinks[:n], False, TECH, 9e-15) == fold
            assert net_load(sinks[:n], True, TECH, 9e-15) == fold + 9e-15


class TestNodeCapacitance:
    def test_internal_nodes_scale_with_terminals(self):
        gate = LIB["nand3"].compile_config()
        for node in gate.internal_nodes:
            expected = gate.terminal_counts[node] * TECH.c_diff
            assert internal_node_capacitance(gate, node, TECH) == pytest.approx(expected)

    def test_output_includes_wire_and_load(self):
        gate = LIB["nand2"].compile_config()
        base = output_intrinsic_capacitance(gate, TECH)
        assert base == pytest.approx(
            gate.terminal_counts[OUT] * TECH.c_diff + TECH.c_wire
        )
        assert node_capacitance(gate, OUT, TECH, load=7e-15) == pytest.approx(
            base + 7e-15
        )

    def test_internal_node_ignores_load(self):
        gate = LIB["nand2"].compile_config()
        node = gate.internal_nodes[0]
        assert node_capacitance(gate, node, TECH, load=1e-12) == pytest.approx(
            internal_node_capacitance(gate, node, TECH)
        )

    def test_output_not_internal(self):
        gate = LIB["nand2"].compile_config()
        with pytest.raises(KeyError):
            internal_node_capacitance(gate, OUT, TECH)

    def test_ordering_can_move_capacitance(self):
        """Orderings of aoi211 redistribute diffusion among PUN junctions."""
        template = LIB["aoi211"]
        distributions = set()
        for config in template.configurations():
            gate = template.compile_config(config)
            caps = tuple(sorted(
                gate.terminal_counts[n] for n in gate.internal_nodes
            ))
            distributions.add(caps)
        assert len(distributions) > 1

    def test_total_diffusion_conserved_per_gate(self):
        """Every ordering has the same total transistor terminal count."""
        for name in ("nand3", "oai21", "aoi221"):
            template = LIB[name]
            totals = set()
            for config in template.configurations():
                gate = template.compile_config(config)
                total = sum(gate.terminal_counts[n] for n in gate.nodes)
                totals.add(total)
            # Terminals at vdd/vss vary with ordering, but the node set the
            # model bills is consistent per gate: assert bounded variation.
            assert max(totals) - min(totals) <= 2, name

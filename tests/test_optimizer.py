"""Tests for the Figure 3 circuit optimiser."""

import pytest

from repro.circuit.netlist import Circuit
from repro.core.optimizer import circuit_power, optimize_circuit
from repro.core.power_model import GatePowerModel
from repro.gates.library import default_library
from repro.sim.logicsim import check_equivalence
from repro.stochastic.signal import SignalStats
from repro.timing.sta import circuit_delay

LIB = default_library()
MODEL = GatePowerModel()


def sample_circuit():
    c = Circuit("sample", LIB)
    for net in ("a", "b", "c", "d"):
        c.add_input(net)
    c.add_output("y")
    c.add_gate("g0", "nand3", {"a": "a", "b": "b", "c": "c"}, "n0")
    c.add_gate("g1", "oai21", {"a": "n0", "b": "c", "c": "d"}, "n1")
    c.add_gate("g2", "nand2", {"a": "n1", "b": "a"}, "y")
    c.validate()
    return c


def skewed_stats():
    return {
        "a": SignalStats(0.3, 1.0e4),
        "b": SignalStats(0.7, 2.0e5),
        "c": SignalStats(0.5, 9.0e5),
        "d": SignalStats(0.4, 5.0e4),
    }


class TestOptimizeCircuit:
    def test_best_not_above_original_not_above_worst(self):
        c = sample_circuit()
        stats = skewed_stats()
        best = optimize_circuit(c, stats, MODEL, objective="best")
        worst = optimize_circuit(c, stats, MODEL, objective="worst")
        assert best.power_after <= best.power_before + 1e-20
        assert worst.power_after >= worst.power_before - 1e-20
        assert best.power_after <= worst.power_after

    def test_original_untouched(self):
        c = sample_circuit()
        result = optimize_circuit(c, skewed_stats(), MODEL)
        assert all(g.config is None for g in c.gates)
        assert result.circuit is not c

    def test_function_preserved(self):
        c = sample_circuit()
        best = optimize_circuit(c, skewed_stats(), MODEL)
        assert check_equivalence(c, best.circuit)

    def test_decisions_cover_all_gates(self):
        c = sample_circuit()
        result = optimize_circuit(c, skewed_stats(), MODEL)
        assert {d.gate_name for d in result.decisions} == {g.name for g in c.gates}
        for d in result.decisions:
            assert d.num_configurations >= 1
            assert d.chosen.power >= 0.0

    def test_reduction_property(self):
        c = sample_circuit()
        result = optimize_circuit(c, skewed_stats(), MODEL)
        assert result.reduction == pytest.approx(
            1.0 - result.power_after / result.power_before
        )

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            optimize_circuit(sample_circuit(), skewed_stats(), MODEL, objective="x")

    def test_missing_stats(self):
        with pytest.raises(KeyError):
            optimize_circuit(sample_circuit(), {"a": SignalStats(0.5, 1.0)}, MODEL)

    def test_idempotent_on_optimized_circuit(self):
        """Optimising twice changes nothing (single-pass optimality)."""
        c = sample_circuit()
        stats = skewed_stats()
        once = optimize_circuit(c, stats, MODEL)
        twice = optimize_circuit(once.circuit, stats, MODEL)
        assert twice.power_after == pytest.approx(once.power_after)
        assert twice.reduction == pytest.approx(0.0, abs=1e-12)

    def test_monotonic_greedy_equals_global_for_model(self):
        """Per-gate choice is globally optimal under the model: every gate's
        chosen config has minimum gate power among its configurations."""
        c = sample_circuit()
        stats = skewed_stats()
        result = optimize_circuit(c, stats, MODEL)
        report = circuit_power(result.circuit, stats, MODEL)
        for decision in result.decisions:
            gate = result.circuit.gate(decision.gate_name)
            current = report.by_gate[gate.name].total
            # Try every alternative configuration in place.
            for config in gate.template.configurations():
                undo = result.circuit.set_config(gate.name, config)
                alt = circuit_power(result.circuit, stats, MODEL,
                                    net_stats=report.net_stats)
                result.circuit.apply_edit(undo)
                assert alt.by_gate[gate.name].total >= current - 1e-24


class TestDelayConstrained:
    def test_never_slower_than_mapped(self):
        c = sample_circuit()
        stats = skewed_stats()
        constrained = optimize_circuit(
            c, stats, MODEL, objective="delay-constrained"
        )
        assert circuit_delay(constrained.circuit) <= circuit_delay(c) * (1 + 1e-9)

    def test_saves_no_more_than_free(self):
        c = sample_circuit()
        stats = skewed_stats()
        free = optimize_circuit(c, stats, MODEL, objective="best")
        constrained = optimize_circuit(
            c, stats, MODEL, objective="delay-constrained"
        )
        assert constrained.power_after >= free.power_after - 1e-24


class TestFastestObjective:
    def test_function_preserved_and_valid(self):
        c = sample_circuit()
        result = optimize_circuit(c, skewed_stats(), MODEL, objective="fastest")
        assert check_equivalence(c, result.circuit)

    def test_power_blind_baseline_not_below_best(self):
        c = sample_circuit()
        stats = skewed_stats()
        best = optimize_circuit(c, stats, MODEL, objective="best")
        fastest = optimize_circuit(c, stats, MODEL, objective="fastest")
        assert fastest.power_after >= best.power_after - 1e-24


class TestCircuitPower:
    def test_total_is_sum_of_gates(self):
        c = sample_circuit()
        report = circuit_power(c, skewed_stats(), MODEL)
        assert report.total == pytest.approx(
            sum(r.total for r in report.by_gate.values())
        )
        assert report.total == pytest.approx(
            report.internal_total + report.output_total
        )

    def test_matches_optimizer_bookkeeping(self):
        c = sample_circuit()
        stats = skewed_stats()
        result = optimize_circuit(c, stats, MODEL)
        report = circuit_power(result.circuit, stats, MODEL)
        assert report.total == pytest.approx(result.power_after)

    def test_area_unchanged_by_optimization(self):
        """The paper: all instances have the same area."""
        c = sample_circuit()
        result = optimize_circuit(c, skewed_stats(), MODEL)
        assert result.circuit.area() == c.area()
        assert result.circuit.transistor_count() == c.transistor_count()

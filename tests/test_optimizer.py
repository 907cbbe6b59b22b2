"""Tests for the Figure 3 circuit optimiser."""

import functools
import math
import operator

import pytest

from repro.analysis.experiments import case_seed
from repro.bench.generators import random_logic
from repro.bench.suite import benchmark_suite, get_case
from repro.circuit.blif import write_mapped_blif
from repro.circuit.netlist import Circuit
from repro.core import optimizer
from repro.core.optimizer import OBJECTIVES, circuit_power, optimize_circuit
from repro.core.power_model import GatePowerModel
from repro.core.reorder import evaluate_configurations
from repro.gates.library import default_library
from repro.sim.logicsim import check_equivalence
from repro.sim.stimulus import ScenarioA, ScenarioB
from repro.stochastic.density import propagate_stats
from repro.stochastic.signal import SignalStats
from repro.synth.mapper import map_circuit
from repro.timing.elmore import gate_pin_delay
from repro.timing.sta import DEFAULT_PO_LOAD, circuit_delay

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

    def test_one_name_per_stats_source(self):
        # "model" is the compiled local sweep; "local" is not a second
        # name for it.
        with pytest.raises(ValueError):
            optimize_circuit(sample_circuit(), skewed_stats(), MODEL,
                             stats="local")

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

    def test_totals_fold_left_to_right(self):
        """``internal_total``/``output_total`` are strict left folds in
        gate order; ``sum()`` (compensated from Python 3.12) or
        ``math.fsum`` would give 1.0 here."""
        from repro.core.power_model import GatePowerReport, NodePowerEntry
        from repro.gates.network import OUT

        powers = [1e16, 1.0, -1e16]
        fold = functools.reduce(operator.add, powers, 0.0)
        assert fold == 0.0 and math.fsum(powers) == 1.0
        by_gate = {
            f"g{i}": GatePowerReport(
                (NodePowerEntry("n1", 0.0, 0.0, 0.0, p),
                 NodePowerEntry(OUT, 0.0, 0.0, 0.0, p)), MODEL.tech)
            for i, p in enumerate(powers)
        }
        report = optimizer.CircuitPowerReport(0.0, by_gate, {})
        assert report.internal_total == fold
        assert report.output_total == fold

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


# ----------------------------------------------------------------------
# The batch engine against the sequential per-gate algorithm
# ----------------------------------------------------------------------
def reference_optimize(circuit, net_stats, objective, model=MODEL,
                       po_load=DEFAULT_PO_LOAD, priced=None):
    """Figure 3 gate by gate on the object oracle.

    Each gate reads its live load and is re-configured before the next
    gate is decided, as a sequential traversal does.  ``priced`` may
    share :func:`evaluate_configurations` results between calls on the
    same ``net_stats`` (keyed by gate and load; the function is pure).

    Returns ``(circuit, decisions, power_before, power_after)`` with
    decisions as :func:`decision_fields` tuples.
    """
    work = circuit.copy()
    tech = model.tech
    topo = work.topo_gates()
    decisions = []
    power_before = power_after = 0.0
    for gate in topo:
        template = gate.template
        pins = {pin: net_stats[gate.pin_nets[pin]] for pin in template.pins}
        load = work.output_load(gate.output, tech, po_load)
        evaluations = None if priced is None else priced.get(
            (gate.name, load))
        if evaluations is None:
            evaluations = evaluate_configurations(template, pins, model, load)
            if priced is not None:
                priced[(gate.name, load)] = evaluations
        by_key = {e.config.key(): e for e in evaluations}
        entry = by_key[gate.effective_config().key()]
        default = by_key[template.default_config().key()]

        def delays(e):
            compiled = template.compile_config(e.config)
            return [gate_pin_delay(compiled, e.config, pin, tech, load)
                    for pin in template.pins]

        if objective == "delay-constrained":
            limits = [d * (1.0 + 1e-9) for d in delays(default)]
            evaluations = [e for e in evaluations if all(
                d <= limit for d, limit in zip(delays(e), limits))]
        if objective == "worst":
            chosen = min(evaluations, key=lambda e: (-e.power, e.config.key()))
        elif objective == "fastest":
            chosen = min(evaluations,
                         key=lambda e: (max(delays(e)), e.config.key()))
        else:
            chosen = min(evaluations, key=lambda e: (e.power, e.config.key()))
        if chosen.config.key() != entry.config.key():
            work.set_config(gate.name, chosen.config)
        decisions.append((gate.name, template.name, len(by_key),
                          chosen.config.key(), repr(chosen.power),
                          repr(default.power), chosen.report))
        power_before += entry.power
        power_after += chosen.power
    return work, decisions, power_before, power_after


def decision_fields(d):
    return (d.gate_name, d.template_name, d.num_configurations,
            d.chosen.config.key(), repr(d.chosen.power),
            repr(d.default_power), d.chosen.report)


def assert_matches_reference(result, reference):
    work, decisions, before, after = reference
    assert [decision_fields(d) for d in result.decisions] == decisions
    assert repr(result.power_before) == repr(before)
    assert repr(result.power_after) == repr(after)
    assert write_mapped_blif(result.circuit) == write_mapped_blif(work)


class TestBatchEngineMatchesReference:
    @pytest.mark.parametrize("scenario", ["A", "B"])
    @pytest.mark.parametrize("case",
                             [c.name for c in benchmark_suite("quick")])
    def test_quick_suite(self, case, scenario):
        circuit = map_circuit(get_case(case).network())
        generator = (ScenarioA if scenario == "A" else ScenarioB)(
            seed=case_seed(case))
        stats = generator.input_stats(circuit.inputs)
        maps = {"local": propagate_stats(circuit, stats, method="local"),
                "exact": propagate_stats(circuit, stats, method="exact")}
        priced = {source: {} for source in maps}
        for objective in OBJECTIVES:
            for source, net_stats in maps.items():
                reference = reference_optimize(circuit, net_stats, objective,
                                               priced=priced[source])
                result = optimize_circuit(
                    circuit, stats, MODEL, objective=objective,
                    stats="model" if source == "local" else source)
                assert_matches_reference(result, reference)

    def test_exact_tie_breaks_on_configuration_key(self):
        # Both nand2 pins on one net: the two series orders are mirror
        # images and price to the identical double, for best and worst.
        c = Circuit("tie", LIB)
        c.add_input("a")
        c.add_output("y")
        c.add_gate("g", "nand2", {"a": "a", "b": "a"}, "y")
        stats = {"a": SignalStats(0.3, 4.0e5)}
        powers = {e.power for e in evaluate_configurations(
            LIB["nand2"], {"a": stats["a"], "b": stats["a"]}, MODEL,
            c.output_load("y", MODEL.tech))}
        assert len(powers) == 1
        first = min(config.key() for config in LIB["nand2"].configurations())
        for objective in ("best", "worst"):
            result = optimize_circuit(c, stats, MODEL, objective=objective)
            assert result.decisions[0].chosen.config.key() == first
            assert_matches_reference(result, reference_optimize(
                c, propagate_stats(c, stats), objective))

    def test_row_blocks_do_not_change_decisions(self, monkeypatch):
        # Large circuits price a template's gates in row blocks; one
        # gate per block must decide exactly as one block per template.
        circuit = map_circuit(get_case("rca4").network())
        stats = ScenarioB(seed=case_seed("rca4")).input_stats(circuit.inputs)
        whole = optimize_circuit(circuit, stats, MODEL)
        monkeypatch.setattr(optimizer, "_BLOCK", 1)
        split = optimize_circuit(circuit, stats, MODEL)
        assert [decision_fields(d) for d in split.decisions] == \
            [decision_fields(d) for d in whole.decisions]
        assert repr(split.power_after) == repr(whole.power_after)
        assert write_mapped_blif(split.circuit) == \
            write_mapped_blif(whole.circuit)


# ----------------------------------------------------------------------
# One pass is the whole algorithm
# ----------------------------------------------------------------------
@pytest.fixture(scope="module", params=["rca4", "random_logic"])
def mapped(request):
    if request.param == "rca4":
        circuit = map_circuit(get_case("rca4").network())
    else:
        circuit = map_circuit(random_logic(12, 100, 3))
    return circuit, ScenarioB(seed=11).input_stats(circuit.inputs)


def configuration_keys(circuit):
    return [(g.name, g.effective_config().key()) for g in circuit.gates]


@pytest.mark.parametrize("objective", OBJECTIVES)
class TestSinglePass:
    """No reordering changes a gate's fanin statistics or its load, so
    the one batch pass is already the fixed point of re-optimisation."""

    def test_reoptimising_keeps_every_config(self, mapped, objective):
        circuit, stats = mapped
        once = optimize_circuit(circuit, stats, MODEL, objective=objective)
        twice = optimize_circuit(once.circuit, stats, MODEL,
                                 objective=objective)
        assert configuration_keys(twice.circuit) == \
            configuration_keys(once.circuit)
        assert twice.power_before == twice.power_after == once.power_after
        assert once.gates_decided == twice.gates_decided == len(circuit)

    def test_power_after_matches_reanalysis(self, mapped, objective):
        circuit, stats = mapped
        result = optimize_circuit(circuit, stats, MODEL, objective=objective)
        assert result.power_after == \
            circuit_power(result.circuit, stats, MODEL).total
        assert result.power_before == \
            circuit_power(circuit, stats, MODEL).total


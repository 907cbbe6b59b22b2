"""Bit-identity of the compiled power kernel (`repro.compiled.power`).

The contract under test: class-batched `CompiledPowerKernel` pricing —
per-minterm weights, steady-state guards, per-pin transition folds,
node capacitances and gate totals — is **bit-identical** (exact float
equality, every `NodePowerEntry` field) to the per-gate object path of
`GatePowerModel`, for all three formulas, under random edit sequences,
and through the `StatsCache` power refresh it backs, against the
from-scratch `circuit_power` oracle.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import random_logic
from repro.compiled.circuit import get_compiled
from repro.compiled.power import CompiledPowerKernel
from repro.core.optimizer import circuit_power
from repro.core.power_model import FORMULAS, GatePowerModel
from repro.gates.capacitance import net_load
from repro.incremental import StatsCache
from repro.sim.stimulus import ScenarioA
from repro.stochastic.signal import SignalStats
from repro.synth.mapper import map_circuit

PO_LOAD = 10.0e-15


@pytest.fixture(scope="module")
def wide():
    circuit = map_circuit(random_logic(12, 60, seed=9))
    stats = ScenarioA(seed=2).input_stats(circuit.inputs)
    return circuit, stats


def object_reports(circuit, model, stats, po_load):
    index = circuit.fanout_index()
    outputs = frozenset(circuit.outputs)
    reports = {}
    for gate in circuit.gates:
        pin_stats = {pin: stats[gate.pin_nets[pin]]
                     for pin in gate.template.pins}
        load = net_load(index.sinks(gate.output), gate.output in outputs,
                        model.tech, po_load)
        reports[gate.name] = model.gate_power(gate.compiled(), pin_stats,
                                              load)
    return reports


def assert_reports_equal(kernel_reports, reference):
    assert set(kernel_reports) == set(reference)
    for name, report in reference.items():
        batched = kernel_reports[name]
        assert batched.tech == report.tech
        assert len(batched.entries) == len(report.entries)
        for got, want in zip(batched.entries, report.entries):
            assert got.node == want.node
            assert got.capacitance == want.capacitance
            assert got.probability == want.probability
            assert got.transitions == want.transitions
            assert got.power == want.power
        assert batched.total == report.total


def edit_specs():
    return st.tuples(
        st.sampled_from(["reorder", "retemplate", "input-stats"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )


def apply_spec(circuit, input_stats, spec):
    kind, selector, value = spec
    if kind == "reorder":
        gates = [g for g in circuit.gates
                 if g.template.num_configurations() > 1]
        gate = gates[selector % len(gates)]
        configurations = gate.template.configurations()
        circuit.set_config(gate.name,
                           configurations[value % len(configurations)])
    elif kind == "retemplate":
        groups = {}
        for template in circuit.library:
            groups.setdefault(template.pins, []).append(template.name)
        gates = [g for g in circuit.gates
                 if len(groups[g.template.pins]) > 1]
        gate = gates[selector % len(gates)]
        others = [name for name in groups[gate.template.pins]
                  if name != gate.template.name]
        circuit.set_template(gate.name, others[value % len(others)])
    else:
        net = circuit.inputs[selector % len(circuit.inputs)]
        probability = 0.05 + 0.9 * ((value % 97) / 96.0)
        density = 1.0e4 * (1 + value % 89)
        input_stats[net] = SignalStats(probability, density)


# ----------------------------------------------------------------------
# The kernel against the object model
# ----------------------------------------------------------------------
class TestKernelEquivalence:
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_reports_bit_identical_all_formulas(self, wide, formula):
        circuit, input_stats = wide
        work = circuit.copy()
        model = GatePowerModel(formula=formula)
        from repro.stochastic.density import local_stats

        stats = local_stats(work, input_stats)
        kernel = CompiledPowerKernel(get_compiled(work), model)
        names = [g.name for g in work.gates]
        assert_reports_equal(kernel.reports(names, stats, PO_LOAD),
                             object_reports(work, model, stats, PO_LOAD))

    def test_gate_totals_match_reports(self, wide):
        circuit, input_stats = wide
        work = circuit.copy()
        model = GatePowerModel()
        from repro.stochastic.density import local_stats

        stats = local_stats(work, input_stats)
        kernel = CompiledPowerKernel(get_compiled(work), model)
        names = [g.name for g in work.gates]
        reports = kernel.reports(names, stats, PO_LOAD)
        totals = kernel.gate_totals(names, stats, PO_LOAD)
        assert totals.shape == (len(names),)
        for name, total in zip(names, totals):
            assert float(total) == reports[name].total

    @settings(max_examples=15, deadline=None)
    @given(st.lists(edit_specs(), min_size=1, max_size=6))
    def test_reports_track_random_edits(self, wide, specs):
        circuit_master, stats_master = wide
        circuit = circuit_master.copy()
        input_stats = dict(stats_master)
        model = GatePowerModel()
        kernel = CompiledPowerKernel(get_compiled(circuit), model)
        from repro.stochastic.density import local_stats

        names = [g.name for g in circuit.gates]
        for spec in specs:
            apply_spec(circuit, input_stats, spec)
            stats = local_stats(circuit, input_stats)
            assert_reports_equal(
                kernel.reports(names, stats, PO_LOAD),
                object_reports(circuit, model, stats, PO_LOAD))


# ----------------------------------------------------------------------
# The StatsCache power refresh it backs
# ----------------------------------------------------------------------
class TestCacheIntegration:
    @pytest.mark.parametrize("formula", FORMULAS)
    def test_cache_power_bit_identical(self, wide, formula):
        circuit, stats = wide
        work = circuit.copy()
        model = GatePowerModel(formula=formula)
        reference = circuit_power(work, stats, model=model)
        with StatsCache(work, stats, model=model) as cache:
            assert cache.total_power() == reference.total
            assert_reports_equal(cache.power().by_gate, reference.by_gate)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(edit_specs(), min_size=1, max_size=6))
    def test_cache_power_tracks_random_edits(self, wide, specs):
        circuit_master, stats_master = wide
        circuit = circuit_master.copy()
        input_stats = dict(stats_master)
        cache = StatsCache(circuit, input_stats)
        try:
            for spec in specs:
                apply_spec(circuit, input_stats, spec)
                if spec[0] == "input-stats":
                    net = circuit.inputs[spec[1] % len(circuit.inputs)]
                    cache.set_input_stats(net, input_stats[net])
                reference = circuit_power(circuit, input_stats)
                assert cache.total_power() == reference.total
                assert_reports_equal(cache.power().by_gate,
                                     reference.by_gate)
        finally:
            cache.close()

    def test_kernel_is_memoised_per_compiled_circuit(self, wide):
        circuit, stats = wide
        work = circuit.copy()
        with StatsCache(work, stats) as cache:
            cache.total_power()
            kernel = cache.power_kernel()
            assert cache.power_kernel() is kernel
            assert kernel.cc is get_compiled(work)

"""Bit-identity of the compiled power kernel (`repro.compiled.power`).

The contract under test: class-batched `CompiledPowerKernel` pricing —
per-minterm weights, steady-state guards, per-pin transition folds,
node capacitances and gate totals — is **bit-identical** (exact float
equality, every `NodePowerEntry` field) to the per-gate object path of
`GatePowerModel`, for all three formulas, under random edit sequences,
and through the `StatsCache` power refresh it backs, against the
from-scratch `circuit_power` oracle.  Stacked candidate programs (one
kernel call pricing every configuration of a gate, nodes zero-padded to
the widest lane) meet the same oracle, and the class tables are keyed
by content: a re-lowering reuses them instead of rebuilding them.
"""

import gc


import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import random_logic
from repro.circuit.netlist import AddGate, RewireNet
from repro.compiled.circuit import (
    CompiledCircuit,
    _StatsClass,
    _TimingClass,
    get_compiled,
)
from repro.compiled.power import CompiledPowerKernel, _PowerClass, power_class
from repro.core.optimizer import circuit_power
from repro.core.power_model import FORMULAS, GatePowerModel
from repro.gates.capacitance import net_load
from repro.gates.library import default_library
from repro.gates.network import compile_gate
from repro.gates.sptree import Leaf, Parallel, Series
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


def net_arrays(cc, stats):
    """A (P, D) map as the per-net arrays the kernel reads."""
    return (np.array([stats[net].probability for net in cc.nets]),
            np.array([stats[net].density for net in cc.nets]))


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
        assert_reports_equal(kernel.reports(names, *net_arrays(kernel.cc, stats), PO_LOAD),
                             object_reports(work, model, stats, PO_LOAD))

    def test_gate_totals_match_reports(self, wide):
        circuit, input_stats = wide
        work = circuit.copy()
        model = GatePowerModel()
        from repro.stochastic.density import local_stats

        stats = local_stats(work, input_stats)
        kernel = CompiledPowerKernel(get_compiled(work), model)
        names = [g.name for g in work.gates]
        reports = kernel.reports(names, *net_arrays(kernel.cc, stats), PO_LOAD)
        totals = kernel.gate_totals(names, *net_arrays(kernel.cc, stats), PO_LOAD)
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
                kernel.reports(names, *net_arrays(kernel.cc, stats), PO_LOAD),
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


# ----------------------------------------------------------------------
# Stacked candidate programs
# ----------------------------------------------------------------------
def pin_stats(arity):
    """Per-pin (P, D): constants (p in {0, 1}, D = 0), idle and live pins."""
    stat = st.one_of(
        st.tuples(st.sampled_from([0.0, 1.0]), st.just(0.0)),
        st.tuples(
            st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
            st.one_of(st.just(0.0), st.floats(1.0, 1.0e9)),
        ),
    )
    return st.lists(stat, min_size=arity, max_size=arity)


def assert_stack_matches_oracle(compileds, model, stats, load):
    """Every lane of the stacked program equals ``gate_power`` exactly."""
    stack = _PowerClass.stacked([power_class(c) for c in compileds])
    p_in = np.asarray([[p for p, _ in stats]])
    d_in = np.asarray([[d for _, d in stats]])
    caps, probs, trans, powers, totals = stack.evaluate(
        model, p_in, d_in, np.asarray([load]))
    assert totals.shape == (1, len(compileds))
    for lane, compiled in enumerate(compileds):
        pins = {pin: SignalStats(p, d)
                for pin, (p, d) in zip(compiled.inputs, stats)}
        report = model.gate_power(compiled, pins, load)
        for i, want in enumerate(report.entries):
            assert want.node == compiled.nodes[i]
            assert caps[0, lane, i] == want.capacitance
            assert probs[0, lane, i] == want.probability
            assert trans[0, lane, i] == want.transitions
            assert powers[0, lane, i] == want.power
        # The kernel total is GatePowerReport.total's left fold over
        # the node entries (``sum`` on Python 3.11; 3.12's ``sum``
        # compensates, so fold explicitly).
        total = 0.0
        for entry in report.entries:
            total = total + entry.power
        assert totals[0, lane] == total
        # Padded nodes price to exact zeros.
        width = len(report.entries)
        for grid in (caps, probs, trans, powers):
            assert not grid[0, lane, width:].any()


class TestStackedCandidates:
    @pytest.mark.parametrize("formula", FORMULAS)
    @pytest.mark.parametrize(
        "template", [t.name for t in default_library()])
    def test_every_configuration_matches_gate_power(self, template,
                                                    formula):
        tmpl = default_library()[template]
        compileds = [tmpl.compile_config(c) for c in tmpl.configurations()]
        model = GatePowerModel(formula=formula)

        @settings(max_examples=8, deadline=None)
        @given(pin_stats(tmpl.num_inputs),
               st.floats(0.0, 1.0e-13))
        def check(stats, load):
            assert_stack_matches_oracle(compileds, model, stats, load)

        check()

    @pytest.mark.parametrize("formula", FORMULAS)
    @settings(max_examples=25, deadline=None)
    @given(stats=pin_stats(2), load=st.floats(0.0, 1.0e-13))
    def test_mixed_node_counts_pad_exactly(self, formula, stats, load):
        # Two-input gates with 2, 3 and 4 nodes in one stack: the
        # narrower lanes run on padded nodes.
        a, b = Leaf("a"), Leaf("b")
        compileds = [
            compile_gate(Series((a, b))),
            compile_gate(Series((a, b, a)), inputs=("a", "b")),
            compile_gate(Parallel((Series((a, b)), Series((b, a))))),
            default_library()["nor2"].compile_config(),
        ]
        assert len({len(c.nodes) for c in compileds}) == 3
        assert_stack_matches_oracle(compileds, GatePowerModel(formula=formula),
                                    stats, load)


# ----------------------------------------------------------------------
# Class tables are keyed by content and outlive a lowering
# ----------------------------------------------------------------------
def class_tables(cc):
    """Every class object of a lowering, keyed by its class key."""
    power = {key: power_class(cc._timing_classes[code]._compiled)
             for key, code in cc._timing_keys.items()}
    return (
        {key: cc._stats_classes[code] for key, code in cc._stats_keys.items()},
        {key: cc._timing_classes[code]
         for key, code in cc._timing_keys.items()},
        power,
    )


def assert_same_class_objects(old, new):
    for before, after in zip(class_tables(old), class_tables(new)):
        assert before
        for key, cls in before.items():
            assert after[key] is cls, key


def count_class_objects():
    gc.collect()
    return sum(isinstance(obj, (_StatsClass, _TimingClass, _PowerClass))
               for obj in gc.get_objects())


class TestClassTablesOutliveLowering:
    def test_add_gate_relowering_reuses_classes(self, wide):
        circuit, _ = wide
        work = circuit.copy()
        old = get_compiled(work)
        class_tables(old)
        work.apply_edit(AddGate("extra", "nand2",
                                (("a", work.inputs[0]),
                                 ("b", work.inputs[1])), "extra_n"))
        new = get_compiled(work)
        assert new is not old and old.stale
        assert_same_class_objects(old, new)

    def test_rewire_relowering_reuses_classes(self, wide):
        circuit, _ = wide
        work = circuit.copy()
        old = get_compiled(work)
        class_tables(old)
        gate = work.gates[-1]
        pin = gate.template.pins[0]
        net = next(n for n in work.inputs if n != gate.pin_nets[pin])
        work.apply_edit(RewireNet(gate.name, pin, net))
        new = get_compiled(work)
        assert new is not old and old.stale
        assert_same_class_objects(old, new)

    def test_fresh_library_shares_classes(self):
        network = random_logic(12, 60, seed=9)
        first = get_compiled(map_circuit(network))
        second = get_compiled(map_circuit(network, default_library()))
        assert first.circuit.library is not second.circuit.library
        assert_same_class_objects(first, second)

    def test_repeated_lowering_adds_no_class_objects(self, wide):
        circuit, _ = wide
        work = circuit.copy()
        class_tables(get_compiled(work))
        before = count_class_objects()
        for _ in range(50):
            cc = CompiledCircuit(work)
            class_tables(cc)
            cc.close()
        assert count_class_objects() == before

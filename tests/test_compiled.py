"""Bit-identity of the compiled flat-circuit kernels (`repro.compiled`).

The contract under test: every kernel — from-scratch analytic (P, D)
propagation, net loads, arrival times, and the dirty-cone incremental
forms behind `StatsCache`/`TimingCache` — produces **bit-identical**
results (exact float equality) to the readable per-gate oracles
(`local_stats`, `gate_arrival`, `analyze_timing(compiled=False)`),
over random circuits and random reorder/retemplate/input-stats/
input-arrival edit sequences.  Plus the memoised-structure satellite
(FanoutIndex / topological order shared across caches with
invalidation hooks) and the one float-summation rule the oracle and
the kernels share.
"""

import functools
import operator

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.generators import random_logic
from repro.bench.runner import dumps_artifact, strip_timing
from repro.bench.suite import get_case
from repro.boolean.truthtable import TruthTable
from repro.compiled import get_compiled
from repro.compiled.circuit import _ZERO, _TableSet
from repro.gates.library import default_library
from repro.incremental import StatsCache, TimingCache
from repro.incremental.backends import AnalyticBackend
from repro.incremental.search import search_circuit
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import local_stats, propagate_stats
from repro.stochastic.signal import SignalStats
from repro.synth.mapper import map_circuit
from repro.timing.sta import analyze_timing, gate_arrival, net_load

_SWAP_GROUPS = {}
for _template in default_library():
    _SWAP_GROUPS.setdefault(_template.pins, []).append(_template.name)
_SWAP_GROUPS = {
    pins: names for pins, names in _SWAP_GROUPS.items() if len(names) > 1
}


@pytest.fixture(scope="module")
def master():
    circuit = map_circuit(get_case("rca4").network())
    stats = ScenarioA(seed=5).input_stats(circuit.inputs)
    return circuit, stats


@pytest.fixture(scope="module")
def wide():
    """A wider random circuit: many gates per level, all templates."""
    circuit = map_circuit(random_logic(12, 60, seed=9))
    stats = ScenarioA(seed=2).input_stats(circuit.inputs)
    return circuit, stats


def assert_timing_equal(circuit, input_arrivals=None):
    reference = analyze_timing(circuit, input_arrivals=input_arrivals,
                               compiled=False)
    compiled = analyze_timing(circuit, input_arrivals=input_arrivals,
                              compiled=True)
    assert compiled.arrivals == reference.arrivals
    assert compiled.delay == reference.delay
    assert compiled.critical_path == reference.critical_path


# ----------------------------------------------------------------------
# The float contract the kernels stand on
# ----------------------------------------------------------------------
class TestFloatContract:
    def test_masked_sums_fold_left_to_right(self):
        """One float rule: a masked sum is a left fold in minterm order.

        For every selection length a library truth table can have
        (1-64, here over 7 variables so that 64 is not constant), the
        oracle equals an explicit Python left fold of its selected
        weights, and the kernels' shared evaluator — selections padded
        within their ``L // 8`` group, many rows per call — equals the
        oracle bit for bit, on a multi-row batch and on one row.
        """
        rng = np.random.default_rng(0)
        nvars = 7
        names = tuple(f"x{j}" for j in range(nvars))
        tables = []
        for length in range(1, 65):
            minterms = rng.choice(1 << nvars, size=length, replace=False)
            tables.append(TruthTable(names, sum(1 << int(m) for m in minterms)))
        rows = rng.random((5, nvars))
        for p in rows:
            weights = [
                functools.reduce(operator.mul, (
                    p[j] if (m >> j) & 1 else 1.0 - p[j]
                    for j in range(nvars)))
                for m in range(1 << nvars)
            ]
            probs = dict(zip(names, p))
            for tt in tables:
                selected = [weights[m] for m in range(1 << nvars)
                            if (tt.bits >> m) & 1]
                fold = functools.reduce(operator.add, selected)
                assert tt.probability(probs) == min(1.0, max(0.0, fold)), \
                    f"not a left fold at length {len(selected)}"
        evaluator = _TableSet.of(nvars, tables)
        assert any((sels == _ZERO).any() for _, sels in evaluator.groups)
        for batch in (rows, rows[:1]):
            vals = evaluator.evaluate(batch)
            assert vals.shape == (len(batch), len(tables))
            for row, p in enumerate(batch):
                probs = dict(zip(names, p))
                for col, tt in enumerate(tables):
                    assert vals[row, col] == tt.probability(probs), \
                        f"evaluator drift at length {col + 1}"


# ----------------------------------------------------------------------
# From-scratch equivalence
# ----------------------------------------------------------------------
class TestFromScratch:
    def test_stats_bit_identical(self, master, wide):
        for circuit, stats in (master, wide):
            assert propagate_stats(circuit, stats, "analytic") \
                == local_stats(circuit, stats)

    def test_timing_bit_identical(self, master, wide):
        for circuit, _ in (master, wide):
            assert_timing_equal(circuit)

    def test_timing_with_input_arrivals(self, master):
        circuit, _ = master
        arrivals = {net: 1e-10 * i for i, net in enumerate(circuit.inputs)}
        assert_timing_equal(circuit, input_arrivals=arrivals)

    def test_net_loads_bit_identical(self, master):
        circuit, _ = master
        from repro.gates.capacitance import TechParams

        tech = TechParams()
        compiled = get_compiled(circuit)
        loads = compiled.net_loads(tech, 10.0e-15)
        for net in circuit.nets():
            assert loads[compiled.net_id[net]] == circuit.output_load(
                net, tech, 10.0e-15)

    def test_direct_gate_assignment_raises(self, master):
        """Template and config change only through the edit API."""
        circuit, _ = master
        work = circuit.copy()
        gate = next(g for g in work.gates
                    if g.template.num_configurations() > 1)
        before = (gate.template, gate.config)
        with pytest.raises(AttributeError, match="apply_edit"):
            gate.config = gate.template.configurations()[-1]
        with pytest.raises(AttributeError, match="apply_edit"):
            gate.template = work.library["inv"]
        assert (gate.template, gate.config) == before

    def test_edit_api_keeps_lowering_current(self, master):
        """The edit listener alone keeps class codes current."""
        circuit, stats = master
        work = circuit.copy()
        get_compiled(work)  # lower before editing
        gate = next(g for g in work.gates
                    if g.template.num_configurations() > 1)
        work.set_config(gate.name, gate.template.configurations()[-1])
        assert_timing_equal(work)
        assert propagate_stats(work, stats, "analytic") \
            == local_stats(work, stats)


# ----------------------------------------------------------------------
# Edit-sequence equivalence (the incremental kernels)
# ----------------------------------------------------------------------
def edit_specs():
    return st.tuples(
        st.sampled_from(
            ["reorder", "retemplate", "input-stats", "input-arrival"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )


def apply_spec(circuit, cache, tcache, input_stats, spec):
    kind, selector, value = spec
    if kind == "reorder":
        gates = [g for g in circuit.gates
                 if g.template.num_configurations() > 1]
        gate = gates[selector % len(gates)]
        configurations = gate.template.configurations()
        circuit.set_config(gate.name,
                           configurations[value % len(configurations)])
    elif kind == "retemplate":
        gates = [g for g in circuit.gates if g.template.pins in _SWAP_GROUPS]
        gate = gates[selector % len(gates)]
        group = _SWAP_GROUPS[gate.template.pins]
        others = [name for name in group if name != gate.template.name]
        circuit.set_template(gate.name, others[value % len(others)])
    elif kind == "input-stats":
        net = circuit.inputs[selector % len(circuit.inputs)]
        probability = 0.05 + 0.9 * ((value % 97) / 96.0)
        density = 1.0e4 * (1 + value % 89)
        input_stats[net] = SignalStats(probability, density)
        cache.set_input_stats(net, input_stats[net])
    else:
        net = circuit.inputs[selector % len(circuit.inputs)]
        tcache.set_input_arrival(net, 1.0e-12 * (value % 503))


class TestEditEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(edit_specs(), min_size=1, max_size=8))
    def test_compiled_caches_match_scratch_after_every_edit(self, master,
                                                           specs):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        current = dict(stats)
        cache = StatsCache(circuit, current)
        tcache = TimingCache(circuit, index=cache.index)
        try:
            assert isinstance(cache.backend, AnalyticBackend)
            assert cache.backend.name == "analytic"
            for spec in specs:
                apply_spec(circuit, cache, tcache, current, spec)
                assert cache.stats() == local_stats(circuit, current)
                reference = analyze_timing(
                    circuit, input_arrivals=tcache.input_arrivals,
                    compiled=False)
                assert tcache.arrivals() == reference.arrivals
                assert tcache.delay() == reference.delay
                assert tcache.critical_path() == reference.critical_path
        finally:
            tcache.close()
            cache.close()

    @settings(max_examples=10, deadline=None)
    @given(st.lists(edit_specs(), min_size=1, max_size=6))
    def test_compiled_retime_counts_match_object_path(self, master, specs):
        """Early cut-off must recompute the same set as the oracle walk."""
        circuit_master, stats = master
        circuit = circuit_master.copy()
        current = dict(stats)
        cache = StatsCache(circuit, current)
        tcache = TimingCache(circuit, index=cache.index)
        arrivals = dict(analyze_timing(circuit, compiled=False).arrivals)
        try:
            for spec in specs:
                apply_spec(circuit, cache, tcache, current, spec)
                # An input arrival edit records the input; the refresh
                # seeds its sinks.
                seeds = set(tcache._dirty) | {
                    gate.name for net in tcache._changed_inputs
                    for gate, _pin in tcache.index.sinks(net)}
                arrivals.update(tcache.input_arrivals)
                retimed = tcache.gates_retimed
                changed = tcache.refresh()
                assert (changed, tcache.gates_retimed - retimed) \
                    == oracle_refresh(circuit, arrivals, seeds, tcache)
                assert tcache.arrivals() == arrivals
        finally:
            tcache.close()
            cache.close()


def oracle_refresh(circuit, arrivals, seeds, tcache):
    """The early cut-off walk on the per-gate :func:`gate_arrival` oracle.

    Recomputes a gate iff it is a seed or a fanin's recomputed arrival
    changed bit-wise, in topological order; updates ``arrivals`` in
    place and returns ``(changed nets, recomputed count)``.
    """
    index = circuit.fanout_index()
    outputs = frozenset(circuit.outputs)
    queued = set(seeds)
    changed = []
    recomputed = 0
    for gate in circuit.topo_gates():
        if gate.name not in queued:
            continue
        load = net_load(index.sinks(gate.output), gate.output in outputs,
                        tcache.tech, tcache.po_load)
        arrival, _ = gate_arrival(gate, arrivals, tcache.tech, load)
        recomputed += 1
        if arrival != arrivals[gate.output]:
            arrivals[gate.output] = arrival
            changed.append(gate.output)
            queued.update(sink.name for sink in index.gate_sinks(gate.name))
    return tuple(changed), recomputed


# ----------------------------------------------------------------------
# Integration: the search engine against from-scratch caches
# ----------------------------------------------------------------------
def assert_search_matches_fresh_caches(circuit, stats, **options):
    """A search's final power and delay equal fresh caches built on its
    searched circuit, and a repeat run writes a byte-identical
    artifact."""
    result = search_circuit(circuit, stats, **options)
    with StatsCache(result.circuit.copy(), stats) as fresh:
        assert fresh.total_power() == result.power_after
        with TimingCache(fresh.circuit, tech=fresh.model.tech,
                         po_load=fresh.po_load, index=fresh.index) as timing:
            assert timing.delay() == result.delay_after
    again = search_circuit(circuit, stats, **options)
    assert dumps_artifact(strip_timing(result.to_artifact())) \
        == dumps_artifact(strip_timing(again.to_artifact()))


class TestSearchIntegration:
    def test_greedy_search_artifact_identical(self, master):
        circuit, stats = master
        assert_search_matches_fresh_caches(circuit, stats,
                                           objective="power-delay", seed=3)

    def test_anneal_search_artifact_identical(self, master):
        circuit, stats = master
        assert_search_matches_fresh_caches(circuit, stats, strategy="anneal",
                                           seed=11, anneal_trials=60)


# ----------------------------------------------------------------------
# Memoised structure (FanoutIndex / topo order / levels)
# ----------------------------------------------------------------------
class TestStructureMemo:
    def test_two_caches_share_one_index(self, master):
        circuit, stats = master
        work = circuit.copy()
        with StatsCache(work, stats) as cache:
            with TimingCache(work) as tcache:
                assert cache.index is tcache.index
                assert cache.index is work.fanout_index()

    def test_topo_and_levels_are_memoised(self, master):
        circuit, _ = master
        work = circuit.copy()
        assert work.topo_gates() is work.topo_gates()
        assert work.gate_levels() is work.gate_levels()

    def test_structural_mutation_invalidates(self, master):
        circuit, _ = master
        work = circuit.copy()
        index = work.fanout_index()
        compiled = get_compiled(work)
        assert get_compiled(work) is compiled
        source = work.inputs[0]
        work.add_gate("fresh_inv", "inv", {"a": source}, "fresh_net")
        assert work.fanout_index() is not index
        rebuilt = get_compiled(work)
        assert rebuilt is not compiled
        assert "fresh_inv" in rebuilt.gate_id

    def test_edits_keep_the_memo(self, master):
        circuit, _ = master
        work = circuit.copy()
        index = work.fanout_index()
        compiled = get_compiled(work)
        gate = next(g for g in work.gates
                    if g.template.num_configurations() > 1)
        work.set_config(gate.name, gate.template.configurations()[-1])
        assert work.fanout_index() is index
        assert get_compiled(work) is compiled

"""Property tests: the incremental stack under search workloads.

The search engine exercises the incremental substrate far harder than
scripted ECO replays — hundreds of trial/rollback cycles, batched
same-gate overwrites, committed winners — so these properties pin the
load-bearing invariants under exactly that traffic:

* any accepted-move sequence (any strategy, seed, budget, move
  vocabulary) leaves the live :class:`StatsCache` **bit-identical** to
  a from-scratch recompute of the edited circuit, for both backends;
* the connectivity structures the engine trusts for its whole lifetime
  (:class:`FanoutIndex`, levelisation, topological order) still agree
  with the ground-truth netlist after long edit sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import get_case
from repro.circuit.topology import FanoutIndex, levelize, topological_gates
from repro.incremental import SampledBackend, StatsCache, search_circuit
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import local_stats
from repro.synth.mapper import map_circuit


@pytest.fixture(scope="module")
def master():
    circuit = map_circuit(get_case("rca4").network())
    stats = ScenarioA(seed=7).input_stats(circuit.inputs)
    return circuit, stats


def search_params():
    """One abstract search workload: strategy, seed, budget, vocabulary."""
    return st.tuples(
        st.sampled_from(["greedy", "anneal"]),
        st.integers(min_value=0, max_value=2**16),
        st.integers(min_value=1, max_value=12),  # max_moves
        st.booleans(),  # retemplate
    )


def assert_structures_consistent(cache, circuit, reference_circuit):
    """FanoutIndex / levelize / topo-order ground truth after edits."""
    index = cache.index
    for net in circuit.nets():
        assert {(g.name, pin) for g, pin in index.sinks(net)} == {
            (g.name, pin) for g, pin in circuit.fanout(net)
        }
    fresh = FanoutIndex(circuit)
    for gate in circuit.gates:
        assert index.cone_from_gates([gate.name]) == fresh.cone_from_gates(
            [gate.name]
        )
    # the supported edits never change connectivity, so levels and the
    # topological order match the pristine reference circuit
    assert levelize(circuit) == levelize(reference_circuit)
    assert [g.name for g in topological_gates(circuit)] == [
        g.name for g in topological_gates(reference_circuit)
    ]


class TestAnalyticSearchEquivalence:
    @settings(max_examples=12, deadline=None)
    @given(search_params())
    def test_search_leaves_cache_bitidentical(self, master, params):
        strategy, seed, max_moves, retemplate = params
        circuit_master, stats = master
        work = circuit_master.copy()
        with StatsCache(work, stats) as cache:
            result = search_circuit(
                cache=cache, strategy=strategy, seed=seed,
                max_moves=max_moves, retemplate=retemplate,
                anneal_trials=60,
            )
            assert cache.stats() == local_stats(work, stats)
            assert result.net_stats == cache.stats()
            assert_structures_consistent(cache, work, circuit_master)


class TestSampledSearchEquivalence:
    LANES, STEPS, SEED = 32, 8, 9

    @settings(max_examples=6, deadline=None)
    @given(search_params())
    def test_search_leaves_cache_bitidentical(self, master, params):
        strategy, seed, max_moves, retemplate = params
        circuit_master, stats = master
        work = circuit_master.copy()
        dwells = [
            d for s in stats.values()
            for d in (s.mean_high_dwell, s.mean_low_dwell)
        ]
        dt = 0.25 * min(dwells)
        with StatsCache(work, stats, backend="sampled", lanes=self.LANES,
                        steps=self.STEPS, dt=dt, seed=self.SEED) as cache:
            search_circuit(
                cache=cache, strategy=strategy, seed=seed,
                max_moves=max_moves, retemplate=retemplate,
                anneal_trials=30,
            )
            fresh = SampledBackend(lanes=self.LANES, steps=self.STEPS,
                                   dt=dt, seed=self.SEED).full(work, stats)
            assert cache.stats() == fresh
            assert_structures_consistent(cache, work, circuit_master)

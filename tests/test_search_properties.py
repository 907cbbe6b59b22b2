"""Property tests: the incremental stack under search workloads.

The search engine exercises the incremental substrate far harder than
scripted ECO replays — hundreds of trial/rollback cycles, batched
same-gate overwrites, committed winners — so these properties pin the
load-bearing invariants under exactly that traffic:

* any accepted-move sequence (any strategy, seed, budget, move
  vocabulary) leaves the search's statistics **bit-identical** to a
  from-scratch recompute of the searched circuit, for both backends;
* the connectivity structures the engine trusts for its whole lifetime
  (:class:`FanoutIndex`, levelisation, topological order) still agree
  with the ground-truth netlist after long edit sequences.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import get_case
from repro.circuit.topology import FanoutIndex, levelize, topological_gates
from repro.incremental import SampledBackend, search_circuit
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


def assert_structures_consistent(circuit, reference_circuit):
    """FanoutIndex / levelize / topo-order ground truth after edits."""
    index = circuit.fanout_index()
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
        result = search_circuit(
            circuit_master, stats, strategy=strategy, seed=seed,
            max_moves=max_moves, retemplate=retemplate, anneal_trials=60,
        )
        assert result.net_stats == local_stats(result.circuit, stats)
        assert_structures_consistent(result.circuit, circuit_master)


class TestSampledSearchEquivalence:
    LANES, STEPS = 32, 8

    @settings(max_examples=6, deadline=None)
    @given(search_params())
    def test_search_leaves_cache_bitidentical(self, master, params):
        strategy, seed, max_moves, retemplate = params
        circuit_master, stats = master
        dwells = [
            d for s in stats.values()
            for d in (s.mean_high_dwell, s.mean_low_dwell)
        ]
        dt = 0.25 * min(dwells)
        result = search_circuit(
            circuit_master, stats, backend="sampled", lanes=self.LANES,
            steps=self.STEPS, dt=dt, strategy=strategy, seed=seed,
            max_moves=max_moves, retemplate=retemplate, anneal_trials=30,
        )
        fresh = SampledBackend(lanes=self.LANES, steps=self.STEPS,
                               dt=dt, seed=seed).full(result.circuit, stats)
        assert result.net_stats == fresh
        assert_structures_consistent(result.circuit, circuit_master)

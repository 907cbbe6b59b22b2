"""Property test: edit-sequence equivalence (incremental vs from-scratch).

Drives random sequences of the three supported ECO edits — gate
reorderings, same-arity template swaps, and input-statistics changes —
through a :class:`repro.incremental.StatsCache` and asserts after
**every** edit that the incrementally maintained statistics are
bit-identical (exact float equality) to a from-scratch recomputation of
the edited circuit, for both backends — and, on the analytic backend,
that the slot-array power total equals a from-scratch
:func:`~repro.core.optimizer.circuit_power` exactly, inside rolled-back
WhatIf trials as well as after them.
"""

from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import get_case
from repro.circuit.netlist import SetConfig, SetTemplate
from repro.core.optimizer import circuit_power, fold_power
from repro.gates.library import default_library
from repro.incremental import SampledBackend, StatsCache, WhatIf
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import local_stats
from repro.stochastic.signal import SignalStats
from repro.synth.mapper import map_circuit

#: Same-pin-tuple template groups — the swap candidates for retemplate
#: edits (positional rebinding keeps any same-arity pair valid; using
#: identical pin tuples keeps the scenario realistic).
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


def edit_specs():
    """One abstract edit: (kind, selector, value) integer triples.

    Kept abstract (plain integers) so hypothesis shrinks well; they are
    resolved against the concrete circuit inside the test.
    """
    return st.tuples(
        st.sampled_from(["reorder", "retemplate", "input-stats"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )


def apply_spec(circuit, cache, input_stats, spec, apply=None):
    """Resolve and apply one abstract edit; returns the live input map.

    ``apply`` receives the gate edits (default: the circuit's own
    ``apply_edit``; pass ``WhatIf.apply`` to run them as a trial).
    """
    apply = apply if apply is not None else circuit.apply_edit
    kind, selector, value = spec
    if kind == "reorder":
        gates = [g for g in circuit.gates if g.template.num_configurations() > 1]
        gate = gates[selector % len(gates)]
        configurations = gate.template.configurations()
        apply(SetConfig(gate.name,
                        configurations[value % len(configurations)]))
    elif kind == "retemplate":
        gates = [g for g in circuit.gates if g.template.pins in _SWAP_GROUPS]
        gate = gates[selector % len(gates)]
        group = _SWAP_GROUPS[gate.template.pins]
        others = [name for name in group if name != gate.template.name]
        apply(SetTemplate(gate.name, others[value % len(others)]))
    else:
        net = circuit.inputs[selector % len(circuit.inputs)]
        probability = 0.05 + 0.9 * ((value % 97) / 96.0)
        density = 1.0e4 * (1 + value % 89)
        input_stats[net] = SignalStats(probability, density)
        cache.set_input_stats(net, input_stats[net])
    return input_stats


class TestAnalyticEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(edit_specs(), min_size=1, max_size=8))
    def test_incremental_matches_scratch_after_every_edit(self, master, specs):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        current = dict(stats)
        with StatsCache(circuit, current) as cache:
            for spec in specs:
                current = apply_spec(circuit, cache, current, spec)
                assert cache.stats() == local_stats(circuit, current)

    @settings(max_examples=15, deadline=None)
    @given(st.lists(st.tuples(edit_specs(), st.booleans()),
                    min_size=1, max_size=8))
    def test_power_total_matches_scratch_across_trials(self, master, specs):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        current = dict(stats)
        with StatsCache(circuit, current) as cache:
            for spec, trial in specs:
                if trial and spec[0] != "input-stats":
                    before = cache.total_power()
                    with WhatIf(cache) as what_if:
                        apply_spec(circuit, cache, current, spec,
                                   apply=what_if.apply)
                        assert cache.total_power() == circuit_power(
                            circuit, current).total
                    assert cache.total_power() == before
                else:
                    current = apply_spec(circuit, cache, current, spec)
                assert cache.total_power() == circuit_power(
                    circuit, current).total


def test_fold_power_is_a_plain_left_fold():
    # A compensated sum (Python 3.12+ ``sum``) would return 1.0 here;
    # the cache, the batch pricer and circuit_power all fold left.
    assert fold_power(array("d", [1e16, 1.0, -1e16])) == 0.0
    assert fold_power(array("d")) == 0.0


class TestSampledEquivalence:
    LANES, STEPS, SEED = 64, 12, 2

    @settings(max_examples=8, deadline=None)
    @given(st.lists(edit_specs(), min_size=1, max_size=5))
    def test_incremental_matches_scratch_after_every_edit(self, master, specs):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        current = dict(stats)
        # dt fixed below any dwell the edit vocabulary can produce
        # (P in [0.05, 0.95], D <= 8.9e5 -> dwell >= 2*0.05/8.9e5).
        dt = 1.0e-8
        with StatsCache(circuit, current, backend="sampled", lanes=self.LANES,
                        steps=self.STEPS, dt=dt, seed=self.SEED) as cache:
            for spec in specs:
                current = apply_spec(circuit, cache, current, spec)
                reference = SampledBackend(
                    lanes=self.LANES, steps=self.STEPS, dt=dt, seed=self.SEED,
                ).full(circuit, current)
                assert cache.stats() == reference

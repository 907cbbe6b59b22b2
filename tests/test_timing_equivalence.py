"""Property test: timing edit-sequence equivalence (incremental vs batch).

The timing twin of ``test_edit_equivalence.py``: drives random
sequences of gate reorderings, same-arity template swaps and
input-arrival changes through a
:class:`repro.incremental.timing.TimingCache` and asserts after
**every** edit that the incrementally maintained arrival times, the
circuit delay and the critical path are bit-identical (exact float
equality) to a from-scratch :func:`repro.timing.sta.analyze_timing` of
the edited circuit.  A second property locks the nested-``WhatIf``
rollback contract: unwinding trials in LIFO order restores the timing
state exactly.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.suite import get_case
from repro.gates.library import default_library
from repro.incremental import StatsCache, TimingCache, WhatIf
from repro.incremental.eco import InputArrivalEdit
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit
from repro.timing.sta import analyze_timing

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
    """One abstract edit: (kind, selector, value) integer triples."""
    return st.tuples(
        st.sampled_from(["reorder", "retemplate", "input-arrival"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )


def apply_spec(circuit, tcache, spec):
    """Resolve and apply one abstract edit against the live circuit."""
    kind, selector, value = spec
    if kind == "reorder":
        gates = [g for g in circuit.gates if g.template.num_configurations() > 1]
        gate = gates[selector % len(gates)]
        configurations = gate.template.configurations()
        circuit.set_config(gate.name, configurations[value % len(configurations)])
    elif kind == "retemplate":
        gates = [g for g in circuit.gates if g.template.pins in _SWAP_GROUPS]
        gate = gates[selector % len(gates)]
        group = _SWAP_GROUPS[gate.template.pins]
        others = [name for name in group if name != gate.template.name]
        circuit.set_template(gate.name, others[value % len(others)])
    else:
        net = circuit.inputs[selector % len(circuit.inputs)]
        tcache.set_input_arrival(net, (value % 37) * 5.0e-11)


def assert_bit_identical(tcache, circuit):
    reference = analyze_timing(
        circuit, tcache.tech, tcache.po_load,
        input_arrivals=tcache.input_arrivals, compiled=False,
    )
    assert tcache.arrivals() == reference.arrivals
    assert tcache.delay() == reference.delay
    assert tcache.critical_path() == reference.critical_path


class TestTimingEquivalence:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(edit_specs(), min_size=1, max_size=8))
    def test_incremental_matches_scratch_after_every_edit(self, master, specs):
        circuit_master, _ = master
        circuit = circuit_master.copy()
        with TimingCache(circuit) as tcache:
            for spec in specs:
                apply_spec(circuit, tcache, spec)
                assert_bit_identical(tcache, circuit)

    @settings(max_examples=10, deadline=None)
    @given(st.lists(edit_specs(), min_size=1, max_size=6))
    def test_early_cutoff_never_exceeds_the_dirty_cone(self, master, specs):
        # The refresh may prune with early cut-off but must never retime
        # a gate outside the advertised dirty cone.
        circuit_master, _ = master
        circuit = circuit_master.copy()
        with TimingCache(circuit) as tcache:
            for spec in specs:
                apply_spec(circuit, tcache, spec)
                cone = tcache.dirty_gates
                before = tcache.gates_retimed
                changed = tcache.refresh()
                recomputed = tcache.gates_retimed - before
                assert len(changed) <= recomputed <= len(cone)
                drivers = {circuit.driver(net).name for net in changed}
                assert drivers <= set(cone)


class TestWhatIfTimingRollback:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(edit_specs(), min_size=1, max_size=4),
           st.lists(edit_specs(), min_size=1, max_size=4))
    def test_nested_rollback_restores_timing_exactly(self, master,
                                                     outer_specs, inner_specs):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        with StatsCache(circuit, stats) as cache, \
                TimingCache(circuit, index=cache.index) as tcache:
            baseline = tcache.report()
            with WhatIf(cache, timing=tcache) as outer:
                for spec in outer_specs:
                    self.apply_through(outer, circuit, spec)
                # Inner trial commits: its edits promote to the outer
                # undo log, so the outer rollback still undoes them.
                with WhatIf(cache, timing=tcache) as inner:
                    for spec in inner_specs:
                        self.apply_through(inner, circuit, spec)
                    inner.commit()
                assert outer.delta_delay() == tcache.delay() - baseline.delay
            # outer never committed -> everything rolled back
            restored = tcache.report()
            assert restored.arrivals == baseline.arrivals
            assert restored.delay == baseline.delay
            assert restored.critical_path == baseline.critical_path
            assert_bit_identical(tcache, circuit)

    @staticmethod
    def apply_through(trial, circuit, spec):
        """Resolve one abstract edit and route it through the WhatIf."""
        from repro.circuit.netlist import SetConfig, SetTemplate

        kind, selector, value = spec
        if kind == "reorder":
            gates = [g for g in circuit.gates
                     if g.template.num_configurations() > 1]
            gate = gates[selector % len(gates)]
            configurations = gate.template.configurations()
            trial.apply(SetConfig(
                gate.name, configurations[value % len(configurations)]
            ))
        elif kind == "retemplate":
            gates = [g for g in circuit.gates
                     if g.template.pins in _SWAP_GROUPS]
            gate = gates[selector % len(gates)]
            group = _SWAP_GROUPS[gate.template.pins]
            others = [n for n in group if n != gate.template.name]
            trial.apply(SetTemplate(gate.name, others[value % len(others)]))
        else:
            net = circuit.inputs[selector % len(circuit.inputs)]
            trial.apply(InputArrivalEdit(net, (value % 37) * 5.0e-11))

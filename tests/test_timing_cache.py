"""Unit tests for the incremental timing subsystem.

Covers the :class:`repro.incremental.timing.TimingCache` contract
(bit-identity with batch STA, edit-only dirty seeds, early cut-off,
input arrivals, lazy required times/slacks), the shared
:func:`repro.timing.sta.gate_arrival`/:func:`~repro.timing.sta.timing_context`
helpers, the `WhatIf` timing integration and ``run_eco``'s delays
against a replayed reference STA.  The randomized bit-identity sweeps live in
``test_timing_equivalence.py``.
"""

import pytest

from repro.analysis.experiments import run_eco
from repro.bench.suite import get_case
from repro.circuit.netlist import AddGate, RemoveGate, RewireNet, SetConfig
from repro.gates.capacitance import TechParams
from repro.incremental import StatsCache, TimingCache, WhatIf
from repro.incremental.eco import (
    InputArrivalEdit,
    InputStatsEdit,
    resolve_edit,
)
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit
from repro.timing.sta import (
    DEFAULT_PO_LOAD,
    analyze_timing,
    timing_context,
)


@pytest.fixture(scope="module")
def rca4():
    circuit = map_circuit(get_case("rca4").network())
    stats = ScenarioA(seed=5).input_stats(circuit.inputs)
    return circuit, stats


def reorderable(circuit):
    return [g for g in circuit.gates if g.template.num_configurations() > 1]


class TestTimingContext:
    def test_defaults(self):
        tech, po_load = timing_context()
        assert tech == TechParams()
        assert po_load == DEFAULT_PO_LOAD

    def test_passthrough(self):
        custom = TechParams(vdd=2.5)
        tech, po_load = timing_context(custom, 5.0e-15)
        assert tech is custom
        assert po_load == 5.0e-15

    @pytest.mark.parametrize("po_load", [-1e-12, float("nan"), "x"])
    def test_rejects_a_bad_po_load(self, po_load):
        with pytest.raises(ValueError,
                           match="po_load must be a finite non-negative"):
            timing_context(po_load=po_load)


class TestTimingCacheBasics:
    def test_arrivals_returns_a_snapshot(self, rca4):
        circuit, _ = rca4
        work = circuit.copy()
        with TimingCache(work) as tcache:
            delay = tcache.delay()
            path = tcache.critical_path()
            snapshot = tcache.arrivals()
            for net in snapshot:
                snapshot[net] = 1.0
            assert tcache.delay() == delay
            assert tcache.critical_path() == path
            assert tcache.arrivals() == analyze_timing(work).arrivals

    def test_initial_state_matches_batch_sta(self, rca4):
        circuit, _ = rca4
        with TimingCache(circuit) as tcache:
            report = analyze_timing(circuit, compiled=False)
            assert tcache.arrivals() == report.arrivals
            assert tcache.delay() == report.delay
            assert tcache.critical_path() == report.critical_path
            assert tcache.report() == report
            assert tcache.gates_retimed == 0  # initial sweep not counted

    def test_arrival_accessors(self, rca4):
        circuit, _ = rca4
        with TimingCache(circuit) as tcache:
            net = circuit.gates[0].output
            assert tcache.arrival(net) == tcache[net]
            assert tcache.input_arrival(circuit.inputs[0]) == 0.0

    def test_reorder_dirties_only_the_edited_gate(self, rca4):
        # A reorder changes no pin capacitance, so no fanin driver's
        # load or arrival: the gate is the only seed, and the dirty
        # view is its fanout cone.
        circuit, _ = rca4
        work = circuit.copy()
        with TimingCache(work) as tcache:
            gate = next(
                g for g in reorderable(work) if work.fanin_drivers(g.name)
            )
            work.set_config(gate.name, gate.template.configurations()[1])
            assert tcache.dirty_gates == \
                tcache.index.cone_from_gates([gate.name])
            for pred in work.fanin_drivers(gate.name):
                assert pred.name not in tcache.dirty_gates

    def test_refresh_is_bit_identical_after_edit(self, rca4):
        circuit, _ = rca4
        work = circuit.copy()
        with TimingCache(work) as tcache:
            for gate in reorderable(work)[:4]:
                for config in gate.template.configurations():
                    work.set_config(gate.name, config)
                    report = analyze_timing(work, compiled=False)
                    assert tcache.arrivals() == report.arrivals
                    assert tcache.delay() == report.delay
                    assert tcache.critical_path() == report.critical_path

    def test_early_cutoff_keeps_the_recompute_small(self, rca4):
        # Re-applying a gate's *current* configuration dirties its cone
        # but changes no arrival: the refresh must stop at the seeds
        # instead of walking the whole fanout cone.
        circuit, _ = rca4
        work = circuit.copy()
        with TimingCache(work) as tcache:
            gate = max(
                reorderable(work),
                key=lambda g: len(tcache.index.cone_from_gates([g.name])),
            )
            work.set_config(gate.name, gate.effective_config())
            cone = tcache.dirty_gates
            before = tcache.gates_retimed
            assert tcache.refresh() == ()  # nothing actually moved
            assert tcache.gates_retimed - before == 1 < len(cone)

    def test_set_input_arrival_roundtrip(self, rca4):
        circuit, _ = rca4
        work = circuit.copy()
        with TimingCache(work) as tcache:
            net = work.inputs[0]
            old = tcache.set_input_arrival(net, 3.0e-10)
            assert old == 0.0
            report = analyze_timing(work, input_arrivals=tcache.input_arrivals,
                                    compiled=False)
            assert tcache.delay() == report.delay
            assert tcache.arrivals() == report.arrivals
            assert tcache.set_input_arrival(net, 0.0) == 3.0e-10
            assert tcache.delay() == analyze_timing(work, compiled=False).delay
            with pytest.raises(KeyError):
                tcache.set_input_arrival("definitely-not-a-net", 1.0)

    def test_constructor_input_arrivals(self, rca4):
        circuit, _ = rca4
        arrivals = {net: 1.0e-10 * i for i, net in enumerate(circuit.inputs)}
        with TimingCache(circuit, input_arrivals=arrivals) as tcache:
            report = analyze_timing(circuit, input_arrivals=arrivals,
                                    compiled=False)
            assert tcache.arrivals() == report.arrivals
            assert tcache.delay() == report.delay

    def test_close_detaches_the_listener(self, rca4):
        circuit, _ = rca4
        work = circuit.copy()
        tcache = TimingCache(work)
        tcache.close()
        gate = reorderable(work)[0]
        work.set_config(gate.name, gate.template.configurations()[1])
        assert not tcache.dirty_gates
        tcache.close()  # idempotent


class TestRequiredTimesAndSlacks:
    def test_critical_path_has_zero_slack(self, rca4):
        circuit, _ = rca4
        with TimingCache(circuit) as tcache:
            slacks = tcache.slacks()
            for net in tcache.critical_path():
                assert slacks[net] == pytest.approx(0.0, abs=1e-24)
            # no net can beat its deadline under the default clock
            assert min(slacks.values()) >= -1e-24

    def test_required_times_follow_the_clock(self, rca4):
        circuit, _ = rca4
        with TimingCache(circuit) as tcache:
            tight = tcache.required_times(clock=0.0)
            loose = tcache.required_times(clock=1.0e-9)
            for net in circuit.outputs:
                assert loose[net] - tight[net] == pytest.approx(1.0e-9)

    def test_slack_invalidates_on_edit(self, rca4):
        circuit, _ = rca4
        work = circuit.copy()
        with TimingCache(work) as tcache:
            before = dict(tcache.slacks())
            gate = reorderable(work)[0]
            for config in gate.template.configurations():
                work.set_config(gate.name, config)
                tcache.refresh()
            # after returning towards a consistent state the map is
            # recomputed, not served stale
            after = tcache.slacks()
            assert set(after) == set(before)

    def test_buffer_edits_read_like_a_fresh_cache(self, rca4):
        # Required times walk the current topological order and the
        # current lowering's loads, so each structural step must move
        # both: an inverter pair inserted on a multi-sink net, every
        # sink rewired onto it, the sinks rewired back and the now
        # dead second inverter removed (its fanin net keeps a dead
        # sink, whose required time is inf).
        circuit, _ = rca4
        work = circuit.copy()
        index = work.fanout_index()
        net = next(g.output for g in work.gates
                   if len(index.sinks(g.output)) >= 2)
        sinks = [(sink.name, pin) for sink, pin in index.sinks(net)]
        steps = [
            [AddGate("buf_a", "inv", (("a", net),), "buf_a_n"),
             AddGate("buf_b", "inv", (("a", "buf_a_n"),), "buf_b_n")],
            [RewireNet(name, pin, "buf_b_n") for name, pin in sinks],
            [RewireNet(name, pin, net) for name, pin in sinks]
            + [RemoveGate("buf_b")],
        ]
        with TimingCache(work) as tcache:
            tcache.required_times()
            for edits in steps:
                for edit in edits:
                    work.apply_edit(edit)
                with TimingCache(work) as fresh:
                    assert tcache.required_times() == fresh.required_times()
                    assert tcache.slacks() == fresh.slacks()
            assert tcache.required_times()["buf_a_n"] == float("inf")


class TestWhatIfTiming:
    def test_delta_delay_matches_batch_sta(self, rca4):
        circuit, stats = rca4
        work = circuit.copy()
        with StatsCache(work, stats) as cache, \
                TimingCache(work, index=cache.index) as tcache:
            baseline = tcache.delay()
            gate = reorderable(work)[0]
            config = gate.template.configurations()[1]
            with WhatIf(cache, timing=tcache) as trial:
                trial.apply(SetConfig(gate.name, config))
                batch = analyze_timing(work, compiled=False).delay
                assert trial.delay() == batch
                assert trial.delta_delay() == batch - baseline
            assert tcache.delay() == baseline  # rolled back

    def test_input_arrival_edit_rolls_back(self, rca4):
        circuit, stats = rca4
        work = circuit.copy()
        with StatsCache(work, stats) as cache, \
                TimingCache(work, index=cache.index) as tcache:
            baseline = tcache.report()
            with WhatIf(cache, timing=tcache) as trial:
                trial.apply(InputArrivalEdit(work.inputs[0], 7.0e-10))
                assert tcache.input_arrival(work.inputs[0]) == 7.0e-10
            assert tcache.input_arrival(work.inputs[0]) == 0.0
            assert tcache.report() == baseline

    def test_commit_keeps_the_timing_edit(self, rca4):
        circuit, stats = rca4
        work = circuit.copy()
        with StatsCache(work, stats) as cache, \
                TimingCache(work, index=cache.index) as tcache:
            with WhatIf(cache, timing=tcache) as trial:
                trial.apply(InputArrivalEdit(work.inputs[1], 2.0e-10))
                trial.commit()
            assert tcache.input_arrival(work.inputs[1]) == 2.0e-10
            report = analyze_timing(
                work, input_arrivals=tcache.input_arrivals, compiled=False
            )
            assert tcache.delay() == report.delay

    def test_arrival_edit_requires_timing(self, rca4):
        circuit, stats = rca4
        work = circuit.copy()
        with StatsCache(work, stats) as cache:
            with pytest.raises(TypeError):
                with WhatIf(cache) as trial:
                    trial.apply(InputArrivalEdit(work.inputs[0], 1.0e-10))
            with pytest.raises(TypeError):
                WhatIf(cache).delay()

    def test_nested_trials_must_share_the_timing_cache(self, rca4):
        # A promoted InputArrivalEdit can only roll back through the
        # cache that applied it, so mismatched nesting refuses upfront.
        circuit, stats = rca4
        work = circuit.copy()
        with StatsCache(work, stats) as cache, \
                TimingCache(work, index=cache.index) as tcache, \
                TimingCache(work, index=cache.index) as other:
            with WhatIf(cache):
                with pytest.raises(RuntimeError):
                    with WhatIf(cache, timing=tcache):
                        pass  # pragma: no cover - never entered
            with WhatIf(cache, timing=tcache):
                with pytest.raises(RuntimeError):
                    with WhatIf(cache, timing=other):
                        pass  # pragma: no cover - never entered
                with WhatIf(cache, timing=tcache):
                    pass  # same cache: fine
                with WhatIf(cache):
                    pass  # timing-less inner: fine

    def test_timing_must_watch_the_same_circuit(self, rca4):
        circuit, stats = rca4
        work = circuit.copy()
        other = circuit.copy()
        with StatsCache(work, stats) as cache, \
                TimingCache(other) as tcache:
            with pytest.raises(ValueError):
                WhatIf(cache, timing=tcache)


def sta_delay_after_each_edit(circuit, script):
    """The oracle of ``run_eco``'s delays: for every entry, replay the
    script up to it on a fresh copy and run the per-gate reference STA."""
    delays = []
    for stop in range(len(script)):
        work = circuit.copy()
        arrivals = {net: 0.0 for net in work.inputs}
        for index, entry in enumerate(script[:stop + 1]):
            edit = resolve_edit(work, entry, index)
            if isinstance(edit, InputArrivalEdit):
                arrivals[edit.net] = edit.arrival
            elif not isinstance(edit, InputStatsEdit):
                work.apply_edit(edit)
        delays.append(analyze_timing(work, input_arrivals=arrivals,
                                     compiled=False).delay)
    return delays


class TestRunEcoIncrementalTiming:
    SCRIPT = [
        {"op": "reorder", "gate": "g1", "config": 1},
        {"op": "input-stats", "net": "a0", "probability": 0.25,
         "density": 3.0e5},
        {"op": "add-gate", "gate": "b0", "template": "inv",
         "pins": {"a": "a0"}, "output": "a0_n"},
        {"op": "reorder", "gate": "g1", "config": -1},
    ]

    def test_incremental_matches_full(self, rca4):
        circuit, stats = rca4
        last = circuit.gates[-1]
        script = self.SCRIPT + [
            {"op": "rewire", "gate": last.name, "pin": last.template.pins[0],
             "net": "a0_n"},
        ]
        rows = run_eco(circuit.copy(), dict(stats), script)
        assert [r.delay_after for r in rows] \
            == sta_delay_after_each_edit(circuit, script)
        assert all(r.retimed >= 0 for r in rows)
        # the input-stats edit never timing-dirties anything
        assert rows[1].retimed == 0

    ARRIVAL_SCRIPT = [
        {"op": "reorder", "gate": "g1", "config": 1},
        {"op": "input-arrival", "net": "a0", "arrival": 2.0e-10},
    ]

    def test_input_arrival_script_op(self, rca4):
        circuit, stats = rca4
        work = circuit.copy()
        rows = run_eco(work, dict(stats), self.ARRIVAL_SCRIPT)
        assert rows[1].label == "input-arrival a0 -> 2e-10"
        assert rows[1].delta_power == 0.0  # statistics never see arrivals
        assert rows[1].cone == 0
        arrivals = {net: 0.0 for net in work.inputs}
        arrivals["a0"] = 2.0e-10
        assert rows[1].delay_after == analyze_timing(
            work, input_arrivals=arrivals, compiled=False
        ).delay

"""Edit-sized repricing: the power cut-off, deferred re-lowering, orderings.

Three rules keep the incremental caches' work proportional to what an
edit changed rather than to the circuit:

* ``StatsCache`` power-dirties only the seeds of an edit (a reordering
  or retemplate seeds the gate alone, because loads follow
  connectivity — checked here against every edit the library allows)
  and lets :meth:`StatsCache.refresh` add the sinks of every net whose
  (P, D) actually moved; a reordering statistics-dirties nothing at
  all, because it keeps the gate's function;
* ``TimingCache`` re-lowers the circuit once, at the first refresh
  after a run of structural edits, instead of once per edit;
* ``GateTemplate.configurations`` enumerates a template's orderings
  once.

Each is checked against its from-scratch oracle here: seeded random
edit sequences (reorders, retemplates, input statistics, the search's
buffer/dup/sweep edit shapes and nested WhatIf trials) must leave the
cache ``==`` to ``circuit_power`` and ``local_stats`` after every step.
"""

import random

import pytest

from repro.bench.generators import random_logic
from repro.circuit import topology
from repro.circuit.netlist import (
    AddGate,
    RemoveGate,
    RewireNet,
    SetConfig,
    SetTemplate,
)
from repro.compiled import circuit as compiled_circuit
from repro.compiled import get_compiled
from repro.compiled.power import CompiledPowerKernel
from repro.core.optimizer import circuit_power
from repro.core.power_model import GatePowerModel
from repro.gates.capacitance import pin_terminal_counts
from repro.gates.library import default_library
from repro.incremental import StatsCache, TimingCache, WhatIf
from repro.incremental.eco import (
    InputArrivalEdit,
    InputStatsEdit,
    apply_eco_edit,
)
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import local_stats
from repro.stochastic.signal import SignalStats
from repro.synth.mapper import map_circuit
from repro.timing.sta import DEFAULT_PO_LOAD, analyze_timing


@pytest.fixture(scope="module")
def master():
    circuit = map_circuit(random_logic(12, 60, seed=9))
    stats = ScenarioA(seed=9).input_stats(circuit.inputs)
    return circuit, stats


# ----------------------------------------------------------------------
# Edit builders: each returns the edit list of one step on the live
# circuit (the structural ones mirror the search's move families)
# ----------------------------------------------------------------------
def _reorder(circuit, rng, names):
    gates = [g for g in circuit.gates if g.template.num_configurations() > 1]
    gate = rng.choice(gates)
    return [SetConfig(gate.name, rng.choice(gate.template.configurations()))]


def _retemplate(circuit, rng, names):
    groups = {}
    for template in circuit.library:
        groups.setdefault(template.pins, []).append(template.name)
    gates = [g for g in circuit.gates
             if len(groups.get(g.template.pins, ())) > 1]
    gate = rng.choice(gates)
    others = [n for n in groups[gate.template.pins]
              if n != gate.template.name]
    return [SetTemplate(gate.name, rng.choice(others))]


def _loaded_drivers(circuit):
    index = circuit.fanout_index()
    return [g for g in circuit.gates if len(index.sinks(g.output)) >= 2]


def _buffer(circuit, rng, names):
    """An inverter pair on a multi-sink net, every sink moved onto it."""
    drivers = _loaded_drivers(circuit)
    if not drivers:
        return []
    net = rng.choice(drivers).output
    sinks = circuit.fanout_index().sinks(net)
    edits = []
    source = net
    pin = circuit.library["inv"].pins[0]
    for _ in range(2):
        name = next(names)
        edits.append(AddGate(name, "inv", ((pin, source),), f"{name}_n"))
        source = f"{name}_n"
    edits.extend(RewireNet(sink.name, sink_pin, source)
                 for sink, sink_pin in sinks)
    return edits


def _dup(circuit, rng, names):
    """A clone of a multi-sink driver taking the upper half of its sinks."""
    drivers = _loaded_drivers(circuit)
    if not drivers:
        return []
    gate = rng.choice(drivers)
    sinks = circuit.fanout_index().sinks(gate.output)
    name = next(names)
    edits = [AddGate(name, gate.template.name,
                     tuple((pin, gate.pin_nets[pin])
                           for pin in gate.template.pins),
                     f"{name}_n", gate.config)]
    edits.extend(RewireNet(sink.name, pin, f"{name}_n")
                 for sink, pin in sinks[len(sinks) // 2:])
    return edits


def _rewire(circuit, rng, names):
    """One pin onto a net driven strictly earlier (can strand a driver)."""
    topo = circuit.topo_gates()
    position = {g.name: i for i, g in enumerate(topo)}
    gate = rng.choice(topo)
    safe = list(circuit.inputs) + [
        g.output for g in circuit.gates if position[g.name] < position[gate.name]
    ]
    return [RewireNet(gate.name, rng.choice(gate.template.pins),
                      rng.choice(safe))]


def _sweep(circuit, rng, names):
    """Every dead gate, reverse-topologically (one pass completes)."""
    edits = []
    outputs = frozenset(circuit.outputs)
    work = circuit.copy()
    for gate in reversed(work.topo_gates()):
        index = work.fanout_index()
        if gate.output not in outputs and not index.sinks(gate.output):
            edits.append(RemoveGate(gate.name))
            work.apply_edit(edits[-1])
    return edits


def _input(circuit, rng, names):
    net = rng.choice(circuit.inputs)
    return [InputStatsEdit(net, SignalStats(rng.uniform(0.1, 0.9),
                                            rng.uniform(1.0e4, 1.0e6)))]


BUILDERS = (_reorder, _retemplate, _buffer, _dup, _rewire, _sweep, _input)


def _assert_matches_scratch(cache, circuit):
    input_stats = {net: cache.input_stats(net) for net in circuit.inputs}
    scratch = circuit_power(circuit, input_stats)
    assert cache.total_power() == scratch.total
    assert cache.power().by_gate == scratch.by_gate
    assert cache.stats() == local_stats(circuit, input_stats)


def _direct(cache):
    def apply(edit):
        if isinstance(edit, InputStatsEdit):
            cache.set_input_stats(edit.net, edit.stats)
        else:
            cache.circuit.apply_edit(edit)
    return apply


def _matches_fresh_cache(**backend):
    """A step check against a fresh ``StatsCache(**backend)``."""
    def check(cache, circuit):
        input_stats = {net: cache.input_stats(net) for net in circuit.inputs}
        with StatsCache(circuit, input_stats, **backend) as fresh:
            assert cache.stats() == fresh.stats()
            assert cache.total_power() == circuit_power(
                circuit, input_stats, net_stats=fresh.stats()).total
    return check


def _run_steps(cache, rng, names, steps, apply, depth=0,
               builders=BUILDERS, check=_assert_matches_scratch):
    """Random steps through ``apply``, ``check``-ed after each.

    A step may instead open a WhatIf trial (nested up to two deep) whose
    own steps go through it and which commits or rolls back at random.
    Every step starts on a refreshed cache, so a bare reorder must
    leave the statistics dirty set empty.
    """
    circuit = cache.circuit
    for _ in range(steps):
        if depth < 2 and rng.random() < 0.3:
            with WhatIf(cache) as trial:
                _run_steps(cache, rng, names, rng.randint(1, 3),
                           trial.apply, depth + 1, builders, check)
                if rng.random() < 0.5:
                    trial.commit()
        else:
            builder = rng.choice(builders)
            for edit in builder(circuit, rng, names):
                apply(edit)
            if builder is _reorder:
                assert cache.dirty_gates == frozenset()
        check(cache, circuit)


@pytest.fixture
def priced(monkeypatch):
    """The name lists passed to ``CompiledPowerKernel.gate_totals``."""
    calls = []
    original = CompiledPowerKernel.gate_totals

    def spy(self, names, *args):
        calls.append(list(names))
        return original(self, names, *args)

    monkeypatch.setattr(CompiledPowerKernel, "gate_totals", spy)
    return calls


class TestPowerCutoff:
    @pytest.mark.parametrize("seed", range(6))
    def test_random_edits_match_scratch_after_every_step(self, master, seed):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        names = (f"rp{i}" for i in range(10_000))
        rng = random.Random(seed)
        with StatsCache(circuit, stats) as cache:
            _assert_matches_scratch(cache, circuit)
            _run_steps(cache, rng, names, 12, _direct(cache))

    def test_reorder_reprices_only_the_gate(self, master, priced):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        with StatsCache(circuit, stats) as cache:
            cache.total_power()
            gate = max(
                (g for g in circuit.gates
                 if g.template.num_configurations() > 1),
                key=lambda g: len(cache.index.cone_from_gates([g.name])))
            config = next(c for c in gate.template.configurations()
                          if c.key() != gate.effective_config().key())
            assert len(cache.index.cone_from_gates([gate.name])) > 1
            done = cache.gates_repropagated
            priced.clear()
            circuit.set_config(gate.name, config)
            # A reordering keeps the function: nothing goes
            # statistics-dirty, however large the gate's cone ...
            assert cache.dirty_gates == frozenset()
            cache.total_power()
            assert cache.gates_repropagated == done
            # ... and the power refresh prices the gate alone.
            assert priced == [[gate.name]]

    def test_retemplate_reprices_the_gate_and_sinks_of_changed_nets(
            self, master, priced):
        # No fanin driver is repriced: a swap moves no load.
        circuit_master, stats = master
        circuit = circuit_master.copy()
        groups = {}
        for template in circuit.library:
            groups.setdefault(template.pins, []).append(template.name)
        with StatsCache(circuit, stats) as cache:
            cache.total_power()
            before = dict(cache.stats())
            gate = next(g for g in circuit.topo_gates()
                        if len(groups[g.template.pins]) > 1
                        and circuit.fanin_drivers(g.name))
            other = next(name for name in groups[gate.template.pins]
                         if name != gate.template.name)
            priced.clear()
            circuit.apply_edit(SetTemplate(gate.name, other))
            after = cache.stats()
            moved = [n for n in after if after[n] != before.get(n)]
            cache.total_power()
            assert priced == [sorted(
                {gate.name} | {sink.name for n in moved
                               for sink, _pin in cache.index.sinks(n)},
                key=cache.topo_index.__getitem__)]
            _assert_matches_scratch(cache, circuit)

    def test_input_edit_reprices_sinks_of_changed_nets(self, master, priced):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        with StatsCache(circuit, stats) as cache:
            cache.total_power()
            before = dict(cache.stats())
            priced.clear()
            cache.set_input_stats(circuit.inputs[0], SignalStats(0.3, 2.0e5))
            after = cache.stats()
            moved = [n for n in after if after[n] != before.get(n)]
            cache.total_power()
            assert priced == [sorted(
                {gate.name for n in moved
                 for gate, _pin in cache.index.sinks(n)},
                key=cache.topo_index.__getitem__)]
            _assert_matches_scratch(cache, circuit)


class TestReorderMovesNoStatistics:
    """A reordering keeps the gate's function, so it statistics-dirties
    nothing and power-dirties only its gate; every other edit keeps its
    cone.  Reorders interleave with input-statistics edits on both
    backends, and with retemplates and structural edits on the analytic
    one, under nested WhatIf commits and rollbacks."""

    @pytest.mark.parametrize("seed", range(3))
    def test_analytic(self, master, seed):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        names = (f"rm{i}" for i in range(10_000))
        with StatsCache(circuit, stats) as cache:
            _run_steps(cache, random.Random(seed), names, 16,
                       _direct(cache), builders=BUILDERS + (_reorder,) * 2,
                       check=_matches_fresh_cache())

    @pytest.mark.parametrize("seed", range(2))
    def test_sampled(self, master, seed):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        names = (f"rm{i}" for i in range(10_000))
        # dt below every dwell _input can produce (P >= 0.1, D <= 1e6).
        backend = dict(backend="sampled", lanes=64, steps=12, dt=1.0e-8,
                       seed=seed)
        with StatsCache(circuit, stats, **backend) as cache:
            _run_steps(cache, random.Random(seed), names, 12,
                       _direct(cache), builders=(_reorder, _reorder, _input),
                       check=_matches_fresh_cache(**backend))


# ----------------------------------------------------------------------
# The invariant every edit seed relies on: loads follow connectivity
# ----------------------------------------------------------------------
def _local_edits(circuit, gate, groups):
    """Every SetConfig and SetTemplate the library allows on ``gate``."""
    for config in gate.template.configurations():
        yield SetConfig(gate.name, config)
    for template in groups[gate.template.pins]:
        if template.name != gate.template.name:
            for config in template.configurations():
                yield SetTemplate(gate.name, template.name, config)


class TestLoadsFollowConnectivity:
    def test_net_loads_fixed_under_every_reorder_and_retemplate(self,
                                                                 master):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        tech = GatePowerModel().tech
        cc = get_compiled(circuit)
        baseline = cc.net_loads(tech, DEFAULT_PO_LOAD).tolist()
        groups = {}
        for template in circuit.library:
            groups.setdefault(template.pins, []).append(template)
        for gate in list(circuit.gates):
            restore = SetTemplate(gate.name, gate.template.name, gate.config)
            for edit in _local_edits(circuit, gate, groups):
                circuit.apply_edit(edit)
                assert get_compiled(circuit) is cc
                assert cc.net_loads(tech, DEFAULT_PO_LOAD).tolist() == baseline
                # The object graph agrees on the nets the gate loads.
                for net in circuit.gate(gate.name).fanin_nets:
                    assert circuit.output_load(net, tech, DEFAULT_PO_LOAD) \
                        == baseline[cc.net_id[net]]
            circuit.apply_edit(restore)
        # A fresh lowering of a scrambled assignment agrees too.
        rng = random.Random(5)
        for gate in list(circuit.gates):
            circuit.apply_edit(rng.choice(list(
                _local_edits(circuit, gate, groups))))
        fresh = compiled_circuit.CompiledCircuit(circuit)
        try:
            assert fresh.net_loads(tech, DEFAULT_PO_LOAD).tolist() == baseline
        finally:
            fresh.close()
        # And inside WhatIf trials, before and after the rollback.
        with StatsCache(circuit, stats) as cache:
            movable = [g for g in circuit.gates
                       if len(groups[g.template.pins]) > 1]
            for gate in rng.sample(movable, 20):
                edits = list(_local_edits(circuit, gate, groups))
                with WhatIf(cache) as trial:
                    # A reorder, then a swap (a swap's config belongs to
                    # the new template).
                    trial.apply(rng.choice(
                        [e for e in edits if isinstance(e, SetConfig)]))
                    trial.apply(rng.choice(
                        [e for e in edits if isinstance(e, SetTemplate)]))
                    assert get_compiled(circuit).net_loads(
                        tech, DEFAULT_PO_LOAD).tolist() == baseline
                assert get_compiled(circuit).net_loads(
                    tech, DEFAULT_PO_LOAD).tolist() == baseline
                _assert_matches_scratch(cache, circuit)


# ----------------------------------------------------------------------
# Pin terminal counts per ordering, and memoised orderings
# ----------------------------------------------------------------------
class TestOrderings:
    @pytest.mark.parametrize("template", list(default_library()),
                             ids=lambda t: t.name)
    def test_pin_terminal_counts_are_ordering_independent(self, template):
        default = pin_terminal_counts(template.compile_config())
        # One N and one P device per pin: GateTemplate rejects a repeated
        # PDN signal, and the PUN is the PDN's dual over the same signals.
        assert default == {pin: 2 for pin in template.pins}
        for config in template.configurations():
            assert pin_terminal_counts(
                template.compile_config(config)) == default

    @pytest.mark.parametrize("template", list(default_library()),
                             ids=lambda t: t.name)
    def test_configurations_memoised_as_fresh_lists(self, template):
        first = template.configurations()
        second = template.configurations()
        assert first == second and first is not second
        assert all(a is b for a, b in zip(first, second))
        assert len(first) == template.num_configurations()
        first.clear()
        assert template.configurations() == second


# ----------------------------------------------------------------------
# TimingCache: one re-lowering per run of structural edits
# ----------------------------------------------------------------------
@pytest.fixture
def lowerings(monkeypatch):
    """Count ``CompiledCircuit`` constructions."""
    count = [0]
    original = compiled_circuit.CompiledCircuit.__init__

    def counted(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(compiled_circuit.CompiledCircuit, "__init__", counted)
    return count


@pytest.fixture
def builds(monkeypatch):
    """Count ``build_structure`` calls (structure-record derivations)."""
    count = [0]
    original = topology.build_structure

    def counted(circuit):
        count[0] += 1
        return original(circuit)

    monkeypatch.setattr(topology, "build_structure", counted)
    return count


def _caches(circuit, stats):
    cache = StatsCache(circuit, stats)
    timing = TimingCache(circuit, tech=cache.model.tech,
                         po_load=cache.po_load, index=cache.index)
    return cache, timing


def _assert_timing_matches_scratch(timing, circuit):
    report = analyze_timing(circuit, tech=timing.tech,
                            po_load=timing.po_load,
                            input_arrivals=dict(timing.input_arrivals),
                            compiled=False)
    assert timing.delay() == report.delay
    assert timing.arrivals() == report.arrivals


class TestDeferredRelowering:
    def test_structural_move_lowers_once_per_read(self, master, lowerings,
                                                  builds):
        # No edit derives structure either: the trial's read builds the
        # record once, and so does the read after the rollback.
        circuit_master, stats = master
        circuit = circuit_master.copy()
        cache, timing = _caches(circuit, stats)
        try:
            cache.total_power()
            timing.delay()
            names = (f"rl{i}" for i in range(100))
            edits = _buffer(circuit, random.Random(3), names)
            assert len(edits) >= 4
            lowerings[0] = builds[0] = 0
            with WhatIf(cache, timing=timing) as trial:
                for edit in edits:
                    trial.apply(edit)
                trial.power()
                trial.delay()
            assert (lowerings[0], builds[0]) == (1, 1)
            cache.total_power()
            timing.delay()
            assert (lowerings[0], builds[0]) == (2, 2)
            _assert_matches_scratch(cache, circuit)
            _assert_timing_matches_scratch(timing, circuit)
        finally:
            timing.close()
            cache.close()

    @pytest.mark.parametrize("builder", [_buffer, _dup, _rewire, _sweep],
                             ids=lambda b: b.__name__.strip("_"))
    def test_timing_matches_scratch_after_every_edit(self, master, builder):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        rng = random.Random(5)
        names = (f"tm{i}" for i in range(10_000))
        cache, timing = _caches(circuit, stats)
        try:
            for _ in range(4):
                for edit in builder(circuit, rng, names):
                    circuit.apply_edit(edit)
                    _assert_timing_matches_scratch(timing, circuit)
        finally:
            timing.close()
            cache.close()

    def test_input_arrival_between_edit_and_refresh(self, master, lowerings):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        cache, timing = _caches(circuit, stats)
        try:
            timing.delay()
            names = (f"ia{i}" for i in range(100))
            lowerings[0] = 0
            for edit in _dup(circuit, random.Random(7), names):
                circuit.apply_edit(edit)
            # No lowering yet: the arrival lands in the dict alone and
            # the next refresh re-lowers from it.
            net = circuit.inputs[0]
            timing.set_input_arrival(net, 2.0e-10)
            assert lowerings[0] == 0
            _assert_timing_matches_scratch(timing, circuit)
            assert lowerings[0] == 1
            timing.set_input_arrival(circuit.inputs[1], 1.0e-10)
            _assert_timing_matches_scratch(timing, circuit)
        finally:
            timing.close()
            cache.close()


# ----------------------------------------------------------------------
# Deferred cones: edits record seeds, the read expands them
# ----------------------------------------------------------------------
def _arrival(circuit, rng, names):
    return [InputArrivalEdit(rng.choice(circuit.inputs),
                             rng.uniform(0.0, 2.0e-10))]


DEFERRED_BUILDERS = (_buffer, _dup, _rewire, _sweep, _retemplate, _input,
                     _arrival)


class TestDeferredCones:
    """A batch of edits with no read in between leaves only seeds; the
    read that follows expands them on the structure current then."""

    @pytest.mark.parametrize("seed", range(6))
    def test_batch_without_reads_matches_scratch(self, master, seed):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        rng = random.Random(seed)
        names = (f"dc{i}" for i in range(10_000))
        cache, timing = _caches(circuit, stats)
        try:
            for _ in range(4):
                before = cache.stats()
                timing.delay()
                for _ in range(rng.randint(2, 6)):
                    builder = rng.choice(DEFERRED_BUILDERS)
                    for edit in builder(circuit, rng, names):
                        apply_eco_edit(cache, timing, edit)
                dirty = cache.dirty_gates
                after = cache.stats()
                moved = {gate.name for gate in circuit.gates
                         if after[gate.output] != before.get(gate.output)}
                assert moved <= dirty
                _assert_matches_scratch(cache, circuit)
                _assert_timing_matches_scratch(timing, circuit)
        finally:
            timing.close()
            cache.close()

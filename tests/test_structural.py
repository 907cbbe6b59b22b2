"""Structural ECO edits: exact inverses, cache coherence, search artifacts.

Covers the structural edit algebra (``AddGate``/``RemoveGate``/
``RewireNet``) end to end: inverse round-trips and validation errors at
the netlist layer, the widened JSON vocabulary (unknown-key rejection,
retemplate ``config`` support), WhatIf trial/rollback exactness, a
hypothesis property holding both incremental caches bit-identical to
from-scratch re-analysis under interleaved structural + local edits,
the stale-``CompiledCircuit`` guard, and the structural search move
families (byte-stable artifacts, replayable scripts, traced-vs-untraced
parity).
"""

import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.experiments import run_eco
from repro.bench.runner import dumps_artifact, strip_timing
from repro.bench.suite import get_case
from repro.circuit.blif import load_blif
from repro.circuit.netlist import (
    AddGate,
    Circuit,
    CircuitError,
    RemoveGate,
    RewireNet,
    SetConfig,
    SetTemplate,
)
from repro.core.optimizer import circuit_power
from repro.gates.capacitance import TechParams
from repro.gates.library import default_library
from repro.incremental.cache import StatsCache
from repro.incremental.eco import (
    WhatIf,
    edit_entry,
    resolve_edit,
    resolve_edit_script,
)
from repro.incremental.search import Move, search_circuit
from repro.incremental.timing import TimingCache
from repro.obs import trace
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import local_stats
from repro.stochastic.signal import SignalStats
from repro.synth.mapper import map_circuit
from repro.timing.sta import analyze_timing


def fanout_circuit() -> Circuit:
    """A heavy-fanout net plus a dead inverter pair (sweep fodder)."""
    c = Circuit("fanout", default_library())
    for net in "abcd":
        c.add_input(net)
    c.add_gate("src", "nand2", {"a": "a", "b": "b"}, "x")
    for i in range(6):
        c.add_gate(f"s{i}", "nand2", {"a": "x", "b": "cd"[i % 2]}, f"y{i}")
    prev = "y0"
    for i in range(1, 6):
        c.add_gate(f"r{i}", "nand2", {"a": prev, "b": f"y{i}"}, f"z{i}")
        prev = f"z{i}"
    c.add_gate("d1", "inv", {"a": "c"}, "dead1")
    c.add_gate("d2", "inv", {"a": "dead1"}, "dead2")
    c.add_output(prev)
    c.validate()
    return c


FANOUT_STATS = {n: SignalStats(0.5, 2.0e8) for n in "abcd"}


def netlist_snapshot(circuit: Circuit):
    """Everything a rollback must restore, creation order included."""
    return (
        tuple(circuit.inputs),
        tuple(circuit.outputs),
        tuple(
            (g.name, g.template.name,
             tuple(sorted(g.pin_nets.items())), g.output,
             None if g.config is None else g.config.key())
            for g in circuit.gates
        ),
    )


def fanout_snapshot(circuit: Circuit):
    index = circuit.fanout_index()
    nets = list(circuit.inputs) + [g.output for g in circuit.gates]
    return {net: tuple((g.name, pin) for g, pin in index.sinks(net))
            for net in nets}


# ----------------------------------------------------------------------
# Edit algebra: inverses and validation
# ----------------------------------------------------------------------
class TestStructuralEdits:
    def test_add_gate_inverse_roundtrip(self):
        c = fanout_circuit()
        before = netlist_snapshot(c)
        inverse = c.apply_edit(
            AddGate("extra", "inv", (("a", "x"),), "extra_n"))
        assert inverse == RemoveGate("extra")
        assert "extra" in c
        c.apply_edit(inverse)
        assert netlist_snapshot(c) == before

    def test_remove_gate_inverse_restores_creation_order(self):
        c = fanout_circuit()
        before = netlist_snapshot(c)
        order_before = [g.name for g in c.gates]
        assert order_before.index("d1") < len(order_before) - 1
        inverse = c.apply_edit(RemoveGate("d2"))
        assert isinstance(inverse, AddGate)
        assert inverse.index == order_before.index("d2")
        redo = c.apply_edit(inverse)
        assert redo == RemoveGate("d2")
        assert [g.name for g in c.gates] == order_before
        assert netlist_snapshot(c) == before
        c.validate()

    def test_remove_refuses_driven_sinks_and_po(self):
        c = fanout_circuit()
        with pytest.raises(CircuitError):
            c.apply_edit(RemoveGate("src"))  # x has sinks
        with pytest.raises(CircuitError):
            c.apply_edit(RemoveGate("r5"))  # z5 is a primary output

    def test_add_refuses_undriven_fanin(self):
        c = fanout_circuit()
        with pytest.raises(CircuitError, match="no driver"):
            c.apply_edit(AddGate("g", "inv", (("a", "ghost"),), "g_n"))

    def test_rewire_inverse_roundtrip(self):
        c = fanout_circuit()
        before = netlist_snapshot(c)
        fanout_before = fanout_snapshot(c)
        inverse = c.apply_edit(RewireNet("s0", "a", "c"))
        assert inverse == RewireNet("s0", "a", "x")
        assert c.gate("s0").pin_nets["a"] == "c"
        c.apply_edit(inverse)
        assert netlist_snapshot(c) == before
        assert fanout_snapshot(c) == fanout_before

    def test_rewire_refuses_cycles_and_bad_args(self):
        c = fanout_circuit()
        # y0 is downstream of src: binding src's pin to it is a cycle
        with pytest.raises(CircuitError):
            c.apply_edit(RewireNet("src", "a", "y0"))
        with pytest.raises(CircuitError):
            c.apply_edit(RewireNet("s0", "nope", "c"))
        with pytest.raises(CircuitError):
            c.apply_edit(RewireNet("s0", "a", "ghost"))

    def test_unknown_template_reports_available_cells(self):
        c = fanout_circuit()
        with pytest.raises(CircuitError, match="available.*inv"):
            c.add_gate("g", "bogus", {"a": "a"}, "g_n")
        with pytest.raises(CircuitError, match="available.*inv"):
            c.apply_edit(SetTemplate("src", "bogus"))
        with pytest.raises(CircuitError, match="available.*inv"):
            default_library()["bogus"]

    def test_validate_deep_chain_iteratively(self):
        # The recursive DFS exhausted the C stack on chains like this;
        # the iterative rewrite must not (no recursion-limit games).
        c = Circuit("deep", default_library())
        c.add_input("n0")
        for i in range(30_000):
            c.add_gate(f"g{i}", "inv", {"a": f"n{i}"}, f"n{i + 1}")
        c.add_output("n30000")
        c.validate()
        assert len(list(c.topo_gates())) == 30_000


# ----------------------------------------------------------------------
# JSON vocabulary
# ----------------------------------------------------------------------
class TestEditVocabulary:
    def test_retemplate_honours_config(self):
        c = fanout_circuit()
        template = c.library["nor2"]
        configs = template.configurations()
        edit = resolve_edit(
            c, {"op": "retemplate", "gate": "src", "template": "nor2",
                "config": 1})
        assert edit == SetTemplate("src", "nor2", configs[1])
        # config stays optional
        assert resolve_edit(
            c, {"op": "retemplate", "gate": "src", "template": "nor2"}
        ) == SetTemplate("src", "nor2")

    def test_unknown_keys_rejected(self):
        c = fanout_circuit()
        for entry in (
            {"op": "reorder", "gate": "src", "confg": 0},
            {"op": "retemplate", "gate": "src", "template": "nor2",
             "pins": {}},
            {"op": "remove-gate", "gate": "d2", "output": "dead2"},
        ):
            with pytest.raises(ValueError, match="unknown keys"):
                resolve_edit(c, entry)

    @pytest.mark.parametrize("entry, message", [
        ("x", "expected a JSON object, got 'x'"),
        ({"op": "reorder", "gate": 5, "config": 0},
         "field 'gate' must be a string, got 5"),
        ({"op": "input-stats", "net": 1, "probability": 0.5,
          "density": 1.0e4}, "field 'net' must be a string"),
        ({"op": "retemplate", "gate": "src", "template": 2},
         "field 'template' must be a string"),
        ({"op": "reorder", "gate": "src"}, r"missing keys \['config'\]"),
        ({"op": "remove-gate", "gate": "nope"}, "unknown gate 'nope'"),
        ({"op": ["reorder"]}, r"unknown edit op \['reorder'\]"),
        # Well-typed but out of range: refused by SignalStats itself.
        ({"op": "input-stats", "net": "a", "probability": 1.5,
          "density": 1.0e5}, r"probability 1.5 outside \[0, 1\]"),
        ({"op": "input-stats", "net": "a", "probability": 0.5,
          "density": -1}, "density -1.0 must be non-negative"),
    ])
    def test_malformed_entries_name_their_index(self, entry, message):
        c = fanout_circuit()
        with pytest.raises(ValueError, match=f"script entry 3: .*{message}"):
            resolve_edit(c, entry, 3)
        script = [{"op": "reorder", "gate": "src", "config": 0}, entry]
        with pytest.raises(ValueError, match="script entry 1: "):
            resolve_edit_script(c, script)

    def test_unknown_op_lists_vocabulary(self):
        with pytest.raises(ValueError, match="add-gate.*rewire|rewire.*add-gate"):
            resolve_edit(fanout_circuit(), {"op": "transmogrify"})

    def test_add_gate_pin_mismatch_rejected(self):
        c = fanout_circuit()
        with pytest.raises(ValueError, match="do not match"):
            resolve_edit(c, {"op": "add-gate", "gate": "g",
                             "template": "nand2", "pins": {"a": "a"},
                             "output": "g_n"})

    def test_structural_entries_round_trip(self):
        c = fanout_circuit()
        edits = (
            AddGate("g", "nand2", (("a", "a"), ("b", "x")), "g_n"),
            RemoveGate("d2"),
            RewireNet("s0", "a", "c"),
        )
        move = Move("s0", "buffer", edits, label="t")
        entries = move.script_entry(c)
        assert isinstance(entries, list) and len(entries) == 3
        json.dumps(entries)
        assert tuple(resolve_edit(c, e) for e in entries) == edits

    @pytest.mark.parametrize("given", [True, False])
    def test_edit_entry_inverts_resolve_edit(self, given):
        c = fanout_circuit()
        templates = [c.library[name] for name in ("nand2", "nor2", "inv")]
        configs = [t.configurations()[-1] if given else None
                   for t in templates]
        edits = [
            SetConfig("src", configs[0]),
            SetTemplate("src", "nor2", configs[1]),
            AddGate("b0", "inv", (("a", "x"),), "x_buf", configs[2]),
            RemoveGate("d2"),
            RewireNet("s0", "a", "c"),
        ]
        entries = [edit_entry(c, edit) for edit in edits]
        json.dumps(entries)
        assert [resolve_edit(c, entry) for entry in entries] == edits
        if given:
            assert [entry["config"] for entry in entries[:3]] == [
                len(t.configurations()) - 1 for t in templates]
        else:
            # A default reorder writes -1; retemplate and add-gate omit it.
            assert entries[0]["config"] == -1
            assert all("config" not in entry for entry in entries[1:3])

    def test_unenumerated_config_reports_gate_and_template(self):
        c = fanout_circuit()
        foreign = c.library["nor2"].configurations()[0]
        move = Move("src", "reorder", SetConfig("src", foreign))
        with pytest.raises(ValueError,
                           match="src.*nand2.*cannot be scripted"):
            move.script_entry(c)


# ----------------------------------------------------------------------
# WhatIf trial/rollback
# ----------------------------------------------------------------------
class TestWhatIfStructural:
    @pytest.mark.parametrize("queried", [False, True])
    def test_rollback_restores_netlist_exactly(self, queried):
        """A ``queried`` trial refreshes both caches before rolling
        back; an unqueried one rolls back edits still pending in their
        dirty sets."""
        c = fanout_circuit()
        cache = StatsCache(c, FANOUT_STATS)
        timing = TimingCache(c, tech=cache.model.tech, po_load=cache.po_load,
                             index=cache.index)
        snapshot = netlist_snapshot(c)
        fanout = fanout_snapshot(c)
        stats_before = dict(cache.stats())
        power_before = cache.total_power()
        delay_before = timing.delay()
        with WhatIf(cache) as trial:
            trial.apply(AddGate("b1", "inv", (("a", "x"),), "b1_n"))
            trial.apply(AddGate("b2", "inv", (("a", "b1_n"),), "b2_n"))
            trial.apply(RewireNet("s0", "a", "b2_n"))
            trial.apply(RewireNet("s1", "a", "b2_n"))
            trial.apply(RemoveGate("d2"))
            if queried:
                assert trial.power() != power_before
                timing.delay()
        assert netlist_snapshot(c) == snapshot
        assert fanout_snapshot(c) == fanout
        assert dict(cache.stats()) == stats_before
        assert cache.total_power() == power_before
        assert timing.delay() == delay_before
        timing.close()
        cache.close()

    def test_nested_commit_promotes_structural_undo(self):
        c = fanout_circuit()
        cache = StatsCache(c, FANOUT_STATS)
        snapshot = netlist_snapshot(c)
        power_before = cache.total_power()
        with WhatIf(cache) as outer:
            outer.apply(SetConfig("src", None))
            with WhatIf(cache) as inner:
                inner.apply(RemoveGate("d2"))
                inner.commit()
            assert "d2" not in c
        # outer rolled back: the committed inner edit must unwind too
        assert netlist_snapshot(c) == snapshot
        assert cache.total_power() == power_before
        cache.close()

    def test_sampled_backend_refuses_before_mutation(self):
        c = fanout_circuit()
        cache = StatsCache(c, FANOUT_STATS, backend="sampled",
                           lanes=16, steps=4, seed=1)
        with WhatIf(cache) as trial:
            with pytest.raises(CircuitError, match="sampled.*structural"):
                trial.apply(AddGate("g", "inv", (("a", "a"),), "g_n"))
        assert "g" not in c  # refused before touching the netlist
        cache.close()

    def test_sampled_structure_refusals_share_one_text(self):
        c = fanout_circuit()
        cache = StatsCache(c, FANOUT_STATS, backend="sampled",
                           lanes=16, steps=4, seed=1)
        edit = AddGate("g", "inv", (("a", "a"),), "g_n")

        def refusal(action):
            with pytest.raises(CircuitError,
                               match="sampled.*structural") as info:
                action()
            return str(info.value)

        with WhatIf(cache) as trial:
            texts = {refusal(lambda: trial.apply(edit))}
        # Last: the bare edit reaches the netlist before its listener
        # refuses it.
        texts.add(refusal(lambda: c.apply_edit(edit)))
        cache.close()
        assert len(texts) == 1

    def test_run_eco_refuses_structure_before_mutating(self):
        blif = Path(__file__).parent / "data" / "ci_fa.blif"
        c = map_circuit(load_blif(str(blif)))
        gates = len(c.gates)
        stats = {net: SignalStats(0.5, 1.0e5) for net in c.inputs}
        script = [{"op": "add-gate", "gate": "b0", "template": "inv",
                   "pins": {"a": c.inputs[0]}, "output": "b0_n"}]
        with pytest.raises(CircuitError, match="sampled.*structural"):
            run_eco(c, stats, script, backend="sampled", lanes=64)
        assert len(c.gates) == gates
        assert "b0" not in c


# ----------------------------------------------------------------------
# Property: interleaved edits keep both caches bit-identical to scratch
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def master():
    circuit = map_circuit(get_case("rca4").network())
    stats = ScenarioA(seed=5).input_stats(circuit.inputs)
    return circuit, stats


def edit_specs():
    return st.tuples(
        st.sampled_from(["reorder", "retemplate", "add", "remove", "rewire"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )


def apply_spec(circuit, spec, counter, apply=None):
    """Resolve one abstract edit against the live circuit and apply it.

    Structural choices are made safe by construction: added gates feed
    from existing nets, removals pick currently dead gates, rewires
    bind to nets whose drivers sit strictly earlier in topological
    order (so no cycle can form).  ``apply`` receives the edit
    (default: ``circuit.apply_edit``; pass ``WhatIf.apply`` to trial it).
    """
    apply = apply if apply is not None else circuit.apply_edit
    kind, selector, value = spec
    if kind == "reorder":
        gates = [g for g in circuit.gates
                 if g.template.num_configurations() > 1]
        gate = gates[selector % len(gates)]
        configs = gate.template.configurations()
        apply(SetConfig(gate.name, configs[value % len(configs)]))
    elif kind == "retemplate":
        groups = {}
        for t in circuit.library:
            groups.setdefault(t.pins, []).append(t.name)
        gates = [g for g in circuit.gates
                 if len(groups.get(g.template.pins, ())) > 1]
        gate = gates[selector % len(gates)]
        others = [n for n in groups[gate.template.pins]
                  if n != gate.template.name]
        apply(SetTemplate(gate.name, others[value % len(others)]))
    elif kind == "add":
        nets = list(circuit.inputs) + [g.output for g in circuit.gates]
        template = ("inv", "nand2")[value % 2]
        pins = circuit.library[template].pins
        bindings = tuple(
            (pin, nets[(selector + i * 31) % len(nets)])
            for i, pin in enumerate(pins)
        )
        counter[0] += 1
        name = f"hx{counter[0]}"
        apply(AddGate(name, template, bindings, f"{name}_n"))
    elif kind == "remove":
        index = circuit.fanout_index()
        outputs = frozenset(circuit.outputs)
        dead = [g.name for g in circuit.gates
                if g.output not in outputs and not index.sinks(g.output)]
        if dead:
            apply(RemoveGate(dead[selector % len(dead)]))
    else:  # rewire
        topo = [g.name for g in circuit.topo_gates()]
        position = {name: i for i, name in enumerate(topo)}
        gate = circuit.gate(topo[selector % len(topo)])
        safe = list(circuit.inputs) + [
            g.output for g in circuit.gates
            if position[g.name] < position[gate.name]
        ]
        pins = gate.template.pins
        pin = pins[value % len(pins)]
        apply(RewireNet(gate.name, pin,
                                     safe[value % len(safe)]))


class TestInterleavedEquivalence:
    @settings(max_examples=20, deadline=None)
    @given(st.lists(edit_specs(), min_size=1, max_size=8))
    def test_both_caches_match_scratch_after_every_edit(self, master, specs):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        counter = [0]
        cache = StatsCache(circuit, stats)
        timing = TimingCache(circuit, tech=cache.model.tech,
                             po_load=cache.po_load, index=cache.index)
        try:
            for spec in specs:
                apply_spec(circuit, spec, counter)
                assert cache.stats() == local_stats(circuit, stats)
                report = analyze_timing(circuit, tech=cache.model.tech,
                                        po_load=cache.po_load,
                                        compiled=False)
                assert timing.delay() == report.delay
        finally:
            timing.close()
            cache.close()

    @settings(max_examples=20, deadline=None)
    @given(st.lists(st.tuples(edit_specs(), st.booleans()),
                    min_size=1, max_size=8))
    def test_power_total_matches_scratch_across_trials(self, master, specs):
        """The slot-array total survives slot renumbering (add, remove,
        rewire) and WhatIf rollbacks, equal to a from-scratch
        ``circuit_power`` with ``==``, not a tolerance."""
        circuit_master, stats = master
        circuit = circuit_master.copy()
        counter = [0]
        cache = StatsCache(circuit, stats)
        try:
            for spec, trial in specs:
                if trial:
                    before = cache.total_power()
                    with WhatIf(cache) as what_if:
                        apply_spec(circuit, spec, counter,
                                   apply=what_if.apply)
                        assert cache.total_power() == circuit_power(
                            circuit, stats).total
                    assert cache.total_power() == before
                else:
                    apply_spec(circuit, spec, counter)
                assert cache.total_power() == circuit_power(
                    circuit, stats).total
        finally:
            cache.close()


# ----------------------------------------------------------------------
# Compiled lowering: stale guard
# ----------------------------------------------------------------------
class TestStaleCompiled:
    def test_structural_edit_invalidates_compiled(self):
        from repro.compiled.circuit import get_compiled

        c = fanout_circuit()
        cc = get_compiled(c)
        assert get_compiled(c) is cc
        c.apply_edit(RemoveGate("d2"))
        assert cc.stale
        with pytest.raises(CircuitError, match="stale"):
            cc.net_loads(TechParams(), 10.0e-15)
        fresh = get_compiled(c)
        assert fresh is not cc and not fresh.stale
        fresh.net_loads(TechParams(), 10.0e-15)


# ----------------------------------------------------------------------
# Search move families
# ----------------------------------------------------------------------
STRUCTURAL_SEARCH = dict(strategy="greedy", objective="power-delay",
                         delay_weight=0.7,
                         structural=["buffer", "dup", "sweep"],
                         structural_nets=2)


def _run_structural_search():
    return search_circuit(fanout_circuit(), FANOUT_STATS, **STRUCTURAL_SEARCH)


def _portable_artifact(result):
    return dumps_artifact(strip_timing(result.to_artifact()))


class TestStructuralSearch:
    def test_script_replays_bit_identically(self):
        """The ECO script replays onto the original netlist."""
        result = _run_structural_search()
        kinds = {m.kind for m in result.accepted}
        assert "sweep" in kinds  # the dead pair must be swept
        assert kinds & {"buffer", "dup"}  # fanout relief must fire
        work = fanout_circuit()
        cache = StatsCache(work, FANOUT_STATS)
        timing = TimingCache(work, tech=cache.model.tech,
                             po_load=cache.po_load, index=cache.index)
        for entry in result.eco_script():
            work.apply_edit(resolve_edit(work, entry))
        assert cache.total_power() == result.power_after
        assert timing.delay() == result.delay_after
        assert netlist_snapshot(work) == netlist_snapshot(result.circuit)
        work.validate()
        timing.close()
        cache.close()

    def test_artifact_byte_stable_across_runs(self):
        first = _portable_artifact(_run_structural_search())
        again = _portable_artifact(_run_structural_search())
        assert first == again

    def test_traced_run_is_byte_identical_and_emits_spans(self):
        baseline = _portable_artifact(_run_structural_search())
        sink = io.StringIO()
        trace.enable(sink)
        try:
            traced = _portable_artifact(_run_structural_search())
        finally:
            trace.disable()
        assert traced == baseline
        events = sink.getvalue()
        assert "search.structural" in events
        assert "eco.structural" in events

    def test_moves_structural_counter(self):
        from repro.obs.metrics import REGISTRY

        counter = REGISTRY.counter("search.moves_structural")
        before = counter.value
        result = _run_structural_search()
        structural = [m for m in result.accepted
                      if m.kind in ("buffer", "dup", "sweep")]
        assert structural
        assert counter.value == before + len(structural)

    def test_sampled_backend_refused_up_front(self):
        with pytest.raises(ValueError, match="analytic"):
            search_circuit(fanout_circuit(), FANOUT_STATS,
                           backend="sampled", structural=["sweep"])

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            search_circuit(fanout_circuit(), FANOUT_STATS,
                           structural=["bogus"])

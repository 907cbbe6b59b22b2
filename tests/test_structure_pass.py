"""The integer structure pass against the object-graph walks it replaced.

:func:`repro.circuit.topology.build_structure` computes a circuit's
topological order, levels, sink lists and the compiled lowering's CSR
arrays in one integer pass.  Every result must equal (``==``, order
included) what the object walks produce: :func:`topological_gates`,
the level walk and the dict-of-lists fanout index kept below as
references.  Inputs are hypothesis DAGs created in shuffled order (so
creation-order tie-breaks matter), with repeated nets on one gate,
primary-input-only fanins and empty circuits, plus random structural
edit sequences and their WhatIf rollback.  The power half checks the
report-free slots of :class:`StatsCache`: reports built on demand
equal :func:`circuit_power`'s, and ``total_power()`` builds none.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.compiled.power as compiled_power
from repro.circuit.netlist import (
    AddGate,
    Circuit,
    CircuitError,
    RemoveGate,
    RewireNet,
    SetConfig,
)
from repro.circuit.topology import topological_gates
from repro.compiled.circuit import get_compiled
from repro.core.optimizer import circuit_power
from repro.core.power_model import GatePowerReport, NodePowerEntry
from repro.gates.capacitance import TechParams
from repro.gates.library import default_library
from repro.gates.network import OUT
from repro.incremental import StatsCache, WhatIf
from repro.sim.stimulus import ScenarioA

LIB = default_library()
TEMPLATES = ("inv", "nand2", "nor3", "aoi21", "nand4")


# ----------------------------------------------------------------------
# References: the object walks the integer pass replaced
# ----------------------------------------------------------------------
def reference_levels(circuit):
    """The former ``Circuit.gate_levels`` walk, in topological order."""
    levels = {}
    for gate in topological_gates(circuit):
        level = 0
        for net in gate.fanin_nets:
            pred = circuit.driver(net)
            if pred is not None:
                level = max(level, levels[pred.name] + 1)
        levels[gate.name] = level
    return levels


class ObjectFanoutIndex:
    """The former ``FanoutIndex``: pin bindings inverted by an object walk."""

    def __init__(self, circuit):
        self.sinks = {}
        self.gate_sinks = {}
        for gate in circuit.gates:
            seen_nets = set()
            for pin in gate.template.pins:
                net = gate.pin_nets[pin]
                self.sinks.setdefault(net, []).append((gate.name, pin))
                pred = circuit.driver(net)
                if pred is not None and net not in seen_nets:
                    self.gate_sinks.setdefault(pred.name, []).append(
                        gate.name)
                    seen_nets.add(net)

    def cone_from_gates(self, names):
        cone = set()
        stack = list(names)
        while stack:
            name = stack.pop()
            if name not in cone:
                cone.add(name)
                stack.extend(self.gate_sinks.get(name, ()))
        return frozenset(cone)

    def cone_from_nets(self, nets):
        return self.cone_from_gates(
            [name for net in nets for name, _ in self.sinks.get(net, ())])


def assert_structure_matches_reference(circuit):
    gates = circuit.gates
    reference = ObjectFanoutIndex(circuit)
    topo = topological_gates(circuit)
    levels = reference_levels(circuit)
    assert [g.name for g in circuit.topo_gates()] == [g.name for g in topo]
    assert list(circuit.gate_levels().items()) == list(levels.items())

    index = circuit.fanout_index()
    for net in circuit.nets():
        assert [(g.name, pin) for g, pin in index.sinks(net)] == \
            reference.sinks.get(net, [])
        assert index.cone_from_nets([net]) == reference.cone_from_nets([net])
    for gate in gates:
        assert [g.name for g in index.gate_sinks(gate.name)] == \
            reference.gate_sinks.get(gate.name, [])
        assert index.cone_from_gates([gate.name]) == \
            reference.cone_from_gates([gate.name])
    seeds = [g.name for g in gates[::3]]
    assert index.cone_from_gates(seeds) == reference.cone_from_gates(seeds)

    cc = get_compiled(circuit)
    net_id = {net: i for i, net in enumerate(circuit.nets())}
    gate_id = {g.name: i for i, g in enumerate(gates)}
    fanin_ptr, fanin_net = [0], []
    for gate in gates:
        fanin_net.extend(net_id[net] for net in gate.fanin_nets)
        fanin_ptr.append(len(fanin_net))
    topo_index = [0] * len(gates)
    for position, gate in enumerate(topo):
        topo_index[gate_id[gate.name]] = position
    assert cc.nets == circuit.nets()
    assert cc.fanin_ptr.tolist() == fanin_ptr
    assert cc.fanin_net.tolist() == fanin_net
    assert cc.topo_index.tolist() == topo_index
    assert cc.level.tolist() == [levels[g.name] for g in gates]
    assert [cc.gate_sinks(gid).tolist() for gid in range(len(gates))] == [
        [gate_id[name] for name in reference.gate_sinks.get(g.name, [])]
        for g in gates
    ]


# ----------------------------------------------------------------------
# Hypothesis DAGs
# ----------------------------------------------------------------------
@st.composite
def dags(draw):
    """A random DAG, created in a shuffled gate order.

    Gate ``k`` reads primary inputs and gates ``< k`` (possibly the same
    net on several pins, possibly inputs only); the creation order is a
    random permutation, so fanins are often created after their sinks.
    """
    num_inputs = draw(st.integers(min_value=0, max_value=4))
    num_gates = draw(st.integers(min_value=0, max_value=14)) \
        if num_inputs else 0
    specs = []
    for k in range(num_gates):
        template = draw(st.sampled_from(TEMPLATES))
        pool = num_inputs if draw(st.booleans()) else num_inputs + k
        nets = [draw(st.integers(min_value=0, max_value=pool - 1))
                for _ in LIB[template].pins]
        specs.append((template, nets))
    order = draw(st.permutations(range(num_gates)))
    outputs = draw(st.lists(st.integers(min_value=0,
                                        max_value=max(num_gates - 1, 0)),
                            unique=True, max_size=num_gates))

    def net(index):
        return f"i{index}" if index < num_inputs else f"n{index - num_inputs}"

    circuit = Circuit("dag", LIB)
    for i in range(num_inputs):
        circuit.add_input(f"i{i}")
    for k in order:
        template, nets = specs[k]
        circuit.add_gate(f"g{k}", template,
                         dict(zip(LIB[template].pins, map(net, nets))),
                         f"n{k}")
    for k in outputs:
        circuit.add_output(f"n{k}")
    return circuit


class TestAgainstObjectWalks:
    @settings(max_examples=60, deadline=None)
    @given(dags())
    def test_random_dags(self, circuit):
        circuit.validate()
        assert_structure_matches_reference(circuit)

    def test_empty_circuits(self):
        assert_structure_matches_reference(Circuit("empty", LIB))
        circuit = Circuit("inputs_only", LIB)
        circuit.add_input("a")
        circuit.add_output("a")
        circuit.validate()
        assert_structure_matches_reference(circuit)

    def test_repeated_net_on_one_gate(self):
        circuit = Circuit("repeat", LIB)
        circuit.add_input("a")
        circuit.add_gate("g1", "nand2", {"a": "n0", "b": "n0"}, "n1")
        circuit.add_gate("g0", "inv", {"a": "a"}, "n0")
        circuit.add_gate("g2", "aoi21", {"a": "n1", "b": "n0", "c": "n1"},
                         "n2")
        circuit.add_output("n2")
        circuit.validate()
        assert_structure_matches_reference(circuit)
        index = circuit.fanout_index()
        assert [g.name for g in index.gate_sinks("g0")] == ["g1", "g2"]
        assert [(g.name, pin) for g, pin in index.sinks("n0")] == [
            ("g1", "a"), ("g1", "b"), ("g2", "b")]


# ----------------------------------------------------------------------
# Structural edits and their WhatIf rollback
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def master():
    from repro.bench.generators import random_logic
    from repro.synth.mapper import map_circuit

    circuit = map_circuit(random_logic(8, 30, seed=4))
    stats = ScenarioA(seed=3).input_stats(circuit.inputs)
    return circuit, stats


def structural_specs():
    return st.tuples(
        st.sampled_from(["add", "add-at", "remove", "rewire", "reorder"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )


def apply_spec(circuit, trial, spec, counter):
    """Resolve one abstract edit against the live circuit; trial it."""
    kind, selector, value = spec
    if kind in ("add", "add-at"):
        nets = circuit.nets()
        template = TEMPLATES[value % len(TEMPLATES)]
        bindings = tuple((pin, nets[(selector + 7 * i) % len(nets)])
                         for i, pin in enumerate(LIB[template].pins))
        counter[0] += 1
        name = f"hx{counter[0]}"
        index = value % (len(circuit) + 1) if kind == "add-at" else None
        trial.apply(AddGate(name, template, bindings, f"{name}_n",
                            index=index))
    elif kind == "remove":
        index = circuit.fanout_index()
        dead = [g.name for g in circuit.gates
                if g.output not in circuit.outputs
                and not index.sinks(g.output)]
        if dead:
            trial.apply(RemoveGate(dead[selector % len(dead)]))
    elif kind == "rewire":
        topo = [g.name for g in circuit.topo_gates()]
        gate = circuit.gate(topo[selector % len(topo)])
        earlier = topo[:topo.index(gate.name)]
        safe = list(circuit.inputs) + [circuit.gate(n).output
                                       for n in earlier]
        pins = gate.template.pins
        trial.apply(RewireNet(gate.name, pins[value % len(pins)],
                              safe[value % len(safe)]))
    else:
        gates = [g for g in circuit.gates
                 if g.template.num_configurations() > 1]
        gate = gates[selector % len(gates)]
        configs = gate.template.configurations()
        trial.apply(SetConfig(gate.name, configs[value % len(configs)]))


def assert_power_matches_scratch(cache, circuit, stats):
    reference = circuit_power(circuit, stats)
    assert cache.total_power() == reference.total
    assert_reports_equal(cache.power().by_gate, reference.by_gate)


def assert_reports_equal(got, want):
    assert set(got) == set(want)
    for name, report in want.items():
        assert got[name].entries == report.entries
        assert got[name].total == report.total


class TestEditsAndRollback:
    @settings(max_examples=25, deadline=None)
    @given(st.lists(structural_specs(), min_size=1, max_size=6),
           st.booleans())
    def test_structure_and_power_track_edits(self, master, specs, priced):
        circuit_master, stats = master
        circuit = circuit_master.copy()
        before = [(g.name, g.template.name, g.fanin_nets, g.config)
                  for g in circuit.gates]
        counter = [0]
        with StatsCache(circuit, stats) as cache:
            if priced:
                cache.power()
            with WhatIf(cache) as trial:
                for spec in specs:
                    apply_spec(circuit, trial, spec, counter)
                    circuit.validate()
                    assert_structure_matches_reference(circuit)
                    if priced:
                        assert_power_matches_scratch(cache, circuit, stats)
            assert [(g.name, g.template.name, g.fanin_nets, g.config)
                    for g in circuit.gates] == before
            circuit.validate()
            assert_structure_matches_reference(circuit)
            assert_power_matches_scratch(cache, circuit, stats)


# ----------------------------------------------------------------------
# validate(): the object walks still produce every error
# ----------------------------------------------------------------------
class TestValidateMessages:
    def test_undriven_pin(self):
        circuit = Circuit("bad", LIB)
        circuit.add_input("a")
        circuit.add_output("y")
        circuit.add_gate("g0", "nand2", {"a": "a", "b": "ghost"}, "y")
        with pytest.raises(CircuitError) as error:
            circuit.validate()
        assert str(error.value) == "gate g0 pin b: net 'ghost' has no driver"
        assert circuit.structure().undriven == ("ghost",)

    def test_undriven_pin_reported_before_output_and_cycle(self):
        circuit = Circuit("bad", LIB)
        circuit.add_input("a")
        circuit.add_output("missing")
        circuit.add_gate("g0", "nand2", {"a": "n1", "b": "a"}, "n0")
        circuit.add_gate("g1", "nand2", {"a": "n0", "b": "ghost"}, "n1")
        with pytest.raises(CircuitError) as error:
            circuit.validate()
        assert str(error.value) == "gate g1 pin b: net 'ghost' has no driver"

    def test_undriven_output(self):
        circuit = Circuit("bad", LIB)
        circuit.add_input("a")
        circuit.add_output("y")
        circuit.add_gate("g0", "inv", {"a": "a"}, "n0")
        with pytest.raises(CircuitError) as error:
            circuit.validate()
        assert str(error.value) == "primary output 'y' has no driver"

    def test_cycle(self):
        circuit = Circuit("loop", LIB)
        circuit.add_input("a")
        circuit.add_gate("g0", "nand2", {"a": "a", "b": "n1"}, "n0")
        circuit.add_gate("g1", "inv", {"a": "n0"}, "n1")
        circuit.add_output("n1")
        with pytest.raises(CircuitError) as error:
            circuit.validate()
        assert str(error.value) == "combinational cycle through g0"
        assert circuit.structure().cyclic
        for accessor in (circuit.topo_gates, circuit.gate_levels,
                         lambda: get_compiled(circuit)):
            with pytest.raises(CircuitError,
                               match="circuit contains a combinational cycle"):
                accessor()
        with pytest.raises(CircuitError,
                           match="circuit contains a combinational cycle"):
            topological_gates(circuit)


# ----------------------------------------------------------------------
# Primary-input membership
# ----------------------------------------------------------------------
class TestInputSet:
    def test_copy_keeps_membership_checks(self, master):
        circuit = master[0].copy()
        source = circuit.inputs[0]
        with pytest.raises(CircuitError,
                           match=f"duplicate primary input {source!r}"):
            circuit.add_input(source)
        with pytest.raises(CircuitError,
                           match=f"net {source!r} is a primary input"):
            circuit.add_gate("x", "inv", {"a": source}, source)
        circuit.add_input("fresh")
        assert circuit.inputs[-1] == "fresh"
        circuit.add_gate("x", "inv", {"a": "fresh"}, "x_n")
        circuit.validate()


# ----------------------------------------------------------------------
# Report totals and report-free power slots
# ----------------------------------------------------------------------
def test_report_totals_are_left_folds():
    tech = TechParams()
    entries = tuple(
        NodePowerEntry(node, 0.0, 0.0, 0.0, power)
        for node, power in (("n1", 1e16), (OUT, 1.0), ("n2", -1e16)))
    report = GatePowerReport(entries, tech)
    assert report.total == 0.0
    assert report.internal_power == 0.0
    assert report.output_power == 1.0


def test_total_power_builds_no_reports(master, monkeypatch):
    circuit_master, stats = master
    circuit = circuit_master.copy()

    def refuse(*args, **kwargs):
        raise AssertionError("total_power() built a report")

    with StatsCache(circuit, stats) as cache:
        monkeypatch.setattr(compiled_power, "GatePowerReport", refuse)
        monkeypatch.setattr(compiled_power, "NodePowerEntry", refuse)
        total = cache.total_power()
        gate = next(g for g in circuit.gates
                    if g.template.num_configurations() > 1)
        inverse = circuit.set_config(gate.name,
                                     gate.template.configurations()[-1])
        cache.total_power()
        cache.power_totals()
        monkeypatch.undo()
        circuit.apply_edit(inverse)
        assert cache.total_power() == total
        assert_power_matches_scratch(cache, circuit, stats)

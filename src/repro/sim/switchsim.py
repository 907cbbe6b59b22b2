"""Event-driven switch-level power simulation.

This is the reproduction's stand-in for the SLS simulator the paper
validates against (reference [11]): transistor-level power metering on
top of logic-level event timing.

* Every gate is evaluated at switch level: node values follow the
  conducting-path functions ``H``/``G`` (1 when connected to Vdd, 0
  when connected to Vss, *retained* when isolated), exactly the charge
  model of §3.3.  Internal nodes respond instantly to input changes;
  every node transition is billed ``½·C·Vdd²``.
* Output changes propagate with per-pin Elmore delays of the gate's
  *current transistor ordering* (or zero delay), so unequal path delays
  generate the glitches — "useless signal transitions" — that motivate
  the paper.  Transport delay is the default; inertial filtering is
  optional.
* The report carries per-gate internal/output energy, per-net
  transition counts and measured (P, D) statistics, so simulated
  figures can be compared directly with the stochastic model.

**Lowering.**  The constructor lowers the circuit once to integer
arrays: nets are ids in :meth:`Circuit.nets` order with a driver-gate
index each (``-1`` for primary inputs), gates are indices in
:meth:`Circuit.topo_gates` order, and each gate keeps its current input
minterm and its node states packed into one int (bit ``i`` is
``compiled.nodes[i]``, so the output is the top bit).  A committed net
transition XORs its pin bit into every fanout gate's minterm.  The
switch-level rule "driven high → 1, driven low → 0, isolated → keep" is
one mask pair per minterm, ``next = (prev & keep[m]) | high[m]``; the
pairs are built once per configuration (:func:`switch_class`, memoised
on the content-keyed :class:`~repro.gates.network.CompiledGate`), so
every instance, circuit and scenario with that configuration shares
them.  Fanout lists keep the order of the readable simulator —
topological gate order, then template-pin order — and the heap holds
``(time, seq, net, value)`` tuples numbered by one global counter, so
simultaneous events break ties exactly as before.

**Float order.**  Reports equal
:class:`~repro.sim.switchsim_reference.ReferenceSwitchSimulator`'s field
for field:

* event-driven modes bill a gate's internal energy per evaluation as
  one left fold over ``compiled.nodes`` of the changed internal nodes'
  ``factor * cap``, added once; the fold depends only on the mask of
  changed nodes, so it is tabulated per mask;
* zero-delay mode adds each changed node's ``factor * cap`` to the
  gate total on its own, in node order (no tabulated sum);
* report dicts keep ``topo_gates()`` / ``nets()`` insertion order, and
  the report totals are left folds in that order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..compiled.circuit import timing_class
from ..gates.capacitance import TechParams, node_capacitance
from ..gates.network import OUT, CompiledGate
from ..stochastic.signal import SignalStats
from ..timing.sta import DEFAULT_PO_LOAD
from .stimulus import Stimulus

__all__ = ["SwitchLevelSimulator", "SwitchSimReport", "GateEnergy"]

DELAY_MODES = ("elmore", "zero")


@dataclass
class GateEnergy:
    """Energy split of one gate instance."""

    internal: float = 0.0
    output: float = 0.0

    @property
    def total(self) -> float:
        return self.internal + self.output


@dataclass
class SwitchSimReport:
    """Results of one simulation run.

    The energy totals are strict left folds over ``gate_energy`` in its
    (topological) order, not ``sum()``, which is compensated from
    Python 3.12.
    """

    duration: float
    gate_energy: Dict[str, GateEnergy]
    input_net_energy: float
    net_transitions: Dict[str, int]
    net_high_time: Dict[str, float]

    @property
    def energy(self) -> float:
        """Total gate energy (internal nodes + driven nets), joules."""
        total = 0.0
        for e in self.gate_energy.values():
            total += e.total
        return total

    @property
    def internal_energy(self) -> float:
        total = 0.0
        for e in self.gate_energy.values():
            total += e.internal
        return total

    @property
    def power(self) -> float:
        """Average power over the run (W)."""
        return self.energy / self.duration

    def measured_stats(self, net: str) -> SignalStats:
        """Empirical (P, D) of a net over the run."""
        p = self.net_high_time[net] / self.duration
        d = self.net_transitions[net] / self.duration
        if d > 0.0:
            p = min(1.0 - 1e-12, max(1e-12, p))
        else:
            p = min(1.0, max(0.0, p))
        return SignalStats(p, d)


class _SwitchClass:
    """Next-state masks of one configuration, per input minterm.

    Node ``i`` of ``compiled.nodes`` is bit ``i`` of a packed state;
    ``high[m]`` holds the nodes driven to Vdd under minterm ``m`` and
    ``keep[m]`` the isolated ones, which retain their charge.
    """

    def __init__(self, compiled: CompiledGate):
        nodes = compiled.nodes
        self.out_shift = nodes.index(OUT)
        full = (1 << len(nodes)) - 1
        high: List[int] = []
        keep: List[int] = []
        for m in range(1 << len(compiled.inputs)):
            hi = lo = 0
            for i, node in enumerate(nodes):
                driven_high = (compiled.h_bits[node] >> m) & 1
                driven_low = (compiled.g_bits[node] >> m) & 1
                if driven_high and driven_low:
                    raise AssertionError(
                        f"node {node} shorted for minterm {m} — not series-parallel CMOS"
                    )
                hi |= driven_high << i
                lo |= driven_low << i
            high.append(hi)
            keep.append(full & ~(hi | lo))
        self.high: Tuple[int, ...] = tuple(high)
        self.keep: Tuple[int, ...] = tuple(keep)


def switch_class(compiled: CompiledGate) -> _SwitchClass:
    """The switch-level masks of ``compiled``'s configuration, built once.

    Memoised on the compiled gate, like the kernels' class tables
    (:func:`~repro.compiled.circuit.stats_class`), so they are keyed by
    content and shared by every instance of the configuration.
    """
    cls = getattr(compiled, "_switch_class", None)
    if cls is None:
        cls = _SwitchClass(compiled)
        compiled._switch_class = cls
    return cls


def _fold_table(energies: Sequence[float], width: int) -> Tuple[float, ...]:
    """Internal energy billed per mask of changed nodes.

    Entry ``mask`` is the left fold, in node order, of ``energies[i]``
    over the set bits ``i`` of ``mask`` (bits past ``energies`` — the
    output — bill nothing here).
    """
    table = []
    for mask in range(1 << width):
        acc = 0.0
        for i, energy in enumerate(energies):
            if (mask >> i) & 1:
                acc += energy
        table.append(acc)
    return tuple(table)


class SwitchLevelSimulator:
    """Simulate a mapped circuit under a concrete input stimulus."""

    def __init__(self, circuit: Circuit, tech: Optional[TechParams] = None,
                 po_load: float = DEFAULT_PO_LOAD, delay_mode: str = "elmore",
                 inertial: bool = False):
        if delay_mode not in DELAY_MODES:
            raise ValueError(f"delay_mode must be one of {DELAY_MODES}")
        circuit.validate()
        self.circuit = circuit
        self.tech = tech if tech is not None else TechParams()
        self.po_load = po_load
        self.delay_mode = delay_mode
        self.inertial = inertial
        self._factor = self.tech.switch_energy_factor
        self._prepare()

    def _prepare(self) -> None:
        """Lower the circuit to the integer arrays both loops run on."""
        circuit, tech, factor = self.circuit, self.tech, self._factor
        self._gates = list(circuit.topo_gates())
        self._nets = circuit.nets()
        net_id = {net: i for i, net in enumerate(self._nets)}
        self._input_ids = [net_id[net] for net in circuit.inputs]
        self._net_cap: Dict[str, float] = {}
        self._driver = [-1] * len(self._nets)
        sinks: List[List[tuple]] = [[] for _ in self._nets]
        #: Per gate: (pin net ids, output net id, output bit, high, keep,
        #: per-internal-node energies); the loops index it by gate.
        self._gate_rows: List[tuple] = []
        fold_tables: Dict[Tuple[float, ...], Tuple[float, ...]] = {}
        for g, gate in enumerate(self._gates):
            compiled = gate.compiled()
            config = gate.effective_config()
            load = circuit.output_load(gate.output, tech, self.po_load)
            cls = switch_class(compiled)
            caps = [node_capacitance(compiled, node, tech, load=load)
                    for node in compiled.nodes]
            self._net_cap[gate.output] = caps[cls.out_shift]
            energies = tuple(factor * caps[i] for i in range(cls.out_shift))
            fold = fold_tables.get(energies)
            if fold is None:
                fold = fold_tables[energies] = _fold_table(
                    energies, len(compiled.nodes))
            out = net_id[gate.output]
            self._driver[out] = g
            pins = [net_id[gate.pin_nets[pin]] for pin in gate.template.pins]
            self._gate_rows.append(
                (pins, out, cls.out_shift, cls.high, cls.keep, energies))
            if self.delay_mode == "elmore":
                # gate_pin_delay per pin, from the arrival kernel's
                # per-configuration terms (the identical doubles).
                delays = [float(d[0]) for d in timing_class(compiled, config)
                          .pin_delays(tech, np.array([load]))]
            else:
                delays = [0.0] * len(pins)
            for j, net in enumerate(pins):
                sinks[net].append((g, 1 << j, delays[j], out, cls.out_shift,
                                   cls.high, cls.keep, fold))
        for net in circuit.inputs:
            # Primary-input nets carry the pin loads they drive.
            self._net_cap[net] = circuit.output_load(net, tech, self.po_load)
        self._net_energy = [factor * self._net_cap[net] for net in self._nets]
        #: Per net: its (gate, pin, ...) sinks in topological-then-pin
        #: order, each ``(gate, pin bit, delay, output net, output bit,
        #: high, keep, fold table)``.
        self._sinks = [tuple(entries) for entries in sinks]

    # ------------------------------------------------------------------
    def run(self, stimulus: Stimulus) -> SwitchSimReport:
        """Simulate the stimulus and return the energy/activity report.

        ``delay_mode="elmore"`` is event driven with per-pin delays (so
        unequal path delays create glitches); ``delay_mode="zero"``
        settles the whole circuit instantaneously at every input event
        (one topological sweep per timestamp — no delta-cycle hazards),
        which measures the steady-state activity the stochastic model
        predicts.
        """
        missing = [n for n in self.circuit.inputs if n not in stimulus.waveforms]
        if missing:
            raise KeyError(f"stimulus missing waveforms for {missing}")
        if self.delay_mode == "zero":
            return self._run_zero_delay(stimulus)
        return self._run_events(stimulus)

    def _settle(self, stimulus: Stimulus) -> Tuple[List[int], List[int], List[int]]:
        """Net values, gate minterms and gate states settled at t = 0."""
        values = [0] * len(self._nets)
        for net, name in zip(self._input_ids, self.circuit.inputs):
            values[net] = stimulus.waveforms[name][0]
        minterms: List[int] = []
        states: List[int] = []
        for pins, out, shift, high, _keep, _energies in self._gate_rows:
            m = 0
            for j, net in enumerate(pins):
                if values[net]:
                    m |= 1 << j
            # From all-zero states, every isolated node stays at 0.
            state = high[m]
            minterms.append(m)
            states.append(state)
            values[out] = (state >> shift) & 1
        return values, minterms, states

    def _report(self, duration: float, internal: List[float],
                output: List[float], input_net_energy: float,
                transitions: List[int], high_time: List[float]) -> SwitchSimReport:
        return SwitchSimReport(
            duration=duration,
            gate_energy={
                gate.name: GateEnergy(internal[g], output[g])
                for g, gate in enumerate(self._gates)
            },
            input_net_energy=input_net_energy,
            net_transitions=dict(zip(self._nets, transitions)),
            net_high_time=dict(zip(self._nets, high_time)),
        )

    # ------------------------------------------------------------------
    def _run_events(self, stimulus: Stimulus) -> SwitchSimReport:
        """Event-driven run with per-pin delays (transport or inertial)."""
        duration = stimulus.duration
        values, minterms, states = self._settle(stimulus)
        n_nets = len(self._nets)
        transitions = [0] * n_nets
        high_since = [0.0] * n_nets
        high_time = [0.0] * n_nets
        internal = [0.0] * len(self._gates)
        output = [0.0] * len(self._gates)
        input_net_energy = 0.0

        heap: List[tuple] = []
        for net, name in zip(self._input_ids, self.circuit.inputs):
            value, times = stimulus.waveforms[name]
            for t in times:
                if t < 0.0:
                    raise ValueError("cannot schedule in negative time")
                value ^= 1
                heap.append((t, len(heap), net, int(value)))
        heapq.heapify(heap)
        seq = len(heap)
        # Per net: the (seq, time, value) of its last scheduled event
        # still in flight, or None.
        pending: List[Optional[tuple]] = [None] * n_nets
        cancelled: set = set()
        inertial = self.inertial
        driver, net_energy, all_sinks = self._driver, self._net_energy, self._sinks
        pop, push = heapq.heappop, heapq.heappush

        while heap:
            time, s, net, value = pop(heap)
            if s in cancelled:
                cancelled.discard(s)
                continue
            if time >= duration:
                break
            slot = pending[net]
            if slot is not None and slot[0] == s:
                pending[net] = None
            if value == values[net]:
                continue
            # --- commit the net transition.
            if values[net]:
                high_time[net] += time - high_since[net]
            else:
                high_since[net] = time
            values[net] = value
            transitions[net] += 1
            g = driver[net]
            if g < 0:
                input_net_energy += net_energy[net]
            else:
                output[g] += net_energy[net]
            # --- re-evaluate every fanout gate (per (gate, pin) entry).
            sinks = all_sinks[net]
            for entry in sinks:
                minterms[entry[0]] ^= entry[1]
            for g, _bit, delay, out, shift, high, keep, fold in sinks:
                m = minterms[g]
                prev = states[g]
                new = (prev & keep[m]) | high[m]
                if new != prev:
                    acc = fold[prev ^ new]
                    if acc:
                        internal[g] += acc
                    states[g] = new
                new_out = (new >> shift) & 1
                when = time + delay
                slot = pending[out]
                if inertial:
                    if slot is not None:
                        if slot[2] == new_out:
                            continue  # already in flight
                        cancelled.add(slot[0])
                        pending[out] = None
                    if new_out == values[out]:
                        continue  # pulse suppressed
                elif slot is not None and slot[2] == new_out and slot[1] <= when:
                    continue  # identical change already in flight
                pending[out] = (seq, when, new_out)
                push(heap, (when, seq, out, new_out))
                seq += 1

        for net in range(n_nets):
            if values[net]:
                high_time[net] += duration - high_since[net]
        return self._report(duration, internal, output, input_net_energy,
                            transitions, high_time)

    # ------------------------------------------------------------------
    def _run_zero_delay(self, stimulus: Stimulus) -> SwitchSimReport:
        """Settle the whole circuit at each input timestamp (no glitches).

        Only gates whose minterm a commit touched are re-evaluated, in
        topological order: re-evaluating any other gate reproduces its
        state, so it would bill nothing.
        """
        duration = stimulus.duration
        values, minterms, states = self._settle(stimulus)
        n_nets = len(self._nets)
        transitions = [0] * n_nets
        high_since = [0.0] * n_nets
        high_time = [0.0] * n_nets
        internal = [0.0] * len(self._gates)
        output = [0.0] * len(self._gates)
        input_net_energy = 0.0

        # Input transitions, grouped by timestamp (stable sort).
        events: List[Tuple[float, int, int]] = []
        for net, name in zip(self._input_ids, self.circuit.inputs):
            value, times = stimulus.waveforms[name]
            for t in times:
                value ^= 1
                events.append((t, net, value))
        events.sort(key=itemgetter(0))

        rows, net_energy, all_sinks = self._gate_rows, self._net_energy, self._sinks
        dirty: List[int] = []  # heap of gate indices = topological order
        queued = [False] * len(self._gates)
        pop, push = heapq.heappop, heapq.heappush

        def commit(net: int, value: int, time: float) -> None:
            if values[net]:
                high_time[net] += time - high_since[net]
            else:
                high_since[net] = time
            values[net] = value
            transitions[net] += 1
            for entry in all_sinks[net]:
                g = entry[0]
                minterms[g] ^= entry[1]
                if not queued[g]:
                    queued[g] = True
                    push(dirty, g)

        index = 0
        count = len(events)
        while index < count:
            time = events[index][0]
            if time >= duration:
                break
            while index < count and events[index][0] == time:
                _, net, value = events[index]
                index += 1
                if value == values[net]:
                    continue
                commit(net, value, time)
                input_net_energy += net_energy[net]
            # One settled sweep: every touched gate sees final fanin values.
            while dirty:
                g = pop(dirty)
                queued[g] = False
                _pins, out, shift, high, keep, energies = rows[g]
                m = minterms[g]
                prev = states[g]
                new = (prev & keep[m]) | high[m]
                if new == prev:
                    continue
                changed = prev ^ new
                for i, energy in enumerate(energies):
                    if (changed >> i) & 1:
                        internal[g] += energy
                states[g] = new
                new_out = (new >> shift) & 1
                if new_out != values[out]:
                    commit(out, new_out, time)
                    output[g] += net_energy[out]

        for net in range(n_nets):
            if values[net]:
                high_time[net] += duration - high_since[net]
        return self._report(duration, internal, output, input_net_energy,
                            transitions, high_time)

"""The readable switch-level simulator: the oracle of the lowered loops.

:class:`ReferenceSwitchSimulator` runs the same event-driven (Elmore,
transport or inertial) and zero-delay simulations as
:class:`~repro.sim.switchsim.SwitchLevelSimulator`, written directly
over net-name dictionaries, :meth:`CompiledGate.evaluate_nodes` and an
:class:`~repro.sim.events.EventQueue` of :class:`~repro.sim.events.Event`
records.  The production simulator runs on integer arrays lowered once
per circuit; its reports equal this one's field for field
(``tests/test_switchsim.py::TestLoweredLoopMatchesReference``).  Nothing
in the program selects this class: it exists to be compared against.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..circuit.netlist import GateInstance
from ..gates.capacitance import node_capacitance
from ..gates.network import OUT
from ..timing.elmore import gate_pin_delay
from .events import Event, EventQueue
from .stimulus import Stimulus
from .switchsim import GateEnergy, SwitchLevelSimulator, SwitchSimReport

__all__ = ["ReferenceSwitchSimulator"]


class ReferenceSwitchSimulator(SwitchLevelSimulator):
    """Dictionary-and-event-object form of :class:`SwitchLevelSimulator`."""

    def _prepare(self) -> None:
        """Precompute per-gate data and the fanout map."""
        self._gates = list(self.circuit.topo_gates())
        self._compiled: Dict[str, object] = {}
        self._node_caps: Dict[str, Dict[str, float]] = {}
        self._net_cap: Dict[str, float] = {}
        self._pin_delays: Dict[str, Dict[str, float]] = {}
        self._fanout: Dict[str, List[Tuple[GateInstance, str]]] = {
            net: [] for net in self.circuit.nets()
        }
        for gate in self._gates:
            compiled = gate.compiled()
            config = gate.effective_config()
            load = self.circuit.output_load(gate.output, self.tech, self.po_load)
            self._compiled[gate.name] = compiled
            caps = {
                node: node_capacitance(compiled, node, self.tech, load=load)
                for node in compiled.nodes
            }
            self._node_caps[gate.name] = caps
            self._net_cap[gate.output] = caps[OUT]
            if self.delay_mode == "elmore":
                self._pin_delays[gate.name] = {
                    pin: gate_pin_delay(compiled, config, pin, self.tech, load)
                    for pin in gate.template.pins
                }
            else:
                self._pin_delays[gate.name] = {pin: 0.0 for pin in gate.template.pins}
            for pin in gate.template.pins:
                self._fanout[gate.pin_nets[pin]].append((gate, pin))
        for net in self.circuit.inputs:
            # Primary-input nets carry the pin loads they drive.
            self._net_cap[net] = self.circuit.output_load(net, self.tech, self.po_load)

    # ------------------------------------------------------------------
    def run(self, stimulus: Stimulus) -> SwitchSimReport:
        """Simulate the stimulus and return the energy/activity report."""
        missing = [n for n in self.circuit.inputs if n not in stimulus.waveforms]
        if missing:
            raise KeyError(f"stimulus missing waveforms for {missing}")
        if self.delay_mode == "zero":
            return self._run_zero_delay(stimulus)
        duration = stimulus.duration

        # --- initial state: settle the circuit at t = 0 (no energy billed).
        values: Dict[str, int] = {
            net: stimulus.waveforms[net][0] for net in self.circuit.inputs
        }
        states: Dict[str, Dict[str, int]] = {}
        for gate in self._gates:
            compiled = self._compiled[gate.name]
            minterm = self._minterm(gate, values)
            previous = {node: 0 for node in compiled.nodes}
            st = compiled.evaluate_nodes(minterm, previous)
            states[gate.name] = st
            values[gate.output] = st[OUT]

        gate_energy = {g.name: GateEnergy() for g in self._gates}
        net_transitions = {net: 0 for net in self.circuit.nets()}
        high_since: Dict[str, float] = {net: 0.0 for net in self.circuit.nets()}
        high_time: Dict[str, float] = {net: 0.0 for net in self.circuit.nets()}
        input_net_energy = 0.0

        queue = EventQueue()
        for net in self.circuit.inputs:
            initial, times = stimulus.waveforms[net]
            value = initial
            for t in times:
                value ^= 1
                queue.schedule(t, net, value)
        pending: Dict[str, Event] = {}

        while True:
            event = queue.pop()
            if event is None or event.time >= duration:
                break
            net = event.net
            if pending.get(net) is event:
                del pending[net]
            if event.value == values[net]:
                continue
            # --- commit the net transition.
            if values[net]:
                high_time[net] += event.time - high_since[net]
            else:
                high_since[net] = event.time
            values[net] = event.value
            net_transitions[net] += 1
            energy = self._factor * self._net_cap[net]
            driver = self.circuit.driver(net)
            if driver is not None:
                gate_energy[driver.name].output += energy
            else:
                input_net_energy += energy
            # --- re-evaluate every fanout gate.
            for gate, pin in self._fanout[net]:
                compiled = self._compiled[gate.name]
                minterm = self._minterm(gate, values)
                previous = states[gate.name]
                new_states = compiled.evaluate_nodes(minterm, previous)
                caps = self._node_caps[gate.name]
                acc = 0.0
                for node in compiled.internal_nodes:
                    if new_states[node] != previous[node]:
                        acc += self._factor * caps[node]
                if acc:
                    gate_energy[gate.name].internal += acc
                states[gate.name] = new_states
                new_out = new_states[OUT]
                self._schedule_output(
                    queue, pending, gate, pin, event.time, new_out, values
                )

        for net in self.circuit.nets():
            if values[net]:
                high_time[net] += duration - high_since[net]

        return SwitchSimReport(
            duration=duration,
            gate_energy=gate_energy,
            input_net_energy=input_net_energy,
            net_transitions=net_transitions,
            net_high_time=high_time,
        )

    # ------------------------------------------------------------------
    def _run_zero_delay(self, stimulus: Stimulus) -> SwitchSimReport:
        """Settle the whole circuit at each input timestamp (no glitches)."""
        duration = stimulus.duration
        values: Dict[str, int] = {
            net: stimulus.waveforms[net][0] for net in self.circuit.inputs
        }
        states: Dict[str, Dict[str, int]] = {}
        for gate in self._gates:
            compiled = self._compiled[gate.name]
            minterm = self._minterm(gate, values)
            st = compiled.evaluate_nodes(
                minterm, {node: 0 for node in compiled.nodes}
            )
            states[gate.name] = st
            values[gate.output] = st[OUT]

        gate_energy = {g.name: GateEnergy() for g in self._gates}
        net_transitions = {net: 0 for net in self.circuit.nets()}
        high_since: Dict[str, float] = {net: 0.0 for net in self.circuit.nets()}
        high_time: Dict[str, float] = {net: 0.0 for net in self.circuit.nets()}
        input_net_energy = 0.0

        # Group input transitions by timestamp.
        events: List[Tuple[float, str, int]] = []
        for net in self.circuit.inputs:
            initial, times = stimulus.waveforms[net]
            value = initial
            for t in times:
                value ^= 1
                events.append((t, net, value))
        events.sort(key=lambda e: e[0])

        def commit(net: str, new_value: int, time: float) -> float:
            if values[net]:
                high_time[net] += time - high_since[net]
            else:
                high_since[net] = time
            values[net] = new_value
            net_transitions[net] += 1
            return self._factor * self._net_cap[net]

        index = 0
        while index < len(events):
            time = events[index][0]
            if time >= duration:
                break
            while index < len(events) and events[index][0] == time:
                _, net, value = events[index]
                index += 1
                if value == values[net]:
                    continue
                input_net_energy += commit(net, value, time)
            # One settled sweep: every gate sees final fanin values.
            for gate in self._gates:
                compiled = self._compiled[gate.name]
                minterm = self._minterm(gate, values)
                previous = states[gate.name]
                new_states = compiled.evaluate_nodes(minterm, previous)
                caps = self._node_caps[gate.name]
                for node in compiled.internal_nodes:
                    if new_states[node] != previous[node]:
                        gate_energy[gate.name].internal += self._factor * caps[node]
                states[gate.name] = new_states
                if new_states[OUT] != values[gate.output]:
                    gate_energy[gate.name].output += commit(
                        gate.output, new_states[OUT], time
                    )

        for net in self.circuit.nets():
            if values[net]:
                high_time[net] += duration - high_since[net]
        return SwitchSimReport(
            duration=duration,
            gate_energy=gate_energy,
            input_net_energy=input_net_energy,
            net_transitions=net_transitions,
            net_high_time=high_time,
        )

    # ------------------------------------------------------------------
    def _minterm(self, gate: GateInstance, values: Mapping[str, int]) -> int:
        minterm = 0
        for j, pin in enumerate(gate.template.pins):
            if values[gate.pin_nets[pin]]:
                minterm |= 1 << j
        return minterm

    def _schedule_output(self, queue: EventQueue, pending: Dict[str, Event],
                         gate: GateInstance, pin: str, now: float,
                         new_out: int, values: Mapping[str, int]) -> None:
        delay = self._pin_delays[gate.name][pin]
        net = gate.output
        if self.inertial:
            previous = pending.get(net)
            if previous is not None:
                if previous.value == new_out:
                    return  # already in flight
                queue.cancel(previous)
                del pending[net]
            if new_out == values[net]:
                return  # pulse suppressed
            pending[net] = queue.schedule(now + delay, net, new_out)
        else:
            previous = pending.get(net)
            if previous is not None and previous.value == new_out and previous.time <= now + delay:
                return  # identical change already in flight
            pending[net] = queue.schedule(now + delay, net, new_out)

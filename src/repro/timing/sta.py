"""Static timing analysis over mapped circuits.

Propagates arrival times through the netlist using the per-pin Elmore
delays of each gate's *current* transistor ordering, so re-ordering a
gate changes the timing report — which is how the paper's Table 3
column D (delay increase of the power-optimised circuit) is produced.

The per-gate arrival kernel (:func:`gate_arrival`) and the net-load
summation (:func:`net_load`) are shared with the incremental engine:
:class:`repro.incremental.timing.TimingCache` maintains the same
arrival times under ECO edits with cone-sized work and is bit-identical
to :func:`analyze_timing` by construction (one kernel, two drivers).
See ``src/repro/incremental/README.md`` ("Timing invalidation rules")
for the dirty-set protocol the cache layers on top.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..circuit.netlist import Circuit, GateInstance
from ..gates.capacitance import TechParams, net_load
from .elmore import gate_pin_delay

__all__ = [
    "TimingReport",
    "build_timing_report",
    "analyze_timing",
    "circuit_delay",
    "timing_context",
    "gate_arrival",
    "net_load",
    "DEFAULT_PO_LOAD",
]

#: Default primary-output load: a few standard gate pins' worth.
DEFAULT_PO_LOAD = 10.0e-15


def timing_context(tech: Optional[TechParams] = None,
                   po_load: Optional[float] = None) -> Tuple[TechParams, float]:
    """Resolve the shared ``(tech, po_load)`` defaults in one place.

    Every delay/load consumer — :func:`analyze_timing`,
    :func:`circuit_delay`, :class:`repro.incremental.cache.StatsCache`
    and :class:`repro.incremental.timing.TimingCache` — applies the
    same defaulting rule; keeping it here stops each of them growing
    its own copy.
    """
    return (tech if tech is not None else TechParams(),
            DEFAULT_PO_LOAD if po_load is None else float(po_load))


def gate_arrival(gate: GateInstance, arrivals: Mapping[str, float],
                 tech: TechParams, load: float) -> Tuple[float, Optional[str]]:
    """Output arrival time and latest-arriving fanin net of one gate.

    The single per-gate kernel of both timing drivers: the batch
    :func:`analyze_timing` sweep and the incremental
    :class:`~repro.incremental.timing.TimingCache` re-propagation call
    exactly this, so their results cannot drift apart.  Ties resolve to
    the first pin in template order (strictly-greater comparison), like
    Python's :func:`max` over the same sequence.
    """
    compiled = gate.compiled()
    config = gate.effective_config()
    best_time = float("-inf")
    best_pred: Optional[str] = None
    for pin in gate.template.pins:
        net = gate.pin_nets[pin]
        t = arrivals[net] + gate_pin_delay(compiled, config, pin, tech, load)
        if t > best_time:
            best_time = t
            best_pred = net
    return best_time, best_pred


@dataclass(frozen=True)
class TimingReport:
    """Arrival times plus the critical path of one analysis run."""

    arrivals: Dict[str, float]
    delay: float
    critical_path: Tuple[str, ...]
    """Net names from a primary input to the latest primary output."""

    def arrival(self, net: str) -> float:
        return self.arrivals[net]


def build_timing_report(arrivals: Dict[str, float],
                        predecessor: Mapping[str, Optional[str]],
                        outputs: Sequence[str]) -> TimingReport:
    """Fold an arrival/predecessor map into a :class:`TimingReport`.

    The single implementation of worst-output selection (Python
    ``max`` over ``outputs`` — first output on exact ties) and the
    predecessor walk, shared by the object-graph sweep below and the
    compiled kernel (:meth:`repro.compiled.circuit.CompiledCircuit.analyze_timing`)
    so the two cannot drift apart on tie-breaking or path extraction.
    """
    if outputs:
        worst_output = max(outputs, key=lambda n: arrivals[n])
        delay = arrivals[worst_output]
        path: List[str] = []
        net: Optional[str] = worst_output
        while net is not None:
            path.append(net)
            net = predecessor[net]
        path.reverse()
    else:
        delay = 0.0
        path = []
    return TimingReport(arrivals, delay, tuple(path))


def analyze_timing(circuit: Circuit, tech: Optional[TechParams] = None,
                   po_load: float = DEFAULT_PO_LOAD,
                   input_arrivals: Optional[Mapping[str, float]] = None,
                   compiled: bool = True) -> TimingReport:
    """Compute arrival times for every net and extract the critical path.

    Runs on the flat-array kernels of :mod:`repro.compiled`.
    ``compiled=False`` runs the readable per-gate sweep over
    :func:`gate_arrival` instead — the reference the kernels are
    checked against; results are bit-identical either way.
    """
    tech, po_load = timing_context(tech, po_load)
    if compiled:
        from ..compiled import get_compiled

        return get_compiled(circuit).analyze_timing(tech, po_load,
                                                    input_arrivals)
    arrivals: Dict[str, float] = {}
    predecessor: Dict[str, Optional[str]] = {}
    for net in circuit.inputs:
        arrivals[net] = float(input_arrivals[net]) if input_arrivals else 0.0
        predecessor[net] = None
    outputs = frozenset(circuit.outputs)
    index = circuit.fanout_index()
    for gate in circuit.topo_gates():
        load = net_load(index.sinks(gate.output), gate.output in outputs,
                        tech, po_load)
        arrival, pred = gate_arrival(gate, arrivals, tech, load)
        arrivals[gate.output] = arrival
        predecessor[gate.output] = pred
    return build_timing_report(arrivals, predecessor, circuit.outputs)


def circuit_delay(circuit: Circuit, tech: Optional[TechParams] = None,
                  po_load: float = DEFAULT_PO_LOAD) -> float:
    """Longest input-to-output delay (seconds)."""
    return analyze_timing(circuit, tech, po_load).delay

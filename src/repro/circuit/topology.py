"""Topological traversals of netlists (the paper's DEPTH_FIRST_TRAVERSE).

The optimisation algorithm needs the gates "ordered in a depth-first
fashion from the outputs, i.e. every gate appears somewhere after all
of its transitive fan-in gates" — a topological order.  Kahn's
algorithm is used (iterative, so deep circuits do not hit the recursion
limit); ties are broken by gate creation order for reproducibility.
:func:`topological_gates` is the readable object-graph reference.

**The structure record.**  Every consumer of a circuit's connectivity
(topological order, levels, the :class:`FanoutIndex`, the
:class:`~repro.compiled.circuit.CompiledCircuit` lowering, the acyclic
and undriven checks of :meth:`Circuit.validate`) reads one
:class:`CircuitStructure`, built by :func:`build_structure` in a
single integer pass and memoised by :meth:`Circuit.structure` until the
next structural mutation.  It holds net ids (primary inputs, then gate
outputs in creation order), the CSR fanin in template-pin order, the
deduplicated gate-to-sink-gate CSR, the net-to-sink-slot CSR (stable,
so gate-creation-then-template-pin order), logic levels and the
topological order.

**FIFO Kahn as a sort.**  Kahn's walk with a FIFO queue pops gates in
non-decreasing level order, and a gate enters the queue when its
*latest* predecessor — always exactly one level below it — is popped,
behind that predecessor's earlier-created sinks.  So the order is a
stable sort by (level, topological position of the latest predecessor,
creation index), and a gate's level is known the moment it enters the
queue: :func:`build_structure` runs the walk once, over integer ids,
and records both.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from .netlist import Circuit, CircuitError, GateInstance

__all__ = [
    "topological_gates",
    "levelize",
    "transitive_fanin",
    "transitive_fanout",
    "reachable_from_outputs",
    "CircuitStructure",
    "build_structure",
    "FanoutIndex",
]


def topological_gates(circuit: Circuit) -> List[GateInstance]:
    """Gates in dependency order: drivers before their sinks."""
    order_index = {g.name: i for i, g in enumerate(circuit.gates)}
    indegree: Dict[str, int] = {}
    dependents: Dict[str, List[GateInstance]] = {}
    for gate in circuit.gates:
        count = 0
        for net in set(gate.fanin_nets):
            pred = circuit.driver(net)
            if pred is not None:
                count += 1
                dependents.setdefault(pred.name, []).append(gate)
        indegree[gate.name] = count
    ready = sorted(
        (g for g in circuit.gates if indegree[g.name] == 0),
        key=lambda g: order_index[g.name],
    )
    queue = deque(ready)
    order: List[GateInstance] = []
    while queue:
        gate = queue.popleft()
        order.append(gate)
        for sink in sorted(dependents.get(gate.name, ()), key=lambda g: order_index[g.name]):
            indegree[sink.name] -= 1
            if indegree[sink.name] == 0:
                queue.append(sink)
    if len(order) != len(circuit.gates):
        raise CircuitError("circuit contains a combinational cycle")
    return order


def levelize(circuit: Circuit) -> Dict[str, int]:
    """Logic level of every gate (primary-input fanins are level 0).

    Delegates to the circuit's memoised :meth:`Circuit.gate_levels`
    (returning a private copy), so repeated levelisations — one per
    attached cache, historically — cost a dict copy, not a traversal.
    """
    return dict(circuit.gate_levels())


def transitive_fanin(circuit: Circuit, net: str) -> Tuple[GateInstance, ...]:
    """All gates in the cone of ``net``, in topological order."""
    cone = set()
    stack = [net]
    while stack:
        current = stack.pop()
        gate = circuit.driver(current)
        if gate is None or gate.name in cone:
            continue
        cone.add(gate.name)
        stack.extend(gate.fanin_nets)
    return tuple(g for g in circuit.topo_gates() if g.name in cone)


def _csr_ptr(owners: np.ndarray, count: int) -> np.ndarray:
    """Row pointers of a CSR whose entries are grouped by ``owners``."""
    ptr = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(np.bincount(owners, minlength=count), out=ptr[1:])
    return ptr


class CircuitStructure:
    """One circuit's connectivity as integer arrays (see the module docstring).

    Gate ``g`` is the ``g``-th gate in creation order; net ids number
    the primary inputs, then gate outputs (gate ``g`` drives net
    ``num_inputs + g``), then — only in an invalid circuit — every
    undriven net a pin refers to, in first-use order (:attr:`undriven`;
    they behave like primary inputs for ordering).  ``fanin_ptr`` /
    ``fanin_net`` is the CSR fanin in template-pin order: slot ``s``
    belongs to gate ``slot_gate[s]``.  ``sink_ptr`` / ``sink_slot`` list
    each net's sink slots in ascending slot order, ``gs_ptr`` /
    ``gs_val`` each gate's distinct sink gates in creation order.
    ``level``, ``topo`` (gate ids, drivers first) and ``topo_index``
    (its inverse) are ``None`` when :attr:`cyclic`.
    """

    __slots__ = ("gates", "gate_names", "gate_id", "num_inputs", "nets",
                 "net_id", "undriven", "fanin_ptr", "fanin_net",
                 "slot_gate", "sink_ptr", "sink_slot", "gs_ptr", "gs_val",
                 "level", "topo", "topo_index", "cyclic")

    def check_acyclic(self) -> None:
        """Raise :func:`topological_gates`' error for a cyclic circuit."""
        if self.cyclic:
            raise CircuitError("circuit contains a combinational cycle")


def build_structure(circuit: Circuit) -> CircuitStructure:
    """The :class:`CircuitStructure` of ``circuit``, in one integer pass.

    Prefer the memoised :meth:`Circuit.structure`.  Never raises on an
    invalid circuit: undriven nets and cycles are recorded
    (:attr:`~CircuitStructure.undriven`, :attr:`~CircuitStructure.cyclic`)
    for :meth:`Circuit.validate` to report.
    """
    record = CircuitStructure()
    gates = circuit.gates
    num_gates = len(gates)
    record.gates = gates
    record.gate_names = names = tuple(g.name for g in gates)
    record.gate_id = dict(zip(names, range(num_gates)))
    record.num_inputs = num_inputs = len(circuit.inputs)
    record.nets = nets = circuit.nets()
    net_id = dict(zip(nets, range(len(nets))))

    pin_nets: List[str] = []
    counts: List[int] = []
    for gate in gates:
        pins = gate.template.pins
        pin_nets.extend(map(gate.pin_nets.__getitem__, pins))
        counts.append(len(pins))
    try:
        fanin = list(map(net_id.__getitem__, pin_nets))
        record.undriven = ()
    except KeyError:
        record.undriven = tuple(dict.fromkeys(
            net for net in pin_nets if net not in net_id))
        for net in record.undriven:
            net_id[net] = len(net_id)
        fanin = list(map(net_id.__getitem__, pin_nets))
    record.net_id = net_id
    fanin_net = np.array(fanin, dtype=np.int64)
    slot_gate = np.repeat(np.arange(num_gates, dtype=np.int64),
                          np.array(counts, dtype=np.int64))
    record.fanin_net = fanin_net
    record.slot_gate = slot_gate
    record.fanin_ptr = _csr_ptr(slot_gate, num_gates)
    record.sink_slot = np.argsort(fanin_net, kind="stable")
    record.sink_ptr = _csr_ptr(fanin_net, len(net_id))

    # Distinct (driver, sink) gate pairs, sorted by driver then sink:
    # each driver's sinks in creation order, each sink once.
    driver = fanin_net - num_inputs
    driven = (driver >= 0) & (driver < num_gates)
    width = max(num_gates, 1)
    pairs = np.unique(driver[driven] * width + slot_gate[driven])
    pred = pairs // width
    record.gs_val = gs_val = pairs - pred * width
    record.gs_ptr = gs_ptr = _csr_ptr(pred, num_gates)

    # Kahn's walk with a FIFO queue over integer ids (see the module
    # docstring): a gate enters the queue when its latest predecessor
    # is popped, which sits exactly one level below it, so its level is
    # known on entry.  Iterating a list that grows is the FIFO queue.
    sink_ptr = gs_ptr.tolist()
    sinks = gs_val.tolist()
    indegree = np.bincount(gs_val, minlength=num_gates).tolist()
    order = [gid for gid in range(num_gates) if not indegree[gid]]
    level = [0] * num_gates
    for gid in order:
        above = level[gid] + 1
        for sink in sinks[sink_ptr[gid]:sink_ptr[gid + 1]]:
            indegree[sink] -= 1
            if not indegree[sink]:
                level[sink] = above
                order.append(sink)
    record.cyclic = len(order) != num_gates
    if record.cyclic:
        record.level = record.topo = record.topo_index = None
    else:
        record.level = np.array(level, dtype=np.int64)
        record.topo = np.array(order, dtype=np.int64)
        record.topo_index = np.empty(num_gates, dtype=np.int64)
        record.topo_index[record.topo] = np.arange(num_gates, dtype=np.int64)
    return record


class FanoutIndex:
    """Reverse connectivity of a netlist, answered from the structure record.

    :meth:`Circuit.fanout` scans every gate on each call — O(gates) per
    query, which makes cone walks quadratic.  The index reads the
    circuit's memoised :class:`CircuitStructure` (one integer pass) and
    answers sink and cone queries in output-proportional time; the
    ``(gate, pin)`` tuples of :meth:`sinks` are materialised per net on
    first request, in gate-creation-then-template-pin order.  The
    supported circuit edits (:meth:`Circuit.apply_edit`: reorderings,
    same-arity template swaps, input statistics) never change
    connectivity, so an index stays valid across them; rebuild it after
    structural surgery.
    """

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        self.structure = circuit.structure()
        self._sinks: Dict[str, Tuple[Tuple[GateInstance, str], ...]] = {}
        self._gate_sinks: Dict[str, Tuple[GateInstance, ...]] = {}
        self._lists: Optional[tuple] = None

    def _csr_lists(self) -> tuple:
        """The record's CSR arrays as Python lists, for scalar walks."""
        lists = self._lists
        if lists is None:
            record = self.structure
            lists = self._lists = tuple(array.tolist() for array in (
                record.sink_ptr, record.sink_slot, record.slot_gate,
                record.fanin_ptr, record.gs_ptr, record.gs_val))
        return lists

    def sinks(self, net: str) -> Tuple[Tuple[GateInstance, str], ...]:
        """(gate, pin) sinks of ``net`` — :meth:`Circuit.fanout` in O(result)."""
        sinks = self._sinks.get(net)
        if sinks is None:
            net_index = self.structure.net_id.get(net)
            if net_index is None:
                return ()
            sink_ptr, sink_slot, slot_gate, fanin_ptr, _, _ = \
                self._csr_lists()
            gates = self.structure.gates
            found = []
            for slot in sink_slot[sink_ptr[net_index]:sink_ptr[net_index + 1]]:
                gid = slot_gate[slot]
                gate = gates[gid]
                found.append((gate, gate.template.pins[slot - fanin_ptr[gid]]))
            sinks = self._sinks[net] = tuple(found)
        return sinks

    def gate_sinks(self, gate_name: str) -> Tuple[GateInstance, ...]:
        """Gates with at least one pin on ``gate_name``'s output."""
        sinks = self._gate_sinks.get(gate_name)
        if sinks is None:
            gid = self.structure.gate_id.get(gate_name)
            if gid is None:
                return ()
            *_, gs_ptr, gs_val = self._csr_lists()
            gates = self.structure.gates
            sinks = self._gate_sinks[gate_name] = tuple(
                gates[sink] for sink in gs_val[gs_ptr[gid]:gs_ptr[gid + 1]])
        return sinks

    def cone_from_gates(self, gate_names: Iterable[str]) -> frozenset:
        """Names of the seed gates plus their transitive fanout gates.

        This is the dirty set of an edit touching the seed gates: every
        gate whose output statistics can depend on them.
        """
        *_, gs_ptr, gs_val = self._csr_lists()
        gate_id = self.structure.gate_id
        # A seed that names no gate has no sinks; it stays in the cone.
        strays = []
        stack = []
        for name in gate_names:
            gid = gate_id.get(name)
            if gid is None:
                strays.append(name)
            else:
                stack.append(gid)
        cone = set()
        while stack:
            gid = stack.pop()
            if gid in cone:
                continue
            cone.add(gid)
            stack.extend(gs_val[gs_ptr[gid]:gs_ptr[gid + 1]])
        names = self.structure.gate_names
        return frozenset([names[gid] for gid in cone] + strays)

    def cone_from_nets(self, nets: Iterable[str]) -> frozenset:
        """Names of all gates in the transitive fanout of the given nets."""
        seeds = [gate.name for net in nets for gate, _ in self.sinks(net)]
        return self.cone_from_gates(seeds)


def transitive_fanout(circuit: Circuit, net: str,
                      index: FanoutIndex = None) -> Tuple[GateInstance, ...]:
    """All gates in the fanout cone of ``net``, in topological order.

    The mirror of :func:`transitive_fanin`; ``index`` defaults to the
    circuit's memoised :meth:`Circuit.fanout_index`.
    """
    if index is None:
        index = circuit.fanout_index()
    cone = index.cone_from_nets([net])
    return tuple(g for g in circuit.topo_gates() if g.name in cone)


def reachable_from_outputs(circuit: Circuit) -> Tuple[GateInstance, ...]:
    """Gates that feed at least one primary output (dangling logic excluded)."""
    cone = set()
    stack = list(circuit.outputs)
    while stack:
        current = stack.pop()
        gate = circuit.driver(current)
        if gate is None or gate.name in cone:
            continue
        cone.add(gate.name)
        stack.extend(gate.fanin_nets)
    return tuple(g for g in circuit.topo_gates() if g.name in cone)

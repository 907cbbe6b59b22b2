"""The dirty-cone timing cache.

:class:`TimingCache` maintains per-net arrival times — and, lazily,
required times, slacks and the critical path — of a circuit under ECO
edits, mirroring :class:`~repro.incremental.cache.StatsCache` on the
delay axis of the paper's (P, D) co-metric (Table 3 column D).

Invalidation mirrors the statistics rule (see README.md, "Timing
invalidation rules"): a reorder or retemplate of gate *g* seeds *g*
alone — its new compiled form changes its own pin-to-output delays,
but no pin capacitance, so no driver's load — and the refresh descends
*g*'s fanout cone with **early cut-off**, stopping as soon as a
recomputed arrival is bit-identical to the cached one.  A structural
edit also seeds the drivers of the nets whose load it changed.

Both the full initial sweep and the incremental re-propagation run
on the flat-array timing kernels of
:class:`~repro.compiled.circuit.CompiledCircuit` — the same kernels
:func:`~repro.timing.sta.analyze_timing` runs, bit-identical to the
per-gate :func:`~repro.timing.sta.gate_arrival` oracle — so the cache
is bit-identical to a from-scratch analysis after any supported edit
sequence — the property ``tests/test_timing_equivalence.py`` locks.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit
from ..circuit.topology import FanoutIndex
from ..compiled.circuit import get_compiled
from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry
from ..timing.sta import TimingReport, net_load, timing_context

__all__ = ["TimingCache"]


class TimingCache:
    """Circuit-wide arrival times, re-propagated only where dirty.

    Subscribes to :meth:`Circuit.apply_edit` notifications exactly like
    :class:`~repro.incremental.cache.StatsCache`; pass ``index=`` to
    share an existing :class:`FanoutIndex` (the local edits never
    change connectivity, so one index can serve both caches; after a
    structural edit both re-read the circuit's freshly rebuilt memoised
    index, so they keep sharing).

    Arrivals live in a persistent flat array over the circuit's
    :class:`~repro.compiled.circuit.CompiledCircuit` lowering, with a
    dict view kept in sync for reads.  A structural edit drops the
    array and the lowering; the next refresh rebuilds both from the
    dict.
    """

    def __init__(self, circuit: Circuit,
                 tech=None,
                 po_load: Optional[float] = None,
                 input_arrivals: Optional[Mapping[str, float]] = None,
                 index: Optional[FanoutIndex] = None):
        if index is None:
            circuit.validate()
            index = circuit.fanout_index()
        self.circuit = circuit
        self.tech, self.po_load = timing_context(tech, po_load)
        self.index = index
        self._topo = circuit.topo_gates()
        self._topo_index = {g.name: i for i, g in enumerate(self._topo)}
        self._outputs = frozenset(circuit.outputs)
        self._input_arrivals: Dict[str, float] = {
            net: (float(input_arrivals[net]) if input_arrivals else 0.0)
            for net in circuit.inputs
        }
        self._arrivals: Dict[str, float] = dict(self._input_arrivals)
        self._pred: Dict[str, Optional[str]] = {
            net: None for net in circuit.inputs
        }
        cc = self._cc = get_compiled(circuit)
        self._arr, pred_net = cc.arrivals_full(
            self.tech, self.po_load, self._input_arrivals)
        for gid in range(len(cc.gate_names)):
            out = cc.num_inputs + gid
            self._arrivals[cc.nets[out]] = float(self._arr[out])
            self._pred[cc.nets[out]] = cc.nets[pred_net[gid]]
        #: Seed gates awaiting re-propagation (the refresh descends
        #: their cones itself, pruning with early cut-off, so the full
        #: dirty cone is never materialised eagerly).
        self._dirty: set = set()
        self._required: Optional[Dict[str, float]] = None
        self._required_clock: Optional[float] = None
        #: Per-cache work counters (:mod:`repro.obs.metrics`); the
        #: ``timing.gates_retimed`` counter backs the property below so
        #: artifact fields and metrics snapshots cannot drift.
        self.metrics = MetricsRegistry()
        self._retimed = self.metrics.counter("timing.gates_retimed")
        self._refreshes = self.metrics.counter("timing.refresh_count")
        circuit.add_edit_listener(self._on_edit)
        self._subscribed = True

    @property
    def gates_retimed(self) -> int:
        """Total gate arrivals recomputed by :meth:`refresh` calls (the
        benchmark's cone-size measure); the initial full sweep is not
        counted."""
        return self._retimed.value

    @property
    def refresh_count(self) -> int:
        return self._refreshes.value

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _on_edit(self, gate_name: str, kind: str) -> None:
        if kind == "structure":
            self._on_structure(gate_name, self.circuit.structure_event)
            return
        # A reorder or retemplate changes the gate's own delays only:
        # no pin capacitance moves (every pin drives one N and one P
        # device, which GateTemplate guarantees), so no driver's load
        # and no driver's arrival does.
        self._dirty.add(gate_name)

    def _on_structure(self, gate_name: str, event) -> None:
        """Handle a structural edit: rebuild structure, widen dirty seeds.

        Mirrors :meth:`StatsCache._on_structure`.  An added gate's
        output is seeded NaN so the early cut-off always treats its
        first recompute as changed (``x != nan`` for every ``x``); the
        NaN never escapes because the gate is in the dirty seeds of the
        very next refresh.  Drivers of the event's ``load_nets`` are
        seeded too — the external load they see changed, and load
        enters the Elmore delay.  The stale lowering and its arrival
        array are dropped, not rebuilt: the arrival dict stays exact,
        and the next :meth:`refresh` re-lowers once from it
        (:meth:`_relower`), so a run of structural edits — a
        multi-edit move and its rollback — lowers once per read, not
        once per edit.
        """
        self.index = self.circuit.fanout_index()
        self._topo = self.circuit.topo_gates()
        self._topo_index = {g.name: i for i, g in enumerate(self._topo)}
        if event.op == "remove":
            self._dirty.discard(gate_name)
            self._arrivals.pop(event.output, None)
            self._pred.pop(event.output, None)
        else:
            if event.op == "add":
                self._arrivals[event.output] = float("nan")
                self._pred[event.output] = None
            self._dirty.add(gate_name)
        for net in event.load_nets:
            pred = self.circuit.driver(net)
            if pred is not None:
                self._dirty.add(pred.name)
        self._cc = None
        self._arr = None
        self._required = None
        self._required_clock = None

    def _relower(self) -> None:
        """Re-acquire the lowering and rebuild the arrival array.

        Called by :meth:`refresh` after structural edits dropped the
        old pair; the circuit's memoised lowering
        (:func:`~repro.compiled.circuit.get_compiled`) is shared with
        the statistics backend and the power kernel.
        """
        cc = self._cc = get_compiled(self.circuit)
        arrivals = self._arrivals
        self._arr = np.fromiter(
            (arrivals.get(net, np.nan) for net in cc.nets),
            dtype=float, count=len(cc.nets))

    def mark_dirty(self, gate_name: str) -> None:
        """Seed the dirty set as if ``gate_name`` had just been edited.

        The batch move pricer (:mod:`repro.incremental.search`) scores
        candidates without applying circuit edits, so no edit
        notification fires; this reproduces the seed a trial
        apply/rollback pair would leave — the gate alone — keeping the
        refresh work and the :attr:`gates_retimed` counter bit-identical
        to the per-move :class:`~repro.incremental.eco.WhatIf` path.
        """
        if gate_name not in self._topo_index:
            raise KeyError(f"unknown gate {gate_name!r}")
        self._dirty.add(gate_name)

    def set_input_arrival(self, net: str, arrival: float) -> float:
        """Edit one primary input's arrival time; returns the old value."""
        if net not in self._input_arrivals:
            raise KeyError(f"{net!r} is not a primary input")
        old = self._input_arrivals[net]
        arrival = float(arrival)
        if arrival == old:
            return old
        self._input_arrivals[net] = arrival
        self._arrivals[net] = arrival
        if self._cc is not None:  # else the next refresh re-lowers
            self._arr[self._cc.net_id[net]] = arrival
        self._required = None  # the net may have no sinks to refresh through
        for gate, _pin in self.index.sinks(net):
            self._dirty.add(gate.name)
        return old

    def input_arrival(self, net: str) -> float:
        return self._input_arrivals[net]

    @property
    def input_arrivals(self) -> Mapping[str, float]:
        """Primary-input arrival times (treat as read-only)."""
        return self._input_arrivals

    @property
    def dirty_gates(self) -> frozenset:
        """Names of gates whose arrival *may* be re-propagated.

        The potential dirty cone (seeds plus transitive fanout); the
        actual refresh usually touches far fewer gates thanks to early
        cut-off.
        """
        return self.index.cone_from_gates(self._dirty)

    # ------------------------------------------------------------------
    # Re-propagation
    # ------------------------------------------------------------------
    def _load(self, net: str) -> float:
        return net_load(self.index.sinks(net), net in self._outputs,
                        self.tech, self.po_load)

    def refresh(self) -> Tuple[str, ...]:
        """Re-propagate dirty cones; returns the nets whose arrival moved.

        Level-batched on the flat arrays: the seeds are bucketed by
        logic level and each level is retimed in one kernel call, so
        every recompute sees up-to-date fanin arrivals.  A gate whose
        recomputed arrival is bit-identical to the cached one does not
        enqueue its sinks — the early cut-off that keeps a wide dirty
        cone from forcing a wide recompute — and is not reported
        either; the total recompute count (changed or not) accumulates
        in :attr:`gates_retimed`.  The changed nets come back in
        topological order.
        """
        if not self._dirty:
            return ()
        if self._cc is None:
            self._relower()
        cc = self._cc
        arr = self._arr
        tracer = _trace.ACTIVE
        span = (tracer.span("timing.refresh", seeds=len(self._dirty))
                if tracer is not None else _trace.NULL_SPAN)
        with span:
            loads = cc.net_loads(self.tech, self.po_load)
            frontier: Dict[int, set] = {}
            queued = set()
            for name in self._dirty:
                gid = cc.gate_id[name]
                queued.add(gid)
                frontier.setdefault(int(cc.level[gid]), set()).add(gid)
            self._dirty.clear()
            recomputed = 0
            changed_gids: List[int] = []
            while frontier:
                level = min(frontier)
                ids = np.fromiter(frontier.pop(level), dtype=np.int64)
                gids, out_ids, arrivals, pred_nets = cc.retime_gates(
                    ids, arr, loads, self.tech)
                recomputed += len(gids)
                old = arr[out_ids]
                arr[out_ids] = arrivals
                moved = arrivals != old
                for k in range(len(gids)):
                    out_name = cc.nets[int(out_ids[k])]
                    # The latest-arriving pin can shift on an exact tie, so
                    # the predecessor updates even when the arrival did not.
                    self._pred[out_name] = cc.nets[int(pred_nets[k])]
                    if moved[k]:
                        self._arrivals[out_name] = float(arrivals[k])
                        changed_gids.append(int(gids[k]))
                        for sink in cc.gate_sinks(int(gids[k])):
                            sink = int(sink)
                            if sink not in queued:
                                queued.add(sink)
                                frontier.setdefault(
                                    int(cc.level[sink]), set()).add(sink)
            if tracer is not None:
                span.note(recomputed=recomputed, changed=len(changed_gids))
        self._retimed.inc(recomputed)
        self._refreshes.inc()
        self._required = None
        changed_gids.sort(key=lambda gid: cc.topo_index[gid])
        return tuple(
            cc.nets[cc.num_inputs + gid] for gid in changed_gids
        )

    # ------------------------------------------------------------------
    # Reads (lazily refreshing)
    # ------------------------------------------------------------------
    def arrivals(self) -> Dict[str, float]:
        """The full, up-to-date arrival-time map (treat as read-only)."""
        self.refresh()
        return self._arrivals

    def arrival(self, net: str) -> float:
        self.refresh()
        return self._arrivals[net]

    def __getitem__(self, net: str) -> float:
        return self.arrival(net)

    def delay(self) -> float:
        """Longest input-to-output delay — :func:`circuit_delay`, incrementally."""
        self.refresh()
        if not self.circuit.outputs:
            return 0.0
        return max(self._arrivals[n] for n in self.circuit.outputs)

    def critical_path(self) -> Tuple[str, ...]:
        """Net names from a primary input to the latest primary output."""
        self.refresh()
        if not self.circuit.outputs:
            return ()
        worst = max(self.circuit.outputs, key=lambda n: self._arrivals[n])
        path: List[str] = []
        net: Optional[str] = worst
        while net is not None:
            path.append(net)
            net = self._pred[net]
        path.reverse()
        return tuple(path)

    def report(self) -> TimingReport:
        """A :class:`~repro.timing.sta.TimingReport` of the current state."""
        return TimingReport(dict(self.arrivals()), self.delay(),
                            self.critical_path())

    # ------------------------------------------------------------------
    # Required times and slacks (lazy backward pass)
    # ------------------------------------------------------------------
    def required_times(self, clock: Optional[float] = None) -> Dict[str, float]:
        """Required arrival time of every net for a target ``clock``.

        Defaults to the current circuit delay, making the critical path
        the zero-slack path.  Computed by one backward sweep when first
        asked for and cached until the next refresh actually retimes
        something (treat the returned map as read-only).  Nets feeding
        neither a gate nor a primary output have no deadline (``inf``).
        """
        self.refresh()
        if clock is None:
            clock = self.delay()
        if self._required is not None and self._required_clock == clock:
            return self._required
        from ..timing.elmore import gate_pin_delay

        required: Dict[str, float] = {
            net: (clock if net in self._outputs else float("inf"))
            for net in self._arrivals
        }
        for gate in reversed(self._topo):
            compiled = gate.compiled()
            config = gate.effective_config()
            load = self._load(gate.output)
            req_out = required[gate.output]
            for pin in gate.template.pins:
                net = gate.pin_nets[pin]
                t = req_out - gate_pin_delay(compiled, config, pin, self.tech,
                                             load)
                if t < required[net]:
                    required[net] = t
        self._required = required
        self._required_clock = clock
        return required

    def slack(self, net: str, clock: Optional[float] = None) -> float:
        """``required - arrival`` of one net (0.0 on the critical path)."""
        return self.required_times(clock)[net] - self._arrivals[net]

    def slacks(self, clock: Optional[float] = None) -> Dict[str, float]:
        required = self.required_times(clock)
        return {net: required[net] - self._arrivals[net] for net in required}

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the circuit's edit notifications."""
        if self._subscribed:
            self.circuit.remove_edit_listener(self._on_edit)
            self._subscribed = False

    def __enter__(self) -> "TimingCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"TimingCache({self.circuit.name!r}, "
            f"dirty_seeds={len(self._dirty)}, retimed={self.gates_retimed})"
        )

"""The dirty-cone statistics cache.

:class:`StatsCache` maintains the full net-to-(P, D) map of a circuit
under ECO edits.  Invalidation rules (see README.md): an edit records
seeds, and the read expands them (:class:`SeededCache`):

* ``SetTemplate`` on gate *g* — through :meth:`Circuit.apply_edit` or
  the ``set_template`` wrapper — seeds *g*, whose cone is *g* plus its
  transitive fanout gates (a new cell generally has a new function);
  to *g*'s own template it is a reordering, notified as ``"config"``;
* ``SetConfig`` on gate *g* seeds nothing: a reordering keeps the
  gate's logic function, so no net's (P, D) can move.  The circuit
  guarantees this at the boundary — every configuration it accepts is
  an ordering of the gate's template (see
  :meth:`~repro.gates.library.GateTemplate.config_index`);
* :meth:`set_input_stats` on input net *x* records *x*, whose cone is
  the gates in *x*'s transitive fanout;
* the structural edits (``AddGate``/``RemoveGate``/``RewireNet``) seed
  the edited gate (add/rewire) — a removed gate's entries are purged
  instead;
* nothing else dirties anything.

:meth:`refresh` re-propagates the cone of the seeds in topological
order via the configured backend and is called lazily by every read
accessor.

The statistics live in one place: the :attr:`StatsCache.prob` and
:attr:`StatsCache.dens` arrays, indexed by the net ids of the
circuit's current :class:`~repro.compiled.circuit.CompiledCircuit`.
The backend computes into them and the power kernel gathers from them;
the name-keyed reads (:meth:`StatsCache.stats`, ``cache[net]``,
:meth:`StatsCache.power`) build :class:`SignalStats` views on demand.
Each gate's power total sits next to them, in
:attr:`StatsCache.gate_power` at the gate's output net id.  After a
structural edit the first read carries all three arrays onto the new
lowering by net name (:func:`~repro.compiled.circuit.relowered`).

Gate power is cached too.  A gate's power reads its fanin and output
(P, D), its own compiled form and its output net's load, so an edit
power-dirties only *seeds* and the refresh adds the rest with an
**early cut-off**:

* ``SetConfig`` and ``SetTemplate`` seed the gate alone — no
  reordering or template swap changes a pin's transistor count (every
  pin drives one N and one P device, which ``GateTemplate`` guarantees),
  so no net's load moves; a reordering changes only the gate's own
  internal-node power, so it is the whole of a reorder's work;
* a structural edit seeds the added or rewired gate and the drivers of
  the event's ``load_nets`` (whose external load changed);
* :meth:`refresh` power-dirties the sinks of every net whose refreshed
  (P, D) differs from the cached value, primary inputs included — the
  only way a gate outside the seeds can change power.

A power refresh writes the kernel's per-gate totals of the dirty gates
into ``gate_power`` in one indexed store (no report objects), and the
circuit total is :func:`~repro.core.optimizer.fold_power` of the
column gathered in topological order — the topological left fold
:func:`~repro.core.optimizer.circuit_power` runs too, so incremental
and from-scratch totals are equal, not merely close.  Per-node reports
(:class:`~repro.core.power_model.GatePowerReport`) are built only when
:meth:`StatsCache.power` asks for them, and then only for gates whose
report is stale.
"""

from __future__ import annotations

from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit, StructureEvent
from ..circuit.topology import FanoutIndex
from ..compiled.circuit import CompiledCircuit, get_compiled, relowered
from ..compiled.power import CompiledPowerKernel
from ..core.optimizer import CircuitPowerReport, fold_power
from ..core.power_model import GatePowerModel, GatePowerReport
from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry
from ..stochastic.signal import SignalStats
from ..timing.sta import DEFAULT_PO_LOAD, timing_context
from .backends import DEFAULT_ENGINE, make_backend, refuse_structure

__all__ = ["SeededCache", "StatsCache"]


class SeededCache:
    """The edit subscription and invalidation rule both caches share.

    An edit records seeds (gates in ``_dirty``, inputs in
    ``_changed_inputs``) and reads no connectivity; a read expands them
    on the structure current then, so a run of structural edits builds
    the structure record once.  :attr:`index` is the circuit's memo.
    Subclasses set ``circuit`` and both seed sets, then :meth:`_subscribe`.
    """

    def _subscribe(self) -> None:
        self.circuit.add_edit_listener(self._on_edit)
        self._subscribed = True

    @property
    def index(self) -> FanoutIndex:
        return self.circuit.fanout_index()

    @property
    def dirty_gates(self) -> frozenset:
        """Names of the gates in the cone of the seeds (for timing, the
        potential cone that its early cut-off prunes)."""
        index = self.index
        return (index.cone_from_gates(self._dirty)
                | index.cone_from_nets(self._changed_inputs))

    def close(self) -> None:
        """Detach from the circuit's edit notifications."""
        if self._subscribed:
            self.circuit.remove_edit_listener(self._on_edit)
            self._subscribed = False

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class StatsCache(SeededCache):
    """Circuit-wide (P, D) and power, re-propagated only where dirty.

    The statistics backend (:mod:`repro.incremental.backends`) and the
    power refresh (the class-batched
    :class:`~repro.compiled.power.CompiledPowerKernel`) both run on the
    flat-array kernels of :mod:`repro.compiled`; every cached float is
    bit-identical to the per-gate oracles
    (:func:`~repro.stochastic.density.local_stats`,
    :func:`~repro.core.optimizer.circuit_power`).  Every cached value is
    a column over the current lowering (``prob``, ``dens``,
    ``gate_power``); order, loads and the fanout index are read from
    the circuit's memos and the lowering, never copied.
    """

    def __init__(self, circuit: Circuit,
                 input_stats: Mapping[str, SignalStats],
                 backend=DEFAULT_ENGINE,
                 model: Optional[GatePowerModel] = None,
                 po_load: float = DEFAULT_PO_LOAD,
                 **backend_kwargs):
        circuit.validate()
        missing = [n for n in circuit.inputs if n not in input_stats]
        if missing:
            raise KeyError(f"missing input statistics for {missing}")
        self.circuit = circuit
        self.backend = make_backend(backend, **backend_kwargs)
        self._power_kernel_obj: Optional[CompiledPowerKernel] = None
        self.model = model if model is not None else GatePowerModel()
        _, self.po_load = timing_context(self.model.tech, po_load)
        self._input_stats: Dict[str, SignalStats] = {
            n: input_stats[n] for n in circuit.inputs
        }
        #: The circuit's lowering whose net ids index ``prob``, ``dens``
        #: and ``gate_power``; stale after a structural edit until the
        #: next read re-lowers.
        self._cc = get_compiled(circuit)
        #: Every net's (P, D) (treat as read-only).
        self.prob, self.dens = self.backend.settle(self._cc,
                                                   self._input_stats)
        #: Each gate's power total at its output net id (treat as
        #: read-only); NaN at primary inputs and until a gate is priced.
        #: No fold reads a NaN: every unpriced gate is power-dirty.
        self.gate_power = np.full(len(self._cc.nets), np.nan)
        self._dirty: set = set()
        self._changed_inputs: set = set()
        self._power_dirty: set = {g.name for g in circuit.gates}
        #: Per-gate reports, built on demand by :meth:`power`; the
        #: names in ``_stale_reports`` are missing or out of date.
        self._power: Dict[str, GatePowerReport] = {}
        self._stale_reports: set = set()
        #: Per-cache work counters (:mod:`repro.obs.metrics`): the one
        #: place :attr:`gates_repropagated` and friends live, so the
        #: artifact fields, the CLI reports and any metrics snapshot
        #: all read the same numbers.
        self.metrics = MetricsRegistry()
        self._repropagated = self.metrics.counter("stats.gates_repropagated")
        self._refreshes = self.metrics.counter("stats.refresh_count")
        self._structural = self.metrics.counter("eco.structural")
        #: Open :class:`~repro.incremental.eco.WhatIf` trials on this
        #: cache, innermost last; WhatIf uses it to enforce LIFO
        #: unwinding and to hand committed inner undo logs outward.
        self.trial_stack: list = []
        self._subscribe()

    @property
    def gates_repropagated(self) -> int:
        """Total gates re-propagated by :meth:`refresh` calls (the
        benchmark's cone-size measure); the initial full propagation is
        not counted.  Backed by the ``stats.gates_repropagated``
        counter in :attr:`metrics`."""
        return self._repropagated.value

    @property
    def refresh_count(self) -> int:
        return self._refreshes.value

    @property
    def topo_index(self) -> Mapping[str, int]:
        """Gate name -> topological position (treat as read-only).

        The circuit's :meth:`~repro.circuit.netlist.Circuit.topo_positions`
        memo.  The local edits never change connectivity, so this map
        stays valid across them; a structural edit replaces it (read
        the property again — the old mapping object is discarded, not
        patched).  The search engine sorts its worklists with it
        instead of re-levelising the circuit.
        """
        return self.circuit.topo_positions()

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _on_edit(self, gate_name: str, kind: str) -> None:
        """Power-seed the edited gate; statistics-seed a retemplate.

        A reordering (``"config"``) keeps the gate's function, which
        the circuit enforces by refusing any configuration that is not
        an ordering of the gate's template, so it moves no net's
        (P, D) and seeds no statistics.  A retemplate (``"template"``)
        generally changes the function: the gate is a statistics seed,
        and its whole fanout cone is re-propagated at the next read,
        because the refresh is how the cache learns which nets moved.
        Power is seeded with the gate alone in both cases: neither edit
        changes a pin capacitance, so no other gate's load moves.
        Gates downstream are power-dirtied by :meth:`refresh`, and only
        where a net's (P, D) actually changed.
        """
        if kind == "structure":
            self._on_structure(gate_name, self.circuit.structure_event)
            return
        if kind != "config":
            self._dirty.add(gate_name)
        self._power_dirty.add(gate_name)

    def _on_structure(self, gate_name: str, event: StructureEvent) -> None:
        """Handle a structural edit: seed the dirty sets, read nothing.

        An added or rewired gate is a statistics and a power seed; its
        cone is derived at the next read, on the structure current
        then.  A removed gate's cached entries are purged instead (its
        output's (P, D) and power read NaN, so a gate re-added under
        that name before the next read starts from no value, like a new
        one).  Drivers of every net in ``event.load_nets`` are power
        seeds too — their own (P, D) are untouched, but the external
        load they see changed.  Gates whose fanin (P, D) the edit moves
        are power-dirtied by :meth:`refresh`.
        """
        refuse_structure(self.backend)
        self._structural.inc()
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.instant("eco.structural", op=event.op, gate=gate_name)
        if event.op == "remove":
            self._dirty.discard(gate_name)
            self._power_dirty.discard(gate_name)
            i = self._cc.net_id.get(event.output)
            if i is not None:
                self.prob[i] = self.dens[i] = self.gate_power[i] = np.nan
            self._power.pop(gate_name, None)
            self._stale_reports.discard(gate_name)
        else:
            self._dirty.add(gate_name)
            self._power_dirty.add(gate_name)
        for net in event.load_nets:
            pred = self.circuit.driver(net)
            if pred is not None:
                self._power_dirty.add(pred.name)

    def set_input_stats(self, net: str, stats: SignalStats) -> SignalStats:
        """Edit one primary input's statistics; returns the old value."""
        if net not in self._input_stats:
            raise KeyError(f"{net!r} is not a primary input")
        old = self._input_stats[net]
        if stats == old:
            return old
        self._input_stats[net] = stats
        self._changed_inputs.add(net)
        return old

    def input_stats(self, net: str) -> SignalStats:
        return self._input_stats[net]

    # ------------------------------------------------------------------
    # Reads (lazily refreshing)
    # ------------------------------------------------------------------
    def _lowering(self) -> CompiledCircuit:
        """The current lowering, the arrays carried onto it if it is new."""
        self._cc, self.prob, self.dens, self.gate_power = relowered(
            self._cc, self.prob, self.dens, self.gate_power)
        return self._cc

    def refresh(self) -> Tuple[str, ...]:
        """Re-propagate the dirty set; returns the recomputed nets.

        The sinks of every recomputed net whose (P, D) differs from the
        cached value go power-dirty (the power rule's cut-off: a cone
        the edit left unchanged is never repriced).
        """
        cc = self._lowering()
        if not self._dirty and not self._changed_inputs:
            return ()
        names = sorted(self.dirty_gates, key=self.topo_index.__getitem__)
        gate_ids = np.fromiter((cc.gate_id[name] for name in names),
                               dtype=np.int64, count=len(names))
        input_ids = sorted(cc.net_id[net] for net in self._changed_inputs)
        net_ids = np.concatenate([np.asarray(input_ids, dtype=np.int64),
                                  cc.out_net[gate_ids]])
        prob, dens = self.prob, self.dens
        old_prob, old_dens = prob[net_ids], dens[net_ids]
        tracer = _trace.ACTIVE
        span = (tracer.span("stats.refresh", gates=len(names),
                            backend=self.backend.name)
                if tracer is not None else _trace.NULL_SPAN)
        with span:
            self.backend.update(cc, gate_ids, input_ids, self._input_stats,
                                prob, dens)
        moved = (prob[net_ids] != old_prob) | (dens[net_ids] != old_dens)
        sinks = self.index.sinks
        power_dirty = self._power_dirty
        for i in net_ids[moved].tolist():
            for gate, _pin in sinks(cc.nets[i]):
                power_dirty.add(gate.name)
        self._repropagated.inc(len(names))
        self._refreshes.inc()
        self._dirty.clear()
        self._changed_inputs.clear()
        return tuple(cc.nets[i] for i in net_ids.tolist())

    def stats(self) -> Dict[str, SignalStats]:
        """A snapshot of every net's up-to-date statistics."""
        self.refresh()
        return self._cc.stats_map(self.prob, self.dens)

    def __getitem__(self, net: str) -> SignalStats:
        self.refresh()
        i = self._cc.net_id[net]
        return SignalStats(float(self.prob[i]), float(self.dens[i]))

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def power_kernel(self) -> CompiledPowerKernel:
        """The memoised :class:`CompiledPowerKernel` of the current lowering."""
        cc = self._lowering()
        kernel = self._power_kernel_obj
        if kernel is None or kernel.cc is not cc:
            kernel = CompiledPowerKernel(cc, self.model)
            self._power_kernel_obj = kernel
        return kernel

    def _refresh_power(self) -> None:
        self.refresh()
        if not self._power_dirty:
            return
        # Sorted iteration: string-set order varies with per-process
        # hash randomisation, and a run-varying float summation order
        # would make repeated runs differ in the last ulp.
        names = sorted(self._power_dirty, key=self.topo_index.__getitem__)
        tracer = _trace.ACTIVE
        span = (tracer.span("stats.power_refresh", gates=len(names))
                if tracer is not None else _trace.NULL_SPAN)
        with span:
            kernel = self.power_kernel()
            totals = kernel.gate_totals(names, self.prob, self.dens,
                                        self.po_load)
        cc = kernel.cc
        self.gate_power[cc.out_net[[cc.gate_id[n] for n in names]]] = totals
        self._stale_reports.update(names)
        self._power_dirty.clear()

    def power_totals(self) -> np.ndarray:
        """Per-gate power totals in topological order, as a new array.

        The array :meth:`total_power` sums; entry ``i`` belongs to the
        gate at :attr:`topo_index` position ``i``.
        """
        self._refresh_power()
        cc = self._cc
        return self.gate_power[cc.out_net[cc.topo]]

    def total_power(self) -> float:
        """Total modelled power, recomputing only power-dirty gates.

        One vectorised left fold over :meth:`power_totals`
        (:func:`~repro.core.optimizer.fold_power`), bit-identical for
        any edit history.
        """
        return fold_power(self.power_totals())

    def power(self) -> CircuitPowerReport:
        """A full :class:`CircuitPowerReport`, incrementally maintained.

        Reports are rebuilt only for gates repriced since the last
        call; their totals equal ``gate_power``'s (both are the
        kernel's left fold over the gate's nodes).
        """
        total = self.total_power()
        if self._stale_reports:
            names = sorted(self._stale_reports,
                           key=self.topo_index.__getitem__)
            self._power.update(self.power_kernel().reports(
                names, self.prob, self.dens, self.po_load))
            self._stale_reports.clear()
        return CircuitPowerReport(total, dict(self._power),
                                  self._cc.stats_map(self.prob, self.dens))

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"StatsCache({self.circuit.name!r}, backend={self.backend.name!r}, "
            f"dirty={len(self._dirty)})"
        )

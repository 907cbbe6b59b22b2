"""The dirty-cone statistics cache.

:class:`StatsCache` maintains the full net-to-(P, D) map of a circuit
under ECO edits.  Invalidation rules (see README.md):

* ``SetTemplate`` on gate *g* — through :meth:`Circuit.apply_edit` or
  the ``set_template`` wrapper — dirties exactly *g* plus its
  transitive fanout gates (a new cell generally has a new function);
* ``SetConfig`` on gate *g* dirties nothing: a reordering keeps the
  gate's logic function, so no net's (P, D) can move.  The circuit
  guarantees this at the boundary — every configuration it accepts is
  an ordering of the gate's template (see
  :meth:`~repro.gates.library.GateTemplate.config_index`);
* :meth:`set_input_stats` on input net *x* dirties exactly the gates in
  *x*'s transitive fanout;
* the structural edits (``AddGate``/``RemoveGate``/``RewireNet``)
  rebuild the fanout index and topological order, then dirty the
  edited gate's new cone (add/rewire) — a removed gate's entries are
  purged instead;
* nothing else dirties anything.

:meth:`refresh` re-propagates the dirty set in topological order via
the configured backend and is called lazily by every read accessor.

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

Each gate's total sits in a flat array indexed by topological slot; a
power refresh rewrites only the dirty slots with the kernel's per-gate
totals (no report objects), and the circuit total is
:func:`~repro.core.optimizer.fold_power` of that array — the
topological left fold :func:`~repro.core.optimizer.circuit_power` runs
too, so incremental and from-scratch totals are equal, not merely
close.  Per-node reports (:class:`~repro.core.power_model.GatePowerReport`)
are built only when :meth:`StatsCache.power` asks for them, and then
only for gates whose report is stale.
"""

from __future__ import annotations

from array import array
from typing import Dict, Mapping, Optional, Tuple

from ..circuit.netlist import Circuit, CircuitError, StructureEvent
from ..compiled.circuit import get_compiled
from ..compiled.power import CompiledPowerKernel
from ..core.optimizer import CircuitPowerReport, fold_power
from ..core.power_model import GatePowerModel, GatePowerReport
from ..gates.capacitance import net_load
from ..obs import trace as _trace
from ..obs.metrics import MetricsRegistry
from ..stochastic.signal import SignalStats
from ..timing.sta import DEFAULT_PO_LOAD, timing_context
from .backends import make_backend

__all__ = ["StatsCache"]


class StatsCache:
    """Circuit-wide (P, D) and power, re-propagated only where dirty.

    The statistics backend (:mod:`repro.incremental.backends`) and the
    power refresh (the class-batched
    :class:`~repro.compiled.power.CompiledPowerKernel`) both run on the
    flat-array kernels of :mod:`repro.compiled`; every cached float is
    bit-identical to the per-gate oracles
    (:func:`~repro.stochastic.density.local_stats`,
    :func:`~repro.core.optimizer.circuit_power`).
    """

    def __init__(self, circuit: Circuit,
                 input_stats: Mapping[str, SignalStats],
                 backend="analytic",
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
        # Memoised on the circuit: a second cache (or a search run)
        # reuses the same index and topological order instead of
        # redoing the O(V+E) construction.
        self.index = circuit.fanout_index()
        self._topo_index = {
            g.name: i for i, g in enumerate(circuit.topo_gates())
        }
        self._outputs = frozenset(circuit.outputs)
        self._input_stats: Dict[str, SignalStats] = {
            n: input_stats[n] for n in circuit.inputs
        }
        self._stats: Dict[str, SignalStats] = dict(
            self.backend.full(circuit, self._input_stats)
        )
        self._dirty: set = set()
        self._changed_inputs: set = set()
        self._power_dirty: set = {g.name for g in circuit.gates}
        #: Per-gate power totals by topological slot (``_topo_index``),
        #: unboxed doubles; ``None`` until the first power refresh and
        #: after a structural edit renumbers the slots.
        self._slots: Optional[array] = None
        #: ``(topo index, slots)`` of the numbering a structural edit
        #: retired, until the next power refresh renumbers the slots.
        self._retired: Optional[Tuple[Mapping[str, int], array]] = None
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
        circuit.add_edit_listener(self._on_edit)
        self._subscribed = True

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

        The local edits never change connectivity, so this map stays
        valid across them; a structural edit replaces it (re-read the
        property — the old mapping object is discarded, not patched).
        The search engine sorts its worklists with it instead of
        re-levelising the circuit.
        """
        return self._topo_index

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _on_edit(self, gate_name: str, kind: str) -> None:
        """Power-dirty the edited gate; dirty a retemplate's cone.

        A reordering (``"config"``) keeps the gate's function, which
        the circuit enforces by refusing any configuration that is not
        an ordering of the gate's template, so it moves no net's
        (P, D) and dirties no statistics.  A retemplate
        (``"template"``) generally changes the function: its whole
        fanout cone goes statistics-dirty, because the refresh is how
        the cache learns which nets moved.  Power is seeded with the
        gate alone in both cases: neither edit changes a pin
        capacitance, so no other gate's load moves.  Gates downstream
        are power-dirtied by :meth:`refresh`, and only where a net's
        (P, D) actually changed.
        """
        if kind == "structure":
            self._on_structure(gate_name, self.circuit.structure_event)
            return
        if kind != "config":
            self._dirty |= self.index.cone_from_gates([gate_name])
        self._power_dirty.add(gate_name)

    def _on_structure(self, gate_name: str, event: StructureEvent) -> None:
        """Handle a structural edit: rebuild structure, seed dirty sets.

        The connectivity-derived state (fanout index, topological
        order) is re-read from the circuit's (freshly invalidated)
        memo.  Statistics for an added or rewired gate's cone go dirty
        and the gate itself is a power seed; a removed gate's cached
        entries are purged instead.  Drivers of every net in
        ``event.load_nets`` are power seeds too — their own (P, D) are
        untouched, but the external load they see changed.  Gates whose
        fanin (P, D) the edit moves are power-dirtied by
        :meth:`refresh`.
        """
        if not getattr(self.backend, "supports_structure", False):
            raise CircuitError(
                f"the {self.backend.name!r} backend cannot maintain "
                f"statistics across structural edits "
                f"(add-gate/remove-gate/rewire); use the analytic backend"
            )
        if self._slots is not None:
            self._retired = (self._topo_index, self._slots)
            self._slots = None
        self.index = self.circuit.fanout_index()
        self._topo_index = {
            g.name: i for i, g in enumerate(self.circuit.topo_gates())
        }
        self._structural.inc()
        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.instant("eco.structural", op=event.op, gate=gate_name)
        if event.op == "remove":
            self._dirty.discard(gate_name)
            self._power_dirty.discard(gate_name)
            self._stats.pop(event.output, None)
            self._power.pop(gate_name, None)
            self._stale_reports.discard(gate_name)
        else:
            self._dirty |= self.index.cone_from_gates([gate_name])
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
        self._dirty |= self.index.cone_from_nets([net])
        return old

    def input_stats(self, net: str) -> SignalStats:
        return self._input_stats[net]

    @property
    def dirty_gates(self) -> frozenset:
        """Names of gates awaiting re-propagation (for tests/inspection)."""
        return frozenset(self._dirty)

    # ------------------------------------------------------------------
    # Reads (lazily refreshing)
    # ------------------------------------------------------------------
    def refresh(self) -> Tuple[str, ...]:
        """Re-propagate the dirty set; returns the recomputed nets.

        The sinks of every recomputed net whose (P, D) differs from the
        cached value go power-dirty (the power rule's cut-off: a cone
        the edit left unchanged is never repriced).
        """
        if not self._dirty and not self._changed_inputs:
            return ()
        order = self._topo_index
        dirty_gates = [
            self.circuit.gate(name)
            for name in sorted(self._dirty, key=order.__getitem__)
        ]
        tracer = _trace.ACTIVE
        span = (tracer.span("stats.refresh", gates=len(dirty_gates),
                            backend=self.backend.name)
                if tracer is not None else _trace.NULL_SPAN)
        with span:
            updates = self.backend.update(
                self.circuit, dirty_gates, self._input_stats,
                frozenset(self._changed_inputs), self._stats,
            )
        stats = self._stats
        sinks = self.index.sinks
        power_dirty = self._power_dirty
        for net, new in updates.items():
            if stats.get(net) != new:
                for gate, _pin in sinks(net):
                    power_dirty.add(gate.name)
        stats.update(updates)
        self._repropagated.inc(len(dirty_gates))
        self._refreshes.inc()
        self._dirty.clear()
        self._changed_inputs.clear()
        return tuple(updates)

    def stats(self) -> Dict[str, SignalStats]:
        """The full, up-to-date net-statistics map (treat as read-only)."""
        self.refresh()
        return self._stats

    def __getitem__(self, net: str) -> SignalStats:
        self.refresh()
        return self._stats[net]

    # ------------------------------------------------------------------
    # Power
    # ------------------------------------------------------------------
    def _output_load(self, net: str) -> float:
        return net_load(self.index.sinks(net), net in self._outputs,
                        self.model.tech, self.po_load)

    def power_kernel(self) -> CompiledPowerKernel:
        """The memoised :class:`CompiledPowerKernel` of the current lowering."""
        cc = get_compiled(self.circuit)
        kernel = self._power_kernel_obj
        if kernel is None or kernel.cc is not cc:
            kernel = CompiledPowerKernel(cc, self.model)
            self._power_kernel_obj = kernel
        return kernel

    def _refresh_power(self) -> None:
        self.refresh()
        if self._slots is None:
            # (Re)number the slots (first use, or a structural edit):
            # every gate already priced keeps its total; the rest are
            # power-dirty and get rewritten below.
            old_index, old_slots = self._retired or ({}, ())
            self._retired = None
            self._slots = array("d", (
                old_slots[old_index[name]] if name in old_index else 0.0
                for name in self._topo_index
            ))
        if not self._power_dirty:
            return
        # Sorted iteration: string-set order varies with per-process
        # hash randomisation, and a run-varying float summation order
        # would make repeated runs differ in the last ulp.
        names = sorted(self._power_dirty, key=self._topo_index.__getitem__)
        tracer = _trace.ACTIVE
        span = (tracer.span("stats.power_refresh", gates=len(names))
                if tracer is not None else _trace.NULL_SPAN)
        with span:
            totals = self.power_kernel().gate_totals(
                names, self._stats, self.po_load)
        slots = self._slots
        order = self._topo_index
        for name, total in zip(names, totals.tolist()):
            slots[order[name]] = total
        self._stale_reports.update(names)
        self._power_dirty.clear()

    def power_totals(self) -> array:
        """Per-gate power totals in topological order (treat as read-only).

        The array :meth:`total_power` sums; slot ``i`` belongs to the
        gate at :attr:`topo_index` position ``i``.
        """
        self._refresh_power()
        return self._slots

    def total_power(self) -> float:
        """Total modelled power, recomputing only power-dirty gates.

        One vectorised left fold over the slot array in topological
        order (:func:`~repro.core.optimizer.fold_power`), bit-identical
        for any edit history.
        """
        self._refresh_power()
        return fold_power(self._slots)

    def power(self) -> CircuitPowerReport:
        """A full :class:`CircuitPowerReport`, incrementally maintained.

        Reports are rebuilt only for gates repriced since the last
        call; their totals equal the slot array's (both are the
        kernel's left fold over the gate's nodes).
        """
        self._refresh_power()
        if self._stale_reports:
            names = sorted(self._stale_reports,
                           key=self._topo_index.__getitem__)
            self._power.update(self.power_kernel().reports(
                names, self._stats, self.po_load))
            self._stale_reports.clear()
        return CircuitPowerReport(fold_power(self._slots), dict(self._power),
                                  dict(self._stats))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Detach from the circuit's edit notifications."""
        if self._subscribed:
            self.circuit.remove_edit_listener(self._on_edit)
            self._subscribed = False

    def __enter__(self) -> "StatsCache":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"StatsCache({self.circuit.name!r}, backend={self.backend.name!r}, "
            f"dirty={len(self._dirty)})"
        )

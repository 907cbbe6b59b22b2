"""Flat structure-of-arrays lowering of a mapped circuit, plus kernels.

A :class:`CompiledCircuit` lowers a :class:`~repro.circuit.netlist.Circuit`
**once** into integer-indexed arrays — net/gate id maps, CSR-style
fanin and fanout index arrays, per-gate template/configuration codes,
pin-capacitance and load tables — and evaluates the hot loops of the
reproduction on index ranges instead of object traversals:

* from-scratch analytic (P, D) propagation (:meth:`stats_arrays` /
  :meth:`local_stats`) and dirty-cone resettling (:meth:`resettle_stats`);
* ``net_load`` summation for every net at once (:meth:`net_loads`);
* arrival-time propagation, full (:meth:`arrivals_full`,
  :meth:`analyze_timing`) and per-level re-timing (:meth:`retime_gates`)
  for the incremental :class:`~repro.incremental.timing.TimingCache`.

**The equivalence contract.**  Every kernel reproduces the object-graph
arithmetic *operation for operation*: per-minterm weight products and
masked sums follow :meth:`repro.boolean.truthtable.TruthTable.probability`
(both kernels evaluate their tables through the one shared
:class:`_TableSet`), clamping follows ``repro.stochastic.density._clamp``,
load summation follows :func:`repro.gates.capacitance.net_load` in the
same gate-creation-then-template-pin sink order, and per-pin Elmore
delays use the load-affine terms of
:func:`repro.timing.elmore.stack_delay_terms` accumulated in
:func:`~repro.timing.elmore.stack_delay`'s order.  Every float sum
here is a sequential left fold in a stated order — a masked sum adds
its minterm weights in ascending minterm order, in the oracle and in
the kernels — so batching gates does not change a single bit, the
property ``tests/test_compiled.py`` locks with hypothesis edit
sequences.

Work is batched by **(logic level, class)**: within a level no gate
depends on another, and gates sharing a class (same template function
for statistics; same template *and* configuration for timing) share
truth-table selections and delay terms, so one vectorised evaluation
covers the whole group.

Lowering is memoised per circuit (:func:`get_compiled`): the local
ECO edits never change connectivity, so the structure arrays stay
valid for the circuit's lifetime, and an edit listener keeps the
per-gate class codes current — :meth:`Circuit.apply_edit` is the only
way to change a gate's template or configuration, so no entry point
re-scans the gates.  Structural mutation invalidates the memo (see
:meth:`Circuit._invalidate_structure`); the per-class tables survive
it, because they live on the content-keyed compiled gates
(:func:`stats_class`, :func:`timing_class`), so a re-lowering
rebuilds arrays only.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..boolean.truthtable import TruthTable, _minterm_matrix
from ..circuit.netlist import Circuit, CircuitError, GateInstance
from ..gates.capacitance import TechParams, pin_terminal_counts
from ..gates.library import GateConfig
from ..gates.network import OUT, CompiledGate
from ..obs.metrics import REGISTRY as _METRICS
from ..stochastic.density import _EPS as _STATS_EPS
from ..stochastic.signal import SignalStats
from ..timing.elmore import LN2, gate_pin_delay_terms
from ..timing.sta import TimingReport, build_timing_report

__all__ = ["CompiledCircuit", "get_compiled", "stats_class", "timing_class"]


def _tt_selection(tt: TruthTable) -> np.ndarray:
    """Ascending minterm indices where ``tt`` is 1.

    The exact unpacking :meth:`TruthTable.probability` performs before
    its masked sum, so a left fold of ``weights[selection]`` adds the
    same floats in the same order as the oracle.
    """
    n = tt.nvars
    nbytes = (1 << n) // 8 if n >= 3 else 1
    packed = np.frombuffer(tt.bits.to_bytes(nbytes, "little"), dtype=np.uint8)
    mask = np.unpackbits(packed, bitorder="little")[: 1 << n].astype(bool)
    return np.flatnonzero(mask)


#: Selection padding: the all-zero weight column :meth:`_TableSet.evaluate`
#: appends after the minterm weights.
_ZERO = -1


class _TableSet:
    """The truth-table evaluator both kernels share.

    Column ``c`` of :meth:`evaluate` is :meth:`TruthTable.probability`
    of table ``c``, bit for bit.  Constant tables (and zero-variable
    ones, the oracle's early-out) are exact 0.0/1.0 values in
    :attr:`const`; the rest are grouped one group per ``L // 8`` of
    their selection length ``L``, padded at the end with :data:`_ZERO`
    to the group's longest.  The bucketing only bounds the padding: a
    padding element adds an exact ``+0.0`` at the end of a left fold.
    """

    __slots__ = ("mat", "const", "groups")

    def __init__(self, arity: int, const: np.ndarray, selections) -> None:
        """``selections`` yields ``(column, selection)`` pairs."""
        self.mat = _minterm_matrix(arity) if arity else None
        self.const = const
        buckets: Dict[int, list] = {}
        for col, sel in selections:
            buckets.setdefault(len(sel) // 8, []).append((col, sel))
        groups = []
        for entries in buckets.values():
            sels = np.full((len(entries), max(len(sel) for _, sel in entries)),
                           _ZERO)
            for row, (_, sel) in enumerate(entries):
                sels[row, :len(sel)] = sel
            groups.append((np.asarray([col for col, _ in entries]), sels))
        self.groups = tuple(groups)

    @classmethod
    def of(cls, arity: int, tables: List[TruthTable]) -> "_TableSet":
        """The evaluator of ``tables``, each over the same ``arity`` pins."""
        const = np.zeros(len(tables))
        selections = []
        for col, tt in enumerate(tables):
            if len(tt.vars) == 0 or tt.is_constant():
                const[col] = 1.0 if tt.bits else 0.0
            else:
                selections.append((col, _tt_selection(tt)))
        return cls(arity, const, selections)

    def evaluate(self, p_in: np.ndarray) -> np.ndarray:
        """``(rows, tables)`` probabilities of ``(rows, arity)`` pin inputs.

        Per row the minterm weights (plus the :data:`_ZERO` column), per
        group one gather and one left fold over its last axis in
        ascending minterm order, then the ``[0, 1]`` clamp.
        """
        rows = len(p_in)
        vals = np.empty((rows, len(self.const)))
        vals[:] = self.const
        if self.groups:
            weights = np.zeros((rows, len(self.mat) + 1))
            np.prod(
                np.where(self.mat[None, :, :] == 1,
                         p_in[:, None, :], 1.0 - p_in[:, None, :]),
                axis=2, out=weights[:, :-1],
            )
            for cols, sels in self.groups:
                vals[:, cols] = np.cumsum(weights[:, sels], axis=-1)[..., -1]
            np.minimum(1.0, np.maximum(0.0, vals, out=vals), out=vals)
        return vals


#: Process-global kernel metrics (:mod:`repro.obs.metrics`): invocation
#: counts and batch-size distributions of the flat-array kernels.
#: Module-level handles — one registry lookup at import time, then a
#: slotted ``+=`` per kernel call.
_STATS_GROUP_CALLS = _METRICS.counter("compiled.stats_group.calls")
_STATS_GROUP_SIZES = _METRICS.histogram("compiled.stats_group.batch_size")
_RETIME_CALLS = _METRICS.counter("compiled.retime.calls")
_RETIME_SIZES = _METRICS.histogram("compiled.retime.batch_size")
_LOADS_CALLS = _METRICS.counter("compiled.net_loads.calls")
_LOADS_REBUILDS = _METRICS.counter("compiled.net_loads.rebuilds")


class _StatsClass:
    """Per-template data of the (P, D) kernel (function, not ordering)."""

    __slots__ = ("arity", "tables", "tt_bits")

    def __init__(self, output_tt: TruthTable):
        self.arity = output_tt.nvars
        #: Dense truth-table bits — the sampled kernel keys its word
        #: evaluators (bitsim._compile_word_function) on (arity, bits).
        self.tt_bits = output_tt.bits
        #: Table 0 is the output function, table ``1 + j`` the Boolean
        #: difference with respect to pin ``j``.
        self.tables = _TableSet.of(self.arity, [output_tt] + [
            output_tt.boolean_difference(pin) for pin in output_tt.vars])


class _TimingClass:
    """Per-(template, configuration) data of the arrival kernel."""

    __slots__ = ("arity", "out_terminals", "pin_counts", "_compiled",
                 "_config", "_delay_cache")

    def __init__(self, compiled: CompiledGate, config: GateConfig):
        self.arity = len(compiled.inputs)
        self.out_terminals = compiled.terminal_counts[OUT]
        #: Transistor gate-terminal count per pin, in pin order (the
        #: fanin slots' pin-capacitance table).
        counts = pin_terminal_counts(compiled)
        self.pin_counts = tuple(counts[pin] for pin in compiled.inputs)
        self._compiled = compiled
        self._config = config
        self._delay_cache: Dict[TechParams, tuple] = {}

    def delay_data(self, tech: TechParams) -> tuple:
        """``(base_cap, per-pin (fall_R, fall_terms, rise_R, rise_terms))``.

        ``base_cap`` is the load-independent part of the output
        capacitance, computed with :func:`gate_pin_delay`'s operation
        order so ``base_cap + load`` lands on the identical double.
        """
        data = self._delay_cache.get(tech)
        if data is None:
            base_cap = self.out_terminals * tech.c_diff + tech.c_wire
            pins = []
            for pin in self._compiled.inputs:
                (fall_r, fall_terms), (rise_r, rise_terms) = \
                    gate_pin_delay_terms(self._compiled, self._config, pin,
                                         tech)
                pins.append((fall_r, fall_terms, rise_r, rise_terms))
            data = (base_cap, tuple(pins))
            self._delay_cache[tech] = data
        return data

    def pin_delays(self, tech: TechParams, loads: np.ndarray) -> list:
        """Per-pin delay arrays (pin order) at each of the output ``loads``.

        Each entry is :func:`gate_pin_delay` of that pin — the worst of
        the falling and rising Elmore delays — batched over ``loads``
        with its operation order, so every float is identical.
        """
        base_cap, pins = self.delay_data(tech)
        output_cap = base_cap + loads
        delays = []
        for fall_r, fall_terms, rise_r, rise_terms in pins:
            tau = output_cap * fall_r
            for term in fall_terms:
                tau = tau + term
            fall = LN2 * tau
            tau = output_cap * rise_r
            for term in rise_terms:
                tau = tau + term
            delays.append(np.maximum(fall, LN2 * tau))
        return delays


# Class tables live on the compiled gate they are derived from.  The
# library's content-keyed compile cache (key: configuration key plus
# pin order) hands every gate, lowering and library instance with the
# same configuration the same ``CompiledGate``, so the tables are built
# once per content key and a re-lowering only rebuilds its arrays.
def stats_class(compiled: CompiledGate) -> _StatsClass:
    """The statistics tables of ``compiled``'s function, built once."""
    cls = getattr(compiled, "_stats_class", None)
    if cls is None:
        cls = _StatsClass(compiled.output_tt)
        compiled._stats_class = cls
    return cls


def timing_class(compiled: CompiledGate, config: GateConfig) -> _TimingClass:
    """The arrival tables of ``config`` (as ``compiled``), built once."""
    cls = getattr(compiled, "_timing_class", None)
    if cls is None:
        cls = _TimingClass(compiled, config)
        compiled._timing_class = cls
    return cls


class CompiledCircuit:
    """The flat form of one circuit; see the module docstring."""

    def __init__(self, circuit: Circuit):
        self.circuit = circuit
        # The circuit's memoised integer structure record supplies ids,
        # CSR arrays, levels and the topological order; the lowering
        # adds only the class codes and capacitance tables.
        record = circuit.structure()
        if record.undriven:
            circuit.validate()  # raises the undriven-net error
        record.check_acyclic()
        gates = record.gates  # creation order defines gate ids
        num_gates = len(gates)
        self.num_inputs = record.num_inputs
        #: Net names: primary inputs then gate outputs, in creation
        #: order — gate ``g``'s output net id is ``num_inputs + g``.
        self.nets: Tuple[str, ...] = record.nets
        self.net_id: Dict[str, int] = record.net_id
        self.gate_names: Tuple[str, ...] = record.gate_names
        self.gate_id: Dict[str, int] = record.gate_id
        self.out_net = self.num_inputs + np.arange(num_gates, dtype=np.int64)
        self.is_output = np.zeros(len(self.nets), dtype=bool)
        for net in circuit.outputs:
            self.is_output[self.net_id[net]] = True

        # CSR fanin: gate g's pins (template order) occupy slots
        # fanin_ptr[g]:fanin_ptr[g+1].  Slot order is therefore the
        # gate-creation-then-template-pin order net_load sums in.
        self.fanin_ptr = record.fanin_ptr
        self.fanin_net = record.fanin_net
        self.topo_index = record.topo_index
        self.level = record.level
        order = np.argsort(self.level, kind="stable")
        boundaries = np.flatnonzero(np.diff(self.level[order])) + 1
        #: Gate ids grouped by ascending logic level.
        self._levels: List[np.ndarray] = (
            np.split(order, boundaries) if num_gates else []
        )

        # Deduplicated gate->sink-gate adjacency (CSR), for dirty-cone
        # descent; the same lists as FanoutIndex.gate_sinks.
        self._gs_ptr = record.gs_ptr
        self._gs_val = record.gs_val

        # Class tables.  Statistics classes key on the template alone
        # (output functions are ordering-independent); timing classes
        # key on (template, configuration).
        self._stats_classes: List[_StatsClass] = []
        self._stats_keys: Dict[str, int] = {}
        self._timing_classes: List[_TimingClass] = []
        self._timing_keys: Dict[tuple, int] = {}
        stats_codes: List[int] = []
        timing_codes: List[int] = []
        slot_counts: List[int] = []
        for gate in gates:
            stats_codes.append(self._stats_code_for(gate))
            code = self._timing_code_for(gate)
            timing_codes.append(code)
            slot_counts.extend(self._timing_classes[code].pin_counts)
        self.stats_code = np.asarray(stats_codes, dtype=np.int64)
        self.timing_code = np.asarray(timing_codes, dtype=np.int64)
        self.slot_count = np.asarray(slot_counts, dtype=np.int64)
        self._stats_plan: Optional[list] = None
        #: Loads depend on connectivity alone (every pin of every
        #: template drives one N and one P device), so this lives as
        #: long as the lowering does.
        self._loads_cache: Dict[tuple, np.ndarray] = {}

        circuit.add_edit_listener(self._on_edit)
        self._subscribed = True
        #: Set by :meth:`close` (structural mutation or explicit
        #: cleanup): the arrays no longer describe the circuit and the
        #: batch entry points refuse service instead of silently
        #: serving stale SoA data.
        self.stale = False

    # ------------------------------------------------------------------
    # Class-code maintenance
    # ------------------------------------------------------------------
    def _stats_code_for(self, gate: GateInstance) -> int:
        key = gate.template.name
        code = self._stats_keys.get(key)
        if code is None:
            code = len(self._stats_classes)
            self._stats_classes.append(stats_class(gate.compiled()))
            self._stats_keys[key] = code
        return code

    def _timing_code_for(self, gate: GateInstance) -> int:
        key = (gate.template.name, gate.effective_config().key())
        code = self._timing_keys.get(key)
        if code is None:
            code = len(self._timing_classes)
            self._timing_classes.append(
                timing_class(gate.compiled(), gate.effective_config()))
            self._timing_keys[key] = code
        return code

    def _on_edit(self, gate_name: str, kind: str) -> None:
        if kind == "structure":
            # Connectivity changed: gate/net ids, CSR arrays and level
            # groups are all invalid.  The memoised instance is closed
            # by Circuit._invalidate_structure before listeners fire,
            # so this only triggers for directly-constructed instances
            # — mark them stale too instead of patching codes into
            # arrays that no longer match the circuit.
            self.close()
            return
        gid = self.gate_id.get(gate_name)
        if gid is None:  # pragma: no cover - structure memo is invalidated
            return       # before new gates can be edited
        # The edit API is the only way to change a gate's template or
        # configuration (GateInstance refuses direct assignment), so
        # this listener alone keeps the class codes current.
        gate = self.circuit.gate(gate_name)
        if kind == "template":
            self.stats_code[gid] = self._stats_code_for(gate)
            self._stats_plan = None
        self.timing_code[gid] = self._timing_code_for(gate)

    def close(self) -> None:
        """Detach from the circuit's edit notifications (idempotent).

        A closed instance is :attr:`stale`: it can no longer track
        edits, so its batch entry points raise instead of serving
        arrays that may not match the circuit.  Re-acquire a fresh
        lowering through :func:`get_compiled`.
        """
        self.stale = True
        if self._subscribed:
            self.circuit.remove_edit_listener(self._on_edit)
            self._subscribed = False

    def _check_fresh(self) -> None:
        if self.stale:
            raise CircuitError(
                f"stale CompiledCircuit for {self.circuit.name!r}: the "
                f"circuit was structurally edited (or this lowering was "
                f"closed); re-acquire it with get_compiled(circuit)"
            )

    # ------------------------------------------------------------------
    # Shared gather helpers
    # ------------------------------------------------------------------
    def _fanin_matrix(self, gate_ids: np.ndarray, arity: int) -> np.ndarray:
        """Fanin net ids of same-arity gates as a dense (G, arity) matrix."""
        starts = self.fanin_ptr[gate_ids]
        return self.fanin_net[starts[:, None] + np.arange(arity)]

    def gate_sinks(self, gid: int) -> np.ndarray:
        """Deduplicated sink gate ids of one gate's output."""
        return self._gs_val[self._gs_ptr[gid]:self._gs_ptr[gid + 1]]

    # ------------------------------------------------------------------
    # (P, D) kernels
    # ------------------------------------------------------------------
    def _stats_group(self, cls: _StatsClass, fanin: np.ndarray,
                     prob: np.ndarray, dens: np.ndarray):
        """(P, D) of one same-class gate batch from its fanin columns."""
        p_in = prob[fanin]
        d_in = dens[fanin]
        count = len(fanin)
        _STATS_GROUP_CALLS.inc()
        _STATS_GROUP_SIZES.observe(count)
        # TruthTable.probability of the output and of every pin's
        # Boolean difference, clamped to [0, 1].
        vals = cls.tables.evaluate(p_in)
        d_out = np.zeros(count)
        for j in range(cls.arity):
            d_col = d_in[:, j]
            # local_gate_stats skips pins with zero density; adding the
            # product there would be a no-op, but np.where keeps the
            # accumulation literally identical.
            d_out = np.where(d_col != 0.0, d_out + vals[:, 1 + j] * d_col,
                             d_out)
        # _clamp: [0, 1] always (evaluate's clamp), the epsilon band
        # only for live signals.
        p_out = vals[:, 0]
        p_out = np.where(d_out > 0.0, np.minimum(
            1.0 - _STATS_EPS, np.maximum(_STATS_EPS, p_out)), p_out)
        return p_out, d_out

    def _stats_full_plan(self) -> list:
        plan = self._stats_plan
        if plan is None:
            plan = []
            for ids in self._levels:
                codes = self.stats_code[ids]
                for code in np.unique(codes):
                    sub = ids[codes == code]
                    cls = self._stats_classes[code]
                    plan.append((cls, sub, self._fanin_matrix(sub, cls.arity)))
            self._stats_plan = plan
        return plan

    def stats_arrays(self, input_stats: Mapping[str, SignalStats]):
        """From-scratch (P, D) of every net as ``(prob, dens)`` arrays."""
        self._check_fresh()
        prob = np.zeros(len(self.nets))
        dens = np.zeros(len(self.nets))
        for i, net in enumerate(self.circuit.inputs):
            stats = input_stats[net]
            prob[i] = stats.probability
            dens[i] = stats.density
        for cls, ids, fanin in self._stats_full_plan():
            p_out, d_out = self._stats_group(cls, fanin, prob, dens)
            out = self.out_net[ids]
            prob[out] = p_out
            dens[out] = d_out
        return prob, dens

    def local_stats(
        self, input_stats: Mapping[str, SignalStats]
    ) -> Dict[str, SignalStats]:
        """Drop-in for :func:`repro.stochastic.density.local_stats`."""
        prob, dens = self.stats_arrays(input_stats)
        stats: Dict[str, SignalStats] = {
            net: input_stats[net] for net in self.circuit.inputs
        }
        for gid, name in enumerate(self.gate_names):
            out = self.num_inputs + gid
            stats[self.nets[out]] = SignalStats(float(prob[out]),
                                                float(dens[out]))
        return stats

    def resettle_stats(self, gate_ids: np.ndarray, prob: np.ndarray,
                       dens: np.ndarray) -> None:
        """Recompute the given gates' outputs in place (dirty-cone update).

        ``gate_ids`` may arrive in any order; evaluation is batched by
        ascending logic level, so every gate reads settled fanins —
        exactly the values a topological walk of the per-gate oracle
        (:func:`~repro.stochastic.density.local_gate_stats`) would read,
        hence bit-identical updates.
        """
        self._check_fresh()
        if not len(gate_ids):
            return
        levels = self.level[gate_ids]
        order = np.argsort(levels, kind="stable")
        sorted_ids = gate_ids[order]
        boundaries = np.flatnonzero(np.diff(levels[order])) + 1
        for chunk in np.split(sorted_ids, boundaries):
            codes = self.stats_code[chunk]
            for code in np.unique(codes):
                sub = chunk[codes == code]
                cls = self._stats_classes[code]
                fanin = self._fanin_matrix(sub, cls.arity)
                p_out, d_out = self._stats_group(cls, fanin, prob, dens)
                out = self.out_net[sub]
                prob[out] = p_out
                dens[out] = d_out

    # ------------------------------------------------------------------
    # Load and arrival kernels
    # ------------------------------------------------------------------
    def net_loads(self, tech: TechParams, po_load: float) -> np.ndarray:
        """External capacitance of every net at once (treat as read-only).

        ``np.add.at`` accumulates the per-slot pin capacitances in slot
        order — the gate-creation-then-template-pin order
        :func:`~repro.gates.capacitance.net_load` sums in — and the
        primary-output load lands last, so every entry is bit-identical
        to the object-graph summation for that net.
        """
        self._check_fresh()
        key = (tech, float(po_load))
        _LOADS_CALLS.inc()
        loads = self._loads_cache.get(key)
        if loads is None:
            _LOADS_REBUILDS.inc()
            loads = np.zeros(len(self.nets))
            np.add.at(loads, self.fanin_net, self.slot_count * tech.c_gate)
            loads[self.is_output] += po_load
            self._loads_cache[key] = loads
        return loads

    def _arrival_group(self, cls: _TimingClass, fanin: np.ndarray,
                       arr: np.ndarray, loads: np.ndarray,
                       out_ids: np.ndarray, tech: TechParams):
        """Arrival + latest-pin of one same-class batch (strict-> ties)."""
        best: Optional[np.ndarray] = None
        best_pin: Optional[np.ndarray] = None
        for j, delay in enumerate(cls.pin_delays(tech, loads[out_ids])):
            candidate = arr[fanin[:, j]] + delay
            if best is None:
                best = candidate
                best_pin = np.zeros(len(candidate), dtype=np.int64)
            else:
                better = candidate > best
                best = np.where(better, candidate, best)
                best_pin = np.where(better, j, best_pin)
        return best, best_pin

    def retime_gates(self, gate_ids: np.ndarray, arr: np.ndarray,
                     loads: np.ndarray, tech: TechParams):
        """Recompute arrivals of one same-level batch.

        Returns ``(gids, out_net_ids, arrivals, pred_net_ids)`` with
        rows concatenated over the internal class grouping (order
        within the level is immaterial — no intra-level dependencies).
        """
        self._check_fresh()
        parts_g, parts_o, parts_a, parts_p = [], [], [], []
        _RETIME_CALLS.inc()
        _RETIME_SIZES.observe(len(gate_ids))
        codes = self.timing_code[gate_ids]
        for code in np.unique(codes):
            sub = gate_ids[codes == code]
            cls = self._timing_classes[code]
            fanin = self._fanin_matrix(sub, cls.arity)
            out_ids = self.out_net[sub]
            best, best_pin = self._arrival_group(cls, fanin, arr, loads,
                                                 out_ids, tech)
            parts_g.append(sub)
            parts_o.append(out_ids)
            parts_a.append(best)
            parts_p.append(fanin[np.arange(len(sub)), best_pin])
        return (np.concatenate(parts_g), np.concatenate(parts_o),
                np.concatenate(parts_a), np.concatenate(parts_p))

    def arrivals_full(self, tech: TechParams, po_load: float,
                      input_arrivals: Optional[Mapping[str, float]] = None):
        """From-scratch arrival sweep: ``(arrivals, pred_net)`` arrays.

        ``pred_net[gid]`` is the net id of the gate's latest-arriving
        fanin (first pin on exact ties, like
        :func:`~repro.timing.sta.gate_arrival`).
        """
        self._check_fresh()
        arr = np.zeros(len(self.nets))
        if input_arrivals is not None:
            for i, net in enumerate(self.circuit.inputs):
                arr[i] = float(input_arrivals[net])
        pred_net = np.full(len(self.gate_names), -1, dtype=np.int64)
        loads = self.net_loads(tech, po_load)
        for ids in self._levels:
            gids, out_ids, arrivals, preds = self.retime_gates(
                ids, arr, loads, tech)
            arr[out_ids] = arrivals
            pred_net[gids] = preds
        return arr, pred_net

    def analyze_timing(self, tech: TechParams, po_load: float,
                       input_arrivals: Optional[Mapping[str, float]] = None
                       ) -> TimingReport:
        """Drop-in for :func:`repro.timing.sta.analyze_timing`."""
        arr, pred_net = self.arrivals_full(tech, po_load, input_arrivals)
        arrivals = {net: float(arr[i]) for i, net in enumerate(self.nets)}
        predecessor: Dict[str, Optional[str]] = {
            net: None for net in self.circuit.inputs
        }
        for gid, name in enumerate(self.gate_names):
            predecessor[self.nets[self.num_inputs + gid]] = \
                self.nets[pred_net[gid]]
        return build_timing_report(arrivals, predecessor,
                                   self.circuit.outputs)

    def __repr__(self) -> str:
        return (
            f"CompiledCircuit({self.circuit.name!r}, "
            f"gates={len(self.gate_names)}, nets={len(self.nets)}, "
            f"levels={len(self._levels)})"
        )


def get_compiled(circuit: Circuit) -> CompiledCircuit:
    """The circuit's memoised :class:`CompiledCircuit` (lowered on first use).

    Stored alongside the circuit's other memoised structure, so the
    lowering survives ECO edits (an edit listener keeps class codes
    current) and is dropped — with its listener detached — on
    structural mutation.
    """
    compiled = circuit._structure.get("compiled")
    if compiled is None or compiled.stale:
        compiled = CompiledCircuit(circuit)
        circuit._structure["compiled"] = compiled
    return compiled

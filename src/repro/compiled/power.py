"""Class-shaped vectorized evaluation of the gate power model.

The per-gate power model (:meth:`GatePowerModel.gate_power`) prices
a gate per node, per pin — one :meth:`TruthTable.probability` call
each for ``H``, ``G`` and the two Boolean differences.  This module,
the engine behind :class:`~repro.incremental.cache.StatsCache`'s power
refresh, lowers that arithmetic the same way
:mod:`repro.compiled.circuit` lowers the (P, D) sweep: gates sharing a
(template, configuration) class share all node tables, so one pass
computes the per-minterm weight matrix of a whole same-class batch and
reduces every node's probability/transition columns at once.

**The equivalence contract.**  Bit-identical to
:class:`~repro.core.power_model.GatePowerModel` — every float comes
out of the same operations in the same order:

* per-minterm weights and masked sums follow
  :meth:`TruthTable.probability` (via ``_rowwise_selected_sum``, the
  1-D pairwise summation lift);
* the steady-state guard ``ph + pg <= eps -> 0`` and the conditioned
  formula's denominators reproduce
  :meth:`GatePowerModel.node_probability` /
  :meth:`~GatePowerModel._transition_fraction`, with ``np.where``
  substituting the guarded denominators so live lanes divide by the
  identical double;
* per-pin transition terms accumulate in pin order with the same
  skip-zero-density fold as :meth:`GatePowerModel.node_transitions`;
* node capacitances follow :func:`repro.gates.capacitance.node_capacitance`
  (class-constant intrinsic terms, per-gate output load added last) and
  node powers ``(factor * cap) * transitions`` keep the Python
  left-to-right association.

Power classes key on (template, configuration) — the exact key space
of the timing classes — so the kernel reuses the compiled circuit's
``timing_code`` bookkeeping and the compiled gates its classes already
hold.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..boolean.truthtable import TruthTable, _minterm_matrix
from ..core.power_model import (
    _EPS,
    GatePowerModel,
    GatePowerReport,
    NodePowerEntry,
)
from ..gates.network import OUT, CompiledGate
from ..obs.metrics import REGISTRY as _METRICS
from .circuit import CompiledCircuit, _rowwise_selected_sum, _tt_selection

__all__ = ["CompiledPowerKernel"]

#: Process-global kernel metrics: power-kernel invocation counts and
#: batch-size distribution (see :mod:`repro.compiled.circuit` for the
#: statistics/timing twins).
_POWER_EVAL_CALLS = _METRICS.counter("compiled.power_eval.calls")
_POWER_EVAL_SIZES = _METRICS.histogram("compiled.power_eval.batch_size")


def _table(tt: TruthTable) -> tuple:
    """``(selection, constant)`` form of one node table.

    Mirrors :meth:`TruthTable.probability`'s early-out: constants (and
    zero-variable tables) evaluate to an exact 0.0/1.0; everything
    else selects minterm weights.
    """
    if len(tt.vars) == 0 or tt.is_constant():
        return None, (1.0 if tt.bits else 0.0)
    return _tt_selection(tt), None


class _PowerClass:
    """Per-(template, configuration) data of the power kernel."""

    __slots__ = ("arity", "mat", "nodes", "is_out", "intrinsic_cap",
                 "node_h", "node_g", "node_dh", "node_dg")

    def __init__(self, compiled: CompiledGate):
        self.arity = len(compiled.inputs)
        self.mat = _minterm_matrix(self.arity) if self.arity else None
        self.nodes: Tuple[str, ...] = compiled.nodes
        self.is_out = tuple(node == OUT for node in self.nodes)
        #: Load-independent node capacitance terms, keyed by tech at
        #: evaluation time (config-independent transistor counts).
        self.intrinsic_cap = {
            node: compiled.terminal_counts[node] for node in self.nodes
        }
        self.node_h = [_table(compiled.h[node]) for node in self.nodes]
        self.node_g = [_table(compiled.g[node]) for node in self.nodes]
        self.node_dh = [
            [_table(compiled.dh[(node, pin)]) for pin in compiled.inputs]
            for node in self.nodes
        ]
        self.node_dg = [
            [_table(compiled.dg[(node, pin)]) for pin in compiled.inputs]
            for node in self.nodes
        ]

    def _prob(self, weights: Optional[np.ndarray], table: tuple,
              count: int) -> np.ndarray:
        sel, const = table
        if sel is None:
            return np.full(count, const)
        return np.minimum(1.0, np.maximum(
            0.0, _rowwise_selected_sum(weights, sel)))

    def evaluate(self, model: GatePowerModel, p_in: np.ndarray,
                 d_in: np.ndarray, loads: np.ndarray):
        """Node-level power of one same-class batch.

        Returns ``(caps, p_node, transitions, power, totals)`` — each a
        per-node list of per-gate columns (``totals`` a single column),
        every float bit-identical to :meth:`GatePowerModel.gate_power`.
        """
        count = len(loads)
        _POWER_EVAL_CALLS.inc()
        _POWER_EVAL_SIZES.observe(count)
        tech = model.tech
        factor = tech.switch_energy_factor
        if self.mat is not None:
            weights = np.prod(
                np.where(self.mat[None, :, :] == 1,
                         p_in[:, None, :], 1.0 - p_in[:, None, :]),
                axis=2,
            )
        else:  # pragma: no cover - zero-input cells do not occur
            weights = None
        caps, probs, trans, powers = [], [], [], []
        totals = np.zeros(count)
        for i, node in enumerate(self.nodes):
            is_out = self.is_out[i]
            # node_capacitance: intrinsic terms are class constants;
            # the external load lands last, output node only.
            base = self.intrinsic_cap[node] * tech.c_diff
            if is_out:
                cap = (base + tech.c_wire) + loads
            else:
                cap = np.full(count, base)
            ph = self._prob(weights, self.node_h[i], count)
            pg = self._prob(weights, self.node_g[i], count)
            ok = (ph + pg) > _EPS
            p_node = np.where(ok, ph / np.where(ok, ph + pg, 1.0), 0.0)
            total = np.zeros(count)
            for j in range(self.arity):
                d_col = d_in[:, j]
                p_dh = self._prob(weights, self.node_dh[i][j], count)
                if model.formula == "output-only":
                    frac = p_dh if is_out else 0.0
                elif model.formula == "independent":
                    p_dg = self._prob(weights, self.node_dg[i][j], count)
                    frac = p_dh * (1.0 - p_node) + p_dg * p_node
                else:  # "conditioned"
                    p_dg = self._prob(weights, self.node_dg[i][j], count)
                    okr = (1.0 - ph) > _EPS
                    rise = np.where(
                        okr,
                        (0.5 * p_dh) * np.minimum(
                            1.0,
                            (1.0 - p_node) / np.where(okr, 1.0 - ph, 1.0)),
                        0.0,
                    )
                    okf = (1.0 - pg) > _EPS
                    fall = np.where(
                        okf,
                        (0.5 * p_dg) * np.minimum(
                            1.0, p_node / np.where(okf, 1.0 - pg, 1.0)),
                        0.0,
                    )
                    frac = rise + fall
                # node_transitions skips zero-density pins; np.where
                # keeps the fold literally identical.
                total = np.where(d_col == 0.0, total, total + d_col * frac)
            transitions = np.where(ok, total, 0.0)
            power = (factor * cap) * transitions
            caps.append(cap)
            probs.append(p_node)
            trans.append(transitions)
            powers.append(power)
            # GatePowerReport.total is a left fold over the entries.
            totals = totals + power
        return caps, probs, trans, powers, totals


class CompiledPowerKernel:
    """Batched power pricing over one compiled circuit.

    Owns the (template, configuration) class registry; per-gate class
    membership rides on the compiled circuit's ``timing_code`` (same
    key space), so edit listeners keep it current for free.
    """

    def __init__(self, cc: CompiledCircuit, model: GatePowerModel):
        self.cc = cc
        self.model = model
        #: timing code -> _PowerClass, built lazily from the compiled
        #: gate the timing class already holds.
        self._classes: Dict[int, _PowerClass] = {}
        #: (template name, config key) -> _PowerClass, for candidate
        #: configurations not (yet) present on the circuit.
        self._by_key: Dict[tuple, _PowerClass] = {}

    def class_for_code(self, code: int) -> _PowerClass:
        cls = self._classes.get(code)
        if cls is None:
            timing_cls = self.cc._timing_classes[code]
            cls = _PowerClass(timing_cls._compiled)
            self._classes[code] = cls
        return cls

    def class_for_gate(self, compiled: CompiledGate, key: tuple) -> _PowerClass:
        """Class of an arbitrary candidate (template, config key)."""
        cls = self._by_key.get(key)
        if cls is None:
            cls = _PowerClass(compiled)
            self._by_key[key] = cls
        return cls

    # ------------------------------------------------------------------
    def _gather(self, gids: Sequence[int], arity: int,
                stats: Mapping) -> tuple:
        """Pin (P, D) matrices of same-arity gates from a stats map."""
        cc = self.cc
        count = len(gids)
        p_in = np.empty((count, arity))
        d_in = np.empty((count, arity))
        for row, gid in enumerate(gids):
            start = cc.fanin_ptr[gid]
            for j in range(arity):
                s = stats[cc.nets[cc.fanin_net[start + j]]]
                p_in[row, j] = s.probability
                d_in[row, j] = s.density
        return p_in, d_in

    def reports(self, names: Sequence[str], stats: Mapping,
                po_load: float) -> Dict[str, GatePowerReport]:
        """Fresh :class:`GatePowerReport` per gate, batched by class.

        ``stats`` maps net name to :class:`SignalStats` (the cache's
        current map); ``po_load`` is the resolved primary-output load.
        Bit-identical to calling :meth:`GatePowerModel.gate_power` per
        gate with loads from :func:`~repro.gates.capacitance.net_load`.
        """
        cc = self.cc
        model = self.model
        loads = cc.net_loads(model.tech, po_load)
        gids = np.fromiter((cc.gate_id[n] for n in names), dtype=np.int64,
                           count=len(names))
        out: Dict[str, GatePowerReport] = {}
        if not len(gids):
            return out
        codes = cc.timing_code[gids]
        for code in np.unique(codes):
            sub = gids[codes == code]
            cls = self.class_for_code(int(code))
            p_in, d_in = self._gather(sub, cls.arity, stats)
            gate_loads = loads[cc.out_net[sub]]
            caps, probs, trans, powers, _ = cls.evaluate(
                model, p_in, d_in, gate_loads)
            for row, gid in enumerate(sub):
                entries = tuple(
                    NodePowerEntry(
                        node,
                        float(caps[i][row]),
                        float(probs[i][row]),
                        float(trans[i][row]),
                        float(powers[i][row]),
                    )
                    for i, node in enumerate(cls.nodes)
                )
                out[cc.gate_names[gid]] = GatePowerReport(entries, model.tech)
        return out

    def gate_totals(self, names: Sequence[str], stats: Mapping,
                    po_load: float) -> np.ndarray:
        """Total power per gate (no report objects), batched by class."""
        cc = self.cc
        model = self.model
        loads = cc.net_loads(model.tech, po_load)
        gids = np.fromiter((cc.gate_id[n] for n in names), dtype=np.int64,
                           count=len(names))
        totals = np.empty(len(gids))
        if not len(gids):
            return totals
        codes = cc.timing_code[gids]
        positions = np.arange(len(gids))
        for code in np.unique(codes):
            where = codes == code
            sub = gids[where]
            cls = self.class_for_code(int(code))
            p_in, d_in = self._gather(sub, cls.arity, stats)
            *_, batch_totals = cls.evaluate(model, p_in, d_in,
                                            loads[cc.out_net[sub]])
            totals[positions[where]] = batch_totals
        return totals

"""Class-shaped vectorized evaluation of the gate power model.

The per-gate power model (:meth:`GatePowerModel.gate_power`) prices
a gate per node, per pin — one :meth:`TruthTable.probability` call
each for ``H``, ``G`` and the two Boolean differences.  This module,
the engine behind :class:`~repro.incremental.cache.StatsCache`'s power
refresh and the search's batch pricer, lowers that arithmetic the same
way :mod:`repro.compiled.circuit` lowers the (P, D) sweep: gates
sharing a (template, configuration) class share all node tables, so
one pass computes the per-minterm weight matrix of a whole same-class
batch and reduces every node table at once.

**The table program.**  A :class:`_PowerClass` lays every node table
out as a column of a ``(lanes, width)`` node grid — ``H`` and ``G``
per node, ``dH``/``dG`` per node and pin — and evaluates the columns
with the truth-table evaluator the (P, D) kernel shares
(:class:`~repro.compiled.circuit._TableSet`: exact 0.0/1.0 constants,
the rest one gather and one left fold per selection-length group); the
node and pin arithmetic then runs on ``(rows, lanes, width)`` blocks.
A single configuration is one lane.  :meth:`_PowerClass.stacked`
concatenates the programs of a gate's candidate configurations into
one lane each, padding nodes to the widest lane, so one call prices a
whole candidate set; :func:`stacked_class` memoises it per candidate
set for its two consumers, the paper's optimiser and the search's
batch pricer.

**The equivalence contract.**  Bit-identical to
:class:`~repro.core.power_model.GatePowerModel` — every float comes
out of the same operations in the same order:

* per-minterm weights and masked sums follow
  :meth:`TruthTable.probability`: each ``(row, table)`` entry is a
  left fold of its selected weights in ascending minterm order,
  whatever the leading dimensions.  A padding element selects an
  all-zero weight column at the end of the fold, so it adds an exact
  ``+0.0``;
* the steady-state guard ``ph + pg <= eps -> 0`` and the conditioned
  formula's denominators reproduce
  :meth:`GatePowerModel.node_probability` /
  :meth:`~GatePowerModel._transition_fraction`, with ``np.where``
  substituting the guarded denominators so live lanes divide by the
  identical double;
* per-pin transition terms accumulate sequentially in pin order with
  the same skip-zero-density fold as
  :meth:`GatePowerModel.node_transitions`;
* node capacitances follow :func:`repro.gates.capacitance.node_capacitance`
  (class-constant intrinsic terms, per-gate output load added last) and
  node powers ``(factor * cap) * transitions`` keep the Python
  left-to-right association;
* a gate total is a left fold over its nodes in node order.  A padded
  node has constant-0 tables and zero capacitance, so it prices to an
  exact 0.0 and adds ``+0.0`` after the lane's own nodes.

Power classes key on (template, configuration) — the exact key space
of the timing classes — so the kernel reuses the compiled circuit's
``timing_code`` bookkeeping.  The tables themselves live on the
compiled gate (:func:`power_class`), which the library's content-keyed
compile cache shares, so they are built once per configuration and
outlive any lowering.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..core.power_model import (
    _EPS,
    GatePowerModel,
    GatePowerReport,
    NodePowerEntry,
)
from ..gates.library import GateConfig, GateTemplate
from ..gates.network import OUT, CompiledGate
from ..obs.metrics import REGISTRY as _METRICS
from .circuit import CompiledCircuit, _TableSet

__all__ = ["CompiledPowerKernel", "power_class", "stacked_class"]

#: Process-global kernel metrics: power-kernel invocation counts and
#: batch-size distribution (see :mod:`repro.compiled.circuit` for the
#: statistics/timing twins).
_POWER_EVAL_CALLS = _METRICS.counter("compiled.power_eval.calls")
_POWER_EVAL_SIZES = _METRICS.histogram("compiled.power_eval.batch_size")


def _layout(lanes: int, width: int, arity: int) -> tuple:
    """Column numbers of a ``lanes x width`` node grid's tables.

    Four consecutive blocks — ``H`` and ``G`` per (lane, node), then
    ``dH`` and ``dG`` per (lane, node, pin) — each in row-major order,
    so one gathered row reshapes straight into the node grid.
    """
    size = lanes * width
    cols = np.arange(size * (2 + 2 * arity))
    per_pin = size * arity
    return (cols[:size].reshape(lanes, width),
            cols[size:2 * size].reshape(lanes, width),
            cols[2 * size:2 * size + per_pin].reshape(lanes, width, arity),
            cols[2 * size + per_pin:].reshape(lanes, width, arity))


class _PowerClass:
    """The table program of one gate configuration, or of a stacked set.

    Every node table (``H`` and ``G`` per node, ``dH``/``dG`` per node
    and pin) is one column of a ``(lanes, width)`` node grid: one lane
    for a single configuration, one lane per candidate for a stacked
    candidate set (:meth:`stacked`).  The columns are evaluated by the
    kernels' shared truth-table evaluator
    (:class:`~repro.compiled.circuit._TableSet`, in :attr:`tables`), so
    :meth:`evaluate` prices the whole grid with one gather and one left
    fold per selection-length group.
    """

    __slots__ = ("arity", "nodes", "lanes", "width", "is_out", "counts",
                 "tables")

    def __init__(self, compiled: CompiledGate):
        arity = len(compiled.inputs)
        self.arity = arity
        self.nodes: Optional[Tuple[str, ...]] = compiled.nodes
        self.lanes = 1
        self.width = len(self.nodes)
        self.is_out = np.asarray([[node == OUT for node in self.nodes]])
        #: Load-independent node capacitance terms as terminal counts
        #: (config-independent); scaled by the tech at evaluation time.
        self.counts = np.asarray(
            [[compiled.terminal_counts[node] for node in self.nodes]],
            dtype=float)
        tables = [compiled.h[node] for node in self.nodes]
        tables += [compiled.g[node] for node in self.nodes]
        for source in (compiled.dh, compiled.dg):
            tables += [source[(node, pin)] for node in self.nodes
                       for pin in compiled.inputs]
        self.tables = _TableSet.of(arity, tables)

    @classmethod
    def stacked(cls, parts: Sequence["_PowerClass"]) -> "_PowerClass":
        """One program pricing every configuration in ``parts`` at once.

        ``parts`` are single-lane classes of one arity; lane ``k`` is
        ``parts[k]``, its nodes padded to the widest part.  A padded
        node has constant-0 tables and zero capacitance, so it prices
        to an exact 0.0 and adds ``+0.0`` at the end of its lane's
        node fold.
        """
        arity = parts[0].arity
        width = max(part.width for part in parts)
        grid = _layout(len(parts), width, arity)
        self = cls.__new__(cls)
        self.arity = arity
        self.nodes = None
        self.lanes = len(parts)
        self.width = width
        self.is_out = np.zeros((self.lanes, width), dtype=bool)
        self.counts = np.zeros((self.lanes, width))
        const = np.zeros(self.lanes * width * (2 + 2 * arity))
        selections = []
        for k, part in enumerate(parts):
            n = part.width
            self.is_out[k, :n] = part.is_out[0]
            self.counts[k, :n] = part.counts[0]
            # The part's own column c lands on column remap[c].
            remap = np.concatenate([grid[0][k, :n], grid[1][k, :n],
                                    grid[2][k, :n].ravel(),
                                    grid[3][k, :n].ravel()])
            const[remap] = part.tables.const
            # Re-bucketing a padded selection keeps its L // 8 group.
            for cols, sels in part.tables.groups:
                selections.extend(zip(remap[cols].tolist(), sels))
        self.tables = _TableSet(arity, const, selections)
        return self

    def evaluate(self, model: GatePowerModel, p_in: np.ndarray,
                 d_in: np.ndarray, loads: np.ndarray):
        """Node-level power of ``rows`` gates on every lane of the grid.

        ``p_in``/``d_in`` are ``(rows, arity)`` pin statistics and
        ``loads`` the ``rows`` output loads.  Returns ``(caps, p_node,
        transitions, power, totals)``: the first four ``(rows, lanes,
        width)`` node grids, ``totals`` the ``(rows, lanes)`` per-lane
        node folds — every float bit-identical to
        :meth:`GatePowerModel.gate_power` of that lane's configuration.
        """
        rows = len(loads)
        _POWER_EVAL_CALLS.inc()
        _POWER_EVAL_SIZES.observe(rows * self.lanes)
        tech = model.tech
        factor = tech.switch_energy_factor
        arity = self.arity
        vals = self.tables.evaluate(p_in)
        grid = (rows, self.lanes, self.width)
        size = self.lanes * self.width
        per_pin = size * arity
        ph = vals[:, :size].reshape(grid)
        pg = vals[:, size:2 * size].reshape(grid)
        dh = vals[:, 2 * size:2 * size + per_pin].reshape(grid + (arity,))
        dg = vals[:, 2 * size + per_pin:].reshape(grid + (arity,))
        # node_capacitance: intrinsic terms are class constants; the
        # external load lands last, output node only.
        base = self.counts * tech.c_diff
        cap = np.where(self.is_out,
                       (base + tech.c_wire) + loads[:, None, None], base)
        ok = (ph + pg) > _EPS
        p_node = np.where(ok, ph / np.where(ok, ph + pg, 1.0), 0.0)
        if model.formula == "conditioned":
            okr = (1.0 - ph) > _EPS
            rise_scale = np.where(okr, 1.0 - ph, 1.0)
            okf = (1.0 - pg) > _EPS
            fall_scale = np.where(okf, 1.0 - pg, 1.0)
        total = np.zeros(grid)
        for j in range(arity):
            d_col = d_in[:, j, None, None]
            p_dh = dh[..., j]
            if model.formula == "output-only":
                frac = np.where(self.is_out, p_dh, 0.0)
            elif model.formula == "independent":
                p_dg = dg[..., j]
                frac = p_dh * (1.0 - p_node) + p_dg * p_node
            else:  # "conditioned"
                p_dg = dg[..., j]
                rise = np.where(
                    okr,
                    (0.5 * p_dh) * np.minimum(
                        1.0, (1.0 - p_node) / rise_scale),
                    0.0,
                )
                fall = np.where(
                    okf,
                    (0.5 * p_dg) * np.minimum(1.0, p_node / fall_scale),
                    0.0,
                )
                frac = rise + fall
            # node_transitions skips zero-density pins; np.where keeps
            # the pin-order fold literally identical.
            total = np.where(d_col == 0.0, total, total + d_col * frac)
        transitions = np.where(ok, total, 0.0)
        power = (factor * cap) * transitions
        # GatePowerReport.total is a left fold over the entries.
        totals = np.zeros(grid[:2])
        for i in range(self.width):
            totals = totals + power[:, :, i]
        return cap, p_node, transitions, power, totals


def power_class(compiled: CompiledGate) -> _PowerClass:
    """The power tables of one configuration, built once.

    Memoised on the compiled gate, like the statistics and timing
    tables (:func:`~repro.compiled.circuit.stats_class`), so they are
    keyed by content and outlive any one lowering.
    """
    cls = getattr(compiled, "_power_class", None)
    if cls is None:
        cls = _PowerClass(compiled)
        compiled._power_class = cls
    return cls


#: Stacked candidate programs, keyed by content (see :func:`stacked_class`).
_STACKS: Dict[tuple, _PowerClass] = {}


def stacked_class(template: GateTemplate,
                  configs: Sequence[GateConfig]) -> _PowerClass:
    """One program pricing ``configs`` of ``template``, a lane each, in order.

    Memoised on the compile cache's content key — the pin order plus
    every configuration key, in lane order — so the optimiser's
    per-template candidate sets and the search pricer's per-gate move
    sets are each stacked once per process.
    """
    key = (template.pins, tuple(config.key() for config in configs))
    stack = _STACKS.get(key)
    if stack is None:
        stack = _PowerClass.stacked([
            power_class(template.compile_config(config)) for config in configs
        ])
        _STACKS[key] = stack
    return stack


class CompiledPowerKernel:
    """Batched power pricing over one compiled circuit.

    Per-gate class membership rides on the compiled circuit's
    ``timing_code`` (the same (template, configuration) key space), so
    edit listeners keep it current for free; the class tables
    themselves live on the compiled gates (:func:`power_class`).
    """

    def __init__(self, cc: CompiledCircuit, model: GatePowerModel):
        self.cc = cc
        self.model = model

    def class_for_code(self, code: int) -> _PowerClass:
        """The power class of timing class ``code``."""
        return power_class(self.cc._timing_classes[code]._compiled)

    # ------------------------------------------------------------------
    def reports(self, names: Sequence[str], prob: np.ndarray,
                dens: np.ndarray,
                po_load: float) -> Dict[str, GatePowerReport]:
        """Fresh :class:`GatePowerReport` per gate, one kernel call per class.

        ``prob``/``dens`` are per-net (P, D) arrays over :attr:`cc`'s
        net ids (the cache's store); ``po_load`` is the resolved
        primary-output load.  Bit-identical to calling
        :meth:`GatePowerModel.gate_power` per gate with loads from
        :func:`~repro.gates.capacitance.net_load`.
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
            fanin = cc._fanin_matrix(sub, cls.arity)
            caps, probs, trans, powers, _ = cls.evaluate(
                model, prob[fanin], dens[fanin], loads[cc.out_net[sub]])
            columns = zip(caps[:, 0].tolist(), probs[:, 0].tolist(),
                          trans[:, 0].tolist(), powers[:, 0].tolist())
            for gid, (cap, p_node, tran, power) in zip(sub.tolist(),
                                                       columns):
                entries = tuple(map(NodePowerEntry, cls.nodes, cap, p_node,
                                    tran, power))
                out[cc.gate_names[gid]] = GatePowerReport(entries, model.tech)
        return out

    def gate_totals(self, names: Sequence[str], prob: np.ndarray,
                    dens: np.ndarray, po_load: float) -> np.ndarray:
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
            fanin = cc._fanin_matrix(sub, cls.arity)
            *_, batch_totals = cls.evaluate(model, prob[fanin], dens[fanin],
                                            loads[cc.out_net[sub]])
            totals[positions[where]] = batch_totals[:, 0]
        return totals

"""The paper's circuit optimisation algorithm (§4, Figure 3).

Figure 3 is one topological traversal of the mapped netlist.  For each
gate it gathers the (probability, density) statistics of its fanins
(OBTAIN_PROB_AND_DENS), exhaustively evaluates all transistor
reorderings under the extended power model and keeps the best
(FIND_BEST_REORDERING), then computes the output statistics with
Najm's transition density (CALCULATE_DENS) and moves on
(UPDATE_CIRCUIT_INFORMATION).

Because a gate's output function — hence its output (P, D) — does not
depend on the chosen ordering, the greedy per-gate choice is globally
optimal *with respect to the model* in a single pass (the paper's
monotonic-characteristic argument, §4.2).  A gate's load does not
depend on any ordering either (every pin drives one N and one P
device), so the traversal runs as one batch on the compiled kernels,
with every float unchanged: the statistics of every net come from one
(P, D) sweep before any decision, and every load from one sum.  One
stacked table program per template prices every configuration of that
template's gates in one kernel call
(:func:`repro.compiled.power.stacked_class`), and the choice is an
arg-min over lanes in configuration-key order.  The delay-aware
objectives read per-pin delays from the compiled timing tables; no
timing cache rides along.  :func:`~repro.core.reorder.evaluate_configurations`
and :func:`circuit_power` remain the per-gate oracles the batch is
tested against.

Four objectives:

``"best"``      minimise each gate's modelled power (the paper's optimiser);
``"worst"``     maximise it (the paper's pessimal reference point — Table 3
                reports best-versus-worst savings);
``"delay-constrained"``  minimise power among the configurations whose
                per-pin delays do not exceed the as-mapped configuration's
                (the paper's future-work direction (b): savings with no
                delay increase).
``"fastest"``   minimise each gate's worst pin-to-output delay — the
                *prior-art baseline* the paper improves on (Carlson &
                Chen, DAC'93, reordered for performance with "no power
                consumption reductions reported").  Deliberately
                power-blind: delay ties (frequent — permutations share
                the worst-case delay) resolve by configuration key, so
                any power effect is incidental, as in the prior art.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional

import numpy as np

from ..circuit.netlist import Circuit, GateInstance
from ..compiled.circuit import get_compiled, timing_class
from ..gates.capacitance import TechParams
from ..gates.library import GateConfig, GateTemplate
from ..obs import trace as _trace
from ..obs.metrics import REGISTRY as _METRICS
from ..stochastic.density import local_stats, propagate_stats
from ..stochastic.signal import SignalStats
from ..timing.sta import DEFAULT_PO_LOAD
from .power_model import (GatePowerModel, GatePowerReport, NodePowerEntry,
                          _left_fold)
from .reorder import ConfigEvaluation

__all__ = [
    "OBJECTIVES",
    "STATS_SOURCES",
    "GateDecision",
    "OptimizeResult",
    "optimize_circuit",
    "circuit_power",
    "fold_power",
    "CircuitPowerReport",
]

OBJECTIVES = ("best", "worst", "delay-constrained", "fastest")

#: Sources of the per-net (P, D) statistics driving the optimisation.
#: ``"model"`` is the paper's flow (propagation through the power model
#: in topological order), which is exactly the compiled
#: ``propagate_stats(method="local")`` sweep; every source is one full
#: map from :func:`repro.stochastic.density.propagate_stats`.
STATS_SOURCES = ("model", "exact", "sampled")

_EPS = 1e-30


@dataclass(frozen=True)
class GateDecision:
    """Outcome of optimising one gate."""

    gate_name: str
    template_name: str
    num_configurations: int
    chosen: ConfigEvaluation
    default_power: float
    """Modelled power of the as-mapped (default) configuration."""

    @property
    def saving_vs_default(self) -> float:
        if self.default_power <= _EPS:
            return 0.0
        return 1.0 - self.chosen.power / self.default_power


@dataclass
class OptimizeResult:
    """A reordered circuit plus the bookkeeping of how it was obtained."""

    circuit: Circuit
    net_stats: Dict[str, SignalStats]
    decisions: List[GateDecision]
    power_before: float
    """Total modelled power with the input circuit's configurations."""

    power_after: float
    """Total modelled power with the chosen configurations."""

    gates_decided: int = 0
    """Per-gate decisions evaluated: one per gate."""

    @property
    def reduction(self) -> float:
        """Fractional power reduction relative to the input circuit."""
        if self.power_before <= _EPS:
            return 0.0
        return 1.0 - self.power_after / self.power_before


@dataclass(frozen=True)
class CircuitPowerReport:
    """Total and per-gate modelled power of a circuit as configured."""

    total: float
    by_gate: Dict[str, GatePowerReport]
    net_stats: Dict[str, SignalStats]

    # Strict left folds in ``by_gate`` order, not ``sum()`` (compensated
    # from Python 3.12), like the per-gate totals they add up.
    @property
    def internal_total(self) -> float:
        return _left_fold(r.internal_power for r in self.by_gate.values())

    @property
    def output_total(self) -> float:
        return _left_fold(r.output_power for r in self.by_gate.values())


#: Elements per array of one kernel call: a template's gates are priced
#: in row blocks of at most this many table values (and gathered minterm
#: weights), so memory stays bounded on large circuits.
_BLOCK = 1 << 20


class _Candidates:
    """Every configuration of one template as one stacked table program.

    Lanes follow configuration-key order, so a first-occurrence arg-min
    (arg-max) over a lane axis is the ``(±power, key)`` tie-break.
    """

    def __init__(self, template: GateTemplate):
        # Imported here: repro.compiled.power imports this package.
        from ..compiled.power import stacked_class

        self.configs = sorted(template.configurations(), key=GateConfig.key)
        self.lane = {config.key(): k for k, config in enumerate(self.configs)}
        self.default = self.lane[template.default_config().key()]
        self.compileds = [template.compile_config(c) for c in self.configs]
        self.stack = stacked_class(template, self.configs)
        tables = self.stack.tables
        cost = len(tables.const) + sum(sels.size for _, sels in tables.groups)
        self.block = max(1, _BLOCK // cost)

    def decide(self, objective: str, model: GatePowerModel,
               gates: List[GateInstance], p_in: np.ndarray,
               d_in: np.ndarray, loads: np.ndarray) -> list:
        """``(decision, entry power)`` of every gate, priced in one call.

        ``p_in``/``d_in`` are the gates' ``(rows, pins)`` statistics and
        ``loads`` their output loads; the entry power is the gate's
        current configuration's.
        """
        caps, probs, trans, powers, totals = self.stack.evaluate(
            model, p_in, d_in, loads)
        lanes = self._choose(objective, totals, loads, model.tech)
        rows = np.arange(len(gates))
        picked = zip(*(grid[rows, lanes].tolist()
                       for grid in (caps, probs, trans, powers)))
        out = []
        for row, (gate, lane, values) in enumerate(
                zip(gates, lanes.tolist(), picked)):
            power = float(totals[row, lane])
            report = GatePowerReport(
                tuple(map(NodePowerEntry, self.compileds[lane].nodes,
                          *values)), model.tech)
            decision = GateDecision(
                gate.name, gate.template.name, len(self.configs),
                ConfigEvaluation(self.configs[lane], power, report),
                float(totals[row, self.default]))
            entry = self.lane[gate.effective_config().key()]
            out.append((decision, float(totals[row, entry])))
        return out

    def _choose(self, objective: str, totals: np.ndarray, loads: np.ndarray,
                tech: TechParams) -> np.ndarray:
        """The chosen lane of every row under ``objective``."""
        if objective == "best":
            return totals.argmin(axis=1)
        if objective == "worst":
            return totals.argmax(axis=1)
        # (rows, lanes, pins): gate_pin_delay of every configuration.
        delays = np.stack([
            np.stack(timing_class(compiled, config).pin_delays(tech, loads),
                     axis=1)
            for compiled, config in zip(self.compileds, self.configs)
        ], axis=1)
        if objective == "fastest":
            return delays.max(axis=2).argmin(axis=1)
        # delay-constrained: every pin within the default's own delay
        # (so the default itself is always feasible).
        limits = delays[:, self.default, :] * (1.0 + 1e-9)
        feasible = (delays <= limits[:, None, :]).all(axis=2)
        return np.where(feasible, totals, np.inf).argmin(axis=1)


def optimize_circuit(
    circuit: Circuit,
    input_stats: Mapping[str, SignalStats],
    model: Optional[GatePowerModel] = None,
    objective: str = "best",
    po_load: float = DEFAULT_PO_LOAD,
    stats: str = "model",
    stats_kwargs: Optional[Mapping] = None,
) -> OptimizeResult:
    """Run the Figure 3 algorithm and return a reordered copy of ``circuit``.

    ``stats`` selects where the per-net (P, D) statistics come from:
    ``"model"`` (default) is the paper's incremental propagation
    through the power model, which is the compiled local sweep bit for
    bit; ``"exact"`` and ``"sampled"`` precompute the map with
    :func:`repro.stochastic.density.propagate_stats` (the sampled
    source runs the bit-parallel Monte Carlo engine; ``stats_kwargs``
    forwards its ``lanes``/``steps``/``dt``/``seed`` options).

    One pass decides every gate.  A gate's decision inputs are its
    fanin statistics and its output load, and no reordering changes
    either: the logic function is ordering-independent, and so is every
    pin capacitance (each pin drives one N and one P device, which
    :class:`~repro.gates.library.GateTemplate` guarantees).  So the
    whole traversal is one batch, and re-optimising the result keeps
    every configuration.

    Each template's configurations are one stacked table program
    (:func:`repro.compiled.power.stacked_class`), so one kernel call
    prices every configuration of every gate of a template,
    bit-identical to :func:`~repro.core.reorder.evaluate_configurations`.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}; choose from {OBJECTIVES}")
    if stats not in STATS_SOURCES:
        raise ValueError(f"unknown stats source {stats!r}; choose from {STATS_SOURCES}")
    if stats_kwargs and stats == "model":
        # Silently dropping these would mislead a caller who configured
        # a Monte-Carlo run but forgot stats="sampled".
        raise TypeError(
            f"stats_kwargs {sorted(stats_kwargs)} need a non-default stats source"
        )
    model = model if model is not None else GatePowerModel()
    missing = [n for n in circuit.inputs if n not in input_stats]
    if missing:
        raise KeyError(f"missing input statistics for {missing}")

    result_circuit = circuit.copy()
    cc = get_compiled(result_circuit)
    net_stats = propagate_stats(
        result_circuit, input_stats,
        method="local" if stats == "model" else stats,
        **dict(stats_kwargs or {}),
    )
    tech = model.tech
    prob = np.fromiter((net_stats[n].probability for n in cc.nets),
                       dtype=np.float64, count=len(cc.nets))
    dens = np.fromiter((net_stats[n].density for n in cc.nets),
                       dtype=np.float64, count=len(cc.nets))
    loads = cc.net_loads(tech, po_load)

    topo = result_circuit.topo_gates()
    topo_gids = np.fromiter((cc.gate_id[gate.name] for gate in topo),
                            dtype=np.int64, count=len(topo))
    decisions: List[Optional[GateDecision]] = [None] * len(topo)
    entry_totals = np.empty(len(topo))
    chosen_totals = np.empty(len(topo))
    groups: Dict[str, List[int]] = {}
    for pos, gate in enumerate(topo):
        groups.setdefault(gate.template.name, []).append(pos)
    for members in groups.values():
        template = topo[members[0]].template
        cand = _Candidates(template)
        for lo in range(0, len(members), cand.block):
            block = members[lo:lo + cand.block]
            gids = topo_gids[block]
            fanin = cc._fanin_matrix(gids, len(template.pins))
            outcomes = cand.decide(
                objective, model, [topo[pos] for pos in block],
                prob[fanin], dens[fanin], loads[cc.out_net[gids]])
            for pos, (decision, entry_power) in zip(block, outcomes):
                decisions[pos] = decision
                entry_totals[pos] = entry_power
                chosen_totals[pos] = decision.chosen.power
    changed = 0
    for gate, decision in zip(topo, decisions):
        if decision.chosen.config.key() != gate.effective_config().key():
            result_circuit.set_config(gate.name, decision.chosen.config)
            changed += 1
    # The process-wide decision counter (repro.obs.metrics) counts the
    # same decisions as the result field.
    _METRICS.counter("optimize.gates_decided").inc(len(topo))
    _trace.instant("optimize.pass", decided=len(topo), changed=changed)
    return OptimizeResult(result_circuit, net_stats, decisions,
                          fold_power(entry_totals), fold_power(chosen_totals),
                          len(topo))


def circuit_power(
    circuit: Circuit,
    input_stats: Mapping[str, SignalStats],
    model: Optional[GatePowerModel] = None,
    po_load: float = DEFAULT_PO_LOAD,
    net_stats: Optional[Mapping[str, SignalStats]] = None,
) -> CircuitPowerReport:
    """Total modelled power of ``circuit`` with its current configurations.

    ``net_stats`` may be supplied to reuse an existing propagation
    (statistics do not depend on the chosen orderings).  The total is
    the per-gate totals folded left in topological order by
    :func:`fold_power` — the same summation
    :meth:`repro.incremental.StatsCache.total_power` runs, so an
    incrementally maintained total equals this one exactly.
    """
    model = model if model is not None else GatePowerModel()
    if net_stats is None:
        net_stats = local_stats(circuit, input_stats)
    by_gate: Dict[str, GatePowerReport] = {}
    for gate in circuit.gates:
        stats = {pin: net_stats[gate.pin_nets[pin]]
                 for pin in gate.template.pins}
        load = circuit.output_load(gate.output, model.tech, po_load)
        by_gate[gate.name] = model.gate_power(gate.compiled(), stats, load)
    total = fold_power(np.fromiter(
        (by_gate[gate.name].total for gate in circuit.topo_gates()),
        dtype=np.float64, count=len(by_gate),
    ))
    return CircuitPowerReport(total, by_gate, dict(net_stats))


def fold_power(totals) -> float:
    """Per-gate power totals summed as a strict left fold, in the order given.

    ``totals`` is any buffer of doubles (an ``array("d")`` or a float64
    ndarray), read without a copy.  ``np.cumsum`` is a sequential
    partial sum on every Python version, unlike ``sum`` over floats
    (compensated from Python 3.12), so the incremental cache, the
    search's batch pricer and :func:`circuit_power` agree bit for bit.
    """
    if not len(totals):
        return 0.0
    return float(np.cumsum(np.frombuffer(totals, dtype=np.float64))[-1])

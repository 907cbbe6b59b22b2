"""The paper's circuit optimisation algorithm (§4, Figure 3).

One topological traversal of the mapped netlist.  For each gate it
gathers the (probability, density) statistics of its fanins
(OBTAIN_PROB_AND_DENS), exhaustively evaluates all transistor
reorderings under the extended power model and keeps the best
(FIND_BEST_REORDERING), then computes the output statistics with
Najm's transition density (CALCULATE_DENS) and moves on
(UPDATE_CIRCUIT_INFORMATION).

Because a gate's output function — hence its output (P, D) — does not
depend on the chosen ordering, the greedy per-gate choice is globally
optimal *with respect to the model* in a single pass (the paper's
monotonic-characteristic argument, §4.2).

Three objectives:

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
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..circuit.netlist import Circuit, GateInstance
from ..gates.capacitance import TechParams
from ..obs import trace as _trace
from ..obs.metrics import REGISTRY as _METRICS
from ..stochastic.signal import SignalStats
from ..timing.elmore import gate_pin_delay, gate_worst_delay
from ..timing.sta import DEFAULT_PO_LOAD
from .power_model import GatePowerModel, GatePowerReport
from .reorder import ConfigEvaluation, evaluate_configurations

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
#: ``"model"`` is the paper's flow (incremental propagation through the
#: power model during the traversal); the others precompute a full map
#: with :func:`repro.stochastic.density.propagate_stats`.
STATS_SOURCES = ("model", "local", "exact", "sampled")

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

    passes_run: int = 1
    """Traversals actually executed (< the requested ``passes`` when the
    configuration assignment reached a fixed point early)."""

    gates_decided: int = 0
    """Per-gate decisions evaluated across all passes.  Pass 1 decides
    every gate; later (cone-aware) passes re-decide only the worklist,
    so with ``passes > 1`` this stays far below ``passes * len(circuit)``."""

    gates_retimed: int = 0
    """Gate arrival recomputations performed by the incremental timing
    worklist (delay-aware objectives with ``passes > 1`` only; 0 when
    no :class:`~repro.incremental.timing.TimingCache` was attached)."""

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

    @property
    def internal_total(self) -> float:
        return sum(r.internal_power for r in self.by_gate.values())

    @property
    def output_total(self) -> float:
        return sum(r.output_power for r in self.by_gate.values())


def _pin_stats(gate: GateInstance,
               net_stats: Mapping[str, SignalStats]) -> Dict[str, SignalStats]:
    return {pin: net_stats[gate.pin_nets[pin]] for pin in gate.template.pins}


def optimize_circuit(
    circuit: Circuit,
    input_stats: Mapping[str, SignalStats],
    model: Optional[GatePowerModel] = None,
    objective: str = "best",
    po_load: float = DEFAULT_PO_LOAD,
    stats: str = "model",
    stats_kwargs: Optional[Mapping] = None,
    passes: int = 1,
) -> OptimizeResult:
    """Run the Figure 3 algorithm and return a reordered copy of ``circuit``.

    ``stats`` selects where the per-net (P, D) statistics come from:
    ``"model"`` (default) propagates them incrementally through the
    power model exactly as the paper's traversal does, while
    ``"local"``, ``"exact"`` and ``"sampled"`` precompute the full map
    with :func:`repro.stochastic.density.propagate_stats` (the sampled
    source runs the bit-parallel Monte Carlo engine; ``stats_kwargs``
    forwards its ``lanes``/``steps``/``dt``/``seed`` options).

    ``passes`` repeats the traversal up to that many times, stopping
    early at a fixed point.  The paper's single pass is per-gate
    optimal *under the model*, but a gate's external load depends on
    its sinks' pin capacitances — which the same pass may still change
    after the gate was decided.  Later passes are **cone-aware**: a
    gate's decision inputs are its fanin statistics (invariant across
    passes — reordering never changes a net's (P, D), and the
    non-model sources are precomputed once) and its external load, so
    instead of re-traversing the whole circuit each pass, later passes
    re-decide exactly the worklist of gates whose settled sink loads
    the previous pass actually changed: the fanin drivers of every
    re-configured gate.  This reaches the same fixed point as full
    re-traversal (a gate with unchanged decision inputs re-decides
    identically) in cone-sized work per pass
    (``OptimizeResult.gates_decided`` counts the total).

    For the delay-aware objectives (``"delay-constrained"`` and
    ``"fastest"``) the worklist additionally consumes **timing-dirty**
    gates: a :class:`~repro.incremental.timing.TimingCache` rides along
    on the working circuit, and every gate whose output arrival a pass
    actually moved (cone-sized re-propagation with early cut-off, not
    a full STA per pass) is re-verified next pass.  Under the model
    those re-decides are idempotent — a decision reads fanin statistics
    and load, both already covered by the load worklist — so this
    widens the audited set without changing the fixed point;
    ``OptimizeResult.gates_retimed`` counts the extra work.  The
    reported ``power_before`` always refers to the input circuit and
    ``power_after`` to the settled configuration under its settled
    loads.
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
    if passes < 1:
        raise ValueError("passes must be at least 1")
    model = model if model is not None else GatePowerModel()
    missing = [n for n in circuit.inputs if n not in input_stats]
    if missing:
        raise KeyError(f"missing input statistics for {missing}")

    result_circuit = circuit.copy()
    precomputed: Optional[Dict[str, SignalStats]] = None
    if stats != "model":
        from ..stochastic.density import propagate_stats

        precomputed = propagate_stats(
            circuit, input_stats, method=stats, **dict(stats_kwargs or {})
        )

    power_before: Optional[float] = None
    power_after = 0.0
    net_stats: Dict[str, SignalStats] = {}
    passes_run = 0
    # The process-wide decision counter (repro.obs.metrics); the result
    # field is the delta over this run, so the artifact number and a
    # metrics snapshot always agree.
    _decided = _METRICS.counter("optimize.gates_decided")
    decided_start = _decided.value
    any_changed = False
    topo = result_circuit.topo_gates()
    decisions_by_gate: Dict[str, GateDecision] = {}
    #: Gates to re-decide next pass; ``None`` = full traversal (pass 1).
    pending: Optional[set] = None

    timing = None
    if passes > 1 and objective in ("delay-constrained", "fastest"):
        # Delay-aware objectives: watch the working circuit with an
        # incremental timing cache so later passes can also consume
        # timing-dirty gates (imported lazily — repro.incremental
        # imports this module).
        from ..incremental.timing import TimingCache

        timing = TimingCache(result_circuit, tech=model.tech, po_load=po_load)

    for _ in range(passes):
        passes_run += 1
        changed_gates: set = set()

        if pending is None:
            # Pass 1 — the paper's full traversal, propagating net_stats
            # along the way in the "model" flow.
            pass_power_before = 0.0
            power_after = 0.0
            net_stats = (
                dict(precomputed) if precomputed is not None
                else {n: input_stats[n] for n in circuit.inputs}
            )
            for gate in topo:
                pin_stats = _pin_stats(gate, net_stats)
                load = result_circuit.output_load(gate.output, model.tech, po_load)
                evaluations = evaluate_configurations(
                    gate.template, pin_stats, model, load
                )
                _decided.inc()
                by_key = {e.config.key(): e for e in evaluations}
                entry_key = gate.effective_config().key()
                original_eval = by_key[entry_key]
                default_eval = by_key[gate.template.default_config().key()]
                chosen = _choose(objective, gate, evaluations, default_eval,
                                 model, load)
                if chosen.config.key() != entry_key:
                    changed_gates.add(gate.name)
                    # Through the edit API (the only write path) so an
                    # attached TimingCache hears about it.
                    result_circuit.set_config(gate.name, chosen.config)
                decisions_by_gate[gate.name] = GateDecision(
                    gate.name, gate.template.name, len(evaluations),
                    chosen, default_eval.power
                )
                pass_power_before += original_eval.power
                power_after += chosen.power
                if precomputed is None:
                    net_stats[gate.output] = model.output_stats(
                        gate.compiled(), pin_stats
                    )
            if power_before is None:
                power_before = pass_power_before
        else:
            # Cone-aware pass: statistics are pass-invariant, so only
            # the worklist — gates whose external load the previous
            # pass changed — can decide differently.  Topological
            # order and live loads reproduce exactly what a full
            # re-traversal would decide (a gate's sinks come later in
            # topological order, so its load still reflects the
            # previous pass when it is re-decided).
            for gate in topo:
                if gate.name not in pending:
                    continue
                pin_stats = _pin_stats(gate, net_stats)
                load = result_circuit.output_load(gate.output, model.tech, po_load)
                evaluations = evaluate_configurations(
                    gate.template, pin_stats, model, load
                )
                _decided.inc()
                by_key = {e.config.key(): e for e in evaluations}
                entry_key = gate.effective_config().key()
                default_eval = by_key[gate.template.default_config().key()]
                chosen = _choose(objective, gate, evaluations, default_eval,
                                 model, load)
                if chosen.config.key() != entry_key:
                    changed_gates.add(gate.name)
                    result_circuit.set_config(gate.name, chosen.config)
                decisions_by_gate[gate.name] = GateDecision(
                    gate.name, gate.template.name, len(evaluations),
                    chosen, default_eval.power
                )

        tracer = _trace.ACTIVE
        if tracer is not None:
            tracer.instant("optimize.pass", number=passes_run,
                           decided=_decided.since(decided_start),
                           changed=len(changed_gates))
        if not changed_gates:
            break
        any_changed = True
        # The next worklist: a re-configured gate changes only its own
        # pin capacitances — the load its fanin drivers see.
        pending = set()
        for name in changed_gates:
            for pred in result_circuit.fanin_drivers(name):
                if pred.template.num_configurations() > 1:
                    pending.add(pred.name)
        if timing is not None:
            # Timing-dirty consumption (delay-aware objectives): every
            # gate whose output arrival this pass actually moved is
            # re-verified next pass.  refresh() returns exactly those
            # nets — cone-sized work, pruned by early cut-off.
            for net in timing.refresh():
                retimed_gate = result_circuit.driver(net)
                if (retimed_gate is not None
                        and retimed_gate.template.num_configurations() > 1):
                    pending.add(retimed_gate.name)
        if not pending:
            break

    if passes > 1 and any_changed:
        # Settled-load accounting: per-gate decision powers were priced
        # against loads that later decisions may have changed; one
        # cheap sweep (no enumeration) reprices the final configuration
        # consistently.  Matches a converged full pass bit-for-bit.
        power_after = 0.0
        for gate in topo:
            report = model.gate_power(
                gate.compiled(), _pin_stats(gate, net_stats),
                result_circuit.output_load(gate.output, model.tech, po_load),
            )
            power_after += report.total

    gates_retimed = 0
    if timing is not None:
        timing.refresh()  # settle any dirt the final pass left behind
        gates_retimed = timing.gates_retimed
        timing.close()

    decisions = [decisions_by_gate[g.name] for g in topo]
    return OptimizeResult(result_circuit, net_stats, decisions,
                          power_before, power_after, passes_run,
                          _decided.since(decided_start), gates_retimed)


def _choose(
    objective: str,
    gate: GateInstance,
    evaluations: List[ConfigEvaluation],
    default_eval: ConfigEvaluation,
    model: GatePowerModel,
    load: float,
) -> ConfigEvaluation:
    """Pick one configuration under ``objective`` (deterministic ties)."""
    template = gate.template
    candidates = evaluations
    if objective == "delay-constrained":
        candidates = _delay_feasible(
            gate, evaluations, default_eval, model.tech, load
        )
    if objective == "worst":
        return min(candidates, key=lambda e: (-e.power, e.config.key()))
    if objective == "fastest":
        return min(
            candidates,
            key=lambda e: (
                gate_worst_delay(
                    template.compile_config(e.config), e.config,
                    model.tech, load,
                ),
                e.config.key(),
            ),
        )
    return min(candidates, key=lambda e: (e.power, e.config.key()))


def _delay_feasible(
    gate: GateInstance,
    evaluations: List[ConfigEvaluation],
    default_eval: ConfigEvaluation,
    tech: TechParams,
    load: float,
) -> List[ConfigEvaluation]:
    """Configurations whose every pin delay is within the default's."""
    default_compiled = gate.template.compile_config(default_eval.config)
    limits = {
        pin: gate_pin_delay(default_compiled, default_eval.config, pin, tech, load)
        for pin in gate.template.pins
    }
    feasible = []
    for evaluation in evaluations:
        compiled = gate.template.compile_config(evaluation.config)
        ok = all(
            gate_pin_delay(compiled, evaluation.config, pin, tech, load)
            <= limits[pin] * (1.0 + 1e-9)
            for pin in gate.template.pins
        )
        if ok:
            feasible.append(evaluation)
    return feasible or [default_eval]


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
    from ..stochastic.density import local_stats

    model = model if model is not None else GatePowerModel()
    if net_stats is None:
        net_stats = local_stats(circuit, input_stats)
    by_gate: Dict[str, GatePowerReport] = {}
    for gate in circuit.gates:
        stats = _pin_stats(gate, net_stats)
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

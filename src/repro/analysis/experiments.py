"""End-to-end experiment drivers regenerating the paper's tables.

Each function reproduces one artefact (see DESIGN.md §4):

* :func:`run_table1` — the Table 1(b) motivation gate under the two
  activity cases;
* :func:`run_table2` — the library configuration counts;
* :func:`run_table3_case` — one row of the main evaluation: for one
  mapped circuit and scenario, the modelled (M) and simulated (S)
  best-versus-worst power reduction and the delay increase (D) of the
  power-optimised netlist versus the as-mapped one
  (:func:`repro.bench.runner.run_suite` runs it over the suite);
* :func:`run_adder_activity` — the §1.1 ripple-carry carry-chain
  activity profile.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..bench.suite import BenchmarkCase
from ..circuit.netlist import Circuit
from ..core.optimizer import optimize_circuit
from ..core.power_model import GatePowerModel
from ..core.reorder import evaluate_configurations
from ..gates.capacitance import TechParams
from ..gates.library import GateLibrary, default_library
from ..obs import trace as _trace
from ..sim.stimulus import ScenarioA, ScenarioB, Stimulus
from ..sim.switchsim import SwitchLevelSimulator
from ..stochastic.density import local_stats, propagate_stats
from ..stochastic.signal import SignalStats
from ..synth.mapper import map_circuit
from ..timing.sta import DEFAULT_PO_LOAD, circuit_delay
from .stats import mean, relative_increase, relative_reduction

__all__ = [
    "case_seed",
    "Table1Row",
    "run_table1",
    "run_table2",
    "run_table2_instances",
    "Table3Row",
    "run_table3_case",
    "run_adder_activity",
    "EcoRow",
    "run_eco",
]


def case_seed(name: str, seed: int = 0) -> int:
    """Per-circuit RNG seed, stable across processes and Python runs.

    Built on CRC-32 of the circuit name rather than :func:`hash`, whose
    string hashing is randomised per interpreter process — with it, the
    parallel benchmark runner's workers (and any two invocations) would
    draw different stimuli for the same (circuit, seed) pair.
    """
    return seed + zlib.crc32(name.encode("utf-8")) % 10000


# ----------------------------------------------------------------------
# Table 1 — motivation gate
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table1Row:
    """Relative power of every configuration of the motivation gate."""

    case: str
    densities: Tuple[float, float, float]
    relative_powers: Tuple[float, ...]
    best_index: int
    reduction_vs_worst: float


def run_table1(tech: Optional[TechParams] = None,
               output_load: float = DEFAULT_PO_LOAD) -> List[Table1Row]:
    """The paper's Table 1(b): gate ``y = (a1 + a2)·b`` under two cases.

    Case 1: D = (10K, 100K, 1M); case 2: D = (1M, 100K, 10K); all
    equilibrium probabilities 0.5.  Powers are reported relative to the
    worst configuration of each case (the paper normalises to its
    configuration (D) in case 1; the *spread* is the claim under test).
    """
    library = default_library()
    template = library["oai21"]  # pins (a, b, c) ~ paper's (a1, a2, b)
    model = GatePowerModel(tech)
    rows = []
    for case, densities in (("1", (1.0e4, 1.0e5, 1.0e6)),
                            ("2", (1.0e6, 1.0e5, 1.0e4))):
        stats = {
            pin: SignalStats(0.5, d) for pin, d in zip(template.pins, densities)
        }
        evaluations = evaluate_configurations(template, stats, model, output_load)
        powers = [e.power for e in evaluations]
        worst = max(powers)
        relative = tuple(p / worst for p in powers)
        best_index = min(range(len(powers)), key=powers.__getitem__)
        rows.append(
            Table1Row(case, densities, relative, best_index,
                      relative_reduction(worst, powers[best_index]))
        )
    return rows


# ----------------------------------------------------------------------
# Table 2 — library configuration counts
# ----------------------------------------------------------------------
def run_table2(library: Optional[GateLibrary] = None) -> List[Tuple[str, int]]:
    """(gate, #configurations) for every library cell."""
    library = library if library is not None else default_library()
    return library.configuration_table()


def run_table2_instances(
    library: Optional[GateLibrary] = None,
) -> List[Tuple[str, str, int]]:
    """(gate, instance labels, #configurations) — Table 2 with the paper's
    ``gate[A,B,...]`` instance notation (layout classes; see
    :mod:`repro.gates.instances`)."""
    from ..gates.instances import instance_partition

    library = library if library is not None else default_library()
    rows = []
    for template in library:
        classes = instance_partition(template)
        if len(classes) == 1:
            name = template.name
        else:
            name = f"{template.name}[{','.join(c.label for c in classes)}]"
        rows.append((template.name, name, template.num_configurations()))
    return rows


# ----------------------------------------------------------------------
# Table 3 — main evaluation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Table3Row:
    """One circuit under one scenario — the paper's Table 3 columns."""

    name: str
    scenario: str
    gates: int
    model_reduction: float
    """Column M: best-vs-worst reduction predicted by the model."""

    sim_reduction: float
    """Column S: best-vs-worst reduction measured by switch-level simulation."""

    delay_increase: float
    """Column D: delay change of the optimised circuit vs the as-mapped one."""

    model_power_best: float
    sim_power_best: float


def _simulate(circuit: Circuit, stimulus: Stimulus, tech: TechParams,
              po_load: float) -> float:
    simulator = SwitchLevelSimulator(circuit, tech, po_load=po_load)
    return simulator.run(stimulus).power


def run_table3_case(case: BenchmarkCase, scenario: str, *,
                    circuit: Circuit,
                    tech: Optional[TechParams] = None,
                    seed: int = 0,
                    target_transitions: float = 150.0,
                    cycles: int = 250,
                    po_load: float = DEFAULT_PO_LOAD,
                    model: Optional[GatePowerModel] = None) -> Table3Row:
    """Run the flow after mapping for one circuit and one scenario.

    ``circuit`` is ``case``'s mapped netlist; it is never mutated, so
    the benchmark runner maps each case once and runs every scenario
    ('A' or 'B') on the same netlist.  Deterministic for a given
    ``(case, scenario, seed)``: the stimulus seed comes from
    :func:`case_seed`.
    """
    tech = tech if tech is not None else TechParams()
    model = model if model is not None else GatePowerModel(tech)

    if scenario == "A":
        generator = ScenarioA(seed=case_seed(case.name, seed))
        stats = generator.input_stats(circuit.inputs)
        densities = [s.density for s in stats.values()]
        duration = target_transitions / mean(densities)
        stimulus = generator.generate(circuit.inputs, duration)
    elif scenario == "B":
        generator = ScenarioB(seed=case_seed(case.name, seed))
        stats = generator.input_stats(circuit.inputs)
        stimulus = generator.generate(circuit.inputs, cycles)
    else:
        raise ValueError(f"scenario must be 'A' or 'B', got {scenario!r}")

    # No reordering moves a net's (P, D): one propagation serves both runs.
    net_stats = propagate_stats(circuit, stats)
    best = optimize_circuit(circuit, stats, model, objective="best",
                            po_load=po_load, net_stats=net_stats)
    worst = optimize_circuit(circuit, stats, model, objective="worst",
                             po_load=po_load, net_stats=net_stats)
    model_reduction = relative_reduction(worst.power_after, best.power_after)

    sim_best = _simulate(best.circuit, stimulus, tech, po_load)
    sim_worst = _simulate(worst.circuit, stimulus, tech, po_load)
    sim_reduction = relative_reduction(sim_worst, sim_best)

    delay_orig = circuit_delay(circuit, tech, po_load)
    delay_best = circuit_delay(best.circuit, tech, po_load)
    delay_increase = relative_increase(delay_orig, delay_best)

    return Table3Row(
        name=case.name,
        scenario=scenario,
        gates=len(circuit),
        model_reduction=model_reduction,
        sim_reduction=sim_reduction,
        delay_increase=delay_increase,
        model_power_best=best.power_after,
        sim_power_best=sim_best,
    )


# ----------------------------------------------------------------------
# ECO replay — scripted edits against the incremental engine
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EcoRow:
    """One scripted edit: what changed and what it cost.

    Powers are modelled totals (W); ``cone`` is how many gates the
    incremental engine re-propagated and ``retimed`` how many gate
    arrivals the timing cache recomputed — the work the edit actually
    caused, versus ``gates`` for a from-scratch recompute.
    """

    index: int
    label: str
    cone: int
    power_before: float
    power_after: float
    delay_before: float
    delay_after: float
    retimed: int

    @property
    def delta_power(self) -> float:
        return self.power_after - self.power_before

    @property
    def delta_delay(self) -> float:
        return self.delay_after - self.delay_before


def run_eco(circuit: Circuit,
            input_stats: Dict[str, SignalStats],
            script: Sequence[Dict],
            backend: str = "analytic",
            model: Optional[GatePowerModel] = None,
            po_load: float = DEFAULT_PO_LOAD,
            **backend_kwargs) -> List[EcoRow]:
    """Apply a JSON edit script in order, reporting per-edit deltas.

    ``circuit`` is edited **in place** (callers wanting to keep the
    original should pass ``circuit.copy()``).  Each script entry is
    resolved against the circuit state the previous edits produced, so
    e.g. a ``reorder`` after a ``retemplate`` indexes the new
    template's configurations.  Statistics and power are maintained by
    a :class:`repro.incremental.StatsCache` with the chosen backend,
    and delay by a :class:`repro.incremental.TimingCache`: every edit
    costs cone-sized work, which the ``cone`` and ``retimed`` columns
    record, and each delay is bit-identical to a from-scratch STA of
    the edited netlist.  An edit the engine
    cannot follow is refused before the circuit changes.
    """
    from ..incremental import StatsCache, TimingCache
    from ..incremental.eco import (
        apply_eco_edit,
        resolve_edit,
        script_edit_label,
    )

    model = model if model is not None else GatePowerModel()
    cache = StatsCache(circuit, input_stats, backend=backend, model=model,
                       po_load=po_load, **backend_kwargs)
    tcache = TimingCache(circuit, tech=model.tech, po_load=po_load)
    rows: List[EcoRow] = []
    try:
        power = cache.total_power()
        delay = tcache.delay()
        for index, entry in enumerate(script):
            edit = resolve_edit(circuit, entry, index)
            repropagated = cache.gates_repropagated
            retimed_before = tcache.gates_retimed
            tracer = _trace.ACTIVE
            span = (tracer.span("eco.edit", index=index,
                                label=script_edit_label(edit))
                    if tracer is not None else _trace.NULL_SPAN)
            with span:
                apply_eco_edit(cache, tcache, edit)
                power_after = cache.total_power()  # refreshes the dirty cone
                delay_after = tcache.delay()  # refreshes the timing cone
                retimed = tcache.gates_retimed - retimed_before
                if tracer is not None:
                    span.note(cone=cache.gates_repropagated - repropagated,
                              retimed=retimed)
            rows.append(EcoRow(
                index=index,
                label=script_edit_label(edit),
                cone=cache.gates_repropagated - repropagated,
                power_before=power,
                power_after=power_after,
                delay_before=delay,
                delay_after=delay_after,
                retimed=retimed,
            ))
            power, delay = power_after, delay_after
    finally:
        tcache.close()
        cache.close()
    return rows


# ----------------------------------------------------------------------
# §1.1 — ripple-carry adder activity profile
# ----------------------------------------------------------------------
def run_adder_activity(width: int = 8,
                       cycle_density: float = 0.5,
                       library: Optional[GateLibrary] = None) -> Dict[str, float]:
    """Transition density of each carry of an n-bit ripple adder.

    Operand inputs have P = 0.5 and D = ``cycle_density``; the returned
    map shows the carry-chain densities growing towards the MSB — the
    paper's argument that equilibrium probability alone (0.5 everywhere)
    cannot drive the optimisation.
    """
    from ..bench.generators import full_adder_node_names, ripple_carry_adder

    network = ripple_carry_adder(width, expose_carries=True)
    circuit = map_circuit(network, library)
    stats = {net: SignalStats(0.5, cycle_density) for net in circuit.inputs}
    propagated = local_stats(circuit, stats)
    profile = {"operand": cycle_density}
    for i in range(width):
        _, carry = full_adder_node_names(i)
        profile[carry] = propagated[carry].density
    return profile

"""The benchmark's workloads: set-up, timed operation, checks and probe.

Each workload builds its inputs from the seed (``setup``), runs one
timed operation that the closed loop in ``run.py`` repeats (``run``),
reduces each outcome to a :class:`Summary` (``summary``), checks the
outputs outside the timed region (``check``) and, in a traced run, calls
the layers its operation does not call (``probe``) so every per-layer
metric is measured on every workload.  Every call into a layer
sits inside a benchmark span named after the layer's module; the spans
cost nothing when tracing is off.
"""

from __future__ import annotations

import hashlib
import statistics
from dataclasses import dataclass
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from repro.analysis.experiments import case_seed
from repro.bench.generators import random_logic
from repro.bench.runner import dumps_artifact, strip_timing
from repro.bench.suite import get_case
from repro.circuit.blif import parse_blif, write_blif
from repro.circuit.logic import LogicNetwork
from repro.circuit.netlist import Circuit
from repro.compiled import get_compiled
from repro.core.optimizer import OptimizeResult, circuit_power, optimize_circuit
from repro.core.power_model import GatePowerModel
from repro.gates.capacitance import TechParams
from repro.gates.library import default_library
from repro.incremental import StatsCache, TimingCache
from repro.incremental.search import SearchResult, search_circuit
from repro.obs import trace as _trace
from repro.obs.metrics import REGISTRY
from repro.sim.logicsim import check_equivalence, random_vectors
from repro.sim.stimulus import ScenarioA, ScenarioB, Stimulus
from repro.sim.switchsim import SwitchLevelSimulator
from repro.stochastic.signal import SignalStats
from repro.synth.aig import aig_from_logic_network
from repro.synth.cuts import enumerate_cuts
from repro.synth.mapper import PatternIndex, map_circuit
from repro.timing.sta import analyze_timing, circuit_delay

span = _trace.span

#: Relative tolerance of the from-scratch power and delay checks.
RTOL = 1e-9

STRUCTURAL = ("buffer", "dup", "sweep")

#: Compiled-kernel counters, read as per-search deltas of the global registry.
KERNEL_COUNTERS = ("compiled.net_loads.rebuilds", "compiled.power_eval.calls")


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


class Summary(NamedTuple):
    """What the benchmark keeps of one operation's outcome."""

    key: str
    """Digest of every result value; repeats of a seed must match it."""

    trials: int
    """Configurations priced: the denominator of ``trial_us``."""


class Checks:
    """Tally of output checks; each check is one attempted operation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def _stimulus_a(inputs: Sequence[str], seed: int, transitions: float
                ) -> Tuple[Dict[str, SignalStats], Stimulus]:
    """Scenario A statistics plus waveforms of about ``transitions`` per input."""
    generator = ScenarioA(seed=seed)
    stats = generator.input_stats(inputs)
    duration = transitions / statistics.mean(s.density for s in stats.values())
    return stats, generator.generate(inputs, duration)


def _simulate(circuit: Circuit, stimulus: Stimulus, tech: TechParams) -> float:
    with span("sim.switchsim.run"):
        return SwitchLevelSimulator(circuit, tech).run(stimulus).power


def _delay(circuit: Circuit, tech: TechParams) -> float:
    with span("timing.sta.analyze"):
        return circuit_delay(circuit, tech)


def _map(network: LogicNetwork) -> Circuit:
    """Map with the default library, as the CLI does."""
    with span("synth.mapper.map") as layer:
        circuit = map_circuit(network)
        layer.note(gates=len(circuit))
    return circuit


def _optimize(circuit: Circuit, stats: Dict[str, SignalStats],
              model: GatePowerModel,
              objectives: Sequence[str] = ("best", "worst")
              ) -> List[OptimizeResult]:
    with span("core.optimizer.optimize") as layer:
        results = [optimize_circuit(circuit, stats, model, objective=o)
                   for o in objectives]
        layer.note(gates_decided=sum(r.gates_decided for r in results))
    return results


def _front_end_probe(networks: Sequence[LogicNetwork], parse: bool) -> None:
    """Pattern-index build, cut enumeration and, optionally, BLIF parsing."""
    with span("synth.mapper.pattern_index"):
        PatternIndex(default_library())
    for network in networks:
        if parse:
            with span("circuit.blif.write"):
                text = write_blif(network)
            with span("circuit.blif.parse"):
                parse_blif(text)
        with span("synth.aig.build"):
            aig = aig_from_logic_network(network)
        with span("synth.cuts.enumerate"):
            enumerate_cuts(aig)


def _engine_probe(circuit: Circuit, stats: Dict[str, SignalStats]) -> None:
    """Lowering, cache construction and STA on a fresh copy of ``circuit``.

    The caches reuse the copy's lowering, so ``compiled.lower`` and the
    two ``build`` spans do not overlap.
    """
    with span("circuit.copy"):
        work = circuit.copy()
    with span("compiled.lower"):
        get_compiled(work)
    with span("incremental.cache.build"):
        cache = StatsCache(work, stats)
    with span("incremental.timing.build"):
        timing = TimingCache(work, index=cache.index)
    with span("bench.close"):
        timing.close()
        cache.close()
    with span("timing.sta.analyze"):
        analyze_timing(work)


def search(circuit: Circuit, stats: Dict[str, SignalStats],
           **params) -> Tuple[SearchResult, Dict[str, float]]:
    """``search_circuit`` inside its layer span, plus its work counts.

    The counts are the search's own: result fields and the deltas of the
    global kernel counters across the call.
    """
    before = {name: REGISTRY.counter(name).value for name in KERNEL_COUNTERS}
    with span("incremental.search"):
        result = search_circuit(circuit, stats, **params)
    counts: Dict[str, float] = {
        "search.trials": result.trials,
        "search.accepted": len(result.accepted),
        "search.accept_ratio": len(result.accepted) / max(result.trials, 1),
        "stats.gates_repropagated": result.gates_repropagated,
        "incremental.cache.cone_ratio":
            result.gates_repropagated / max(result.trials * len(circuit), 1),
        "timing.gates_retimed": result.gates_retimed,
    }
    for name in KERNEL_COUNTERS:
        counts[name] = REGISTRY.counter(name).value - before[name]
    return result, counts


def search_digest(result: SearchResult) -> str:
    """Digest of the search artifact without its timing fields."""
    return _digest(dumps_artifact(strip_timing(result.to_artifact())))


# ----------------------------------------------------------------------
# table3-flow
# ----------------------------------------------------------------------
@dataclass
class FlowRow:
    """One circuit of one pass through the Table 3 flow."""

    name: str
    network: LogicNetwork
    mapped: Circuit
    delay: float
    scenarios: List[Tuple[Dict[str, SignalStats], OptimizeResult,
                          OptimizeResult, float, float, float]]
    """Per scenario: (stats, best, worst, sim best, sim worst, best delay)."""

    def key(self) -> str:
        """Every result value, exactly; equal keys mean equal results."""
        parts = [self.name, str(len(self.mapped)), repr(self.delay)]
        for _, best, worst, sim_best, sim_worst, delay in self.scenarios:
            parts += [repr(best.power_after), repr(worst.power_after),
                      repr(sim_best), repr(sim_worst), repr(delay)]
        return "|".join(parts)


class Table3Flow:
    """The paper's Table 3 flow over a fixed subset of the suite.

    One operation takes one circuit from BLIF text through parsing,
    mapping with the default library, best and worst optimisation and
    switch-level simulation under both scenarios, and STA; operations go
    round the circuits in turn, and one cycle is one pass of the flow.
    The subset takes one circuit from each of four groups of the suite
    (ISCAS BLIF, arithmetic, control, random); the whole suite does not
    fit the run time.
    """

    name = "table3-flow"
    setup_reps = 5
    circuits = ("c17", "fa1", "mux8", "rnd_a")
    cycle = len(circuits)
    #: The probe's search runs on the largest circuit of the subset.
    probe_circuit = "rnd_a"

    def setup(self, seed: int) -> List[Tuple[str, str]]:
        with span("bench.inputs"):
            return [(name, write_blif(get_case(name).network()))
                    for name in self.circuits]

    def run(self, inputs: List[Tuple[str, str]], seed: int,
            index: int) -> FlowRow:
        name, text = inputs[index % self.cycle]
        return self._flow(name, text, seed)

    def _flow(self, name: str, text: str, seed: int) -> FlowRow:
        tech = TechParams()
        model = GatePowerModel(tech)
        with span("circuit.blif.parse"):
            network = parse_blif(text)
        mapped = _map(network)
        delay = _delay(mapped, tech)
        scenarios = []
        for scenario in ("A", "B"):
            with span("sim.stimulus"):
                if scenario == "A":
                    stats, stimulus = _stimulus_a(
                        mapped.inputs, case_seed(name, seed), 150.0)
                else:
                    generator = ScenarioB(seed=case_seed(name, seed))
                    stats = generator.input_stats(mapped.inputs)
                    stimulus = generator.generate(mapped.inputs, 250)
            best, worst = _optimize(mapped, stats, model)
            sim_best = _simulate(best.circuit, stimulus, tech)
            sim_worst = _simulate(worst.circuit, stimulus, tech)
            scenarios.append((stats, best, worst, sim_best, sim_worst,
                              _delay(best.circuit, tech)))
        return FlowRow(name, network, mapped, delay, scenarios)

    def summary(self, row: FlowRow) -> Summary:
        """Trials are the gate configurations the optimiser priced."""
        return Summary(
            _digest(row.key()),
            sum(decision.num_configurations
                for _, best, worst, *_ in row.scenarios
                for decision in best.decisions + worst.decisions))

    def check(self, inputs, firsts: List[FlowRow], summaries: List[Summary],
              seed: int, checks: Checks) -> Dict[str, float]:
        """Full checks on the first pass; later passes must repeat it exactly."""
        for row in firsts:
            checks.expect(check_equivalence(row.network, row.mapped),
                          f"{row.name}: mapped circuit not equivalent")
            for stats, best, *_ in row.scenarios:
                scratch = circuit_power(best.circuit, stats).total
                checks.expect(_rel(best.power_after, scratch) <= RTOL,
                              f"{row.name}: best power {best.power_after!r} "
                              f"!= from-scratch {scratch!r}")
        for index, summary in enumerate(summaries[self.cycle:], self.cycle):
            checks.expect(summary.key == summaries[index % self.cycle].key,
                          f"{firsts[index % self.cycle].name}: operation "
                          f"{index} differs from the first pass")
        cells = [(row, cell) for row in firsts for cell in row.scenarios]
        return {
            "power_ratio": statistics.mean(
                cell[1].power_after / cell[2].power_after for _, cell in cells),
            "sim_power_ratio": statistics.mean(
                cell[3] / cell[4] for _, cell in cells),
            "delay_ratio": statistics.mean(
                cell[5] / row.delay for row, cell in cells),
        }

    def probe(self, inputs, firsts: List[FlowRow], seed: int
              ) -> Dict[str, float]:
        """The layers the flow does not call, on one pass's own circuits."""
        _front_end_probe([row.network for row in firsts], parse=False)
        for row in firsts:
            _engine_probe(row.mapped, row.scenarios[0][0])
        row = next(r for r in firsts if r.name == self.probe_circuit)
        _, counts = search(row.mapped, row.scenarios[0][0],
                           strategy="anneal", seed=seed, anneal_trials=64,
                           polish=True, structural=STRUCTURAL)
        return counts


# ----------------------------------------------------------------------
# Search workloads
# ----------------------------------------------------------------------
@dataclass
class SearchInputs:
    network: LogicNetwork
    """The generated network the mapper consumed."""

    tile: Circuit
    """The mapped network."""

    tile_stats: Dict[str, SignalStats]

    circuit: Circuit
    """The circuit searched: the tile itself, or copies of it."""

    stats: Dict[str, SignalStats]


class _SearchWorkload:
    """What the two search workloads share.

    The network is one fixed random-logic network per workload; the
    seed draws the input statistics and the search's own randomness.  A
    network drawn from the seed too would make the work to convergence,
    and so the run time, vary by half from seed to seed.  Mapping
    happens in set-up.
    """

    name = ""
    #: Each set-up maps the network, so a run affords only two.
    setup_reps = 2
    #: Every operation repeats the same search.
    cycle = 1
    #: ``random_logic`` arguments: inputs, nodes, seed.
    network_shape: Tuple[int, int, int] = (16, 220, 7)
    #: Renamed copies of the mapped network in the searched circuit.
    copies = 1
    #: Transitions per input of the ``sim_power_ratio`` stimulus.
    sim_transitions = 20.0
    #: Seeded vectors of the equivalence check.
    vectors = 64

    def setup(self, seed: int) -> SearchInputs:
        with span("bench.generators.random_logic"):
            network = random_logic(*self.network_shape)
        tile = _map(network)
        with span("bench.inputs"):
            circuit = tile_circuit(tile, self.copies) if self.copies > 1 \
                else tile
            generator = ScenarioA(seed=seed)
            tile_stats = generator.input_stats(tile.inputs)
            stats = generator.input_stats(circuit.inputs)
        return SearchInputs(network, tile, tile_stats, circuit, stats)

    def params(self, seed: int) -> Dict[str, object]:
        raise NotImplementedError

    def run(self, inputs: SearchInputs, seed: int, index: int
            ) -> Tuple[SearchResult, Dict[str, float]]:
        return search(inputs.circuit, inputs.stats, **self.params(seed))

    def summary(self, outcome) -> Summary:
        """The key covers the artifact digest and the work counts."""
        result, counts = outcome
        return Summary(_digest(search_digest(result) + repr(sorted(
            counts.items()))), result.trials)

    def check(self, inputs: SearchInputs, firsts, summaries: List[Summary],
              seed: int, checks: Checks) -> Dict[str, float]:
        """Full checks on the first search; repeats must match it exactly."""
        result, _ = firsts[0]
        tech = TechParams()
        scratch = circuit_power(result.circuit, inputs.stats).total
        checks.expect(_rel(result.power_after, scratch) <= RTOL,
                      f"power_after {result.power_after!r} != from-scratch "
                      f"{scratch!r}")
        delay = analyze_timing(result.circuit, tech, compiled=False).delay
        checks.expect(_rel(result.delay_after, delay) <= RTOL,
                      f"delay_after {result.delay_after!r} != from-scratch "
                      f"{delay!r}")
        vectors = random_vectors(list(inputs.circuit.inputs), self.vectors,
                                 np.random.default_rng(seed))
        checks.expect(check_equivalence(inputs.circuit, result.circuit,
                                        vectors=vectors),
                      "searched circuit not equivalent to its input")
        for summary in summaries[1:]:
            checks.expect(summary.key == summaries[0].key,
                          "a repeated search differs")
        _, stimulus = _stimulus_a(inputs.circuit.inputs, seed,
                                  self.sim_transitions)
        sim_before = SwitchLevelSimulator(inputs.circuit, tech).run(stimulus)
        sim_after = SwitchLevelSimulator(result.circuit, tech).run(stimulus)
        return {
            "power_ratio": result.power_after / result.power_before,
            "sim_power_ratio": sim_after.power / sim_before.power,
            "delay_ratio": result.delay_after / result.delay_before,
        }

    def _probe_layers(self, inputs: SearchInputs, seed: int) -> None:
        """Front end, engine, optimiser and simulator on the inputs.

        The optimiser runs once, for the best objective, on the tile: it
        prices every configuration of every gate in Python, which at 10k
        gates outlasts a run.
        """
        tech = TechParams()
        _front_end_probe([inputs.network], parse=True)
        _engine_probe(inputs.circuit, inputs.stats)
        _optimize(inputs.tile, inputs.tile_stats, GatePowerModel(tech),
                  objectives=("best",))
        with span("sim.stimulus"):
            _, stimulus = _stimulus_a(inputs.circuit.inputs, seed,
                                      self.sim_transitions)
        _simulate(inputs.circuit, stimulus, tech)


def tile_circuit(tile: Circuit, copies: int) -> Circuit:
    """``copies`` disjoint copies of ``tile`` as one circuit, nets renamed."""
    circuit = Circuit(f"{tile.name}x{copies}", tile.library)
    for index in range(copies):
        prefix = f"t{index}_"
        for net in tile.inputs:
            circuit.add_input(prefix + net)
        for gate in tile.gates:
            circuit.add_gate(
                prefix + gate.name, gate.template.name,
                {pin: prefix + net for pin, net in gate.pin_nets.items()},
                prefix + gate.output, gate.config,
            )
        for net in tile.outputs:
            circuit.add_output(prefix + net)
    return circuit


class GreedySearch(_SearchWorkload):
    """Greedy power search to convergence, then the structural post-pass.

    The network maps to 210 gates, small enough that a run repeats the
    search several times.  Greedy candidate batches go through the
    batch pricer (the read path); the structural families edit
    connectivity (the write path).
    """

    name = "greedy-200"
    network_shape = (12, 100, 7)

    def params(self, seed: int) -> Dict[str, object]:
        return {"strategy": "greedy", "seed": seed, "structural": STRUCTURAL}

    def probe(self, inputs: SearchInputs, firsts, seed: int
              ) -> Dict[str, float]:
        self._probe_layers(inputs, seed)
        search(inputs.circuit, inputs.stats, strategy="anneal", seed=seed,
               anneal_trials=32)
        return firsts[0][1]


class AnnealSearch(_SearchWorkload):
    """Annealing with a fixed trial budget on about 10k gates.

    The circuit is 23 disjoint renamed copies of one mapped random
    network of 434 gates: mapping a 10k-gate network alone takes longer
    than a run may.  Every trial is a WhatIf apply, price and rollback,
    so per-trial terms that scale with the whole circuit show here.  The
    schedule is the default one (temperature 0.02, cooling 0.9 every 8
    trials) as a 1000-trial run sees it, compressed onto the trial
    budget: the hot phase accepts nearly every move and the cold tail
    rejects most.
    """

    name = "anneal-10k"
    copies = 23
    anneal_trials = 40
    # The object-path checks cost seconds at 10k gates: keep them short.
    sim_transitions = 1.5
    vectors = 8

    def params(self, seed: int) -> Dict[str, object]:
        return {
            "strategy": "anneal",
            "seed": seed,
            "anneal_trials": self.anneal_trials,
            "moves_per_temp": 1,
            "cooling": 0.9 ** (1000.0 / (8 * self.anneal_trials)),
        }

    def probe(self, inputs: SearchInputs, firsts, seed: int
              ) -> Dict[str, float]:
        self._probe_layers(inputs, seed)
        # No annealing steps, then the structural families on one copy:
        # the batch and structural spans the timed search never emits.
        search(inputs.tile, inputs.tile_stats, strategy="anneal", seed=seed,
               anneal_trials=0, structural=STRUCTURAL)
        return firsts[0][1]


WORKLOADS = {w.name: w for w in (Table3Flow(), GreedySearch(), AnnealSearch())}

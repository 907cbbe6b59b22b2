"""Seeding discipline: every stochastic entry point is deterministic.

Locks down the satellite fix of this PR: per-case experiment seeds are
process-stable (CRC-based, not :func:`hash`-based), the scenario
generators default to seed 0, and the simulators take explicit seeds
(unseeded bit-parallel runs warn and fall back deterministically).
"""

import numpy as np
import pytest

from repro.analysis.experiments import case_seed, run_table3_case
from repro.bench.suite import get_case
from repro.sim.bitsim import sampled_stats
from repro.sim.stimulus import ScenarioA, ScenarioB
from repro.stochastic.signal import SignalStats
from repro.synth.mapper import map_circuit


class TestCaseSeed:
    def test_known_values_locked(self):
        """CRC-based seeds must never change: golden artifacts depend on
        them.  (hash()-based seeds varied per interpreter process.)"""
        assert case_seed("c17", 0) == 4374
        assert case_seed("maj3", 0) == 1454
        assert case_seed("fa1", 0) == 7292
        assert case_seed("rnd_a", 0) == 5259

    def test_base_seed_shifts(self):
        assert case_seed("c17", 7) == case_seed("c17", 0) + 7

    def test_distinct_per_case(self):
        names = ["c17", "maj3", "fa1", "rca4", "mult2", "parity8"]
        seeds = {case_seed(name, 0) for name in names}
        assert len(seeds) == len(names)


class TestScenarioDeterminism:
    def test_default_construction_is_deterministic(self):
        a1 = ScenarioA().generate(("x", "y"), duration=1e-5)
        a2 = ScenarioA().generate(("x", "y"), duration=1e-5)
        assert a1.waveforms == a2.waveforms
        b1 = ScenarioB().generate(("x", "y"), cycles=40)
        b2 = ScenarioB().generate(("x", "y"), cycles=40)
        assert b1.waveforms == b2.waveforms

    def test_explicit_seed_changes_waveforms(self):
        base = ScenarioA(seed=0).generate(("x",), duration=1e-5)
        other = ScenarioA(seed=1).generate(("x",), duration=1e-5)
        assert base.waveforms != other.waveforms


class TestSimulatorSeeds:
    def test_sampled_stats_deterministic_and_seeded(self):
        circuit = map_circuit(get_case("maj3").network())
        stats = {n: SignalStats(0.5, 1.0e6) for n in circuit.inputs}
        a = sampled_stats(circuit, stats, lanes=256, steps=8, seed=3)
        b = sampled_stats(circuit, stats, lanes=256, steps=8, seed=3)
        assert a == b
        c = sampled_stats(circuit, stats, lanes=256, steps=8, seed=4)
        assert a != c

    def test_sampled_stats_unseeded_warns(self):
        circuit = map_circuit(get_case("maj3").network())
        stats = {n: SignalStats(0.5, 1.0e6) for n in circuit.inputs}
        with pytest.warns(UserWarning, match="seed"):
            warned = sampled_stats(circuit, stats, lanes=64, steps=4, seed=None)
        assert warned == sampled_stats(circuit, stats, lanes=64, steps=4, seed=0)


class TestExperimentDeterminism:
    def test_table3_case_reproducible(self):
        case = get_case("maj3")
        circuit = map_circuit(case.network())
        first = run_table3_case(case, "B", circuit=circuit, seed=0)
        second = run_table3_case(case, "B", circuit=circuit, seed=0)
        assert first == second

    def test_premapped_circuit_is_not_mutated(self):
        case = get_case("maj3")
        circuit = map_circuit(case.network())
        run_table3_case(case, "A", circuit=circuit, seed=0)
        # The optimiser works on copies: the runner reuses one netlist
        # for every scenario of a case.
        assert all(g.config is None for g in circuit.gates)

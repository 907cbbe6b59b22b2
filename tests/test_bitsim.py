"""Unit tests for the bit-parallel sampling engine (repro.sim.bitsim)."""

import numpy as np
import pytest

from repro.bench.suite import get_case
from repro.boolean.truthtable import TruthTable
from repro.circuit.netlist import Circuit
from repro.gates.library import default_library
from repro.sim.bitsim import (
    BitParallelSimulator,
    _compile_word_function,
    pack_vectors,
    sampled_stats,
    stimulus_step_vectors,
)
from repro.sim.logicsim import exhaustive_vectors, random_vectors
from repro.sim.stimulus import ScenarioA, ScenarioB
from repro.stochastic.signal import SignalStats
from repro.synth.mapper import map_circuit

LIB = default_library()


def small_circuit():
    c = Circuit("small", LIB)
    for n in ("a", "b", "c"):
        c.add_input(n)
    c.add_output("y")
    c.add_gate("g0", "aoi21", {"a": "a", "b": "b", "c": "c"}, "n0")
    c.add_gate("g1", "nand2", {"a": "n0", "b": "c"}, "y")
    return c


class TestWordFunctions:
    def test_every_library_cell_matches_truth_table(self):
        """The compiled word evaluator agrees with the scalar table."""
        for name in LIB.names:
            tt = LIB[name].compile_config().output_tt
            fn = _compile_word_function(tt.nvars, tt.bits)
            lanes = 1 << tt.nvars
            mask = (1 << lanes) - 1
            # Lane k carries minterm k, so the output word is tt.bits.
            words = [TruthTable.variable(tt.vars, v).bits for v in tt.vars]
            assert fn(words, mask) == tt.bits, name

    def test_constant_functions(self):
        mask = 0b1111
        assert _compile_word_function(0, 0)([], mask) == 0
        assert _compile_word_function(0, 1)([], mask) == mask


class TestSweep:
    def test_matches_scalar_evaluate_exhaustively(self):
        circuit = small_circuit()
        vectors = exhaustive_vectors(list(circuit.inputs))
        sim = BitParallelSimulator(circuit, lanes=len(vectors))
        words = sim.sweep(pack_vectors(vectors, circuit.inputs))
        for k, vector in enumerate(vectors):
            reference = circuit.evaluate(vector)
            for net in circuit.nets():
                assert bool((words[net] >> k) & 1) == bool(reference[net])

    def test_matches_scalar_evaluate_on_mapped_c17(self):
        circuit = map_circuit(get_case("c17").network())
        rng = np.random.default_rng(7)
        vectors = random_vectors(list(circuit.inputs), 128, rng)
        sim = BitParallelSimulator(circuit, lanes=128)
        words = sim.sweep(pack_vectors(vectors, circuit.inputs))
        for k, vector in enumerate(vectors):
            reference = circuit.evaluate(vector)
            for net in circuit.nets():
                assert bool((words[net] >> k) & 1) == bool(reference[net])

    def test_rejects_zero_lanes(self):
        with pytest.raises(ValueError):
            BitParallelSimulator(small_circuit(), lanes=0)

    def test_rejects_words_wider_than_lanes(self):
        """Packed vectors beyond the lane count would otherwise be
        silently dropped, biasing the statistics."""
        circuit = small_circuit()
        sim = BitParallelSimulator(circuit, lanes=4)
        with pytest.raises(ValueError, match="lanes"):
            sim.sweep({"a": 0b10000, "b": 0, "c": 0})


class TestRun:
    def test_deterministic_for_equal_seeds(self):
        circuit = small_circuit()
        stats = {n: SignalStats(0.5, 1.0e6) for n in circuit.inputs}
        sim = BitParallelSimulator(circuit, lanes=256)
        a = sim.run(stats, steps=16, seed=42)
        b = sim.run(stats, steps=16, seed=42)
        assert a.ones == b.ones and a.toggles == b.toggles
        c = sim.run(stats, steps=16, seed=43)
        assert c.ones != a.ones or c.toggles != a.toggles

    def test_unseeded_run_warns_and_defaults_deterministically(self):
        circuit = small_circuit()
        stats = {n: SignalStats(0.5, 1.0e6) for n in circuit.inputs}
        sim = BitParallelSimulator(circuit, lanes=64)
        with pytest.warns(UserWarning, match="seed"):
            a = sim.run(stats, steps=8, seed=None)
        with pytest.warns(UserWarning, match="seed"):
            b = sim.run(stats, steps=8, seed=None)
        assert a.ones == b.ones and a.toggles == b.toggles
        assert a.ones == sim.run(stats, steps=8, seed=0).ones

    def test_input_density_measurement_is_calibrated(self):
        """Measured input (P, D) converges to the requested statistics."""
        circuit = small_circuit()
        requested = {
            "a": SignalStats(0.3, 2.0e5),
            "b": SignalStats(0.7, 1.0e6),
            "c": SignalStats(0.5, 5.0e5),
        }
        report = BitParallelSimulator(circuit, lanes=4096).run(
            requested, steps=64, seed=9
        )
        for net, stats in requested.items():
            assert report.probability(net) == pytest.approx(stats.probability, abs=0.03)
            assert report.density(net) == pytest.approx(stats.density, rel=0.08)

    def test_inverter_complements_probability(self):
        c = Circuit("inv", LIB)
        c.add_input("a")
        c.add_output("y")
        c.add_gate("g0", "inv", {"a": "a"}, "y")
        report = BitParallelSimulator(c, lanes=4096).run(
            {"a": SignalStats(0.2, 1.0e6)}, steps=32, seed=5
        )
        assert report.probability("y") == pytest.approx(1.0 - report.probability("a"))
        # Inverter output toggles exactly when its input toggles.
        assert report.toggles["y"] == report.toggles["a"]

    def test_constant_inputs_never_toggle(self):
        circuit = small_circuit()
        stats = {n: SignalStats.constant(True) for n in circuit.inputs}
        report = BitParallelSimulator(circuit, lanes=128).run(stats, steps=16, seed=0)
        assert all(t == 0 for t in report.toggles.values())
        assert report.probability("a") == 1.0

    def test_rejects_coarse_dt(self):
        circuit = small_circuit()
        stats = {n: SignalStats(0.5, 1.0e6) for n in circuit.inputs}
        sim = BitParallelSimulator(circuit, lanes=16)
        with pytest.raises(ValueError, match="too coarse"):
            sim.run(stats, steps=4, dt=1.0)


class TestStimulusReplay:
    def test_replay_counts_match_zero_delay_switchsim(self):
        from repro.sim.switchsim import SwitchLevelSimulator

        circuit = map_circuit(get_case("c17").network())
        stimulus = ScenarioB(seed=3).generate(circuit.inputs, cycles=120)
        settled = SwitchLevelSimulator(circuit, delay_mode="zero").run(stimulus)
        report = BitParallelSimulator(circuit, lanes=1).run_stimulus(stimulus)
        assert report.toggles == settled.net_transitions

    def test_replay_matches_scenario_a_waveforms(self):
        """Exponential (unequally spaced) dwell times: toggle counts AND
        time-weighted probabilities both match the settled simulator."""
        from repro.sim.switchsim import SwitchLevelSimulator

        circuit = map_circuit(get_case("maj3").network())
        stimulus = ScenarioA(seed=11).generate(circuit.inputs, duration=2.0e-5)
        settled = SwitchLevelSimulator(circuit, delay_mode="zero").run(stimulus)
        report = BitParallelSimulator(circuit, lanes=1).run_stimulus(stimulus)
        assert report.toggles == settled.net_transitions
        for net in circuit.nets():
            assert report.probability(net) == pytest.approx(
                settled.net_high_time[net] / stimulus.duration, rel=1e-9, abs=1e-9
            )

    def test_run_vectors_durations_are_time_weighted(self):
        """Explicit step durations weight P by time, independent of dt."""
        c = Circuit("inv", LIB)
        c.add_input("a")
        c.add_output("y")
        c.add_gate("g0", "inv", {"a": "a"}, "y")
        sim = BitParallelSimulator(c, lanes=1)
        report = sim.run_vectors([{"a": 1}, {"a": 0}], durations=[2.0, 8.0])
        assert report.probability("a") == pytest.approx(0.2)
        assert report.probability("y") == pytest.approx(0.8)
        assert report.density("a") == pytest.approx(1.0 / 10.0)
        always_high = sim.run_vectors([{"a": 1}, {"a": 1}], durations=[2.0, 8.0])
        assert always_high.probability("a") == 1.0
        with pytest.raises(ValueError, match="duration"):
            sim.run_vectors([{"a": 1}], durations=[2.0, 8.0])
        with pytest.raises(ValueError, match="non-negative"):
            sim.run_vectors([{"a": 1}], durations=[-1.0])

    def test_step_vectors_group_simultaneous_events(self):
        stimulus = ScenarioB(seed=1).generate(("a", "b"), cycles=50)
        steps, durations = stimulus_step_vectors(stimulus, ("a", "b"))
        times = set()
        for net in ("a", "b"):
            times.update(t for t in stimulus.waveforms[net][1]
                         if t < stimulus.duration)
        assert len(steps) == len(times) + 1
        assert len(durations) == len(steps)
        assert sum(durations) == pytest.approx(stimulus.duration)

    def test_replay_requires_single_lane(self):
        circuit = small_circuit()
        stimulus = ScenarioB(seed=0).generate(circuit.inputs, cycles=10)
        with pytest.raises(ValueError, match="single-lane"):
            BitParallelSimulator(circuit, lanes=2).run_stimulus(stimulus)


class TestSampledStats:
    def test_full_net_map_with_valid_stats(self):
        circuit = map_circuit(get_case("fa1").network())
        stats_in = ScenarioA(seed=2).input_stats(circuit.inputs)
        result = sampled_stats(circuit, stats_in, lanes=512, steps=16, seed=4)
        assert set(result) == set(circuit.nets())
        for stats in result.values():
            assert 0.0 <= stats.probability <= 1.0
            assert stats.density >= 0.0

    def test_propagate_stats_dispatch(self):
        from repro.stochastic.density import propagate_stats

        circuit = map_circuit(get_case("maj3").network())
        stats_in = {n: SignalStats(0.5, 1.0e6) for n in circuit.inputs}
        sampled = propagate_stats(circuit, stats_in, method="sampled",
                                  lanes=2048, steps=32, seed=8)
        analytic = propagate_stats(circuit, stats_in, method="analytic")
        for net in circuit.nets():
            assert sampled[net].probability == pytest.approx(
                analytic[net].probability, abs=0.05
            )
        for method in ("analytic", "exact"):
            with pytest.raises(TypeError):
                propagate_stats(circuit, stats_in, method=method, lanes=64)

    def test_optimizer_accepts_sampled_source(self):
        from repro.core.optimizer import optimize_circuit
        from repro.stochastic.density import propagate_stats

        circuit = map_circuit(get_case("maj3").network())
        stats_in = ScenarioA(seed=6).input_stats(circuit.inputs)
        modelled = optimize_circuit(circuit, stats_in, objective="best")
        net_stats = propagate_stats(circuit, stats_in, method="sampled",
                                    lanes=4096, steps=64, seed=1)
        sampled = optimize_circuit(circuit, stats_in, objective="best",
                                   net_stats=net_stats)
        assert sampled.net_stats == net_stats
        assert sampled.power_after == pytest.approx(modelled.power_after, rel=0.25)
        with pytest.raises(ValueError, match="unknown backend"):
            propagate_stats(circuit, stats_in, method="nope")
        with pytest.raises(TypeError):
            # The engine is chosen by the map: no source or knobs here.
            optimize_circuit(circuit, stats_in, stats="sampled")

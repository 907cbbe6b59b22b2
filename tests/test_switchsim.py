"""Tests for the event-driven switch-level power simulator."""

import functools
import math
import operator
import statistics

import numpy as np
import pytest

from repro.analysis.experiments import case_seed
from repro.bench.suite import benchmark_suite, get_case
from repro.circuit.netlist import Circuit
from repro.core.optimizer import circuit_power, optimize_circuit
from repro.gates.capacitance import TechParams
from repro.gates.library import default_library
from repro.sim.stimulus import ScenarioA, ScenarioB, Stimulus
from repro.sim.switchsim import GateEnergy, SwitchLevelSimulator, SwitchSimReport
from repro.sim.switchsim_reference import ReferenceSwitchSimulator
from repro.stochastic.density import local_stats
from repro.stochastic.signal import SignalStats, markov_waveform
from repro.synth.mapper import map_circuit

LIB = default_library()
TECH = TechParams()


def inverter_circuit():
    c = Circuit("inv1", LIB)
    c.add_input("x")
    c.add_output("y")
    c.add_gate("g0", "inv", {"a": "x"}, "y")
    return c


def small_circuit():
    c = Circuit("small", LIB)
    for n in ("a", "b", "c"):
        c.add_input(n)
    c.add_output("y")
    c.add_gate("g0", "nand2", {"a": "a", "b": "b"}, "n0")
    c.add_gate("g1", "oai21", {"a": "n0", "b": "b", "c": "c"}, "y")
    return c


def square_wave(period: float, duration: float, initial=0):
    times = tuple(np.arange(period / 2, duration, period / 2))
    return (initial, times)


class TestBasics:
    def test_inverter_counts_every_transition(self):
        c = inverter_circuit()
        # 10 input toggles over 1 us.
        waveform = square_wave(2e-7, 1e-6)
        stats = {"x": SignalStats(0.5, 1e7)}
        stimulus = Stimulus(stats, {"x": waveform}, 1e-6)
        report = SwitchLevelSimulator(c, TECH).run(stimulus)
        assert report.net_transitions["x"] == len(waveform[1])
        assert report.net_transitions["y"] == len(waveform[1])

    def test_energy_accounting(self):
        c = inverter_circuit()
        waveform = square_wave(2e-7, 1e-6)
        stimulus = Stimulus({"x": SignalStats(0.5, 1e7)}, {"x": waveform}, 1e-6)
        sim = SwitchLevelSimulator(c, TECH, po_load=5e-15)
        report = sim.run(stimulus)
        # The inverter has no internal nodes; output energy is
        # transitions * 0.5 V^2 * C_out.
        c_out = sim._net_cap["y"]
        expected = len(waveform[1]) * TECH.switch_energy_factor * c_out
        assert report.gate_energy["g0"].output == pytest.approx(expected)
        assert report.gate_energy["g0"].internal == 0.0
        assert report.power == pytest.approx(report.energy / 1e-6)

    def test_constant_inputs_consume_nothing(self):
        c = small_circuit()
        stats = {n: SignalStats.constant(False) for n in c.inputs}
        stimulus = Stimulus(stats, {n: (0, ()) for n in c.inputs}, 1e-6)
        report = SwitchLevelSimulator(c, TECH).run(stimulus)
        assert report.energy == 0.0

    def test_missing_waveforms_raise(self):
        c = small_circuit()
        stimulus = Stimulus({}, {"a": (0, ())}, 1e-6)
        with pytest.raises(KeyError):
            SwitchLevelSimulator(c, TECH).run(stimulus)

    def test_invalid_delay_mode(self):
        with pytest.raises(ValueError):
            SwitchLevelSimulator(small_circuit(), TECH, delay_mode="warp")

    def test_measured_stats_of_constant_net(self):
        c = small_circuit()
        stats = {n: SignalStats.constant(True) for n in c.inputs}
        stimulus = Stimulus(stats, {n: (1, ()) for n in c.inputs}, 1e-6)
        report = SwitchLevelSimulator(c, TECH).run(stimulus)
        # a=b=1 -> n0 = 0; y = !((n0|b)&c) = !((0|1)&1) = 0.
        assert report.measured_stats("n0").probability == 0.0
        assert report.measured_stats("y").probability == 0.0


class TestAgainstModel:
    @pytest.mark.parametrize("seed", [1, 2])
    def test_densities_match_propagation(self, seed):
        """Zero-delay simulation reproduces the exact density propagation.

        The circuit reconverges (pin b feeds both gates), so the *exact*
        BDD engine is the right reference; the local engine would
        overestimate — which is the point of ablation A3.
        """
        from repro.stochastic.density import exact_stats

        c = small_circuit()
        scenario = ScenarioA(seed=seed, density_max=1e6)
        stats = scenario.input_stats(c.inputs)
        duration = 3000.0 / 1e6
        stimulus = scenario.generate(c.inputs, duration)
        report = SwitchLevelSimulator(c, TECH, delay_mode="zero").run(stimulus)
        predicted = exact_stats(c, stimulus.stats)
        for net in ("n0", "y"):
            measured = report.measured_stats(net)
            assert measured.density == pytest.approx(
                predicted[net].density, rel=0.25
            ), net
            assert measured.probability == pytest.approx(
                predicted[net].probability, abs=0.1
            ), net

    def test_power_matches_model_on_small_circuit(self):
        c = small_circuit()
        scenario = ScenarioA(seed=3)
        stats = scenario.input_stats(c.inputs)
        duration = 2000.0 / 1e6
        stimulus = scenario.generate(c.inputs, duration)
        sim_power = SwitchLevelSimulator(c, TECH).run(stimulus).power
        model_power = circuit_power(c, stimulus.stats).total
        assert sim_power == pytest.approx(model_power, rel=0.3)


class TestGlitches:
    def _glitch_circuit(self):
        """y = nand(a, inv(a)) — a hazard when 'a' toggles."""
        c = Circuit("glitch", LIB)
        c.add_input("a")
        c.add_output("y")
        c.add_gate("g0", "inv", {"a": "a"}, "abar")
        c.add_gate("g1", "nand2", {"a": "a", "b": "abar"}, "y")
        return c

    def test_transport_delay_produces_glitches(self):
        c = self._glitch_circuit()
        waveform = square_wave(2e-8, 1e-6)
        stimulus = Stimulus({"a": SignalStats(0.5, 1e8)}, {"a": waveform}, 1e-6)
        report = SwitchLevelSimulator(c, TECH, delay_mode="elmore").run(stimulus)
        # Statically y == 1 always, but the unequal arrival of a and
        # !a produces useless transitions (the paper's motivation).
        assert report.net_transitions["y"] > 0

    def test_zero_delay_hides_those_glitches(self):
        c = self._glitch_circuit()
        waveform = square_wave(2e-8, 1e-6)
        stimulus = Stimulus({"a": SignalStats(0.5, 1e8)}, {"a": waveform}, 1e-6)
        report = SwitchLevelSimulator(c, TECH, delay_mode="zero").run(stimulus)
        assert report.net_transitions["y"] == 0

    def test_inertial_filter_reduces_activity(self):
        c = self._glitch_circuit()
        waveform = square_wave(2e-8, 1e-6)
        stimulus = Stimulus({"a": SignalStats(0.5, 1e8)}, {"a": waveform}, 1e-6)
        transport = SwitchLevelSimulator(c, TECH, inertial=False).run(stimulus)
        inertial = SwitchLevelSimulator(c, TECH, inertial=True).run(stimulus)
        assert inertial.net_transitions["y"] <= transport.net_transitions["y"]


class TestReorderingVisibleInSimulation:
    def test_best_config_beats_worst_in_simulation(self):
        """End-to-end: the model's choice wins at switch level too."""
        from repro.core.optimizer import optimize_circuit

        c = small_circuit()
        scenario = ScenarioA(seed=11)
        stats = scenario.input_stats(c.inputs)
        stimulus = scenario.generate(c.inputs, duration=4000.0 / 1e6)
        best = optimize_circuit(c, stats, objective="best")
        worst = optimize_circuit(c, stats, objective="worst")
        p_best = SwitchLevelSimulator(best.circuit, TECH).run(stimulus).power
        p_worst = SwitchLevelSimulator(worst.circuit, TECH).run(stimulus).power
        assert p_best < p_worst


class TestReportTotals:
    def test_energy_totals_fold_left_to_right(self):
        """Report totals are strict left folds in gate order.

        ``sum()`` is compensated from Python 3.12 (and ``math.fsum``
        always is): on these energies it gives 1.0 where the fold gives
        0.0, so the simulated powers would differ between Pythons.
        """
        energies = [1e16, 1.0, -1e16]
        fold = functools.reduce(operator.add, energies, 0.0)
        assert fold == 0.0 and math.fsum(energies) == 1.0
        report = SwitchSimReport(
            duration=1.0,
            gate_energy={f"g{i}": GateEnergy(internal=e)
                         for i, e in enumerate(energies)},
            input_net_energy=0.0, net_transitions={}, net_high_time={})
        assert report.internal_energy == fold
        assert report.energy == fold
        assert report.power == fold
        report = SwitchSimReport(
            duration=1.0,
            gate_energy={f"g{i}": GateEnergy(output=e)
                         for i, e in enumerate(energies)},
            input_net_energy=0.0, net_transitions={}, net_high_time={})
        assert report.energy == fold


def report_fields(report):
    """Every field of a report, in insertion order, for ``==``."""
    return {
        "duration": report.duration,
        "gate_energy": [(name, e.internal, e.output)
                        for name, e in report.gate_energy.items()],
        "input_net_energy": report.input_net_energy,
        "net_transitions": list(report.net_transitions.items()),
        "net_high_time": list(report.net_high_time.items()),
        "power": repr(report.power),
    }


def table3_stimulus(circuit, case, scenario):
    """The Table 3 flow's stimulus for ``case`` under ``scenario``."""
    if scenario == "A":
        generator = ScenarioA(seed=case_seed(case))
        stats = generator.input_stats(circuit.inputs)
        duration = 150.0 / statistics.mean(s.density for s in stats.values())
        return stats, generator.generate(circuit.inputs, duration)
    generator = ScenarioB(seed=case_seed(case))
    stats = generator.input_stats(circuit.inputs)
    return stats, generator.generate(circuit.inputs, 250)


#: (delay_mode, inertial): transport, inertial and zero-delay.
SIM_MODES = [("elmore", False), ("elmore", True), ("zero", False)]


class TestLoweredLoopMatchesReference:
    """The integer-array loops equal the readable simulator bit for bit."""

    @pytest.mark.parametrize("scenario", ["A", "B"])
    @pytest.mark.parametrize("case",
                             [c.name for c in benchmark_suite("quick")])
    def test_quick_suite(self, case, scenario):
        mapped = map_circuit(get_case(case).network())
        stats, stimulus = table3_stimulus(mapped, case, scenario)
        for objective in ("best", "worst"):
            circuit = optimize_circuit(mapped, stats,
                                       objective=objective).circuit
            for delay_mode, inertial in SIM_MODES:
                lowered = SwitchLevelSimulator(
                    circuit, TECH, delay_mode=delay_mode, inertial=inertial)
                reference = ReferenceSwitchSimulator(
                    circuit, TECH, delay_mode=delay_mode, inertial=inertial)
                assert report_fields(lowered.run(stimulus)) == \
                    report_fields(reference.run(stimulus)), \
                    (objective, delay_mode, inertial)

"""Cross-module property tests (hypothesis) for the core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.power_model import GatePowerModel
from repro.core.reorder import (
    enumerate_configurations,
    evaluate_configurations,
    pivot_search,
)
from repro.gates import sptree
from repro.gates.capacitance import TechParams
from repro.gates.library import GateConfig, default_library
from repro.gates.network import OUT, TransistorNetwork, compile_gate
from repro.gates.sptree import Leaf, Parallel, Series
from repro.stochastic.signal import SignalStats

LIB = default_library()
MODEL = GatePowerModel(TechParams())


def small_sp_trees():
    """Random SP trees with at most ~6 distinct leaves."""

    def rename_unique(tree):
        counter = [0]

        def walk(node):
            if isinstance(node, Leaf):
                counter[0] += 1
                return Leaf(f"v{counter[0]}")
            return type(node)(tuple(walk(c) for c in node.children))

        return walk(tree)

    leaf = st.builds(Leaf, st.just("x"))
    inner = st.one_of(
        leaf,
        st.lists(leaf, min_size=2, max_size=3).map(lambda cs: Series(tuple(cs))),
        st.lists(leaf, min_size=2, max_size=2).map(lambda cs: Parallel(tuple(cs))),
    )
    tree = st.one_of(
        inner,
        st.lists(inner, min_size=2, max_size=2).map(lambda cs: Series(tuple(cs))),
        st.lists(inner, min_size=2, max_size=2).map(lambda cs: Parallel(tuple(cs))),
    )
    return tree.map(rename_unique).map(sptree.canonical).filter(
        lambda t: len(sptree.leaves(t)) <= 6
    )


class TestPivotEqualsBruteForceOnRandomGates:
    @given(small_sp_trees())
    @settings(max_examples=40, deadline=None)
    def test_pivot_search_complete(self, pdn):
        """Figure 4 enumerates exactly the permutation set on ANY SP gate."""
        pun = sptree.dual(pdn)
        start = GateConfig(pdn, pun)
        discovered = {c.key() for c in pivot_search(start)}
        expected = {
            GateConfig(p, q).key()
            for p in sptree.enumerate_orderings(pdn)
            for q in sptree.enumerate_orderings(pun)
        }
        assert discovered == expected

    @given(small_sp_trees())
    @settings(max_examples=30, deadline=None)
    def test_every_ordering_same_function(self, pdn):
        variables = tuple(sorted(sptree.leaves(pdn)))
        reference = None
        for config in pivot_search(GateConfig(pdn, sptree.dual(pdn))):
            net = TransistorNetwork(config.pdn, config.pun, variables)
            tt = net.output_function()
            if reference is None:
                reference = tt
            assert tt == reference


class TestModelInvariants:
    @given(
        st.sampled_from(["nand3", "oai21", "aoi22", "aoi211"]),
        st.lists(st.floats(min_value=0.05, max_value=0.95), min_size=4, max_size=4),
        st.lists(st.floats(min_value=1.0, max_value=1e6), min_size=4, max_size=4),
    )
    @settings(max_examples=30, deadline=None)
    def test_best_min_worst_max(self, name, probs, densities):
        template = LIB[name]
        stats = {
            pin: SignalStats(p, d)
            for pin, p, d in zip(template.pins, probs, densities)
        }
        evaluations = evaluate_configurations(template, stats, MODEL)
        powers = [e.power for e in evaluations]
        assert all(p >= 0.0 for p in powers)
        assert all(math.isfinite(p) for p in powers)

    @given(
        st.sampled_from(["nand2", "nor3", "oai21", "aoi221"]),
        st.lists(st.floats(min_value=0.02, max_value=0.98), min_size=5, max_size=5),
    )
    @settings(max_examples=30, deadline=None)
    def test_node_probability_steady_state_identity(self, name, probs):
        template = LIB[name]
        gate = template.compile_config()
        pin_probs = dict(zip(template.pins, probs))
        for node in gate.nodes:
            ph = gate.h[node].probability(pin_probs)
            pg = gate.g[node].probability(pin_probs)
            p = MODEL.node_probability(gate, node, pin_probs)
            if ph + pg > 1e-9:
                # Steady state balances charge and discharge flows.
                assert p * pg == pytest.approx((1 - p) * ph, abs=1e-9)

    @given(st.sampled_from(list(LIB.names)))
    @settings(max_examples=17, deadline=None)
    def test_output_node_hg_complementary_every_gate(self, name):
        gate = LIB[name].compile_config()
        assert gate.g[OUT] == ~gate.h[OUT]

    @given(
        st.sampled_from(["nand3", "oai21", "aoi22"]),
        st.floats(min_value=1.0, max_value=10.0),
    )
    @settings(max_examples=20, deadline=None)
    def test_power_scales_linearly_in_density(self, name, factor):
        template = LIB[name]
        base = {
            pin: SignalStats(0.4, 1e4 * (j + 1))
            for j, pin in enumerate(template.pins)
        }
        scaled = {
            pin: SignalStats(s.probability, s.density * factor)
            for pin, s in base.items()
        }
        gate = template.compile_config()
        p1 = MODEL.gate_power(gate, base).total
        p2 = MODEL.gate_power(gate, scaled).total
        assert p2 == pytest.approx(factor * p1, rel=1e-9)


class TestSimulatorInvariants:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_energy_nonnegative_and_consistent(self, seed):
        from repro.circuit.netlist import Circuit
        from repro.sim.stimulus import ScenarioA
        from repro.sim.switchsim import SwitchLevelSimulator

        c = Circuit("p", LIB)
        for n in ("a", "b", "c"):
            c.add_input(n)
        c.add_output("y")
        c.add_gate("g0", "aoi21", {"a": "a", "b": "b", "c": "c"}, "n0")
        c.add_gate("g1", "nand2", {"a": "n0", "b": "c"}, "y")
        scenario = ScenarioA(seed=seed)
        stimulus = scenario.generate(c.inputs, duration=3e-5)
        report = SwitchLevelSimulator(c).run(stimulus)
        assert report.energy >= 0.0
        assert report.internal_energy >= 0.0
        for net, count in report.net_transitions.items():
            assert count >= 0
            assert 0.0 <= report.net_high_time[net] <= report.duration * (1 + 1e-9)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_zero_delay_never_exceeds_timed_activity(self, seed):
        """Settled simulation is a lower bound on per-net transitions."""
        from repro.circuit.netlist import Circuit
        from repro.sim.stimulus import ScenarioB
        from repro.sim.switchsim import SwitchLevelSimulator

        c = Circuit("p", LIB)
        for n in ("a", "b", "c"):
            c.add_input(n)
        c.add_output("y")
        c.add_gate("g0", "inv", {"a": "a"}, "n0")
        c.add_gate("g1", "nand3", {"a": "n0", "b": "b", "c": "c"}, "n1")
        c.add_gate("g2", "nand2", {"a": "n1", "b": "a"}, "y")
        stimulus = ScenarioB(seed=seed).generate(c.inputs, cycles=60)
        timed = SwitchLevelSimulator(c, delay_mode="elmore").run(stimulus)
        settled = SwitchLevelSimulator(c, delay_mode="zero").run(stimulus)
        total_timed = sum(timed.net_transitions.values())
        total_settled = sum(settled.net_transitions.values())
        assert total_settled <= total_timed

    # -- the lowered loops against the readable oracle -----------------
    @staticmethod
    def _random_circuit(seed):
        """A random DAG of 1-6 library gates over 2-4 inputs.

        Pins draw their nets with replacement, so one gate often sees
        the same net on two pins; every gate gets a random ordering.
        """
        from repro.circuit.netlist import Circuit

        rng = np.random.default_rng(seed)
        templates = list(LIB)
        c = Circuit("r", LIB)
        nets = [f"i{k}" for k in range(int(rng.integers(2, 5)))]
        for net in nets:
            c.add_input(net)
        for g in range(int(rng.integers(1, 7))):
            template = templates[int(rng.integers(len(templates)))]
            pins = {pin: nets[int(rng.integers(len(nets)))]
                    for pin in template.pins}
            c.add_gate(f"g{g}", template.name, pins, f"n{g}")
            configs = template.configurations()
            c.set_config(f"g{g}", configs[int(rng.integers(len(configs)))])
            nets.append(f"n{g}")
        c.add_output(nets[-1])
        return c

    @staticmethod
    def _both(circuit, stimulus, **kwargs):
        from repro.sim.switchsim import SwitchLevelSimulator
        from repro.sim.switchsim_reference import ReferenceSwitchSimulator

        return (SwitchLevelSimulator(circuit, **kwargs).run(stimulus),
                ReferenceSwitchSimulator(circuit, **kwargs).run(stimulus))

    @staticmethod
    def _fields(report):
        return (report.duration,
                [(n, e.internal, e.output)
                 for n, e in report.gate_energy.items()],
                report.input_net_energy,
                list(report.net_transitions.items()),
                list(report.net_high_time.items()),
                repr(report.power))

    MODES = [{"delay_mode": "elmore", "inertial": False},
             {"delay_mode": "elmore", "inertial": True},
             {"delay_mode": "zero"}]

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=40, deadline=None)
    def test_lowered_loop_matches_reference_on_random_circuits(self, seed):
        """Equal to the oracle field for field, and again on a rerun of
        the same simulator."""
        from repro.sim.stimulus import ScenarioA, ScenarioB
        from repro.sim.switchsim import SwitchLevelSimulator
        from repro.sim.switchsim_reference import ReferenceSwitchSimulator

        c = self._random_circuit(seed)
        stimuli = [ScenarioA(seed=seed).generate(c.inputs, duration=3e-5),
                   ScenarioB(seed=seed).generate(c.inputs, cycles=30)]
        for mode in self.MODES:
            simulator = SwitchLevelSimulator(c, **mode)
            for stimulus in stimuli:
                expected = self._fields(
                    ReferenceSwitchSimulator(c, **mode).run(stimulus))
                assert self._fields(simulator.run(stimulus)) == expected, mode
                assert self._fields(simulator.run(stimulus)) == expected, mode

    def test_same_net_on_two_pins(self):
        """Each (gate, pin) entry is evaluated and scheduled with that
        pin's own delay, as in the oracle."""
        from repro.circuit.netlist import Circuit
        from repro.sim.stimulus import ScenarioA

        c = Circuit("dup", LIB)
        for n in ("a", "b"):
            c.add_input(n)
        c.add_output("y")
        c.add_gate("g0", "aoi21", {"a": "a", "b": "a", "c": "b"}, "n0")
        c.add_gate("g1", "oai21", {"a": "n0", "b": "a", "c": "n0"}, "y")
        stimulus = ScenarioA(seed=5).generate(c.inputs, duration=1e-4)
        for mode in self.MODES:
            lowered, reference = self._both(c, stimulus, **mode)
            assert self._fields(lowered) == self._fields(reference), mode
            assert lowered.net_transitions["y"] > 0

    def test_event_at_duration_is_dropped(self):
        from repro.circuit.netlist import Circuit
        from repro.sim.stimulus import Stimulus

        c = Circuit("inv", LIB)
        c.add_input("a")
        c.add_output("y")
        c.add_gate("g0", "inv", {"a": "a"}, "y")
        stimulus = Stimulus({}, {"a": (0, (2e-7, 5e-7, 1e-6))}, 1e-6)
        for mode in self.MODES:
            lowered, reference = self._both(c, stimulus, **mode)
            assert self._fields(lowered) == self._fields(reference), mode
            assert lowered.net_transitions["a"] == 2
            assert lowered.net_high_time["a"] == 5e-7 - 2e-7

    def test_negative_stimulus_time_is_rejected(self):
        from repro.circuit.netlist import Circuit
        from repro.sim.stimulus import Stimulus
        from repro.sim.switchsim import SwitchLevelSimulator
        from repro.sim.switchsim_reference import ReferenceSwitchSimulator

        c = Circuit("inv", LIB)
        c.add_input("a")
        c.add_output("y")
        c.add_gate("g0", "inv", {"a": "a"}, "y")
        stimulus = Stimulus({}, {"a": (0, (-1e-9, 5e-7))}, 1e-6)
        for cls in (SwitchLevelSimulator, ReferenceSwitchSimulator):
            for inertial in (False, True):
                with pytest.raises(ValueError,
                                   match="cannot schedule in negative time"):
                    cls(c, inertial=inertial).run(stimulus)

    def test_missing_waveform_is_a_key_error(self):
        from repro.sim.stimulus import Stimulus
        from repro.sim.switchsim import SwitchLevelSimulator
        from repro.sim.switchsim_reference import ReferenceSwitchSimulator

        c = _bitsim_test_circuit()
        stimulus = Stimulus({}, {"a": (0, ()), "c": (1, ())}, 1e-6)
        for cls in (SwitchLevelSimulator, ReferenceSwitchSimulator):
            for mode in self.MODES:
                with pytest.raises(KeyError,
                                   match=r"stimulus missing waveforms for \['b'\]"):
                    cls(c, **mode).run(stimulus)


def _bitsim_test_circuit():
    from repro.circuit.netlist import Circuit

    c = Circuit("bp", LIB)
    for n in ("a", "b", "c"):
        c.add_input(n)
    c.add_output("y")
    c.add_gate("g0", "aoi21", {"a": "a", "b": "b", "c": "c"}, "n0")
    c.add_gate("g1", "nor2", {"a": "n0", "b": "a"}, "n1")
    c.add_gate("g2", "nand2", {"a": "n1", "b": "c"}, "y")
    return c


class TestBitParallelInvariants:
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=8, deadline=None)
    def test_toggle_counts_equal_zero_delay_switchsim(self, seed):
        """Bit-parallel stimulus replay IS the settled simulation: per-net
        toggle counts match the zero-delay SwitchLevelSimulator exactly on
        identical stimulus, for any seed."""
        from repro.sim.bitsim import BitParallelSimulator
        from repro.sim.stimulus import ScenarioB
        from repro.sim.switchsim import SwitchLevelSimulator

        c = _bitsim_test_circuit()
        stimulus = ScenarioB(seed=seed).generate(c.inputs, cycles=50)
        settled = SwitchLevelSimulator(c, delay_mode="zero").run(stimulus)
        report = BitParallelSimulator(c, lanes=1).run_stimulus(stimulus)
        assert report.toggles == settled.net_transitions

    @given(st.sampled_from([0, 1, 2, 3]))
    @settings(max_examples=4, deadline=None)
    def test_lane_count_invariance(self, seed):
        """W=64 and W=4096 lanes estimate statistically equal (P, D):
        the packing width is an implementation detail, not a parameter
        of the estimator.  Bound: 4 combined standard errors."""
        import math

        from repro.sim.bitsim import BitParallelSimulator

        c = _bitsim_test_circuit()
        stats = {
            "a": SignalStats(0.35, 4.0e5),
            "b": SignalStats(0.6, 1.0e6),
            "c": SignalStats(0.5, 7.0e5),
        }
        steps = 32
        narrow = BitParallelSimulator(c, lanes=64).run(stats, steps=steps, seed=seed)
        wide = BitParallelSimulator(c, lanes=4096).run(stats, steps=steps, seed=seed + 100)
        assert narrow.dt == wide.dt
        for net in c.nets():
            p_narrow, p_wide = narrow.probability(net), wide.probability(net)
            p = 0.5 * (p_narrow + p_wide)
            stderr = math.sqrt(max(p * (1 - p), 1e-4)) * (
                1 / math.sqrt(narrow.samples) + 1 / math.sqrt(wide.samples)
            )
            assert abs(p_narrow - p_wide) <= 4 * stderr + 1e-9
            d_narrow, d_wide = narrow.density(net), wide.density(net)
            scale = max(d_narrow, d_wide, 1e-12)
            # Densities are per-step Bernoulli means as well; allow the
            # same relative sampling slack on the narrow run.
            assert abs(d_narrow - d_wide) / scale <= 4 / math.sqrt(
                min(narrow.lanes * (steps - 1), wide.lanes * (steps - 1))
            ) * 3 + 0.02

"""Tests for Elmore stack delays and static timing analysis."""

import pytest

from repro.circuit.netlist import Circuit
from repro.gates import sptree
from repro.gates.capacitance import TechParams
from repro.gates.library import GateConfig, default_library
from repro.gates.sptree import Leaf, Parallel, Series
from repro.timing.elmore import (
    gate_pin_delay,
    gate_worst_delay,
    min_path_resistance,
    stack_delay,
)
from repro.timing.sta import analyze_timing, circuit_delay

LIB = default_library()
TECH = TechParams()


def _delay_with(circuit, config, arrivals):
    circuit.set_config("g0", config)
    return analyze_timing(circuit, input_arrivals=arrivals).delay


class TestMinPathResistance:
    def test_leaf(self):
        assert min_path_resistance(Leaf("a"), TECH, "n") == TECH.r_n
        assert min_path_resistance(Leaf("a"), TECH, "p") == TECH.r_p

    def test_series_sums(self):
        t = Series((Leaf("a"), Leaf("b"), Leaf("c")))
        assert min_path_resistance(t, TECH, "n") == pytest.approx(3 * TECH.r_n)

    def test_parallel_takes_min(self):
        t = Parallel((Series((Leaf("a"), Leaf("b"))), Leaf("c")))
        assert min_path_resistance(t, TECH, "n") == pytest.approx(TECH.r_n)


class TestStackDelay:
    def test_critical_input_near_output_is_faster(self):
        """The classic rule of thumb the paper quotes (§5)."""
        chain = Series((Leaf("a"), Leaf("b"), Leaf("c")))  # a at the output
        c_out = 20e-15
        d_top = stack_delay(chain, "a", c_out, TECH, "n")
        d_mid = stack_delay(chain, "b", c_out, TECH, "n")
        d_bot = stack_delay(chain, "c", c_out, TECH, "n")
        assert d_top < d_mid < d_bot

    def test_unknown_pin_raises(self):
        with pytest.raises(KeyError):
            stack_delay(Leaf("a"), "z", 1e-15, TECH, "n")

    def test_delay_positive_and_scales_with_load(self):
        chain = Series((Leaf("a"), Leaf("b")))
        d1 = stack_delay(chain, "a", 10e-15, TECH, "n")
        d2 = stack_delay(chain, "a", 40e-15, TECH, "n")
        assert 0.0 < d1 < d2

    def test_parallel_branch_selection(self):
        t = Series((Parallel((Leaf("a"), Leaf("b"))), Leaf("c")))
        # Both parallel pins see the same topology -> equal delays.
        da = stack_delay(t, "a", 10e-15, TECH, "n")
        db = stack_delay(t, "b", 10e-15, TECH, "n")
        assert da == pytest.approx(db)

    def test_inverter_delay(self):
        d = stack_delay(Leaf("a"), "a", 10e-15, TECH, "n")
        # ln2 * R * C with only the output cap.
        assert d == pytest.approx(0.693 * TECH.r_n * 10e-15, rel=0.01)


class TestGateDelays:
    def test_gate_pin_delay_covers_both_transitions(self):
        template = LIB["nand2"]
        gate = template.compile_config()
        config = template.default_config()
        load = 10e-15
        d = gate_pin_delay(gate, config, "a", TECH, load)
        out_cap = gate.terminal_counts["y"] * TECH.c_diff + TECH.c_wire + load
        fall = stack_delay(config.pdn, "a", out_cap, TECH, "n")
        assert d >= fall  # max of rise and fall

    def test_ordering_changes_pin_delay(self):
        template = LIB["nand3"]
        gate = template.compile_config()
        configs = template.configurations()
        delays = {
            c.key(): gate_pin_delay(template.compile_config(c), c, "a", TECH, 10e-15)
            for c in configs
        }
        assert len(set(round(d, 15) for d in delays.values())) > 1

    def test_worst_delay_is_max_over_pins(self):
        template = LIB["oai21"]
        gate = template.compile_config()
        config = template.default_config()
        worst = gate_worst_delay(gate, config, TECH, 10e-15)
        per_pin = [
            gate_pin_delay(gate, config, p, TECH, 10e-15) for p in gate.inputs
        ]
        assert worst == pytest.approx(max(per_pin))


class TestSTA:
    def _chain_circuit(self, length=3):
        c = Circuit("chain", LIB)
        c.add_input("x")
        prev = "x"
        for i in range(length):
            c.add_gate(f"g{i}", "inv", {"a": prev}, f"n{i}")
            prev = f"n{i}"
        c.add_output(prev)
        return c

    def test_chain_delay_accumulates(self):
        d1 = circuit_delay(self._chain_circuit(1))
        d3 = circuit_delay(self._chain_circuit(3))
        assert d3 > d1 > 0.0

    def test_arrival_monotone_along_path(self):
        c = self._chain_circuit(4)
        report = analyze_timing(c)
        arrivals = [report.arrival("x")] + [report.arrival(f"n{i}") for i in range(4)]
        assert arrivals == sorted(arrivals)

    def test_critical_path_endpoints(self):
        c = self._chain_circuit(3)
        report = analyze_timing(c)
        assert report.critical_path[0] == "x"
        assert report.critical_path[-1] == "n2"
        assert report.delay == report.arrival("n2")

    def test_input_arrivals_shift_delay(self):
        c = self._chain_circuit(2)
        base = analyze_timing(c).delay
        shifted = analyze_timing(c, input_arrivals={"x": 1e-9}).delay
        assert shifted == pytest.approx(base + 1e-9)

    def test_reordering_changes_circuit_delay(self):
        """With a late-arriving input, its stack position matters."""
        c = Circuit("t", LIB)
        for n in ("a", "b", "c"):
            c.add_input(n)
        c.add_output("y")
        c.add_gate("g0", "nand3", {"a": "a", "b": "b", "c": "c"}, "y")
        arrivals = {"a": 3e-10, "b": 0.0, "c": 0.0}  # a is critical
        delays = set()
        for config in LIB["nand3"].configurations():
            c.set_config("g0", config)
            report = analyze_timing(c, input_arrivals=arrivals)
            delays.add(round(report.delay, 15))
        assert len(delays) > 1
        # The fastest ordering puts the critical transistor at the output:
        # that is the configuration with pdn chain starting with 'a'.
        from repro.gates.sptree import Leaf, Series

        best_config = min(
            LIB["nand3"].configurations(),
            key=lambda cfg: (
                _delay_with(c, cfg, arrivals), cfg.key()
            ),
        )
        assert best_config.pdn.children[0] == Leaf("a")

    def test_empty_outputs_reports_zero(self):
        c = Circuit("empty", LIB)
        c.add_input("a")
        report = analyze_timing(c)
        assert report.delay == 0.0 and report.critical_path == ()

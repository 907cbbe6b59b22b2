"""Tests for probability and transition-density propagation engines."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuit.netlist import Circuit
from repro.gates.library import default_library
from repro.stochastic.density import exact_stats, local_stats, propagate_stats
from repro.stochastic.probability import (
    build_global_bdds,
    exact_probabilities,
    local_probabilities,
)
from repro.stochastic.signal import SignalStats

LIB = default_library()


def inverter_chain(length=4):
    c = Circuit("chain", LIB)
    c.add_input("x")
    prev = "x"
    for i in range(length):
        c.add_gate(f"g{i}", "inv", {"a": prev}, f"n{i}")
        prev = f"n{i}"
    c.add_output(prev)
    return c


def tree_circuit():
    """Fanout-free: local propagation must be exact."""
    c = Circuit("tree", LIB)
    for net in ("a", "b", "c", "d"):
        c.add_input(net)
    c.add_output("y")
    c.add_gate("g0", "nand2", {"a": "a", "b": "b"}, "n0")
    c.add_gate("g1", "nor2", {"a": "c", "b": "d"}, "n1")
    c.add_gate("g2", "nand2", {"a": "n0", "b": "n1"}, "y")
    return c


def reconvergent_circuit():
    """z = nand(a, b); y = nand(z, z) — reconvergent fanout of z."""
    c = Circuit("reconv", LIB)
    c.add_input("a")
    c.add_input("b")
    c.add_output("y")
    c.add_gate("g0", "nand2", {"a": "a", "b": "b"}, "z")
    c.add_gate("g1", "nand2", {"a": "z", "b": "z"}, "y")
    return c


class TestLocalProbabilities:
    def test_inverter_chain_alternates(self):
        c = inverter_chain(3)
        probs = local_probabilities(c, {"x": 0.2})
        assert probs["n0"] == pytest.approx(0.8)
        assert probs["n1"] == pytest.approx(0.2)
        assert probs["n2"] == pytest.approx(0.8)

    def test_nand_probability(self):
        c = tree_circuit()
        probs = local_probabilities(c, {"a": 0.5, "b": 0.5, "c": 0.5, "d": 0.5})
        assert probs["n0"] == pytest.approx(0.75)   # !(ab)
        assert probs["n1"] == pytest.approx(0.25)   # !(c|d)
        assert probs["y"] == pytest.approx(1 - 0.75 * 0.25)

    def test_out_of_range_rejected(self):
        c = inverter_chain(1)
        with pytest.raises(ValueError):
            local_probabilities(c, {"x": 1.2})


class TestExactProbabilities:
    def test_matches_local_on_tree(self):
        c = tree_circuit()
        inputs = {"a": 0.3, "b": 0.6, "c": 0.2, "d": 0.9}
        local = local_probabilities(c, inputs)
        exact = exact_probabilities(c, inputs)
        for net in c.nets():
            assert local[net] == pytest.approx(exact[net], abs=1e-12)

    def test_reconvergence_differs(self):
        c = reconvergent_circuit()
        inputs = {"a": 0.5, "b": 0.5}
        local = local_probabilities(c, inputs)
        exact = exact_probabilities(c, inputs)
        # y = !(z & z) = !z = a & b: exact P = 0.25.
        assert exact["y"] == pytest.approx(0.25)
        # Local treats the two z pins as independent: 1 - 0.75^2.
        assert local["y"] == pytest.approx(1 - 0.75 * 0.75)

    def test_global_bdd_functions(self):
        c = reconvergent_circuit()
        _, funcs = build_global_bdds(c)
        assert funcs["y"].evaluate({"a": True, "b": True})
        assert not funcs["y"].evaluate({"a": True, "b": False})

    @given(
        st.floats(min_value=0.05, max_value=0.95),
        st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=20, deadline=None)
    def test_exact_y_equals_ab(self, pa, pb):
        c = reconvergent_circuit()
        exact = exact_probabilities(c, {"a": pa, "b": pb})
        assert exact["y"] == pytest.approx(pa * pb, abs=1e-12)


class TestDensityPropagation:
    def test_inverter_chain_density_preserved(self):
        c = inverter_chain(4)
        stats = local_stats(c, {"x": SignalStats(0.5, 42.0)})
        for i in range(4):
            assert stats[f"n{i}"].density == pytest.approx(42.0)

    def test_nand_density(self):
        c = tree_circuit()
        inputs = {n: SignalStats(0.5, 100.0) for n in c.inputs}
        stats = local_stats(c, inputs)
        # D(n0) = P(b)*Da + P(a)*Db = 100.
        assert stats["n0"].density == pytest.approx(100.0)

    def test_constant_inputs_propagate_zero_density(self):
        c = tree_circuit()
        inputs = {n: SignalStats.constant(True) for n in c.inputs}
        stats = local_stats(c, inputs)
        assert stats["y"].density == 0.0
        assert stats["y"].probability in (0.0, 1.0)

    def test_exact_vs_local_on_tree(self):
        c = tree_circuit()
        inputs = {
            "a": SignalStats(0.3, 10.0),
            "b": SignalStats(0.7, 20.0),
            "c": SignalStats(0.4, 5.0),
            "d": SignalStats(0.6, 40.0),
        }
        local = local_stats(c, inputs)
        exact = exact_stats(c, inputs)
        for net in c.nets():
            assert local[net].probability == pytest.approx(
                exact[net].probability, abs=1e-9
            )
            assert local[net].density == pytest.approx(exact[net].density, rel=1e-9)

    def test_exact_reconvergence_density(self):
        c = reconvergent_circuit()
        inputs = {"a": SignalStats(0.5, 10.0), "b": SignalStats(0.5, 10.0)}
        exact = exact_stats(c, inputs)
        # y = a&b: P(dy/da) = P(b) = 0.5 -> D = 0.5*10 + 0.5*10.
        assert exact["y"].density == pytest.approx(10.0)

    def test_propagate_stats_dispatch(self):
        c = inverter_chain(1)
        stats = {"x": SignalStats(0.5, 10.0)}
        assert propagate_stats(c, stats, "analytic")["n0"].density == pytest.approx(10.0)
        assert propagate_stats(c, stats, "exact")["n0"].density == pytest.approx(10.0)
        with pytest.raises(ValueError):
            propagate_stats(c, stats, "bogus")
        with pytest.raises(KeyError):
            propagate_stats(c, {}, "analytic")

    def test_probability_clamped_for_switching_signal(self):
        """A switching net's probability is kept strictly inside (0, 1)."""
        c = Circuit("clamp", LIB)
        c.add_input("a")
        c.add_input("b")
        c.add_output("y")
        c.add_gate("g0", "nor2", {"a": "a", "b": "b"}, "y")
        stats = {
            "a": SignalStats(1.0 - 1e-15, 0.0),
            "b": SignalStats(0.5, 100.0),
        }
        result = local_stats(c, stats)
        assert 0.0 < result["y"].probability < 1.0 or result["y"].density == 0.0

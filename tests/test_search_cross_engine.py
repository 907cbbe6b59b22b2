"""Cross-engine agreement: search / repeated optimiser passes / re-analysis.

The delta-driven search maintains its objective incrementally, and the
paper's optimiser decides a whole circuit in one batch; neither is
allowed to drift from ground truth.  On several suite circuits, the
final power each engine reports must equal a full from-scratch
re-analysis of the netlist it emitted — bit-tight for the analytic
engines, and exactly a from-scratch resample on the same substreams
for the sampled backend (the one sampled estimator, so this is also
what `propagate_stats(method="sampled")` returns).  A
"multipass" run re-optimises the optimiser's own output: no reorder
moves a load, so the second pass must keep the first's power.
"""

import pytest

from repro.analysis.experiments import case_seed
from repro.bench.suite import get_case
from repro.core.optimizer import circuit_power, optimize_circuit
from repro.incremental import SampledBackend, search_circuit
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit

CIRCUITS = ("c17", "xor5", "rca4")


def setting(name):
    circuit = map_circuit(get_case(name).network())
    stats = ScenarioA(seed=case_seed(name)).input_stats(circuit.inputs)
    return circuit, stats


def two_passes(circuit, stats):
    """The optimiser, then the optimiser again on its own output."""
    first = optimize_circuit(circuit, stats)
    second = optimize_circuit(first.circuit, stats)
    assert second.power_before == second.power_after == first.power_after
    return second


@pytest.mark.parametrize("name", CIRCUITS)
class TestAnalyticAgreement:
    def test_search_power_matches_full_reanalysis(self, name):
        circuit, stats = setting(name)
        result = search_circuit(circuit, stats)
        reanalysis = circuit_power(result.circuit, stats)
        assert result.power_after == pytest.approx(reanalysis.total, rel=1e-12)

    def test_multipass_power_matches_full_reanalysis(self, name):
        circuit, stats = setting(name)
        result = two_passes(circuit, stats)
        reanalysis = circuit_power(result.circuit, stats)
        assert result.power_after == pytest.approx(reanalysis.total, rel=1e-12)

    def test_search_matches_or_beats_single_pass(self, name):
        circuit, stats = setting(name)
        searched = search_circuit(circuit, stats)
        single = optimize_circuit(circuit, stats)
        assert searched.power_after <= (
            circuit_power(single.circuit, stats).total * (1.0 + 1e-9)
        )

    def test_search_and_multipass_agree(self, name):
        # Same per-gate exhaustive enumeration, same fixed point (one
        # optimiser pass reaches it) — the two engines must report the
        # same final power.
        circuit, stats = setting(name)
        searched = search_circuit(circuit, stats)
        multi = two_passes(circuit, stats)
        assert searched.power_after == pytest.approx(
            multi.power_after, rel=1e-12
        )


@pytest.mark.parametrize("name", CIRCUITS)
class TestSampledAgreement:
    LANES, STEPS = 128, 24

    def test_search_power_matches_sampled_reanalysis(self, name):
        circuit, stats = setting(name)
        dwells = [
            d for s in stats.values()
            for d in (s.mean_high_dwell, s.mean_low_dwell)
        ]
        dt = 0.2 * min(dwells)
        seed = case_seed(name, 1)
        result = search_circuit(circuit, stats, backend="sampled",
                                lanes=self.LANES, steps=self.STEPS, dt=dt,
                                seed=seed)
        # exact: a from-scratch resample on the engine's own substreams
        fresh = SampledBackend(lanes=self.LANES, steps=self.STEPS, dt=dt,
                               seed=seed).full(result.circuit, stats)
        assert result.net_stats == fresh
        assert result.power_after == pytest.approx(
            circuit_power(result.circuit, stats, net_stats=fresh).total,
            rel=1e-12,
        )

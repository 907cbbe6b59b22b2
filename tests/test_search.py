"""Tests for the delta-driven ECO search engine (`repro.incremental.search`)."""

import json
import zlib

import pytest

from repro.bench.runner import dumps_artifact, strip_timing
from repro.bench.suite import get_case
from repro.circuit.netlist import SetConfig, SetTemplate
from repro.core.optimizer import circuit_power, optimize_circuit
from repro.incremental import (
    Objective,
    StatsCache,
    enumerate_moves,
    make_objective,
    search_circuit,
)
from repro.incremental.backends import SampledBackend
from repro.incremental.eco import resolve_edit
from repro.incremental.search import swap_groups
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import local_stats
from repro.synth.mapper import map_circuit


@pytest.fixture(scope="module")
def adder():
    # search_circuit never mutates its input circuit, so the mapped
    # master is shared module-wide; tests that edit in place (via a
    # live cache) copy it themselves.
    circuit = map_circuit(get_case("rca4").network())
    stats = ScenarioA(seed=3).input_stats(circuit.inputs)
    return circuit, stats


def canonical(result):
    """The byte-stable form of a search artifact (timing stripped)."""
    return dumps_artifact(strip_timing(result.to_artifact()))


# ----------------------------------------------------------------------
# Objectives
# ----------------------------------------------------------------------
class TestObjective:
    def test_named_objectives(self):
        assert make_objective("power") == Objective("power", 1.0, 0.0)
        assert make_objective("delay") == Objective("delay", 0.0, 1.0)
        weighted = make_objective("power-delay")
        assert weighted.power_weight == weighted.delay_weight == 0.5
        custom = make_objective("power-delay", delay_weight=0.25)
        assert custom.power_weight == 0.75 and custom.delay_weight == 0.25

    def test_baseline_scores_to_weight_sum(self):
        objective = make_objective("power-delay", delay_weight=0.3)
        assert objective.score(2.0, 5.0, 2.0, 5.0) == pytest.approx(1.0)
        assert make_objective("power").score(3.0, 99.0, 3.0, 1.0) == 1.0

    def test_needs_delay(self):
        assert not make_objective("power").needs_delay
        assert make_objective("delay").needs_delay
        assert make_objective("power-delay").needs_delay

    def test_instance_passthrough(self):
        objective = Objective("custom", 2.0, 1.0)
        assert make_objective(objective) is objective
        with pytest.raises(TypeError):
            make_objective(objective, delay_weight=0.5)

    def test_rejections(self):
        with pytest.raises(ValueError):
            make_objective("area")
        with pytest.raises(ValueError):
            make_objective("power", delay_weight=0.5)
        with pytest.raises(ValueError):
            make_objective("power-delay", delay_weight=1.5)
        with pytest.raises(ValueError):
            Objective("bad", 0.0, 0.0)
        with pytest.raises(ValueError):
            Objective("bad", -1.0, 1.0)


# ----------------------------------------------------------------------
# Move enumeration
# ----------------------------------------------------------------------
class TestMoves:
    def test_reorder_moves_exclude_current(self, adder):
        circuit, _ = adder
        gate = next(g for g in circuit.gates
                    if g.template.num_configurations() > 1)
        moves = enumerate_moves(circuit, gate.name)
        assert len(moves) == gate.template.num_configurations() - 1
        current = gate.effective_config().key()
        assert all(m.kind == "reorder" for m in moves)
        assert all(m.edit.config.key() != current for m in moves)

    def test_moves_follow_the_current_configuration(self, adder):
        circuit, _ = adder
        work = circuit.copy()
        gate = next(g for g in work.gates
                    if g.template.num_configurations() > 1)
        work.set_config(gate.name, gate.template.configurations()[-1])
        keys = {m.edit.config.key() for m in enumerate_moves(work, gate.name)}
        assert gate.template.default_config().key() in keys
        assert gate.effective_config().key() not in keys

    def test_retemplate_moves_are_opt_in_and_same_pins(self, adder):
        circuit, _ = adder
        groups = swap_groups(circuit)
        gate = next(g for g in circuit.gates if g.template.pins in groups)
        plain = enumerate_moves(circuit, gate.name)
        assert all(m.kind == "reorder" for m in plain)
        moves = enumerate_moves(circuit, gate.name, retemplate=True)
        swaps = [m for m in moves if m.kind == "retemplate"]
        assert swaps
        for move in swaps:
            assert circuit.library[move.edit.template].pins == gate.template.pins
            assert move.edit.template != gate.template.name
        # reorder candidates come first so batched trials stay legal
        kinds = [m.kind for m in moves]
        assert kinds == sorted(kinds, key=("reorder", "retemplate").index)

    def test_script_entry_roundtrips_through_eco_vocabulary(self, adder):
        circuit, _ = adder
        groups = swap_groups(circuit)
        gate = next(g for g in circuit.gates
                    if g.template.num_configurations() > 1
                    and g.template.pins in groups)
        for move in enumerate_moves(circuit, gate.name, retemplate=True):
            assert resolve_edit(circuit, move.script_entry(circuit)) == move.edit


# ----------------------------------------------------------------------
# Greedy descent
# ----------------------------------------------------------------------
class TestGreedy:
    def test_every_accepted_move_improves_power(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats)
        assert result.accepted
        assert all(move.delta_power < 0.0 for move in result.accepted)
        powers = [result.power_before] + [m.power_after for m in result.accepted]
        assert powers == sorted(powers, reverse=True)
        assert result.power_after == result.accepted[-1].power_after

    def test_input_circuit_untouched(self, adder):
        circuit, stats = adder
        before = [(g.name, g.template.name, g.effective_config().key())
                  for g in circuit.gates]
        search_circuit(circuit, stats)
        after = [(g.name, g.template.name, g.effective_config().key())
                 for g in circuit.gates]
        assert before == after

    def test_fixed_point_is_stable(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats)
        again = search_circuit(result.circuit, stats)
        assert again.accepted == []
        assert again.power_after == result.power_after

    def test_deterministic_artifact(self, adder):
        circuit, stats = adder
        one = search_circuit(circuit, stats)
        two = search_circuit(circuit, stats)
        assert canonical(one) == canonical(two)

    def test_matches_optimizer_power(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats)
        optimised = optimize_circuit(circuit, stats)
        assert result.power_after == pytest.approx(optimised.power_after,
                                                   rel=1e-12)

    def test_net_stats_match_from_scratch(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats)
        assert result.net_stats == local_stats(result.circuit, stats)

    def test_eco_script_replays_to_the_same_power(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats)
        replay = circuit.copy()
        for entry in result.eco_script():
            replay.apply_edit(resolve_edit(replay, entry))
        assert circuit_power(replay, stats).total == pytest.approx(
            result.power_after, rel=1e-12
        )

    def test_move_budget(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats, max_moves=2)
        assert len(result.accepted) == 2
        assert result.budget_exhausted

    def test_trial_budget(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats, max_trials=10)
        assert result.trials <= 10 + max(
            g.template.num_configurations() - 1 for g in circuit.gates
        )
        assert result.budget_exhausted

    def test_round_budget(self, adder):
        circuit, stats = adder
        capped = search_circuit(circuit, stats, max_rounds=1)
        full = search_circuit(circuit, stats)
        assert capped.rounds == 1
        assert full.rounds > 1
        assert capped.power_after >= full.power_after

    def test_retemplate_search_improves_on_reorder_only(self, adder):
        # With function-changing swaps allowed the reachable optimum can
        # only widen; the searched netlist must stay consistent with a
        # from-scratch re-analysis even then.
        circuit, stats = adder
        plain = search_circuit(circuit, stats)
        swapped = search_circuit(circuit, stats, retemplate=True)
        assert swapped.power_after <= plain.power_after * (1.0 + 1e-9)
        assert swapped.net_stats == local_stats(swapped.circuit, stats)

    def test_delay_objective_never_runs_uphill_in_delay(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats, objective="delay")
        assert all(move.delta_delay < 0.0 for move in result.accepted)
        assert result.delay_after <= result.delay_before


# ----------------------------------------------------------------------
# Simulated annealing
# ----------------------------------------------------------------------
class TestAnneal:
    def run(self, circuit, stats, seed, **kwargs):
        kwargs.setdefault("anneal_trials", 150)
        return search_circuit(circuit, stats, strategy="anneal", seed=seed,
                              **kwargs)

    def test_same_seed_is_byte_identical(self, adder):
        circuit, stats = adder
        one = self.run(circuit, stats, seed=11)
        two = self.run(circuit, stats, seed=11)
        assert canonical(one) == canonical(two)

    def test_seed_changes_the_trace(self, adder):
        # Locks the seed plumbing: if the substream scheme ever ignored
        # the seed, these traces would collapse to one trajectory.
        circuit, stats = adder
        one = self.run(circuit, stats, seed=11)
        two = self.run(circuit, stats, seed=12)
        assert [m.entry for m in one.accepted] != [m.entry for m in two.accepted]

    def test_golden_accepted_move_trace(self, adder):
        # Golden lock on the full accepted-move trace (gate, edit and
        # acceptance order) for a fixed seed; the CRC pin means any
        # change to the RNG substream scheme, the enumeration order or
        # the acceptance rule shows up as a failure here, not as silent
        # artifact drift.  Regenerate with this file's __main__ helper.
        circuit, stats = adder
        result = self.run(circuit, stats, seed=0)
        trace = json.dumps([m.entry for m in result.accepted], sort_keys=True)
        assert result.accepted, "seed 0 must accept at least one move"
        assert zlib.crc32(trace.encode("utf-8")) == GOLDEN_TRACE_CRC

    def test_temperatures_cool_monotonically(self, adder):
        circuit, stats = adder
        result = self.run(circuit, stats, seed=11)
        temps = [m.temperature for m in result.accepted]
        assert temps == sorted(temps, reverse=True)
        assert all(t > 0.0 for t in temps)

    def test_polish_reaches_the_greedy_fixed_point(self, adder):
        circuit, stats = adder
        greedy = search_circuit(circuit, stats)
        polished = self.run(circuit, stats, seed=11, polish=True)
        assert polished.power_after <= greedy.power_after * (1.0 + 1e-9)

    def test_uphill_moves_need_positive_temperature(self, adder):
        circuit, stats = adder
        result = self.run(circuit, stats, seed=11, initial_temp=0.05,
                          cooling=0.99)
        uphill = [m for m in result.accepted if m.delta_power > 0.0]
        assert all(m.temperature > 0.0 for m in uphill)


#: CRC-32 of the canonical JSON accepted-move trace of
#: ``anneal(rca4, ScenarioA(seed=3) stats, seed=0, anneal_trials=150)``.
GOLDEN_TRACE_CRC = 658387588


# ----------------------------------------------------------------------
# Argument validation and live-cache mode
# ----------------------------------------------------------------------
class TestSearchArguments:
    def test_unknown_strategy_and_objective(self, adder):
        circuit, stats = adder
        with pytest.raises(ValueError):
            search_circuit(circuit, stats, strategy="tabu")
        with pytest.raises(ValueError):
            search_circuit(circuit, stats, objective="area")

    def test_circuit_and_cache_are_exclusive(self, adder):
        circuit, stats = adder
        with pytest.raises(TypeError):
            search_circuit()
        with StatsCache(circuit.copy(), stats) as cache:
            with pytest.raises(TypeError):
                search_circuit(circuit, stats, cache=cache)
            with pytest.raises(TypeError):
                search_circuit(cache=cache, backend="sampled")
            with pytest.raises(TypeError):
                search_circuit(cache=cache, po_load=5.0e-14)

    def test_live_cache_searches_in_place(self, adder):
        circuit, stats = adder
        work = circuit.copy()
        with StatsCache(work, stats) as cache:
            result = search_circuit(cache=cache, max_moves=3)
            assert result.circuit is work
            # the cache stays open and consistent for the caller
            assert cache.stats() == local_stats(work, stats)
            assert [g.effective_config().key() for g in work.gates] != [
                g.effective_config().key() for g in circuit.gates
            ]


# ----------------------------------------------------------------------
# Sampled backend
# ----------------------------------------------------------------------
class TestSampledSearch:
    LANES, STEPS, SEED = 64, 12, 5

    def test_search_leaves_stats_bitidentical_to_resample(self, adder):
        circuit, stats = adder
        dwells = [
            d for s in stats.values()
            for d in (s.mean_high_dwell, s.mean_low_dwell)
        ]
        dt = 0.2 * min(dwells)
        result = search_circuit(circuit, stats, backend="sampled",
                                lanes=self.LANES, steps=self.STEPS, dt=dt,
                                seed=self.SEED, max_moves=6)
        fresh = SampledBackend(lanes=self.LANES, steps=self.STEPS, dt=dt,
                               seed=self.SEED).full(result.circuit, stats)
        assert result.net_stats == fresh
        rean = circuit_power(result.circuit, stats, net_stats=fresh)
        assert result.power_after == pytest.approx(rean.total, rel=1e-12)


if __name__ == "__main__":  # pragma: no cover - golden regeneration helper
    circuit = map_circuit(get_case("rca4").network())
    stats = ScenarioA(seed=3).input_stats(circuit.inputs)
    result = search_circuit(circuit, stats, strategy="anneal", seed=0,
                            anneal_trials=150)
    trace = json.dumps([m.entry for m in result.accepted], sort_keys=True)
    print("GOLDEN_TRACE_CRC =", zlib.crc32(trace.encode("utf-8")))

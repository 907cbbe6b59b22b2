"""Bit-identity of the vectorized sampled kernel (`repro.compiled.sampled`).

The contract under test: the uint64-blocked lane layout — packing,
Markov substreams, Shannon word evaluation, ones/toggle counts —
reproduces the big-int oracle of `repro.sim.bitsim`
(`markov_stream_words`, `sampled_stats`) **bit for bit**, for lane
counts on and off the 64-bit word boundary.  There is one draw order
(per-input `stream_rng` substreams), so `propagate_stats(method=
"sampled")`, `sampled_stats` and a fresh `StatsCache(backend=
"sampled")` are `==`, and the cache stays equal to a from-scratch run
under random edit sequences.  Plus the
substream-cache regression: a rolled-back what-if trial must never
redraw streams the run has already seen.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.incremental.backends as backends_mod
from repro.bench.generators import random_logic
from repro.compiled.sampled import (
    blocks_from_int,
    int_from_blocks,
    lane_mask_blocks,
    markov_stream_blocks,
    pack_lane_bools,
)
from repro.core.optimizer import circuit_power
from repro.incremental import StatsCache
from repro.incremental.backends import SampledBackend
from repro.incremental.eco import InputStatsEdit, WhatIf
from repro.sim.bitsim import (
    markov_stream_words,
    sampled_stats,
    stream_rng,
)
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import propagate_stats
from repro.stochastic.signal import SignalStats
from repro.synth.mapper import map_circuit

#: On-boundary, odd sub-word, and multi-word-with-tail lane counts.
LANE_COUNTS = (64, 37, 100)


@pytest.fixture(scope="module")
def wide():
    circuit = map_circuit(random_logic(12, 60, seed=9))
    stats = ScenarioA(seed=2).input_stats(circuit.inputs)
    return circuit, stats


def reorder_specs():
    return st.tuples(
        st.sampled_from(["reorder", "retemplate", "input-stats"]),
        st.integers(min_value=0, max_value=10_000),
        st.integers(min_value=0, max_value=10_000),
    )


def apply_spec(circuit, cache, input_stats, spec):
    kind, selector, value = spec
    if kind == "reorder":
        gates = [g for g in circuit.gates
                 if g.template.num_configurations() > 1]
        gate = gates[selector % len(gates)]
        configurations = gate.template.configurations()
        circuit.set_config(gate.name,
                           configurations[value % len(configurations)])
    elif kind == "retemplate":
        groups = {}
        for template in circuit.library:
            groups.setdefault(template.pins, []).append(template.name)
        gates = [g for g in circuit.gates
                 if len(groups[g.template.pins]) > 1]
        gate = gates[selector % len(gates)]
        others = [name for name in groups[gate.template.pins]
                  if name != gate.template.name]
        circuit.set_template(gate.name, others[value % len(others)])
    else:
        net = circuit.inputs[selector % len(circuit.inputs)]
        probability = 0.05 + 0.9 * ((value % 97) / 96.0)
        density = 1.0e4 * (1 + value % 89)
        input_stats[net] = SignalStats(probability, density)
        cache.set_input_stats(net, input_stats[net])


# ----------------------------------------------------------------------
# The lane-block layout
# ----------------------------------------------------------------------
class TestPacking:
    @pytest.mark.parametrize("lanes", LANE_COUNTS + (1, 63, 65, 1024))
    def test_pack_round_trips_through_big_ints(self, lanes):
        rng = np.random.default_rng(7)
        blocks = (lanes + 63) // 64
        values = rng.random(lanes) < 0.5
        word = sum(1 << k for k, bit in enumerate(values) if bit)
        row = pack_lane_bools(values, blocks)
        assert int_from_blocks(row) == word
        assert np.array_equal(blocks_from_int(word, blocks), row)

    @pytest.mark.parametrize("lanes", LANE_COUNTS + (1, 63, 65))
    def test_lane_mask_matches_big_int_mask(self, lanes):
        blocks = (lanes + 63) // 64
        assert int_from_blocks(lane_mask_blocks(lanes)) == (1 << lanes) - 1
        assert lane_mask_blocks(lanes).shape == (blocks,)

    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_markov_stream_blocks_equal_words(self, lanes):
        stats = SignalStats(0.35, 2.0e5)
        dt = 0.5 * min(stats.mean_high_dwell, stats.mean_low_dwell)
        words = markov_stream_words(stats, lanes, 24, dt,
                                    stream_rng(3, "x1"))
        blocked = markov_stream_blocks(stats, lanes, 24, dt,
                                       stream_rng(3, "x1"))
        assert [int_from_blocks(row) for row in blocked] == words

    def test_markov_stream_blocks_rejects_coarse_dt(self):
        stats = SignalStats(0.5, 2.0e5)
        with pytest.raises(ValueError, match="too coarse"):
            markov_stream_blocks(stats, 64, 8, 1.0,
                                 stream_rng(0, "x1"))


# ----------------------------------------------------------------------
# The from-scratch engine
# ----------------------------------------------------------------------
def routed_stats(circuit, stats, **kwargs):
    return propagate_stats(circuit, stats, "sampled", **kwargs)


class TestSampledStats:
    @pytest.mark.parametrize("lanes", LANE_COUNTS)
    def test_bit_identical_to_bigint_path(self, wide, lanes):
        """One estimator, three entry points: the routed kernel, the
        big-int oracle and a fresh sampled cache, with the default
        and with an explicit (finer) step size."""
        circuit, stats = wide
        finer = 0.3 * min(min(s.mean_high_dwell, s.mean_low_dwell)
                          for s in stats.values())
        for dt in (None, finer):
            kwargs = dict(lanes=lanes, steps=17, dt=dt, seed=3)
            reference = sampled_stats(circuit, stats, **kwargs)
            assert routed_stats(circuit, stats, **kwargs) == reference
            with StatsCache(circuit.copy(), stats, backend="sampled",
                            **kwargs) as cache:
                assert cache.stats() == reference

    def test_propagate_stats_routes_through_the_kernel(self, wide):
        circuit, stats = wide
        routed = routed_stats(circuit, stats, lanes=37, steps=9, seed=5)
        assert routed == SampledBackend(lanes=37, steps=9,
                                        seed=5).full(circuit, stats)

    def test_validation_matches_bigint_path(self, wide):
        circuit, stats = wide
        for engine in (routed_stats, sampled_stats):
            with pytest.raises(ValueError, match="too coarse"):
                engine(circuit, stats, dt=1.0)
            with pytest.raises(ValueError, match="dt must be positive"):
                engine(circuit, stats, dt=0.0)
            with pytest.raises(ValueError, match="time step"):
                engine(circuit, stats, steps=0)
            with pytest.raises(ValueError, match="sample lane"):
                engine(circuit, stats, lanes=0)
            with pytest.raises(KeyError, match="missing input statistics"):
                engine(circuit, {})
            with pytest.warns(UserWarning, match="seed") as record:
                unseeded = engine(circuit, stats, lanes=64, steps=4,
                                  seed=None)
            assert len(record) == 1
            assert unseeded == engine(circuit, stats, lanes=64, steps=4,
                                      seed=0)


# ----------------------------------------------------------------------
# The StatsCache backend under edits
# ----------------------------------------------------------------------
class TestBackendEquivalence:
    @settings(max_examples=15, deadline=None)
    @given(st.lists(reorder_specs(), min_size=1, max_size=6),
           st.sampled_from(LANE_COUNTS))
    def test_caches_stay_bit_identical_under_edits(self, wide, specs, lanes):
        """Incremental == from-scratch: after every edit the cache
        equals a fresh backend run on the edited circuit (same frozen
        ``dt``), and its power equals the `circuit_power` oracle on
        those statistics."""
        circuit_master, stats = wide
        circuit = circuit_master.copy()
        current = dict(stats)
        cache = StatsCache(circuit, current, backend="sampled", lanes=lanes,
                           steps=16, seed=4)
        try:
            assert cache.backend.name == "sampled"
            dt = cache.backend.dt
            for spec in specs:
                apply_spec(circuit, cache, current, spec)
                fresh = SampledBackend(lanes=lanes, steps=16, dt=dt, seed=4)
                assert cache.stats() == fresh.full(circuit, current)
                assert cache.total_power() == circuit_power(
                    circuit, current, net_stats=cache.stats()).total
        finally:
            cache.close()

    def test_backend_dt_freezes_at_full_time(self, wide):
        circuit, stats = wide
        work = circuit.copy()
        with StatsCache(work, stats, backend="sampled", lanes=64, steps=8,
                        seed=1) as cache:
            dt = cache.backend.dt
            assert dt is not None
            net = work.inputs[0]
            cache.set_input_stats(net, SignalStats(0.9, 1.0e4))
            cache.stats()
            assert cache.backend.dt == dt


# ----------------------------------------------------------------------
# Substream-cache rollback regression
# ----------------------------------------------------------------------
class TestStreamCacheRollback:
    """A rolled-back trial restores statistics the run has already
    drawn streams for; the refresh must reuse the cached words — no
    redraw — and land on bit-identical state."""

    @pytest.mark.parametrize("priced", [False, True])
    def test_trial_rollback_refresh_does_not_redraw(self, wide, monkeypatch,
                                                    priced):
        """A ``priced`` trial refreshes — and draws — before it rolls
        back; an unpriced one rolls back a still-dirty edit and must
        draw nothing at all."""
        circuit, stats = wide
        work = circuit.copy()
        draws = count_draws(monkeypatch)
        with StatsCache(work, stats, backend="sampled", lanes=64, steps=16,
                        seed=2) as cache:
            assert len(draws) == len(work.inputs)
            baseline_stats = dict(cache.stats())
            baseline_power = cache.total_power()
            net = work.inputs[0]
            with WhatIf(cache) as trial:
                trial.apply(InputStatsEdit(net, SignalStats(0.9, 3.0e5)))
                if priced:
                    trial.power()
            # one fresh draw for a priced trial's new (P, D)...
            drawn = len(work.inputs) + int(priced)
            assert len(draws) == drawn
            # ...and none for the rollback: the original stream is cached.
            assert cache.stats() == baseline_stats
            assert cache.total_power() == baseline_power
            assert len(draws) == drawn
            # Re-trialling the same statistics reuses the cache too.
            with WhatIf(cache) as trial:
                trial.apply(InputStatsEdit(net, SignalStats(0.9, 3.0e5)))
                trial.power()
            cache.stats()
            assert len(draws) == len(work.inputs) + 1

    def test_nested_trial_rollback_restores_cached_streams(self, wide,
                                                           monkeypatch):
        circuit, stats = wide
        work = circuit.copy()
        draws = count_draws(monkeypatch)
        with StatsCache(work, stats, backend="sampled", lanes=64, steps=16,
                        seed=2) as cache:
            baseline_stats = dict(cache.stats())
            net_a, net_b = work.inputs[0], work.inputs[1]
            with WhatIf(cache) as outer:
                outer.apply(InputStatsEdit(net_a, SignalStats(0.8, 2.0e5)))
                with WhatIf(cache) as inner:
                    inner.apply(InputStatsEdit(net_b,
                                               SignalStats(0.6, 4.0e5)))
                    inner.power()
                # the inner rollback restored net_b's original stream
                outer.power()
            drawn = len(draws)
            # unwinding both trials redraws nothing: every restored
            # (net, stats) pair is served from the substream cache.
            assert cache.stats() == baseline_stats
            assert len(draws) == drawn

    def test_cached_streams_equal_big_int_substreams(self, wide):
        circuit, stats = wide
        backend = SampledBackend(lanes=64, steps=8, seed=0)
        backend.full(circuit, stats)
        assert {key[0] for key in backend._stream_cache} \
            == set(circuit.inputs)
        for (net, *_), blocked in backend._stream_cache.items():
            words = markov_stream_words(stats[net], 64, 8, backend.dt,
                                        stream_rng(0, net))
            assert [int_from_blocks(row) for row in blocked] == words


def count_draws(monkeypatch):
    """Record every substream the sampled backend draws."""
    draws = []
    real = markov_stream_blocks
    monkeypatch.setattr(backends_mod, "markov_stream_blocks",
                        lambda *a, **k: draws.append(a) or real(*a, **k))
    return draws

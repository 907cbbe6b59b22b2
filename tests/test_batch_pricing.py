"""Batch move pricing: one kernel pass per candidate batch, same answer.

The contract under test: with a pure-power objective, the greedy
search prices every same-gate candidate batch in one vectorised kernel
invocation instead of per-move ``WhatIf`` trials, and the outcome —
move trace, accept decisions, trial counts, final power, the whole
artifact — is **byte-identical** to the per-trial path.  The reference
run takes that path by making the pricer decline every batch (its
``score`` returns ``None``, the signal that routes a batch to
``WhatIf``).

A reordering re-propagates no statistics on either path (it keeps the
gate's function), so a reorder-only search is byte-identical, work
counters included, and both report ``gates_repropagated == 0``.  Only a
retemplate batch costs statistics work: the per-trial path
re-propagates every candidate's cone and leaves the last rollback cone
pending, to be counted in the next accepted move's ``cone``.  With
retemplates, then, ``gates_repropagated`` must *shrink* on the batch
path and each accepted move's ``cone`` may only shrink; every other
byte is identical.
"""

import pytest

from repro.bench.generators import random_logic
from repro.bench.runner import dumps_artifact, strip_timing
from repro.incremental import StatsCache, search_circuit
from repro.incremental.search import _BatchPricer
from repro.incremental.timing import TimingCache
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit

#: Artifact fields the batch path is allowed to change: the cone work.
CONE_FIELDS = ("gates_repropagated", "cone")


@pytest.fixture(scope="module")
def wide():
    circuit = map_circuit(random_logic(12, 60, seed=9))
    stats = ScenarioA(seed=2).input_stats(circuit.inputs)
    return circuit, stats


def strip_cone(value):
    if isinstance(value, dict):
        return {k: strip_cone(v) for k, v in value.items()
                if k not in CONE_FIELDS}
    if isinstance(value, list):
        return [strip_cone(v) for v in value]
    return value


def canonical(result, *, keep_cone):
    artifact = strip_timing(result.to_artifact())
    if not keep_cone:
        artifact = strip_cone(artifact)
    return dumps_artifact(artifact)


@pytest.fixture
def run_pair(wide, monkeypatch):
    """``(per-trial reference, batch-priced)`` runs of one search."""
    circuit, stats = wide

    def run(**kwargs):
        flat = search_circuit(circuit, stats, **kwargs)
        with monkeypatch.context() as patch:
            patch.setattr(_BatchPricer, "score", lambda self, moves: None)
            plain = search_circuit(circuit, stats, **kwargs)
        return plain, flat

    return run


# ----------------------------------------------------------------------
# Greedy pure-power searches: batched pricing engages
# ----------------------------------------------------------------------
class TestBatchedGreedy:
    def test_reorder_search_identical_with_less_work(self, run_pair):
        plain, flat = run_pair(objective="power", seed=3)
        assert canonical(plain, keep_cone=True) \
            == canonical(flat, keep_cone=True)
        assert flat.gates_repropagated == plain.gates_repropagated == 0
        assert flat.trials == plain.trials
        assert len(flat.accepted) == len(plain.accepted)

    def test_retemplate_search_identical_with_less_work(self, run_pair):
        plain, flat = run_pair(objective="power", seed=3,
                               retemplate=True)
        assert canonical(plain, keep_cone=False) \
            == canonical(flat, keep_cone=False)
        assert flat.gates_repropagated < plain.gates_repropagated
        assert all(f.cone <= p.cone
                   for f, p in zip(flat.accepted, plain.accepted))

    def test_sampled_backend_prices_reorder_batches(self, run_pair):
        plain, flat = run_pair(objective="power", seed=5,
                               backend="sampled", lanes=64, steps=8)
        assert canonical(plain, keep_cone=True) \
            == canonical(flat, keep_cone=True)
        assert flat.gates_repropagated == plain.gates_repropagated == 0

    def test_sampled_retemplate_falls_back_per_move(self, run_pair):
        # retemplate candidates on the sampled backend fall back to
        # WhatIf trials (streams are not class-batchable); reorder
        # batches still price vectorised, and the artifact holds.  The
        # fallback trials are the only statistics work on either path.
        plain, flat = run_pair(objective="power", seed=5,
                               backend="sampled", lanes=64, steps=8,
                               retemplate=True)
        assert canonical(plain, keep_cone=True) \
            == canonical(flat, keep_cone=True)
        assert flat.gates_repropagated == plain.gates_repropagated > 0

    def test_anneal_polish_reuses_batches_after_trials(self, run_pair):
        # annealing samples single moves (never batched); the polish
        # descent afterwards re-engages batch pricing, including the
        # rollback flush the per-trial path does in WhatIf.  Annealing
        # reorders leave no rollback cone behind.
        plain, flat = run_pair(strategy="anneal", objective="power",
                               seed=11, anneal_trials=40, polish=True)
        assert canonical(plain, keep_cone=True) \
            == canonical(flat, keep_cone=True)
        assert flat.gates_repropagated == plain.gates_repropagated == 0


# ----------------------------------------------------------------------
# Delay-aware objectives: the pricer stays out entirely
# ----------------------------------------------------------------------
class TestDisabledPricer:
    def test_power_delay_artifacts_fully_identical(self, run_pair):
        plain, flat = run_pair(objective="power-delay", seed=3)
        # needs_delay disables batching, so even the cone counter
        # matches: both runs do move-for-move identical work.
        assert canonical(plain, keep_cone=True) \
            == canonical(flat, keep_cone=True)


# ----------------------------------------------------------------------
# The TimingCache dirty-seed hook the pricer relies on
# ----------------------------------------------------------------------
class TestMarkDirty:
    def test_seeds_match_a_real_edit(self, wide):
        circuit, stats = wide
        work = circuit.copy()
        with StatsCache(work, stats) as cache:
            marked = TimingCache(work, index=cache.index)
            edited = TimingCache(work, index=cache.index)
            try:
                gate = max(work.gates,
                           key=lambda g: len(work.fanin_drivers(g.name)))
                assert work.fanin_drivers(gate.name)  # a non-trivial seed
                marked.refresh()
                edited.refresh()
                marked.mark_dirty(gate.name)
                edited._on_edit(gate.name, "edit")
                assert marked._dirty == edited._dirty
                assert gate.name in marked._dirty
                assert marked.refresh() == edited.refresh()
                assert marked.gates_retimed == edited.gates_retimed
            finally:
                edited.close()
                marked.close()

    def test_unknown_gate_raises(self, wide):
        circuit, stats = wide
        work = circuit.copy()
        with StatsCache(work, stats) as cache:
            with TimingCache(work, index=cache.index) as timing:
                with pytest.raises(KeyError, match="no-such-gate"):
                    timing.mark_dirty("no-such-gate")

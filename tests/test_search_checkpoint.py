"""Resume-after-checkpoint must equal the uninterrupted run, bit for bit.

The hard invariant of `repro search --checkpoint/--resume` (see
``src/repro/robust/README.md``): a run resumed from *any* snapshot a
checkpointed run wrote produces a canonical artifact byte-identical to
the uninterrupted run's.  These tests capture every snapshot a run
saves (by wrapping the saver), resume from each one, and byte-compare
``dumps_artifact(strip_timing(...))`` outputs.
"""

import shutil
from dataclasses import fields

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.runner import dumps_artifact, strip_timing
from repro.bench.suite import get_case
from repro.incremental import search_circuit
from repro.incremental import search as search_mod
from repro.incremental.spec import SearchSpec
from repro.robust import CheckpointError
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit


@pytest.fixture(scope="module")
def adder():
    circuit = map_circuit(get_case("fa1").network())
    stats = ScenarioA(seed=3).input_stats(circuit.inputs)
    return circuit, stats


def canonical(result):
    return dumps_artifact(strip_timing(result.to_artifact()))


def run_capturing_snapshots(tmp_path, monkeypatch, **kwargs):
    """Run a checkpointed search, keeping a copy of every snapshot."""
    snapshots = []
    real_save = search_mod.save_checkpoint

    def capture(path, payload):
        real_save(path, payload)
        copy = tmp_path / f"snap{len(snapshots)}.json"
        shutil.copy(path, copy)
        snapshots.append(str(copy))

    monkeypatch.setattr(search_mod, "save_checkpoint", capture)
    try:
        result = search_circuit(
            checkpoint_path=str(tmp_path / "ck.json"), **kwargs)
    finally:
        monkeypatch.setattr(search_mod, "save_checkpoint", real_save)
    return result, snapshots


class TestGreedyResume:
    @settings(max_examples=5, deadline=None)
    @given(seed=st.integers(0, 30), every=st.integers(1, 4))
    def test_resume_equals_uninterrupted(self, adder, tmp_path_factory,
                                         seed, every):
        circuit, stats = adder
        tmp_path = tmp_path_factory.mktemp("greedy")
        base = canonical(search_circuit(circuit, stats, seed=seed,
                                        strategy="greedy"))
        monkeypatch = pytest.MonkeyPatch()
        try:
            ck_run, snapshots = run_capturing_snapshots(
                tmp_path, monkeypatch, circuit=circuit, input_stats=stats,
                seed=seed, strategy="greedy", checkpoint_every=every)
        finally:
            monkeypatch.undo()
        # Checkpointing itself never perturbs the run.
        assert canonical(ck_run) == base
        for snapshot in snapshots:
            resumed = search_circuit(circuit, stats, seed=seed,
                                     strategy="greedy", resume_path=snapshot)
            assert canonical(resumed) == base


class TestAnnealResume:
    @settings(max_examples=4, deadline=None)
    @given(seed=st.integers(0, 30))
    def test_resume_equals_uninterrupted(self, adder, tmp_path_factory, seed):
        circuit, stats = adder
        tmp_path = tmp_path_factory.mktemp("anneal")
        kwargs = dict(strategy="anneal", anneal_trials=60, polish=True)
        base = canonical(search_circuit(circuit, stats, seed=seed, **kwargs))
        monkeypatch = pytest.MonkeyPatch()
        try:
            ck_run, snapshots = run_capturing_snapshots(
                tmp_path, monkeypatch, circuit=circuit, input_stats=stats,
                seed=seed, checkpoint_every=2, **kwargs)
        finally:
            monkeypatch.undo()
        assert canonical(ck_run) == base
        for snapshot in snapshots:
            resumed = search_circuit(circuit, stats, seed=seed,
                                     resume_path=snapshot, **kwargs)
            assert canonical(resumed) == base


class TestPortfolioResume:
    @settings(max_examples=3, deadline=None)
    @given(seed=st.integers(0, 30))
    def test_resume_equals_uninterrupted(self, adder, tmp_path_factory, seed):
        circuit, stats = adder
        tmp_path = tmp_path_factory.mktemp("portfolio")
        kwargs = dict(strategy="anneal", restarts=3, jobs=1,
                      anneal_trials=40)
        base = canonical(search_circuit(circuit, stats, seed=seed, **kwargs))
        monkeypatch = pytest.MonkeyPatch()
        try:
            ck_run, snapshots = run_capturing_snapshots(
                tmp_path, monkeypatch, circuit=circuit, input_stats=stats,
                seed=seed, **kwargs)
        finally:
            monkeypatch.undo()
        assert canonical(ck_run) == base
        # One snapshot per completed restart.
        assert len(snapshots) == 3
        for snapshot in snapshots:
            resumed = search_circuit(circuit, stats, seed=seed,
                                     resume_path=snapshot, **kwargs)
            assert canonical(resumed) == base


class TestResumeValidation:
    def test_wrong_params_rejected(self, adder, tmp_path):
        circuit, stats = adder
        search_circuit(circuit, stats, seed=0, strategy="greedy",
                       checkpoint_path=str(tmp_path / "ck.json"),
                       checkpoint_every=1)
        with pytest.raises(CheckpointError, match="different search"):
            search_circuit(circuit, stats, seed=1, strategy="greedy",
                           resume_path=str(tmp_path / "ck.json"))

    def test_wrong_engine_kind_rejected(self, adder, tmp_path):
        circuit, stats = adder
        search_circuit(circuit, stats, seed=0, strategy="greedy",
                       checkpoint_path=str(tmp_path / "ck.json"),
                       checkpoint_every=1)
        with pytest.raises(CheckpointError):
            search_circuit(circuit, stats, seed=0, strategy="anneal",
                           restarts=2, jobs=1, anneal_trials=20,
                           resume_path=str(tmp_path / "ck.json"))

    def test_checkpoint_every_validated(self, adder, tmp_path):
        circuit, stats = adder
        with pytest.raises(ValueError):
            search_circuit(circuit, stats, seed=0, strategy="greedy",
                           checkpoint_path=str(tmp_path / "ck.json"),
                           checkpoint_every=0)

    def test_resume_without_checkpoint_still_writes_new_ones(
            self, adder, tmp_path):
        """--checkpoint and --resume compose: resume, then keep saving."""
        circuit, stats = adder
        first = str(tmp_path / "first.json")
        search_circuit(circuit, stats, seed=0, strategy="greedy",
                       checkpoint_path=first, checkpoint_every=1)
        base = canonical(search_circuit(circuit, stats, seed=0,
                                        strategy="greedy"))
        second = str(tmp_path / "second.json")
        resumed = search_circuit(circuit, stats, seed=0, strategy="greedy",
                                 resume_path=first, checkpoint_path=second)
        assert canonical(resumed) == base


class TestFingerprint:
    """The fingerprint is derived from the spec's result-affecting fields."""

    #: ``_search_fingerprint`` CRCs recorded on the ``adder`` fixture
    #: while the parameter dict was still spelled out by hand: the
    #: derived fingerprint must keep every one, so existing checkpoints
    #: stay resumable.
    GOLDEN = {
        "greedy-defaults": ({}, 2784634346),
        "anneal-schedule": (dict(strategy="anneal", seed=4, initial_temp=0.05,
                                 cooling=0.8, moves_per_temp=4,
                                 anneal_trials=30), 2700609308),
        "power-delay-0.3": (dict(objective="power-delay", delay_weight=0.3),
                            3650983854),
        "sampled-lanes-steps": (dict(backend="sampled", lanes=64, steps=16,
                                     seed=2), 1513691572),
        "restarts-3": (dict(strategy="anneal", restarts=3, anneal_trials=10),
                       3295968650),
        "structural-nets": (dict(structural=["buffer", "sweep"],
                                 structural_nets=2, retemplate=True,
                                 max_trials=50), 3979539025),
    }

    #: One change per result-affecting field: (base, change).
    RESULT_CHANGES = [
        ({}, dict(seed=1)),
        ({}, dict(strategy="anneal")),
        ({}, dict(objective="delay")),
        (dict(objective="power-delay"), dict(delay_weight=0.3)),
        ({}, dict(backend="sampled")),
        (dict(backend="sampled"), dict(lanes=32)),
        (dict(backend="sampled"), dict(steps=8)),
        (dict(backend="sampled"), dict(dt=1e-10)),
        ({}, dict(po_load=2e-14)),
        ({}, dict(retemplate=True)),
        ({}, dict(max_trials=5)),
        ({}, dict(max_moves=5)),
        ({}, dict(max_rounds=2)),
        ({}, dict(initial_temp=0.05)),
        ({}, dict(cooling=0.8)),
        ({}, dict(moves_per_temp=4)),
        ({}, dict(anneal_trials=10)),
        ({}, dict(polish=True)),
        ({}, dict(structural=["sweep"])),
        ({}, dict(structural_nets=2)),
        (dict(strategy="anneal"), dict(restarts=3)),
    ]

    #: One change per run descriptor: (base, change).
    DESCRIPTOR_CHANGES = [
        (dict(strategy="anneal", restarts=4), dict(jobs=2)),
        ({}, dict(checkpoint_path="ck.json")),
        (dict(checkpoint_path="ck.json"), dict(checkpoint_every=3)),
        ({}, dict(resume_path="ck.json")),
        (dict(strategy="anneal", restarts=2), dict(deadline_s=5.0)),
        (dict(strategy="anneal", restarts=2), dict(worker_retries=0)),
    ]

    @staticmethod
    def crc(adder, params):
        circuit, stats = adder
        return search_mod._search_fingerprint(
            circuit, stats, SearchSpec(**params).fingerprint())

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_crc_is_pinned(self, adder, name):
        params, expected = self.GOLDEN[name]
        assert self.crc(adder, params) == expected

    def test_every_field_is_covered(self):
        result = {f.name for f in fields(SearchSpec)
                  if f.metadata.get("result", True)}
        descriptors = {f.name for f in fields(SearchSpec)} - result
        assert {name for _, change in self.RESULT_CHANGES
                for name in change} == result
        assert {name for _, change in self.DESCRIPTOR_CHANGES
                for name in change} == descriptors

    def test_result_fields_change_the_crc(self, adder):
        for base, change in self.RESULT_CHANGES:
            assert self.crc(adder, base) != \
                self.crc(adder, {**base, **change}), change

    def test_descriptor_fields_do_not(self, adder):
        for base, change in self.DESCRIPTOR_CHANGES:
            assert self.crc(adder, base) == \
                self.crc(adder, {**base, **change}), change

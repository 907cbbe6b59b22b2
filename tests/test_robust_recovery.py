"""End-to-end recovery: injected faults, supervised retries, partial artifacts."""

import io
import json
import signal

import pytest

from repro.bench.runner import (
    dumps_artifact,
    load_artifact,
    run_suite,
    strip_timing,
)
from repro.bench.suite import get_case
from repro.cli import main
from repro.incremental import search_circuit
from repro.obs import trace
from repro.obs.metrics import REGISTRY
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit


@pytest.fixture(scope="module")
def adder():
    circuit = map_circuit(get_case("fa1").network())
    stats = ScenarioA(seed=3).input_stats(circuit.inputs)
    return circuit, stats


def canonical(result):
    return dumps_artifact(strip_timing(result.to_artifact()))


PORTFOLIO = dict(strategy="anneal", restarts=3, jobs=2, anneal_trials=40)


class TestPortfolioRecovery:
    def test_killed_worker_retried_byte_identical(self, adder, tmp_path,
                                                  monkeypatch):
        """A SIGKILLed restart is requeued; the artifact doesn't change."""
        circuit, stats = adder
        base = canonical(search_circuit(circuit, stats, seed=1, **PORTFOLIO))
        monkeypatch.setenv("REPRO_FAULTS", "kill-restart=1")
        monkeypatch.setenv("REPRO_FAULTS_STATE", str(tmp_path))
        recovered = search_circuit(circuit, stats, seed=1, **PORTFOLIO)
        assert canonical(recovered) == base
        assert not recovered.partial

    def test_persistent_crash_yields_partial(self, adder, monkeypatch):
        """Retries exhausted: merge what completed, flag partial."""
        circuit, stats = adder
        monkeypatch.setenv("REPRO_FAULTS", "crash-restart=1")
        result = search_circuit(circuit, stats, seed=1, worker_retries=1,
                                **PORTFOLIO)
        assert result.partial and not result.interrupted
        assert [f["index"] for f in result.failures] == [1]
        assert "FaultInjected" in result.failures[0]["error"]
        artifact = result.to_artifact()
        assert artifact["partial"] is True
        assert artifact["portfolio"]["failed"][0]["index"] == 1
        # The surviving restarts still produced a best state.
        assert result.power_after <= result.power_before

    def test_clean_artifact_has_no_partial_key(self, adder):
        circuit, stats = adder
        result = search_circuit(circuit, stats, seed=1, **PORTFOLIO)
        artifact = result.to_artifact()
        assert "partial" not in artifact
        assert "failed" not in artifact["portfolio"]

    def test_all_restarts_lost_raises(self, adder, monkeypatch):
        circuit, stats = adder
        monkeypatch.setenv(
            "REPRO_FAULTS",
            "crash-restart=0; crash-restart=1; crash-restart=2")
        with pytest.raises(RuntimeError, match="no restarts completed"):
            search_circuit(circuit, stats, seed=1, worker_retries=0,
                           **PORTFOLIO)


class TestBenchRecovery:
    CASES = ["fa1", "c17"]

    def test_error_row_instead_of_abort(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash-case=fa1")
        artifact = run_suite(cases=self.CASES, scenarios=("A",), jobs=1,
                             seed=0, retries=0)
        rows = artifact["results"]
        assert [r["status"] for r in rows] == ["error", "ok"]
        assert "FaultInjected" in rows[0]["error"]
        assert "partial" not in artifact  # the sweep itself completed

    def test_timeout_row(self, monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "sleep-case=fa1:600")
        artifact = run_suite(cases=self.CASES, scenarios=("A",), jobs=1,
                             seed=0, retries=0, case_timeout_s=2.0)
        rows = artifact["results"]
        assert rows[0]["status"] == "timeout"
        assert rows[1]["status"] == "ok"

    def test_killed_case_retried_byte_identical(self, tmp_path, monkeypatch):
        base = run_suite(cases=self.CASES, scenarios=("A",), jobs=2, seed=0)
        monkeypatch.setenv("REPRO_FAULTS", "kill-case=fa1")
        monkeypatch.setenv("REPRO_FAULTS_STATE", str(tmp_path))
        recovered = run_suite(cases=self.CASES, scenarios=("A",), jobs=2,
                              seed=0)
        assert dumps_artifact(strip_timing(recovered)) == \
            dumps_artifact(strip_timing(base))


class TestInterruptedSearch:
    def test_sigterm_mid_search_yields_partial(self, adder, monkeypatch):
        """The sigterm-search fault stops the run at a chosen step; the
        result is the best-so-far state flagged partial (the CLI routes
        SIGTERM through KeyboardInterrupt the same way)."""
        circuit, stats = adder
        previous = signal.signal(
            signal.SIGTERM,
            lambda signum, frame: (_ for _ in ()).throw(KeyboardInterrupt))
        try:
            monkeypatch.setenv("REPRO_FAULTS", "sigterm-search=2")
            result = search_circuit(circuit, stats, seed=0,
                                    strategy="greedy")
        finally:
            signal.signal(signal.SIGTERM, previous)
        assert result.partial and result.interrupted
        assert result.to_artifact()["partial"] is True
        assert len(result.accepted) <= 2


def _bookkeeping(run):
    """Worker-counter deltas and ``robust.*`` task instants of ``run()``."""
    retries = REGISTRY.counter("robust.worker.retries")
    failures = REGISTRY.counter("robust.worker.failures")
    before = retries.value, failures.value
    sink = io.StringIO()
    trace.enable(sink)
    try:
        run()
    finally:
        trace.disable()
    instants = sorted(
        (record["name"], record["attrs"]["index"], record["attrs"]["status"],
         record["attrs"]["attempts"])
        for record in map(json.loads, sink.getvalue().splitlines())
        if record["ev"] == "I" and record["name"].startswith("robust.")
    )
    return retries.since(before[0]), failures.since(before[1]), instants


class TestFanOutBookkeeping:
    """``jobs=1`` fans out through the supervisor's own books: the same
    retry/failure counts, task instants and failure text as ``jobs=2``."""

    @pytest.mark.parametrize("kind", ["bench", "portfolio"])
    def test_jobs_one_keeps_the_same_books_as_jobs_two(self, adder, kind,
                                                       monkeypatch):
        circuit, stats = adder
        if kind == "bench":
            monkeypatch.setenv("REPRO_FAULTS", "crash-case=fa1")

            def run(jobs):
                run_suite(cases=["fa1", "c17"], scenarios=("A",), jobs=jobs,
                          seed=0, retries=1)
        else:
            monkeypatch.setenv("REPRO_FAULTS", "crash-restart=1")

            def run(jobs):
                search_circuit(circuit, stats, seed=1, worker_retries=1,
                               **dict(PORTFOLIO, jobs=jobs))
        serial = _bookkeeping(lambda: run(1))
        parallel = _bookkeeping(lambda: run(2))
        assert serial == parallel
        assert serial[:2] == (1, 1)
        assert [status for _, _, status, _ in serial[2]].count("error") == 1

    def test_bench_failure_rows_byte_identical_across_jobs(self, tmp_path,
                                                           monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash-case=fa1")
        artifacts = []
        for jobs in ("1", "2"):
            path = str(tmp_path / f"bench{jobs}.json")
            code = main(["bench", "--cases", "fa1", "c17", "--scenario", "A",
                         "--jobs", jobs, "--retries", "0", "--out", path],
                        out=io.StringIO())
            assert code == 0
            artifacts.append(dumps_artifact(strip_timing(load_artifact(path))))
        assert artifacts[0] == artifacts[1]
        assert '"error": "FaultInjected: injected fault' in artifacts[0]

"""Tests for the worker supervisor (`repro.robust.supervise`)."""

import os

import pytest

from repro.robust import SupervisedRun, TaskOutcome, run_supervised
from repro.robust.supervise import fan_out

# Worker functions must be importable from the child process (fork or
# spawn), so they live at module scope.


def _double(payload):
    return payload * 2


def _crash_on_odd(payload):
    if payload % 2:
        raise ValueError(f"odd payload {payload}")
    return payload


def _die_on_three(payload):
    if payload == 3:
        os._exit(9)  # no exception, no pipe message: a hard crash
    return payload


def _sleep_forever(payload):
    import time

    time.sleep(600)


def _flaky_once(payload):
    """Fails on the first attempt per state dir, succeeds on retry."""
    marker = os.path.join(os.environ["FLAKY_DIR"], f"{payload}.attempted")
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return payload
    os.close(fd)
    os._exit(1)


class TestHappyPath:
    def test_results_in_payload_order(self):
        run = run_supervised(_double, [3, 1, 4, 1, 5], jobs=3)
        assert isinstance(run, SupervisedRun)
        assert not run.interrupted
        assert [o.value for o in run.outcomes] == [6, 2, 8, 2, 10]
        assert all(o.ok and o.attempts == 1 for o in run.outcomes)

    def test_single_job(self):
        run = run_supervised(_double, [1, 2], jobs=1)
        assert [o.value for o in run.outcomes] == [2, 4]

    def test_empty_payloads(self):
        run = run_supervised(_double, [], jobs=2)
        assert run.outcomes == []

    def test_on_complete_sees_every_task(self):
        seen = []
        run_supervised(_double, [1, 2, 3], jobs=2,
                       on_complete=lambda o, done, total: seen.append(
                           (o.index, done, total)))
        assert sorted(index for index, _, _ in seen) == [0, 1, 2]
        assert [done for _, done, _ in sorted(seen, key=lambda s: s[1])] \
            == [1, 2, 3]
        assert all(total == 3 for _, _, total in seen)


class TestFailurePaths:
    def test_exception_exhausts_retries(self):
        run = run_supervised(_crash_on_odd, [0, 1, 2], jobs=2,
                             retries=1, backoff_s=0.01)
        assert [o.status for o in run.outcomes] == ["ok", "error", "ok"]
        failed = run.outcomes[1]
        assert failed.attempts == 2  # first try + one retry
        assert "odd payload 1" in failed.error

    def test_completed_and_failed_partition(self):
        run = run_supervised(_crash_on_odd, [0, 1, 2], jobs=2,
                             retries=0, backoff_s=0.01)
        assert [o.index for o in run.completed] == [0, 2]
        assert [o.index for o in run.failed] == [1]

    def test_worker_death_detected(self):
        run = run_supervised(_die_on_three, [2, 3], jobs=2,
                             retries=0, backoff_s=0.01)
        assert run.outcomes[0].ok
        dead = run.outcomes[1]
        assert dead.status == "crashed"
        assert "exit code" in dead.error

    def test_crash_retried_then_succeeds(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FLAKY_DIR", str(tmp_path))
        run = run_supervised(_flaky_once, [7], jobs=1,
                             retries=2, backoff_s=0.01)
        outcome = run.outcomes[0]
        assert outcome.ok and outcome.value == 7
        assert outcome.attempts == 2

    def test_deadline_kills_hung_worker(self):
        run = run_supervised(_sleep_forever, [0], jobs=1,
                             retries=0, backoff_s=0.01, deadline_s=0.5)
        outcome = run.outcomes[0]
        assert outcome.status == "timeout"
        assert "deadline" in outcome.error

    def test_failure_does_not_sink_siblings(self):
        run = run_supervised(_die_on_three, [0, 1, 2, 3, 4], jobs=2,
                             retries=0, backoff_s=0.01)
        assert [o.status for o in run.outcomes] == \
            ["ok", "ok", "ok", "crashed", "ok"]


def _pid(payload):
    return os.getpid()


def _interrupt_on_two(payload):
    if payload == 2:
        raise KeyboardInterrupt
    return payload


class TestFanOut:
    def test_sequential_runs_in_process(self):
        run = fan_out(_pid, [0, 1], jobs=1)
        assert [o.value for o in run.outcomes] == [os.getpid()] * 2
        # One task runs in process at any jobs; a deadline needs workers.
        assert fan_out(_pid, [0], jobs=4).outcomes[0].value == os.getpid()
        run = fan_out(_pid, [0], jobs=1, deadline_s=60.0)
        assert run.outcomes[0].value != os.getpid()

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_same_outcomes_in_both_modes(self, jobs):
        run = fan_out(_crash_on_odd, [0, 1, 2], jobs=jobs, retries=1)
        assert [(o.status, o.attempts) for o in run.outcomes] == \
            [("ok", 1), ("error", 2), ("ok", 1)]
        assert run.outcomes[1].error == "ValueError: odd payload 1"

    def test_interrupt_keeps_completed_outcomes(self):
        seen = []
        run = fan_out(_interrupt_on_two, [0, 1, 2, 3], jobs=1,
                      on_complete=lambda o, done, total: seen.append(done))
        assert run.interrupted
        assert [o.status for o in run.outcomes] == \
            ["ok", "ok", "interrupted", "interrupted"]
        assert seen == [1, 2]


class TestOutcome:
    def test_ok_property(self):
        assert TaskOutcome(index=0, status="ok").ok
        assert not TaskOutcome(index=0, status="crashed").ok

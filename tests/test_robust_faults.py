"""Tests for the fault-injection harness (`repro.robust.faults`)."""

import os

import pytest

from repro.robust import FaultInjected
from repro.robust import faults


class TestPlanParsing:
    def test_disarmed_is_noop(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        faults.fire("portfolio.restart", match=0)  # must not raise

    def test_unknown_spec_rejected(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "explode-everything=1")
        with pytest.raises(ValueError, match="bad fault spec"):
            faults.fire("portfolio.restart", match=0)

    def test_missing_value_rejected(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "crash-restart")
        with pytest.raises(ValueError):
            faults.fire("portfolio.restart", match=0)

    def test_sleep_needs_seconds(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "sleep-restart=1")
        with pytest.raises(ValueError, match="SECONDS"):
            faults.fire("portfolio.restart", match=1)

    def test_multiple_specs(self, monkeypatch):
        monkeypatch.setenv(
            faults.ENV_VAR, "crash-restart=3; crash-case=rca4")
        faults.fire("portfolio.restart", match=1)  # no match, no fire
        with pytest.raises(FaultInjected):
            faults.fire("portfolio.restart", match=3)
        with pytest.raises(FaultInjected):
            faults.fire("bench.case", match="rca4")


class TestFiring:
    def test_match_compared_as_strings(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "crash-restart=2")
        with pytest.raises(FaultInjected):
            faults.fire("portfolio.restart", match=2)

    def test_wrong_point_does_not_fire(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "crash-restart=2")
        faults.fire("bench.case", match=2)  # different point

    def test_sleep_stalls(self, monkeypatch):
        import time

        monkeypatch.setenv(faults.ENV_VAR, "sleep-restart=0:0.05")
        start = time.perf_counter()
        faults.fire("portfolio.restart", match=0)
        assert time.perf_counter() - start >= 0.05


class TestOnceSemantics:
    def test_marker_claims_single_firing(self, tmp_path, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "crash-restart=1")
        monkeypatch.setenv(faults.STATE_ENV_VAR, str(tmp_path))
        with pytest.raises(FaultInjected):
            faults.fire("portfolio.restart", match=1)
        # Second firing finds the marker and stays quiet — the retried
        # worker runs clean.
        faults.fire("portfolio.restart", match=1)
        assert any(name.endswith(".fired") for name in os.listdir(tmp_path))

    def test_without_state_dir_fires_every_time(self, monkeypatch):
        monkeypatch.delenv(faults.STATE_ENV_VAR, raising=False)
        monkeypatch.setenv(faults.ENV_VAR, "crash-restart=1")
        for _ in range(2):
            with pytest.raises(FaultInjected):
                faults.fire("portfolio.restart", match=1)


class TestTornBytes:
    def test_reports_armed_tear(self, monkeypatch):
        monkeypatch.setenv(faults.ENV_VAR, "tear-checkpoint=17")
        assert faults.torn_bytes() == 17

    def test_none_when_disarmed(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        assert faults.torn_bytes() is None

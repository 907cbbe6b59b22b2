"""Tests for the observability layer (:mod:`repro.obs`).

The two contracts that make instrumentation safe to leave in hot paths:

* **off means off** — with no tracer enabled the guard pattern touches
  nothing and the engine behaves identically;
* **tracing never touches artifacts** — enabling a tracer must not
  perturb a single byte of any result artifact (timestamps exist only
  in the trace stream).

Plus the mechanics: span nesting depths, exception-safe span closure
(a raising WhatIf body must still emit the E record), fork-safety via
the pid guard, byte-stable metrics snapshots, and the summarizer's
deterministic reduction.
"""

import io
import json

import pytest

from repro.bench.generators import ripple_carry_adder
from repro.bench.runner import dumps_artifact, strip_timing
from repro.incremental import StatsCache, WhatIf, search_circuit
from repro.incremental.eco import resolve_edit
from repro.obs import metrics, progress, trace
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.summarize import (
    render_summary,
    summarize_file,
    summarize_records,
)
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit


@pytest.fixture(autouse=True)
def _no_leaked_tracer():
    """Every test starts and ends with tracing (and so progress) off."""
    trace.disable()
    yield
    trace.disable()


@pytest.fixture(scope="module")
def setting():
    circuit = map_circuit(ripple_carry_adder(3))
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)
    return circuit, input_stats


def _records(sink: io.StringIO):
    return [json.loads(line) for line in sink.getvalue().splitlines()]


def _reorderable_gates(circuit):
    """Names of gates whose template offers at least one reordering."""
    return [gate.name for gate in circuit.gates
            if len(gate.template.configurations()) > 1]


def _input_edit(circuit, position):
    """An input-statistics edit of the ``position``-th primary input.

    A reordering moves no statistics, so trials that must exercise the
    statistics refresh apply one of these too.
    """
    return resolve_edit(circuit, {"op": "input-stats",
                                  "net": circuit.inputs[position],
                                  "probability": 0.3, "density": 2.0e5})


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestMetrics:
    def test_counter_inc_and_since(self):
        counter = Counter("work")
        counter.inc()
        counter.inc(41)
        assert counter.value == 42
        checkpoint = counter.value
        counter.inc(8)
        assert counter.since(checkpoint) == 8
        assert counter.snapshot() == 50

    def test_gauge_tracks_last_value(self):
        gauge = Gauge("depth")
        gauge.set(3.0)
        gauge.set(1.5)
        assert gauge.snapshot() == 1.5

    def test_histogram_fixed_edges_byte_stable(self):
        one = Histogram("sizes", edges=(1.0, 2.0, 4.0))
        two = Histogram("sizes", edges=(1.0, 2.0, 4.0))
        for h in (one, two):
            for value in (0.5, 1.0, 3.0, 100.0):
                h.observe(value)
        assert json.dumps(one.snapshot(), sort_keys=True) == \
            json.dumps(two.snapshot(), sort_keys=True)
        # bisect_right: 1.0 lands above the 1.0 edge; 100.0 overflows.
        assert one.counts == [1, 1, 1, 1]
        assert one.count == 4

    def test_histogram_rejects_bad_edges(self):
        with pytest.raises(ValueError):
            Histogram("bad", edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("bad", edges=())

    def test_registry_get_or_create_and_kind_clash(self):
        registry = MetricsRegistry()
        counter = registry.counter("a")
        assert registry.counter("a") is counter
        with pytest.raises(TypeError):
            registry.gauge("a")
        registry.histogram("h")
        assert list(registry) == ["a", "h"]
        snapshot = registry.snapshot()
        assert list(snapshot) == ["a", "h"]

    def test_cache_counters_back_result_fields(self, setting):
        circuit, input_stats = setting
        with StatsCache(circuit.copy(), input_stats) as cache:
            cache.total_power()
            gate = _reorderable_gates(cache.circuit)[0]
            with WhatIf(cache) as trial:
                trial.apply(resolve_edit(cache.circuit,
                                         {"op": "reorder", "gate": gate,
                                          "config": 1}))
                trial.power()
                # a reordering re-propagates nothing ...
                assert cache.gates_repropagated == 0
                trial.apply(_input_edit(cache.circuit, 0))
                trial.power()
            assert cache.gates_repropagated == \
                cache.metrics.counter("stats.gates_repropagated").value
            assert cache.refresh_count == \
                cache.metrics.counter("stats.refresh_count").value
            # ... an input-statistics edit re-propagates its cone
            assert cache.gates_repropagated > 0


# ----------------------------------------------------------------------
# Tracer mechanics
# ----------------------------------------------------------------------
class TestTracer:
    def test_disabled_is_null(self):
        assert trace.ACTIVE is None
        assert not trace.enabled()
        assert trace.span("anything", key=1) is trace.NULL_SPAN
        trace.instant("anything")  # no-op, no error

    def test_span_records_and_nesting_depths(self):
        sink = io.StringIO()
        trace.enable(sink)
        with trace.span("outer", kind="test"):
            with trace.span("inner"):
                pass
            with trace.span("inner"):
                trace.instant("tick", n=1)
        trace.disable()
        records = _records(sink)
        events = [(r["ev"], r["name"], r["depth"]) for r in records]
        assert events == [
            ("B", "outer", 0),
            ("B", "inner", 1), ("E", "inner", 1),
            ("B", "inner", 1), ("I", "tick", 2), ("E", "inner", 1),
            ("E", "outer", 0),
        ]
        assert records[0]["attrs"] == {"kind": "test"}
        assert all(r["ts_ns"] >= 0 for r in records)
        ends = [r for r in records if r["ev"] == "E"]
        assert all(r["dur_ns"] >= 0 for r in ends)

    def test_note_lands_on_end_record(self):
        sink = io.StringIO()
        trace.enable(sink)
        with trace.span("work") as span:
            span.note(route="batch")
            span.note(extra=2)
        trace.disable()
        begin, end = _records(sink)
        assert "attrs" not in begin
        assert end["attrs"] == {"route": "batch", "extra": 2}

    def test_raising_body_still_closes_span(self):
        sink = io.StringIO()
        trace.enable(sink)
        with pytest.raises(RuntimeError):
            with trace.span("doomed"):
                raise RuntimeError("boom")
        trace.disable()
        begin, end = _records(sink)
        assert end["ev"] == "E" and end["error"] is True
        summary = summarize_records([begin, end])
        assert summary.unclosed == []
        assert summary.spans[0].errors == 1

    def test_raising_whatif_trial_closes_spans(self, setting):
        """A raising WhatIf body rolls back AND the trace stays balanced."""
        circuit, input_stats = setting
        sink = io.StringIO()
        with StatsCache(circuit.copy(), input_stats) as cache:
            baseline = cache.total_power()
            gate = _reorderable_gates(cache.circuit)[0]
            edit = resolve_edit(cache.circuit,
                                {"op": "reorder", "gate": gate, "config": 1})
            trace.enable(sink)
            with pytest.raises(RuntimeError):
                with trace.span("trial"):
                    with WhatIf(cache) as trial:
                        trial.apply(edit)
                        trial.apply(_input_edit(cache.circuit, 0))
                        trial.power()
                        raise RuntimeError("abort trial")
            trace.disable()
            assert cache.total_power() == baseline  # rolled back
        summary = summarize_records(_records(sink))
        assert summary.unclosed == []
        by_name = {entry.name: entry for entry in summary.spans}
        assert by_name["trial"].errors == 1
        assert "stats.refresh" in by_name  # the trial's refresh was traced

    def test_nested_whatif_trials_nest_depths(self, setting):
        circuit, input_stats = setting
        sink = io.StringIO()
        with StatsCache(circuit.copy(), input_stats) as cache:
            cache.total_power()
            gates = _reorderable_gates(cache.circuit)[:2]
            trace.enable(sink)
            with WhatIf(cache) as outer:
                outer.apply(resolve_edit(cache.circuit,
                                         {"op": "reorder", "gate": gates[0],
                                          "config": 1}))
                outer.apply(_input_edit(cache.circuit, 0))
                outer.power()
                with WhatIf(cache) as inner:
                    inner.apply(resolve_edit(cache.circuit,
                                             {"op": "reorder",
                                              "gate": gates[1], "config": 1}))
                    inner.apply(_input_edit(cache.circuit, 1))
                    inner.power()
            trace.disable()
        records = _records(sink)
        refreshes = [r for r in records
                     if r["ev"] == "B" and r["name"] == "stats.refresh"]
        assert len(refreshes) >= 2
        assert all(r["depth"] == 0 for r in refreshes)
        assert summarize_records(records).unclosed == []

    def test_forked_child_goes_silent(self):
        sink = io.StringIO()
        tracer = trace.enable(sink)
        tracer._pid = tracer._pid + 1  # simulate running in a forked child
        assert tracer.span("x") is trace.NULL_SPAN
        tracer.instant("x")
        tracer.metrics({"a": 1})
        trace.disable()
        assert sink.getvalue() == ""

    def test_enable_path_and_start_env(self, tmp_path, monkeypatch):
        path = tmp_path / "deep" / "t.jsonl"
        tracer = trace.enable(str(path))
        trace.instant("hello")
        trace.disable()
        assert tracer.path == str(path)
        assert summarize_file(str(path)).instants == 1

        monkeypatch.delenv(trace.ENV_VAR, raising=False)
        assert trace.start() is None
        monkeypatch.setenv(trace.ENV_VAR, "")
        assert trace.start() is None
        env_path = tmp_path / "env.jsonl"
        monkeypatch.setenv(trace.ENV_VAR, str(env_path))
        tracer = trace.start()
        assert tracer is not None and tracer.path == str(env_path)
        trace.disable()
        assert env_path.exists()


# ----------------------------------------------------------------------
# Artifact byte-identity with tracing on
# ----------------------------------------------------------------------
class TestArtifactIdentity:
    @pytest.mark.parametrize("kwargs", [
        {"strategy": "greedy"},
        {"strategy": "anneal", "seed": 7, "anneal_trials": 40},
        {"strategy": "anneal", "seed": 3, "restarts": 2, "jobs": 1,
         "anneal_trials": 20},
    ])
    def test_search_artifact_unperturbed_by_tracing(self, setting, tmp_path,
                                                    kwargs):
        circuit, input_stats = setting
        untraced = search_circuit(circuit, input_stats, **kwargs)
        trace.enable(str(tmp_path / "t.jsonl"))
        traced = search_circuit(circuit, input_stats, **kwargs)
        trace.disable()
        assert dumps_artifact(strip_timing(traced.to_artifact())) == \
            dumps_artifact(strip_timing(untraced.to_artifact()))
        summary = summarize_file(str(tmp_path / "t.jsonl"))
        assert summary.records > 0
        assert summary.unclosed == []

    def test_search_trace_carries_metrics_snapshot(self, setting, tmp_path):
        circuit, input_stats = setting
        summaries = {}
        for retemplate in (False, True):
            path = tmp_path / f"t{int(retemplate)}.jsonl"
            trace.enable(str(path))
            search_circuit(circuit, input_stats, strategy="greedy",
                           retemplate=retemplate)
            trace.disable()
            summaries[retemplate] = summarize_file(str(path))
        for summary in summaries.values():
            assert summary.metrics is not None
            assert summary.metrics["timing.refresh_count"] > 0
            names = {entry.name for entry in summary.spans}
            assert {"search", "search.round", "search.score_batch",
                    "stats.power_refresh"} <= names
        # A reorder-only search never refreshes statistics; accepted
        # retemplates do.
        reorder, retemplate = summaries[False], summaries[True]
        assert reorder.metrics["stats.refresh_count"] == 0
        assert reorder.metrics["stats.gates_repropagated"] == 0
        assert "stats.refresh" not in {e.name for e in reorder.spans}
        assert retemplate.metrics["stats.refresh_count"] > 0
        assert "stats.refresh" in {e.name for e in retemplate.spans}


# ----------------------------------------------------------------------
# Summarize
# ----------------------------------------------------------------------
class TestSummarize:
    def test_self_time_excludes_children(self):
        records = [
            {"ev": "B", "name": "outer", "ts_ns": 0, "depth": 0},
            {"ev": "B", "name": "inner", "ts_ns": 10, "depth": 1},
            {"ev": "E", "name": "inner", "ts_ns": 40, "depth": 1,
             "dur_ns": 30},
            {"ev": "E", "name": "outer", "ts_ns": 100, "depth": 0,
             "dur_ns": 100},
        ]
        summary = summarize_records(records)
        by_name = {entry.name: entry for entry in summary.spans}
        assert by_name["outer"].total_ns == 100
        assert by_name["outer"].self_ns == 70
        assert by_name["inner"].self_ns == 30
        assert summary.slowest[0][2] == "outer"

    def test_percentiles_nearest_rank(self):
        records = []
        for dur in (10, 20, 30, 40, 50, 60, 70, 80, 90, 100):
            records.append({"ev": "B", "name": "s", "ts_ns": 0, "depth": 0})
            records.append({"ev": "E", "name": "s", "ts_ns": dur, "depth": 0,
                            "dur_ns": dur})
        entry = summarize_records(records).spans[0]
        assert entry.percentile(0.50) == 50
        assert entry.percentile(0.95) == 100
        assert entry.percentile(1.00) == 100

    def test_unclosed_and_malformed_lines(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text(
            json.dumps({"ev": "B", "name": "open", "ts_ns": 0, "depth": 0})
            + "\nnot json\n"
            + '{"ev": "I", "name": "tick", "ts_ns": 5, "depth": 1}\n'
            + '{"ev": "B", "name": "trunc'  # cut mid-line
        )
        summary = summarize_file(str(path))
        assert summary.unclosed == ["open"]
        assert summary.instants == 1
        assert summary.records == 2
        # The two unparseable lines (garbage + the cut-short B) are
        # counted, not fatal.
        assert summary.truncated_records == 2

    def test_dangling_open_span_does_not_steal_self_time(self):
        """A B with no E is closed synthetically at the last-seen ts.

        Before that fix, ``inner`` stayed on the stack forever: its 90 ns
        were charged to nobody and ``outer`` kept all 100 ns as self
        time, mis-attributing the hot path.
        """
        records = [
            {"ev": "B", "name": "outer", "ts_ns": 0, "depth": 0},
            {"ev": "B", "name": "inner", "ts_ns": 10, "depth": 1},
            # inner's E was lost (crash, truncation) ...
            {"ev": "E", "name": "outer", "ts_ns": 100, "depth": 0,
             "dur_ns": 100},
        ]
        summary = summarize_records(records)
        by_name = {entry.name: entry for entry in summary.spans}
        assert summary.unclosed == ["inner"]
        assert by_name["inner"].unclosed == 1
        assert by_name["inner"].total_ns == 90  # closed at outer's E ts
        assert by_name["outer"].self_ns == 10   # 100 minus inner's 90
        assert by_name["outer"].unclosed == 0
        # Synthetic durations are estimates: keep them out of "slowest".
        assert all(name != "inner" for _, _, name, _ in summary.slowest)

    def test_dangling_span_at_end_of_stream_closes_at_last_ts(self):
        records = [
            {"ev": "B", "name": "outer", "ts_ns": 0, "depth": 0},
            {"ev": "I", "name": "tick", "ts_ns": 60, "depth": 1},
            # stream ends: trace cut off mid-run
        ]
        summary = summarize_records(records)
        entry = summary.spans[0]
        assert summary.unclosed == ["outer"]
        assert entry.unclosed == 1
        assert entry.total_ns == 60  # last-seen timestamp
        rendered = render_summary(summary)
        assert "never closed" in rendered

    def test_render_is_deterministic(self, setting, tmp_path):
        circuit, input_stats = setting
        path = tmp_path / "t.jsonl"
        trace.enable(str(path))
        search_circuit(circuit, input_stats, strategy="greedy")
        trace.disable()
        one = render_summary(summarize_file(str(path)), top=5)
        two = render_summary(summarize_file(str(path)), top=5)
        assert one == two
        assert "trace summary" in one and "slowest spans" in one

    def test_truncated_trace_renders_warning(self, tmp_path):
        path = tmp_path / "t.jsonl"
        path.write_text('{"ev": "I", "name": "ok", "ts_ns": 1, "depth": 0}\n'
                        '{"ev": "B", "na')
        rendered = render_summary(summarize_file(str(path)))
        assert "malformed line(s) dropped" in rendered

    def test_metrics_module_registry_roundtrip(self):
        registry = metrics.MetricsRegistry()
        registry.counter("c").inc(3)
        registry.histogram("h").observe(5.0)
        sink = io.StringIO()
        trace.enable(sink)
        trace.ACTIVE.metrics(registry.snapshot())
        trace.disable()
        summary = summarize_records(_records(sink))
        assert summary.metrics["c"] == 3
        assert summary.metrics["h"]["count"] == 1


# ----------------------------------------------------------------------
# Live progress: the heartbeat view of the trace stream
# ----------------------------------------------------------------------
def _lines(sink: io.StringIO, name: str):
    return [line for line in sink.getvalue().splitlines()
            if line.split("] ", 1)[1].split(" ", 1)[0] == name]


class TestProgress:
    def test_disabled_module_emit_is_noop(self):
        assert trace.ACTIVE is None
        trace.instant("robust.resume", n=1)  # no tracer, no error
        assert trace.span("search.round", round=1) is trace.NULL_SPAN
        assert trace.ACTIVE is None

    def test_emit_format_and_rate_limit(self, monkeypatch):
        monkeypatch.setattr(progress, "INTERVAL_S", 3600.0)
        sink = io.StringIO()
        p = progress.attach(sink)
        with trace.span("search.round", round=3) as span:
            with trace.span("stats.refresh", gates=2):
                pass  # not a heartbeat record
            span.note(score=0.123456)
        with trace.span("search.round", round=4):
            pass  # rate-limited: huge interval
        trace.instant("robust.resume", done=1)  # milestone: forced
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert p.emitted == 2
        assert lines[0].endswith("] search.round round=3 score=0.1235")
        assert lines[0].startswith("[") and "s]" in lines[0]
        assert lines[1].endswith("] robust.resume done=1")

    def test_zero_interval_never_limits(self, monkeypatch):
        monkeypatch.setattr(progress, "INTERVAL_S", 0.0)
        sink = io.StringIO()
        p = progress.attach(sink)
        for i in range(5):
            with trace.span("search.trial", step=i):
                pass
        assert p.emitted == 5
        assert len(_lines(sink, "search.trial")) == 5

    def test_forked_child_is_silent(self, tmp_path, monkeypatch):
        monkeypatch.setattr(progress, "INTERVAL_S", 0.0)
        # A tracer with no file emits nothing at all in a child.
        sink = io.StringIO()
        tracer = trace.enable(None)
        p = progress.attach(sink)
        tracer._pid += 1  # simulate a forked worker
        trace.instant("robust.resume", n=1)
        assert sink.getvalue() == "" and p.emitted == 0
        trace.disable()
        # A file tracer reroutes to its shard and drops the heartbeat.
        path = str(tmp_path / "t.jsonl")
        tracer = trace.enable(path)
        p = progress.attach(sink)
        tracer._pid += 1
        trace.instant("robust.resume", n=2)
        trace.disable()
        assert sink.getvalue() == "" and p.emitted == 0
        assert tracer.progress is None
        assert len(trace.find_shards(path)) == 1

    def test_enable_disable_install_module_sink(self, monkeypatch):
        monkeypatch.setattr(progress, "INTERVAL_S", 0.0)
        # No trace: attach starts a tracer with no file.
        sink = io.StringIO()
        installed = progress.attach(sink)
        assert trace.ACTIVE is not None and trace.ACTIVE.path is None
        assert trace.ACTIVE.progress is installed
        trace.instant("robust.resume", n=2)
        trace.disable()
        assert trace.ACTIVE is None
        assert "robust.resume n=2" in sink.getvalue()
        # A live trace: the same record reaches the file and the view.
        stream, view = io.StringIO(), io.StringIO()
        tracer = trace.enable(stream)
        progress.attach(view)
        assert trace.ACTIVE is tracer
        trace.instant("robust.resume", n=3)
        trace.disable()
        assert [r["name"] for r in _records(stream)] == ["robust.resume"]
        assert "robust.resume n=3" in view.getvalue()

    def test_search_emits_progress_lines(self, setting, monkeypatch):
        monkeypatch.setattr(progress, "INTERVAL_S", 0.0)
        circuit, input_stats = setting
        sink = io.StringIO()
        progress.attach(sink)
        search_circuit(circuit, input_stats, strategy="greedy")
        trace.disable()
        rounds = _lines(sink, "search.round")
        assert rounds
        assert all(f in rounds[0] for f in
                   ("round=1", "queue=", "accepted=", "trials=", "score="))
        assert all(line.startswith("[")
                   for line in sink.getvalue().splitlines())

    def test_progress_does_not_perturb_artifacts(self, setting, monkeypatch):
        monkeypatch.setattr(progress, "INTERVAL_S", 0.0)
        circuit, input_stats = setting
        quiet = search_circuit(circuit, input_stats, strategy="anneal",
                               seed=7, anneal_trials=40)
        sink = io.StringIO()
        progress.attach(sink)
        noisy = search_circuit(circuit, input_stats, strategy="anneal",
                               seed=7, anneal_trials=40)
        trace.disable()
        assert dumps_artifact(strip_timing(noisy.to_artifact())) == \
            dumps_artifact(strip_timing(quiet.to_artifact()))
        assert len(_lines(sink, "search.trial")) == 40

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_line_per_restart(self, setting, monkeypatch, jobs):
        monkeypatch.setattr(progress, "INTERVAL_S", 3600.0)
        circuit, input_stats = setting
        sink = io.StringIO()
        progress.attach(sink)
        search_circuit(circuit, input_stats, strategy="anneal", seed=7,
                       anneal_trials=20, restarts=3, jobs=jobs)
        trace.disable()
        lines = _lines(sink, "robust.portfolio.restart")
        assert len(lines) == 3
        assert all("status=ok" in line and "total=3" in line
                   for line in lines)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_one_line_per_bench_case(self, monkeypatch, jobs):
        from repro.bench.runner import run_suite

        monkeypatch.setattr(progress, "INTERVAL_S", 3600.0)
        sink = io.StringIO()
        progress.attach(sink)
        run_suite(cases=["fa1", "c17"], scenarios=("A",), jobs=jobs)
        trace.disable()
        lines = _lines(sink, "robust.bench.case")
        assert len(lines) == 2
        assert all("status=ok" in line and "total=2" in line
                   for line in lines)

    def test_search_resume_line(self, setting, tmp_path):
        circuit, input_stats = setting
        checkpoint = str(tmp_path / "ck.json")
        search_circuit(circuit, input_stats, strategy="greedy",
                       checkpoint_path=checkpoint, checkpoint_every=1)
        sink = io.StringIO()
        progress.attach(sink)
        search_circuit(circuit, input_stats, strategy="greedy",
                       resume_path=checkpoint)
        trace.disable()
        (line,) = _lines(sink, "robust.resume")
        assert "kind=search" in line and "phase=" in line

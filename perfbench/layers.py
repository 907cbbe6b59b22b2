"""Per-layer metrics from in-memory traces of one benchmark run.

A traced run records each stretch of work (the set-up, every timed
operation, the probe) as a :class:`Unit`: the program's tracer writes
into a memory buffer for the unit's duration, and the records are reduced
with :func:`repro.obs.summarize.summarize_records`.  A layer's metric
comes from the operation units when the timed operation calls the layer,
and from the set-up and probe units otherwise.
"""

from __future__ import annotations

import io
import json
import statistics
import time
from collections import defaultdict
from typing import Dict, List, Mapping, Tuple

from repro.obs import trace as _trace
from repro.obs.summarize import SpanStats, summarize_records

#: Benchmark spans around a layer's public entry points, and the metric
#: each gives: the layer's seconds in one unit, median over units.
LAYER_SECONDS = (
    ("circuit.blif.parse", "circuit.blif.parse_s"),
    ("synth.mapper.map", "synth.mapper.map_s"),
    ("synth.mapper.pattern_index", "synth.mapper.pattern_index_s"),
    ("synth.cuts.enumerate", "synth.cuts.enumerate_s"),
    ("core.optimizer.optimize", "core.optimizer.optimize_s"),
    ("sim.switchsim.run", "sim.switchsim.run_s"),
    ("timing.sta.analyze", "timing.sta.analyze_s"),
    ("compiled.lower", "compiled.lower_s"),
    ("incremental.cache.build", "incremental.cache.build_s"),
    ("incremental.timing.build", "incremental.timing.build_s"),
)

#: Spans the program itself emits inside ``search_circuit``.
PROGRAM_SPANS = ("search.score_batch", "search.trial", "search.structural",
                 "stats.refresh", "stats.power_refresh", "timing.refresh")

#: Work counts of one search, with their units; they repeat exactly.
COUNTS = (
    ("search.trials", "count"),
    ("search.accepted", "count"),
    ("search.accept_ratio", "ratio"),
    ("stats.gates_repropagated", "count"),
    ("incremental.cache.cone_ratio", "ratio"),
    ("timing.gates_retimed", "count"),
    ("eco.structural", "count"),
    ("compiled.net_loads.rebuilds", "count"),
    ("compiled.power_eval.calls", "count"),
)


class Unit:
    """One traced stretch of the run, recorded in memory.

    ``kind`` is ``"setup"``, ``"op"`` or ``"probe"``.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.wall_ns = 0
        self.spans: Dict[str, SpanStats] = {}
        self.attrs: Dict[Tuple[str, str], float] = defaultdict(float)
        self.attributed_ns = 0
        self.snapshot: Mapping[str, object] = {}

    def __enter__(self) -> "Unit":
        self._buffer = io.StringIO()
        _trace.enable(self._buffer)
        self._start = time.perf_counter_ns()
        return self

    def __exit__(self, *exc) -> bool:
        self.wall_ns = time.perf_counter_ns() - self._start
        _trace.disable()
        records = [json.loads(line)
                   for line in self._buffer.getvalue().splitlines()]
        self._buffer = None
        summary = summarize_records(records)
        self.spans = {entry.name: entry for entry in summary.spans}
        self.snapshot = summary.metrics or {}
        for record in records:
            if record["ev"] != "E":
                continue
            if record["depth"] == 0:
                self.attributed_ns += record["dur_ns"]
            for key, value in record.get("attrs", {}).items():
                if isinstance(value, (int, float)):
                    self.attrs[(record["name"], key)] += value
        return False


def _source(units: List[Unit], name: str) -> List[Unit]:
    """The units a layer's metric reads: operations first, else the rest."""
    ops = [u for u in units if u.kind == "op" and name in u.spans]
    chosen = ops or [u for u in units if u.kind != "op" and name in u.spans]
    if not chosen:
        raise LookupError(f"no traced unit called the {name} layer")
    return chosen


def _pooled(units: List[Unit], name: str) -> SpanStats:
    return SpanStats(name, durations=[d for u in units
                                      for d in u.spans[name].durations])


def layer_metrics(units: List[Unit], counts: Mapping[str, float],
                  overhead_pct: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric as ``name -> (value, unit)``."""
    out: Dict[str, Tuple[float, str]] = {}
    for name, metric in LAYER_SECONDS:
        out[metric] = (statistics.median(
            u.spans[name].total_ns for u in _source(units, name)) / 1e9, "s")

    maps = _source(units, "synth.mapper.map")
    map_durations = _pooled(maps, "synth.mapper.map").durations
    out["synth.mapper.map_ms_p50"] = (
        statistics.median(map_durations) / 1e6, "ms")
    out["synth.mapper.gates_per_s"] = (
        sum(u.attrs[("synth.mapper.map", "gates")] for u in maps)
        / (sum(map_durations) / 1e9), "1/s")
    optimize = _source(units, "core.optimizer.optimize")
    out["core.optimizer.gates_decided"] = (statistics.median(
        u.attrs[("core.optimizer.optimize", "gates_decided")]
        for u in optimize), "count")

    for name in PROGRAM_SPANS:
        chosen = _source(units, name)
        out[f"{name}.self_s"] = (statistics.median(
            u.spans[name].self_ns for u in chosen) / 1e9, "s")
        pooled = _pooled(chosen, name)
        out[f"{name}.p50_us"] = (pooled.percentile(0.50) / 1e3, "us")
        out[f"{name}.p95_us"] = (pooled.percentile(0.95) / 1e3, "us")

    structural = [u.snapshot["eco.structural"] for u in units
                  if u.kind == "op" and "eco.structural" in u.snapshot]
    structural = structural or [u.snapshot["eco.structural"] for u in units
                                if "eco.structural" in u.snapshot]
    merged = dict(counts, **{"eco.structural": structural[0]})
    for name, unit in COUNTS:
        out[name] = (merged[name], unit)

    wall = sum(u.wall_ns for u in units)
    out["obs.attributed_pct"] = (
        100.0 * sum(u.attributed_ns for u in units) / wall, "%")
    out["obs.trace_overhead_pct"] = (overhead_pct, "%")
    return out

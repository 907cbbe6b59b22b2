"""``repro.obs`` — tracing, metrics and profiling with zero cost when off.

The engine's observability layer (see README.md):

* :mod:`repro.obs.metrics` — ``Counter`` / ``Gauge`` / ``Histogram``
  (fixed bucket edges, byte-stable snapshots) and the registries that
  unify the work counters previously scattered across ``StatsCache``,
  ``TimingCache``, the search engine and the compiled kernels;
* :mod:`repro.obs.trace` — the JSONL span tracer
  (``REPRO_TRACE=path`` / ``repro ... --trace path``), a strict no-op
  while disabled; forked workers shard to ``<trace>.pid<N>.jsonl``;
* :mod:`repro.obs.shards` — the deterministic cross-process shard
  merge behind ``repro trace merge`` (auto-run on traced-CLI exit);
* :mod:`repro.obs.summarize` — the ``repro trace summarize`` reducer:
  per-span-name count/total/self/p50/p95 plus the slowest spans,
  damage-tolerant (truncated tails, crashed-process dangling spans);
* :mod:`repro.obs.export` — ``repro trace export --format chrome``:
  Chrome/Perfetto trace-event JSON for ``chrome://tracing``;
* :mod:`repro.obs.perfdb` — the perf-regression baseline store behind
  ``repro bench check --baseline`` / ``repro bench baseline``;
* :mod:`repro.obs.progress` — the opt-in ``--progress`` heartbeat: a
  rate-limited stderr view of the tracer's record stream (one table,
  ``HEARTBEAT``, names the records it prints), not a second API.

``trace.ACTIVE`` is the only instrumentation global: a trace file, the
heartbeat, or both hang off the one live tracer.

The contract that makes instrumentation safe to leave in hot paths:
**off means off** (one module-global read and an ``is not None`` test;
no allocations — held to < 2% of ``bench_eco_search`` by
``benchmarks/bench_obs_overhead.py``) and **tracing never touches
artifacts** (timestamps exist only in the trace stream; result JSON is
byte-identical with tracing on and across worker counts, locked by
``tests/test_obs.py`` / ``tests/test_trace_shards.py``).
"""

from . import export, metrics, perfdb, progress, shards, summarize, trace
from .metrics import REGISTRY, Counter, Gauge, Histogram, MetricsRegistry
from .trace import (
    Tracer,
    adopt,
    disable,
    enable,
    enabled,
    flush,
    instant,
    span,
    start,
)

__all__ = [
    "metrics",
    "trace",
    "shards",
    "summarize",
    "export",
    "perfdb",
    "progress",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "REGISTRY",
    "Tracer",
    "span",
    "instant",
    "enabled",
    "enable",
    "disable",
    "start",
    "adopt",
    "flush",
]

"""The span tracer: JSON-lines trace events, zero overhead when off.

A *span* brackets one unit of work — a cache refresh, a candidate
batch, a greedy round — with monotonic timestamps, a nesting depth and
a dict of attributes::

    tracer = trace.ACTIVE
    span = tracer.span("stats.refresh", gates=cone) if tracer is not None \
        else trace.NULL_SPAN
    with span:
        ...                       # the work being measured

Cold call sites can use the module-level convenience
:func:`span` / :func:`instant` directly; hot paths use the explicit
``ACTIVE``-guard above so the disabled path is one global read, one
``is not None`` test and a no-op context manager — **no kwargs dict is
ever built** (the zero-overhead contract
``benchmarks/bench_obs_overhead.py`` holds to < 2% of
``bench_eco_search``'s wall time).

The stream is JSON lines, one record per event, in emission order:

==  ====================================================================
ev  record
==  ====================================================================
B   span begin — ``name``, ``ts_ns``, ``depth``, optional ``attrs``
E   span end — ``name``, ``ts_ns``, ``depth``, ``dur_ns``, optional
    ``attrs`` (added via :meth:`Span.note`), ``error: true`` if the
    body raised
I   instant event — ``name``, ``ts_ns``, ``depth``, optional ``attrs``
M   metrics snapshot — ``metrics`` (a
    :meth:`~repro.obs.metrics.MetricsRegistry.snapshot` map)
==  ====================================================================

``ts_ns`` is ``time.perf_counter_ns()`` relative to the tracer's
creation — ``CLOCK_MONOTONIC``, so it is comparable across the
processes of one machine — and **never copied into result artifacts**:
enabling tracing must not perturb a single artifact byte
(``tests/test_obs.py`` locks this).  Every record carries the emitting
``pid``.  Spans are exception-safe: a raising body still emits the E
record (flagged ``error``), so the stream never carries dangling spans.

Worker processes that inherit an enabled path-backed tracer over
``fork`` detect the pid change on their first event and lazily reroute
to a private *shard file* (``<trace>.pid<N>.jsonl``, see
:func:`shard_path`) instead of interleaving writes into the parent's
stream; the inherited parent handle is abandoned unflushed (its buffer
is a fork-time copy of the parent's — flushing it would duplicate
records).  ``spawn``-style workers join explicitly via :func:`adopt`,
which opens the shard with the parent's clock origin so merged
timestamps stay comparable.  Workers must call :func:`flush` before
returning results: pool children exit via ``os._exit``, which skips
interpreter-shutdown buffer flushing.  The parent interleaves shards
back into the main file with :func:`repro.obs.shards.merge_file`
(CLI: ``repro trace merge``, auto-invoked on traced-CLI exit).
IO-backed tracers (no path) still go silent in children.

Enable with ``REPRO_TRACE=path`` (the CLI honours it for every
subcommand) or ``--trace path`` on ``repro search|eco|optimize|bench``,
or programmatically via :func:`enable`.  The ``--progress`` heartbeat
is a view of this same stream (:mod:`repro.obs.progress`): it renders
records as the tracer emits them, on a tracer with no file when no
trace is being written.
"""

from __future__ import annotations

import glob
import json
import os
import re
import time
from typing import IO, List, Mapping, Optional, Union

__all__ = [
    "ENV_VAR",
    "ACTIVE",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "enabled",
    "span",
    "instant",
    "enable",
    "disable",
    "start",
    "shard_path",
    "find_shards",
    "adopt",
    "flush",
]

ENV_VAR = "REPRO_TRACE"

_SHARD_SUFFIX = re.compile(r"\.pid(\d+)\.jsonl$")


def shard_path(path: str, pid: int) -> str:
    """The per-pid shard file a worker with ``pid`` writes for ``path``."""
    return f"{path}.pid{pid}.jsonl"


def find_shards(path: str) -> List[str]:
    """Existing shard files for the trace at ``path``, sorted by pid."""
    found = []
    for candidate in glob.glob(glob.escape(path) + ".pid*.jsonl"):
        match = _SHARD_SUFFIX.search(candidate)
        if match:
            found.append((int(match.group(1)), candidate))
    return [shard for _, shard in sorted(found)]


class _NullSpan:
    """The no-op span: a shared singleton, nothing allocated per use."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def note(self, **attrs) -> None:
        pass


NULL_SPAN = _NullSpan()

#: The process-wide live tracer, or ``None`` when tracing is off.  Hot
#: paths read this attribute directly and skip all further work on
#: ``None``.
ACTIVE: Optional["Tracer"] = None


class Span:
    """One live span of an enabled tracer (use as a context manager)."""

    __slots__ = ("tracer", "name", "attrs", "_end_attrs", "_start", "_depth")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self._end_attrs: Optional[dict] = None
        self._start = 0
        self._depth = 0

    def note(self, **attrs) -> None:
        """Attach attributes that are only known at span end (emitted on E)."""
        if self._end_attrs is None:
            self._end_attrs = attrs
        else:
            self._end_attrs.update(attrs)

    def __enter__(self) -> "Span":
        tracer = self.tracer
        self._depth = tracer._depth
        tracer._depth += 1
        self._start = time.perf_counter_ns()
        record = {
            "ev": "B",
            "name": self.name,
            "ts_ns": self._start - tracer._t0,
            "depth": self._depth,
        }
        if self.attrs:
            record["attrs"] = self.attrs
        tracer._emit(record)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        now = time.perf_counter_ns()
        tracer = self.tracer
        tracer._depth = self._depth
        record = {
            "ev": "E",
            "name": self.name,
            "ts_ns": now - tracer._t0,
            "depth": self._depth,
            "dur_ns": now - self._start,
        }
        if self._end_attrs:
            record["attrs"] = self._end_attrs
        if exc_type is not None:
            record["error"] = True
        tracer._emit(record)
        return False


class Tracer:
    """A JSONL trace-event writer bound to one file handle and one pid.

    ``sink=None`` keeps no file: the records reach only the attached
    :attr:`progress` renderer (``--progress`` without ``--trace``).
    """

    def __init__(self, sink: Union[str, IO[str], None], *, mode: str = "w"):
        if isinstance(sink, str):
            directory = os.path.dirname(os.path.abspath(sink))
            os.makedirs(directory, exist_ok=True)
            if mode == "w":
                for stale in find_shards(sink):
                    try:
                        os.unlink(stale)
                    except OSError:
                        pass
            self._handle: Optional[IO[str]] = open(sink, mode)
            self._owns_handle = True
            self.path: Optional[str] = sink
        else:
            self._handle = sink
            self._owns_handle = False
            self.path = None
        self._pid = os.getpid()
        self._t0 = time.perf_counter_ns()
        self._depth = 0
        self._closed = False
        # Handle inherited across fork, parked unflushed (its buffer is a
        # copy of the parent's pending records).
        self._abandoned: Optional[IO[str]] = None
        #: Records emitted so far (the overhead benchmark counts the
        #: instrumentation touchpoints a workload hits through this).
        self.records = 0
        #: The live heartbeat (:class:`repro.obs.progress.Progress`),
        #: fed every record this process emits; ``None`` when off.
        self.progress = None

    # ------------------------------------------------------------------
    def _ensure_process(self) -> bool:
        """True when this process may emit; reroutes forked children.

        The first event after a pid change switches a path-backed tracer
        onto this pid's shard file (append mode — pool workers are
        reused) and drops the heartbeat: only the parent narrates.  The
        inherited handle must never be flushed or closed here: its
        buffer duplicates the parent's unflushed records at a shared
        file offset.  IO-backed and file-less tracers cannot shard and
        go silent instead.
        """
        pid = os.getpid()
        if pid == self._pid:
            return not self._closed
        if self.path is None or self._closed:
            return False
        try:
            handle = open(shard_path(self.path, pid), "a")
        except OSError:
            self._closed = True
            return False
        self._abandoned = self._handle
        self._handle = handle
        self._owns_handle = True
        self._pid = pid
        self._depth = 0
        self.records = 0
        self.progress = None
        return True

    def _emit(self, record: dict) -> None:
        if self._closed:
            return
        record["pid"] = self._pid
        if self._handle is not None:
            self._handle.write(
                json.dumps(record, sort_keys=True, separators=(",", ":"))
                + "\n"
            )
        if self.progress is not None:
            self.progress.observe(record)
        self.records += 1

    def span(self, name: str, **attrs) -> Union[Span, _NullSpan]:
        """A new span (or the null span when this process cannot emit)."""
        if not self._ensure_process():
            return NULL_SPAN
        return Span(self, name, attrs)

    def instant(self, name: str, **attrs) -> None:
        """Emit one point-in-time event at the current depth."""
        if not self._ensure_process():
            return
        record = {
            "ev": "I",
            "name": name,
            "ts_ns": time.perf_counter_ns() - self._t0,
            "depth": self._depth,
        }
        if attrs:
            record["attrs"] = attrs
        self._emit(record)

    def metrics(self, snapshot: Mapping[str, object]) -> None:
        """Emit a metrics-snapshot record (sorted keys, canonical form)."""
        if not self._ensure_process():
            return
        self._emit({
            "ev": "M",
            "ts_ns": time.perf_counter_ns() - self._t0,
            "metrics": dict(snapshot),
        })

    def flush(self) -> None:
        """Flush the current stream (never an inherited parent handle)."""
        if self._closed or os.getpid() != self._pid or self._handle is None:
            return
        try:
            self._handle.flush()
        except (OSError, ValueError):
            pass

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if os.getpid() != self._pid or self._handle is None:
            # No file, or an inherited, never-rerouted handle that the
            # parent owns.
            return
        self._handle.flush()
        if self._owns_handle:
            self._handle.close()

    def __repr__(self) -> str:
        return f"Tracer({self.path!r}, records={self.records})"


# ----------------------------------------------------------------------
# Module-level switchboard
# ----------------------------------------------------------------------
def enabled() -> bool:
    return ACTIVE is not None


def span(name: str, **attrs) -> Union[Span, _NullSpan]:
    """Convenience span for cold call sites (CLI, per-edit drivers).

    Hot loops should use the explicit ``ACTIVE`` guard instead: this
    form builds the kwargs dict before discovering tracing is off.
    """
    tracer = ACTIVE
    if tracer is None:
        return NULL_SPAN
    return tracer.span(name, **attrs)


def instant(name: str, **attrs) -> None:
    tracer = ACTIVE
    if tracer is not None:
        tracer.instant(name, **attrs)


def enable(sink: Union[str, IO[str], None]) -> Tracer:
    """Open a tracer on ``sink`` (path, file object or ``None`` for no
    file) and make it live.

    Any previously live tracer is closed first — one stream per process.
    """
    global ACTIVE
    if ACTIVE is not None:
        ACTIVE.close()
    ACTIVE = Tracer(sink)
    return ACTIVE


def disable() -> None:
    """Close and clear the live tracer (idempotent)."""
    global ACTIVE
    if ACTIVE is not None:
        ACTIVE.close()
        ACTIVE = None


def adopt(path: str, t0_ns: int) -> Optional[Tracer]:
    """Join a parent's trace from a worker process.

    Under ``fork`` the child inherits the parent's live tracer (which
    reroutes itself to a shard on first use) and this is a no-op; under
    ``spawn`` — a fresh interpreter with ``ACTIVE is None`` — it opens
    this pid's shard directly, carrying the parent's clock origin
    ``t0_ns`` so merged timestamps stay comparable.
    """
    global ACTIVE
    if ACTIVE is not None:
        return ACTIVE
    tracer = Tracer(shard_path(path, os.getpid()), mode="a")
    tracer.path = path  # shard naming stays rooted at the parent's path
    tracer._t0 = t0_ns
    ACTIVE = tracer
    return tracer


def flush() -> None:
    """Flush the live tracer's stream, if any.

    Pool workers call this before returning results: children exit via
    ``os._exit``, which skips interpreter-shutdown buffer flushing.
    """
    tracer = ACTIVE
    if tracer is not None:
        tracer.flush()


def start(path: Optional[str] = None) -> Optional[Tracer]:
    """Resolve a ``--trace`` argument against the ``REPRO_TRACE`` flag.

    An explicit ``path`` wins; otherwise the environment variable, if
    set and non-empty, supplies one; otherwise tracing stays off and
    ``None`` is returned.
    """
    if path is None:
        path = os.environ.get(ENV_VAR) or None
    if path is None:
        return None
    return enable(path)

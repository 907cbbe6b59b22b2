"""Live progress: a rate-limited stderr view of the trace stream.

A trace is a post-mortem artifact; ``--progress`` is the heartbeat of
the same run.  It is not a second instrumentation API: :func:`attach`
hangs a :class:`Progress` renderer on the live tracer (starting one
with no file when ``--trace`` is off), and the renderer prints the
records :data:`HEARTBEAT` names as one-line status updates::

    [    12.3s] search.round round=41 queue=388 accepted=3 trials=1203 score=17.3

A greedy round, an anneal trial, a resume or a supervised task
completion is one record, so the trace and the heartbeat can never
disagree about what happened.  The channel is stderr so it never
contaminates piped artifact output.  Lines are rate-limited to one per
:data:`INTERVAL_S` of trace time, except milestones, so a hot anneal
loop cannot flood the terminal.  Forked workers stay silent: a tracer
that reroutes to a worker shard drops its renderer, and a tracer with
no file emits nothing in a child — only the parent narrates.
"""

from __future__ import annotations

import sys
from typing import IO, Dict, Optional

from . import trace as _trace

__all__ = ["HEARTBEAT", "INTERVAL_S", "Progress", "attach"]

#: Minimum trace time between two rate-limited lines, in seconds.
INTERVAL_S = 0.25

#: The records the heartbeat prints, by name, and whether each is a
#: milestone (never rate-limited).  A span prints at its ``E`` record
#: with its ``B`` attributes first; an instant prints as it happens.
HEARTBEAT: Dict[str, bool] = {
    "search.round": False,
    "search.trial": False,
    "robust.resume": True,
    "robust.portfolio.restart": True,
    "robust.bench.case": True,
}


def _fmt(value: object) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


class Progress:
    """Renders the :data:`HEARTBEAT` records of a trace stream as lines."""

    def __init__(self, stream: Optional[IO[str]] = None):
        self.stream = stream if stream is not None else sys.stderr
        self.emitted = 0
        self._last: Optional[int] = None
        self._begun: Dict[str, Optional[dict]] = {}

    def observe(self, record: dict) -> None:
        """Write one status line for ``record``, unless it is not a
        heartbeat record or is rate-limited."""
        name = record.get("name")
        milestone = HEARTBEAT.get(name)
        if milestone is None:
            return
        attrs = record.get("attrs")
        if record["ev"] == "B":
            self._begun[name] = attrs
            return
        begun = self._begun.pop(name, None)
        now = record["ts_ns"]
        if (not milestone and self._last is not None
                and now - self._last < INTERVAL_S * 1e9):
            return
        self._last = now
        fields = {**(begun or {}), **(attrs or {})}
        line = f"[{now / 1e9:8.1f}s] {name}"
        if fields:
            line += " " + " ".join(f"{key}={_fmt(value)}"
                                   for key, value in fields.items())
        try:
            self.stream.write(line + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass
        self.emitted += 1


def attach(stream: Optional[IO[str]] = None) -> Progress:
    """Render the live trace stream to ``stream`` (default stderr).

    Starts a tracer with no file when none is live; the heartbeat goes
    away with the tracer (:func:`repro.obs.trace.disable`).
    """
    tracer = _trace.ACTIVE or _trace.enable(None)
    tracer.progress = Progress(stream)
    return tracer.progress

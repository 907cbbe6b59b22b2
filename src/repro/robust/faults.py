"""Env-driven fault injection: kill workers, crash tasks, tear writes.

Fault tolerance that is never exercised is fault tolerance that does
not exist.  This module gives the recovery tests and the CI smoke step
a way to inject the exact failures the robust layer claims to survive,
from the outside, with no test-only hooks in the production code
paths: the injection *sites* are ordinary :func:`fire` calls that cost
one environment read when no plan is armed.

Arm with ``REPRO_FAULTS``, a ``;``-separated list of fault specs::

    kill-restart=K        SIGKILL the worker running portfolio restart K
    crash-restart=K       raise FaultInjected inside restart K
    sleep-restart=K:SECS  stall restart K for SECS seconds (deadline tests)
    kill-case=NAME        SIGKILL the bench worker running case NAME
    crash-case=NAME       raise FaultInjected inside bench case NAME
    sleep-case=NAME:SECS  stall bench case NAME for SECS seconds
    tear-checkpoint=N     simulate a non-atomic writer dying mid-write:
                          the checkpoint's first N bytes land on the
                          final path, then FaultInjected is raised
    sigterm-search=N      SIGTERM the current process at search step N

Specs are inherited by worker processes through the environment, so a
fault armed on the CLI reaches pool workers too.

**Once semantics.**  ``kill``/``crash``/``sleep``/``sigterm`` faults
fire once *per marker scope*: with ``REPRO_FAULTS_STATE`` set to a
directory, a marker file records the firing atomically
(``O_CREAT|O_EXCL``), so a supervised retry of the killed worker runs
clean — the recovery path under test.  Without a state directory the
fault fires on every matching call (a retried worker dies again —
the retries-exhausted path under test).  ``tear-checkpoint`` always
fires: its consumer (the torn-file reader) is expected to make the
*second* attempt moot.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, List, Optional, Tuple

__all__ = [
    "ENV_VAR",
    "STATE_ENV_VAR",
    "FaultInjected",
    "fire",
    "torn_bytes",
]

ENV_VAR = "REPRO_FAULTS"
STATE_ENV_VAR = "REPRO_FAULTS_STATE"


class FaultInjected(RuntimeError):
    """An injected failure (never raised unless ``REPRO_FAULTS`` is armed)."""


#: spec name -> (injection point, action); the match argument's meaning
#: depends on the point (restart index, case name, step count).
_SPECS = {
    "kill-restart": ("portfolio.restart", "kill"),
    "crash-restart": ("portfolio.restart", "crash"),
    "sleep-restart": ("portfolio.restart", "sleep"),
    "kill-case": ("bench.case", "kill"),
    "crash-case": ("bench.case", "crash"),
    "sleep-case": ("bench.case", "sleep"),
    "tear-checkpoint": ("checkpoint.write", "tear"),
    "sigterm-search": ("search.step", "sigterm"),
}

#: Actions that fire once per marker scope (see module docstring).
_ONE_SHOT = frozenset(("kill", "crash", "sleep", "sigterm"))

#: Parsed plans memoised by the raw env string (env reads stay cheap).
_PLAN_CACHE: Dict[str, Dict[str, List[Tuple[str, str, str, Optional[float]]]]] = {}


def _parse_plan(raw: str) -> Dict[str, List[Tuple[str, str, str, Optional[float]]]]:
    """``point -> [(entry, action, match, seconds), ...]`` from a spec string."""
    plan: Dict[str, List[Tuple[str, str, str, Optional[float]]]] = {}
    for chunk in raw.split(";"):
        entry = chunk.strip()
        if not entry:
            continue
        name, sep, value = entry.partition("=")
        name = name.strip()
        if not sep or name not in _SPECS:
            raise ValueError(
                f"{ENV_VAR}: bad fault spec {entry!r}; known specs: "
                f"{', '.join(sorted(_SPECS))} (form name=value)"
            )
        point, action = _SPECS[name]
        match, sep, seconds_text = value.strip().partition(":")
        seconds: Optional[float] = None
        if action == "sleep":
            if not sep:
                raise ValueError(
                    f"{ENV_VAR}: {name} needs MATCH:SECONDS, got {entry!r}"
                )
            seconds = float(seconds_text)
        elif sep:
            raise ValueError(f"{ENV_VAR}: unexpected ':' in {entry!r}")
        plan.setdefault(point, []).append((entry, action, match, seconds))
    return plan


def _active_plan() -> Optional[Dict[str, List[Tuple[str, str, str, Optional[float]]]]]:
    raw = os.environ.get(ENV_VAR)
    if not raw:
        return None
    plan = _PLAN_CACHE.get(raw)
    if plan is None:
        plan = _parse_plan(raw)
        _PLAN_CACHE[raw] = plan
    return plan


def _claim_marker(entry: str) -> bool:
    """True when this firing owns the one-shot marker (or no state dir).

    The marker file is created with ``O_CREAT | O_EXCL`` — atomic
    across processes — so exactly one firing claims it per state
    directory, and a supervised retry of a killed worker runs clean.
    """
    state_dir = os.environ.get(STATE_ENV_VAR)
    if not state_dir:
        return True
    os.makedirs(state_dir, exist_ok=True)
    marker = os.path.join(
        state_dir, entry.replace("=", "_").replace(":", "_") + ".fired"
    )
    try:
        fd = os.open(marker, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
    except FileExistsError:
        return False
    os.write(fd, f"pid {os.getpid()}\n".encode())
    os.close(fd)
    return True


def fire(point: str, *, match: object = None) -> None:
    """Run any armed faults for ``point`` whose match argument equals
    ``match`` (compared as strings; ``None`` matches everything).

    The disarmed path is one environment read.  Call sites pass the
    discriminating context: the restart index, the bench case name,
    the search step count.
    """
    plan = _active_plan()
    if plan is None:
        return
    entries = plan.get(point)
    if not entries:
        return
    for entry, action, wanted, seconds in entries:
        if match is not None and str(match) != wanted:
            continue
        if action in _ONE_SHOT and not _claim_marker(entry):
            continue
        if action == "kill":
            os.kill(os.getpid(), signal.SIGKILL)
        elif action == "sigterm":
            os.kill(os.getpid(), signal.SIGTERM)
        elif action == "sleep":
            time.sleep(seconds or 0.0)
        elif action == "crash":
            raise FaultInjected(f"injected fault: {entry} at {point}")
        # "tear" is consumed by torn_bytes(), not here.


def torn_bytes(point: str = "checkpoint.write") -> Optional[int]:
    """Byte count of an armed tear fault for ``point``, else ``None``.

    The atomic writer's caller uses this to simulate a *non-atomic*
    writer dying mid-write: it puts exactly this many payload bytes on
    the final path and raises :class:`FaultInjected`.
    """
    plan = _active_plan()
    if plan is None:
        return None
    for entry, action, wanted, _ in plan.get(point, ()):
        if action == "tear":
            return int(wanted)
    return None

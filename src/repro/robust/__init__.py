"""Fault tolerance for long searches: crash-safe artifacts, checkpoints,
worker supervision and fault injection.

The ROADMAP's north star is searches over 10^5-10^6-gate circuits and
an always-on optimization service; at that scale a killed process, a
dead pool worker or a torn artifact write must never cost the run.
This package is the substrate the rest of the system builds on:

:mod:`~repro.robust.atomic`
    :func:`~repro.robust.atomic.atomic_write_text` — temp file in the
    target directory, flush + fsync, ``os.replace`` — adopted by every
    JSON artifact writer, so a mid-write kill can never leave torn
    JSON behind.

:mod:`~repro.robust.checkpoint`
    The checksummed checkpoint container (canonical JSON payload +
    CRC32, written atomically) behind ``repro search --checkpoint`` /
    ``--resume``.  Torn or stale files are *rejected*
    (:class:`~repro.robust.checkpoint.CheckpointError`), never half
    loaded.

:mod:`~repro.robust.supervise`
    :func:`~repro.robust.supervise.run_supervised` — process-per-task
    workers with crash detection, bounded retries with backoff,
    per-task deadlines and a graceful anytime path — and
    :func:`~repro.robust.supervise.fan_out`, the one fan-out path of
    the portfolio search and the bench runner at every ``jobs`` value
    (sequential runs stay in-process under the same books).

:mod:`~repro.robust.faults`
    The env/flag-driven fault-injection harness (``REPRO_FAULTS``)
    the recovery tests and the CI smoke step drive: kill a worker at
    restart k, crash a task, tear a checkpoint at byte n,
    SIGTERM mid-search.

The hard contract everything here preserves (see ``README.md`` in this
directory): recovery is **byte-identical** — a resumed run's artifact,
and a crashed-then-retried portfolio worker's merged artifact, equal
the uninterrupted run's bytes exactly.
"""

from .atomic import atomic_write_text
from .checkpoint import (
    CHECKPOINT_SCHEMA,
    DEFAULT_CHECKPOINT_EVERY,
    CheckpointError,
    dumps_checkpoint,
    load_checkpoint,
    save_checkpoint,
)
from .faults import ENV_VAR as FAULTS_ENV_VAR
from .faults import FaultInjected, fire
from .supervise import SupervisedRun, TaskOutcome, run_supervised

__all__ = [
    "atomic_write_text",
    "CHECKPOINT_SCHEMA",
    "DEFAULT_CHECKPOINT_EVERY",
    "CheckpointError",
    "dumps_checkpoint",
    "load_checkpoint",
    "save_checkpoint",
    "FAULTS_ENV_VAR",
    "FaultInjected",
    "fire",
    "SupervisedRun",
    "TaskOutcome",
    "run_supervised",
]

"""Worker supervision: process-per-task, crash/hang detection, retries.

``multiprocessing.Pool`` loses a task forever when its worker dies —
an ``imap`` over a pool whose child was SIGKILLed simply hangs — and
offers no per-task deadline at all.  The portfolio search and the
bench runner need both, so :func:`run_supervised` runs each task in
its own supervised :class:`multiprocessing.Process`:

* a worker that exits without delivering a result (killed, segfault,
  ``os._exit``) is detected by pipe EOF + exit code and the task is
  **requeued** with exponential backoff, up to ``retries`` times;
* a worker that outlives its ``deadline_s`` budget is killed and
  requeued the same way;
* an exception inside the task function travels back as
  ``"<Type>: <message>"`` and counts as a failed attempt (faults can be
  transient — a retried attempt may run clean);
* ``KeyboardInterrupt``/SIGTERM in the supervising parent kills the
  in-flight workers and returns the completed outcomes — the *anytime*
  path: callers merge what finished into a ``partial: true`` artifact
  instead of raising.

Both fan-outs call :func:`fan_out`, which runs a sequential fan-out in
this process under the same books, so ``jobs=1`` and ``jobs=N`` count,
trace and report alike.

Determinism is untouched: tasks are pure functions of their payloads
(the portfolio/bench contract), so retry counts, scheduling order and
worker pids can never change a result — only whether one exists.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from ..obs.metrics import REGISTRY as _GLOBAL_METRICS

__all__ = ["TaskOutcome", "SupervisedRun", "run_supervised", "fan_out"]

#: Worker restarts performed across the process (obs vocabulary).
_RETRIES = _GLOBAL_METRICS.counter("robust.worker.retries")
#: Tasks abandoned after exhausting their retry budget.
_FAILURES = _GLOBAL_METRICS.counter("robust.worker.failures")

_POLL_S = 0.05
_BACKOFF_S = 0.25


@dataclass
class TaskOutcome:
    """How one supervised task ended."""

    index: int
    status: str
    """``"ok"`` | ``"error"`` (exception delivered) | ``"crashed"``
    (worker died) | ``"timeout"`` (deadline exceeded) | ``"interrupted"``
    (parent stopped before the task ran to completion)."""

    value: Optional[object] = None
    error: Optional[str] = None
    attempts: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass
class SupervisedRun:
    """All task outcomes of one supervised fan-out, in index order."""

    outcomes: List[TaskOutcome]
    interrupted: bool = False

    @property
    def completed(self) -> List[TaskOutcome]:
        return [outcome for outcome in self.outcomes if outcome.ok]

    @property
    def failed(self) -> List[TaskOutcome]:
        return [outcome for outcome in self.outcomes if not outcome.ok]


@dataclass
class _Active:
    process: multiprocessing.Process
    conn: object
    index: int
    attempt: int
    deadline: Optional[float] = None
    done: bool = field(default=False)


def _describe(error: BaseException) -> str:
    """The failure text of a raising task, the same in both modes."""
    return f"{type(error).__name__}: {error}"


def _child_main(fn, payload, conn) -> None:
    """Run one task in the worker and ship the outcome over the pipe."""
    try:
        value = fn(payload)
    except BaseException as error:
        try:
            conn.send(("error", _describe(error)))
        finally:
            conn.close()
        return
    conn.send(("ok", value))
    conn.close()


def run_supervised(
    fn: Callable[[object], object],
    payloads: Sequence[object],
    jobs: int,
    *,
    retries: int = 2,
    backoff_s: float = _BACKOFF_S,
    deadline_s: Optional[float] = None,
    on_complete: Optional[Callable[[TaskOutcome, int, int], None]] = None,
    label: str = "task",
) -> SupervisedRun:
    """Run ``fn`` over ``payloads`` in supervised workers, ``jobs`` at a time.

    ``retries`` bounds the *additional* attempts after a failed first
    one; each retry waits ``backoff_s * 2**(attempt-1)`` before
    restarting.  ``deadline_s`` caps each attempt's wall time (the
    worker is killed and the attempt counts as ``timeout``).
    ``on_complete(outcome, done, total)`` fires in the parent as each
    task resolves (in completion order) — the checkpoint hook; the
    same resolution emits a ``robust.<label>`` trace instant, which
    ``--progress`` prints.

    Returns outcomes in payload order.  Never raises for worker
    failures; the caller decides whether a non-``ok`` outcome is fatal.
    """
    return _run(fn, payloads, jobs, False, retries=retries,
                backoff_s=backoff_s, deadline_s=deadline_s,
                on_complete=on_complete, label=label)


def fan_out(
    fn: Callable[[object], object],
    payloads: Sequence[object],
    jobs: int,
    *,
    retries: int = 2,
    deadline_s: Optional[float] = None,
    on_complete: Optional[Callable[[TaskOutcome, int, int], None]] = None,
    label: str = "task",
) -> SupervisedRun:
    """:func:`run_supervised`, except that a sequential run — one job
    or one task — with no deadline runs in this process: no fork, no
    pickling.

    In-process attempts call ``fn`` directly and share the supervisor's
    retries, backoff, ``robust.worker.*`` counters, ``robust.<label>``
    instants, ``on_complete`` hook and failure text.  A deadline needs
    a worker process to enforce, so a run with one always gets workers.
    """
    jobs = min(jobs, len(payloads))
    inline = jobs <= 1 and deadline_s is None
    return _run(fn, payloads, jobs, inline, retries=retries,
                backoff_s=_BACKOFF_S, deadline_s=deadline_s,
                on_complete=on_complete, label=label)


def _run(fn, payloads, jobs, inline, *, retries, backoff_s, deadline_s,
         on_complete, label) -> SupervisedRun:
    """The supervision loop; ``inline`` runs each attempt in-process."""
    from ..obs import trace as _trace

    total = len(payloads)
    outcomes: Dict[int, TaskOutcome] = {}
    #: (ready_time, index, attempt) — tasks waiting to start.
    queue: List[tuple] = [(0.0, index, 1) for index in range(total)]
    active: List[_Active] = []
    context = multiprocessing.get_context()
    tracer = _trace.ACTIVE
    interrupted = False

    def resolve(outcome: TaskOutcome) -> None:
        outcomes[outcome.index] = outcome
        if tracer is not None:
            tracer.instant(
                f"robust.{label}", index=outcome.index,
                status=outcome.status, attempts=outcome.attempts,
                done=len(outcomes), total=total,
            )
        if on_complete is not None:
            on_complete(outcome, len(outcomes), total)

    def retry_or_fail(index: int, attempt: int, status: str,
                      error: Optional[str]) -> None:
        if attempt <= retries:
            _RETRIES.inc()
            ready = time.monotonic() + backoff_s * (2 ** (attempt - 1))
            queue.append((ready, index, attempt + 1))
        else:
            _FAILURES.inc()
            resolve(TaskOutcome(index=index, status=status, error=error,
                                attempts=attempt))

    def run_inline(index: int, attempt: int) -> None:
        try:
            value = fn(payloads[index])
        except Exception as error:
            retry_or_fail(index, attempt, "error", _describe(error))
            return
        resolve(TaskOutcome(index=index, status="ok", value=value,
                            attempts=attempt))

    def start(index: int, attempt: int) -> None:
        reader, writer = context.Pipe(duplex=False)
        process = context.Process(
            target=_child_main, args=(fn, payloads[index], writer),
            daemon=True,
        )
        process.start()
        writer.close()  # the child owns it; EOF now tracks the child
        deadline = (time.monotonic() + deadline_s
                    if deadline_s is not None else None)
        active.append(_Active(process=process, conn=reader, index=index,
                              attempt=attempt, deadline=deadline))

    def reap(task: _Active) -> None:
        """Collect one finished/dead/overdue worker and route the outcome."""
        active.remove(task)
        process, conn = task.process, task.conn
        try:
            if conn.poll():
                try:
                    kind, value = conn.recv()
                except (EOFError, OSError):
                    kind, value = None, None
            else:
                kind, value = None, None
        finally:
            conn.close()
        if kind == "ok":
            process.join()
            resolve(TaskOutcome(index=task.index, status="ok", value=value,
                                attempts=task.attempt))
            return
        if kind == "error":
            process.join()
            retry_or_fail(task.index, task.attempt, "error", value)
            return
        # No result: either the deadline expired (kill the straggler)
        # or the worker died on its own (pipe EOF can land before
        # ``is_alive`` notices the death, so the deadline — not
        # liveness — decides which failure this is).
        overdue = (task.deadline is not None
                   and time.monotonic() > task.deadline)
        if process.is_alive():
            process.kill()
        process.join()
        if overdue:
            retry_or_fail(task.index, task.attempt, "timeout",
                          f"{label} {task.index} exceeded its "
                          f"{deadline_s:.3g}s deadline")
        else:
            retry_or_fail(
                task.index, task.attempt, "crashed",
                f"{label} {task.index} worker died with exit code "
                f"{process.exitcode}",
            )

    try:
        while queue or active:
            now = time.monotonic()
            # Launch everything ready, up to the worker budget.
            queue.sort()
            while queue and (inline or len(active) < jobs) \
                    and queue[0][0] <= now:
                _, index, attempt = queue.pop(0)
                (run_inline if inline else start)(index, attempt)
            # Wait for results, deaths, deadlines or backoff expiry.
            conns = [task.conn for task in active]
            wait_s = _POLL_S
            if not conns:
                if queue:
                    wait_s = max(0.0, min(ready for ready, _, _ in queue)
                                 - now)
                    time.sleep(min(wait_s, _POLL_S) or 0.001)
                continue
            ready = multiprocessing.connection.wait(conns, timeout=wait_s)
            now = time.monotonic()
            for task in list(active):
                overdue = task.deadline is not None and now > task.deadline
                if task.conn in ready or not task.process.is_alive() \
                        or overdue:
                    reap(task)
    except (KeyboardInterrupt, SystemExit):
        interrupted = True
        for task in active:
            task.process.kill()
            task.process.join()
            task.conn.close()
        active.clear()

    ordered: List[TaskOutcome] = []
    for index in range(total):
        outcome = outcomes.get(index)
        if outcome is None:
            outcome = TaskOutcome(index=index, status="interrupted",
                                  error="run interrupted before completion")
        ordered.append(outcome)
    return SupervisedRun(outcomes=ordered, interrupted=interrupted)

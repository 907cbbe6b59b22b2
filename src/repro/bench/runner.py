"""The Table-3 driver: the benchmark sweep, serial or in parallel.

Runs the full flow (map -> optimise best/worst -> switch-level simulate
-> STA) for every suite circuit and scenario through
:func:`repro.robust.supervise.fan_out` (in this process for
``jobs=1``, over supervised worker processes otherwise), and collects
the rows into a canonical JSON artifact:

* one work item per circuit, covering all requested scenarios: the work
  item maps its circuit once and runs every scenario on that netlist;
* results are deterministic for a given seed — identical across runs
  and across ``--jobs`` settings — because the per-case stimulus seed
  is CRC-based (:func:`repro.analysis.experiments.case_seed`) and work
  items are collected in suite order regardless of completion order;
* the artifact separates payload from timing (``elapsed_s`` fields), so
  golden comparisons strip timing with :func:`strip_timing` and byte-
  compare the rest (:func:`dumps_artifact` is canonical: sorted keys,
  fixed separators, trailing newline).

The ``repro table3`` and ``repro bench`` CLI subcommands render
:func:`run_suite` rows; ``benchmarks/bench_table3_mcnc.py`` and
``benchmarks/bench_runner_suite.py`` check them.
"""

from __future__ import annotations

import json
import os
import time
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..robust.supervise import fan_out
from ..synth.mapper import map_circuit
from .suite import benchmark_suite, get_case

# NOTE: repro.analysis.experiments imports repro.bench.suite, so the
# experiment driver is imported lazily inside the worker functions to
# keep `import repro.bench` cycle-free.

__all__ = [
    "SCHEMA_VERSION",
    "TIMING_FIELDS",
    "environment_meta",
    "run_suite",
    "dumps_artifact",
    "write_artifact",
    "load_artifact",
    "strip_timing",
]

SCHEMA_VERSION = 1

#: Keys that describe the run rather than the result (wall-clock times,
#: worker count, host environment); stripped for golden byte-comparisons.
TIMING_FIELDS = ("elapsed_s", "jobs", "meta")


def _git_sha() -> Optional[str]:
    """The checkout's HEAD commit, or ``None`` outside a git checkout."""
    import subprocess

    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        return None
    return proc.stdout.strip() or None


def environment_meta() -> Dict[str, object]:
    """The run-environment block every benchmark artifact carries.

    Describes *where* the numbers were produced (interpreter, numpy,
    core count, host, source revision) — run
    descriptors like ``elapsed_s``, so ``meta`` is in
    :data:`TIMING_FIELDS` and :func:`strip_timing` drops it from golden
    byte-comparisons.  ``git_sha`` is best-effort: ``None`` outside a
    checkout (an installed package, a tarball).
    """
    import platform

    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.system(),
        "machine": platform.machine(),
        "hostname": platform.node(),
        "cpu_count": os.cpu_count() or 1,
        "git_sha": _git_sha(),
    }

def _row_dict(row, elapsed: float) -> Dict[str, object]:
    return {
        "circuit": row.name,
        "scenario": row.scenario,
        "status": "ok",
        "gates": row.gates,
        "model_reduction": row.model_reduction,
        "sim_reduction": row.sim_reduction,
        "delay_increase": row.delay_increase,
        "model_power_best": row.model_power_best,
        "sim_power_best": row.sim_power_best,
        "elapsed_s": elapsed,
    }


def _error_row(case_name: str, status: str,
               error: Optional[str]) -> Dict[str, object]:
    """The row a failed case contributes instead of aborting the sweep."""
    return {
        "circuit": case_name,
        "status": status,
        "error": error or "",
    }


def _run_case(work: Tuple[str, Tuple[str, ...], int]) -> List[Dict[str, object]]:
    """One work item: map one circuit once, then run every scenario on it."""
    from ..analysis.experiments import run_table3_case
    from ..obs import trace as _trace
    from ..robust import faults as _faults

    case_name, scenarios, seed = work
    tracer = _trace.ACTIVE
    span = (tracer.span("bench.case", circuit=case_name)
            if tracer is not None else _trace.NULL_SPAN)
    try:
        with span:
            _faults.fire("bench.case", match=case_name)
            case = get_case(case_name)
            circuit = map_circuit(case.network())
            rows = []
            for scenario in scenarios:
                start = time.perf_counter()
                row = run_table3_case(case, scenario, seed=seed,
                                      circuit=circuit)
                rows.append(_row_dict(row, time.perf_counter() - start))
            return rows
    finally:
        # Pool workers exit via os._exit: flush this pid's trace shard
        # before the result ships back.
        _trace.flush()


def run_suite(subset: Optional[str] = "quick",
              scenarios: Sequence[str] = ("A", "B"),
              jobs: int = 1,
              seed: int = 0,
              cases: Optional[Sequence[str]] = None,
              out_path: Optional[str] = None,
              case_timeout_s: Optional[float] = None,
              retries: int = 2) -> Dict[str, object]:
    """Run the Table-3 sweep, optionally in parallel, and return the artifact.

    ``cases`` overrides ``subset`` with an explicit list of case names.
    Every ``jobs`` value fans circuits out through
    :func:`repro.robust.supervise.fan_out`: ``jobs > 1`` over supervised
    worker processes, ``jobs=1`` in this process; results are in suite
    order and bit-identical across ``jobs`` settings.  When
    ``out_path`` is given the canonical JSON artifact is also written
    there (atomically — a kill mid-write never leaves a torn file).

    A case that raises, crashes its worker or outlives ``case_timeout_s``
    no longer aborts the sweep: after ``retries`` additional attempts it
    contributes a single ``{"status": "error"|"crashed"|"timeout"}`` row
    carrying the failure text, and every other case still reports.
    Success rows carry ``status: "ok"``.  ``case_timeout_s`` needs a
    worker process to enforce, so setting it gives even ``jobs=1`` runs
    one.  ``KeyboardInterrupt``/SIGTERM stops the sweep, keeps the
    completed rows and flags the artifact ``partial: true`` instead of
    raising.
    """
    if cases is not None:
        names = [get_case(name).name for name in cases]
        subset_label = "custom"
    else:
        names = [case.name for case in benchmark_suite(subset)]
        subset_label = subset or "full"
    scenarios = tuple(scenarios)
    for scenario in scenarios:
        if scenario not in ("A", "B"):
            raise ValueError(f"scenario must be 'A' or 'B', got {scenario!r}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")

    work = [(name, scenarios, seed) for name in names]
    start = time.perf_counter()
    run = fan_out(_run_case, work, jobs, retries=retries,
                  deadline_s=case_timeout_s, label="bench.case")
    elapsed = time.perf_counter() - start
    results: List[Dict[str, object]] = []
    for outcome in run.outcomes:
        if outcome.ok:
            results.extend(outcome.value)
        elif not (run.interrupted and outcome.status == "interrupted"):
            results.append(_error_row(work[outcome.index][0],
                                      outcome.status, outcome.error))

    artifact: Dict[str, object] = {
        "schema": SCHEMA_VERSION,
        "suite": {
            "subset": subset_label,
            "cases": names,
            "scenarios": list(scenarios),
            "seed": seed,
        },
        "jobs": jobs,
        "elapsed_s": elapsed,
        "meta": environment_meta(),
        "results": results,
    }
    if run.interrupted:
        artifact["partial"] = True
    if out_path:
        write_artifact(artifact, out_path)
    return artifact


# ----------------------------------------------------------------------
# Artifact serialisation
# ----------------------------------------------------------------------
def dumps_artifact(artifact: Mapping[str, object]) -> str:
    """Canonical JSON: sorted keys, fixed separators, newline-terminated."""
    return json.dumps(artifact, sort_keys=True, indent=2,
                      separators=(",", ": ")) + "\n"


def write_artifact(artifact: Mapping[str, object], path: str) -> None:
    """Write canonical JSON atomically — no torn artifacts on a crash."""
    from ..robust.atomic import atomic_write_text

    atomic_write_text(path, dumps_artifact(artifact))


def load_artifact(path: str) -> Dict[str, object]:
    with open(path) as handle:
        artifact = json.load(handle)
    if artifact.get("schema") != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported artifact schema {artifact.get('schema')!r} "
            f"(expected {SCHEMA_VERSION})"
        )
    return artifact


def strip_timing(value):
    """Recursively drop timing fields — the run-varying part of an artifact."""
    if isinstance(value, Mapping):
        return {
            k: strip_timing(v) for k, v in value.items() if k not in TIMING_FIELDS
        }
    if isinstance(value, list):
        return [strip_timing(v) for v in value]
    return value

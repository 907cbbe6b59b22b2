"""Acceptance benchmark: compiled flat-circuit kernels vs the object oracles.

The claim under test: lowering a circuit once into
:class:`repro.compiled.CompiledCircuit` structure-of-arrays form makes
the production from-scratch hot loops at least **5x faster** than the
readable per-gate models they lower, on large generated circuits —

* analytic (P, D) propagation (`propagate_stats(method="analytic")`
  against the `local_stats` oracle), and
* the STA arrival sweep (`analyze_timing` against
  `analyze_timing(compiled=False)`) including its net-load
  summations —

while staying **bit-identical** (exact float equality on every net).

Run with::

    pytest -m bench benchmarks/bench_compiled_kernel.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
Set ``REPRO_KERNEL_BENCH_OUT`` to write the canonical JSON artifact
there, ``repro bench`` style.
"""

import os
import time

import pytest

pytestmark = pytest.mark.bench

from repro.bench.generators import random_logic
from repro.bench.runner import SCHEMA_VERSION, environment_meta, \
    write_artifact
from repro.compiled import get_compiled
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import local_stats, propagate_stats
from repro.synth.mapper import map_circuit
from repro.timing.sta import analyze_timing

#: Random-logic node count before mapping, and timed repetitions.
NODES = 1200
REPS = 5
REQUIRED_SPEEDUP = 5.0

RESULTS = []


@pytest.fixture(scope="module")
def setting():
    circuit = map_circuit(random_logic(28, NODES, seed=7))
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)
    compiled = get_compiled(circuit)  # lowering happens once, up front
    return circuit, input_stats, compiled


def _timed(fn, reps):
    fn()  # warm: caches, compile-once tables
    start = time.perf_counter()
    for _ in range(reps):
        result = fn()
    return (time.perf_counter() - start) / reps, result


def test_stats_propagation_speedup(setting):
    circuit, input_stats, compiled = setting
    object_s, reference = _timed(lambda: local_stats(circuit, input_stats),
                                 REPS)
    compiled_s, flat = _timed(
        lambda: propagate_stats(circuit, input_stats, "analytic"), REPS)
    assert flat == reference, "compiled propagation drifted bit-wise"
    speedup = object_s / compiled_s
    print(f"\n{circuit.name}: {len(circuit)} gates, "
          f"{len(compiled._levels)} levels [(P, D) propagation]")
    print(f"  object graph : {object_s * 1e3:8.1f}ms/run")
    print(f"  compiled     : {compiled_s * 1e3:8.1f}ms/run")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    RESULTS.append({
        "mode": "stats-propagation",
        "circuit": circuit.name,
        "gates": len(circuit),
        "reps": REPS,
        "object_s": object_s,
        "compiled_s": compiled_s,
        "speedup": speedup,
    })
    assert speedup >= REQUIRED_SPEEDUP


def test_timing_sweep_speedup(setting):
    circuit, _, compiled = setting
    object_s, reference = _timed(
        lambda: analyze_timing(circuit, compiled=False), REPS)
    compiled_s, flat = _timed(lambda: analyze_timing(circuit), REPS)
    assert flat.arrivals == reference.arrivals
    assert flat.delay == reference.delay
    assert flat.critical_path == reference.critical_path
    speedup = object_s / compiled_s
    print(f"\n{circuit.name}: {len(circuit)} gates [STA arrival sweep]")
    print(f"  object graph : {object_s * 1e3:8.1f}ms/run")
    print(f"  compiled     : {compiled_s * 1e3:8.1f}ms/run")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    RESULTS.append({
        "mode": "timing-sweep",
        "circuit": circuit.name,
        "gates": len(circuit),
        "reps": REPS,
        "object_s": object_s,
        "compiled_s": compiled_s,
        "speedup": speedup,
    })
    assert speedup >= REQUIRED_SPEEDUP


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_KERNEL_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_KERNEL_BENCH_OUT")
    if not RESULTS:
        pytest.skip("the speedup tests did not run")
    if not out_path:
        pytest.skip("set REPRO_KERNEL_BENCH_OUT to write the artifact")
    artifact = {
        "schema": SCHEMA_VERSION,
        "bench": {
            "name": "compiled_kernel",
            "required_speedup": REQUIRED_SPEEDUP,
            "nodes": NODES,
        },
        "meta": environment_meta(),
        "results": RESULTS,
    }
    write_artifact(artifact, out_path)
    print(f"\nwrote JSON artifact to {out_path}")

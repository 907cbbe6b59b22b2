"""Acceptance benchmark: delta-driven ECO search vs naive re-optimization.

The claim under test (this PR's tentpole): the local-search engine
(:func:`repro.incremental.search.search_circuit`) prices every
candidate move through `WhatIf` trials against a live `StatsCache`, so
scoring a move costs cone-sized re-propagation — at least **10x fewer
gate stat re-propagations** than a naive re-optimizer that recomputes
the full circuit per candidate, on the largest suite circuit — while
the searched netlist **matches or beats** the single-pass
`optimize_circuit` power, and the canonical JSON artifacts are
**byte-identical across runs** with seeds held fixed.

Run with::

    pytest -m bench benchmarks/bench_eco_search.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
Environment knobs: ``REPRO_SEARCH_BENCH_NAIVE_SAMPLE`` (naive
evaluations to wall-clock for the printed time comparison, default
25), ``REPRO_SEARCH_BENCH_OUT`` (write the canonical JSON artifact
there, ``repro bench`` style).
"""

import os
import time

import pytest

pytestmark = pytest.mark.bench

from repro.bench.runner import dumps_artifact, environment_meta, \
    strip_timing, write_artifact
from repro.bench.suite import benchmark_suite, get_case
from repro.core.optimizer import circuit_power, optimize_circuit
from repro.incremental import search_circuit
from repro.sim.stimulus import ScenarioA
from repro.stochastic.density import local_stats
from repro.synth.mapper import map_circuit

REQUIRED_SPEEDUP = 10.0
NAIVE_SAMPLE = int(os.environ.get("REPRO_SEARCH_BENCH_NAIVE_SAMPLE", "25"))


def largest_case_name() -> str:
    sizes = [
        (len(map_circuit(case.network())), case.name)
        for case in benchmark_suite("full")
    ]
    return max(sizes)[1]


@pytest.fixture(scope="module")
def setting():
    name = largest_case_name()
    circuit = map_circuit(get_case(name).network())
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)
    return name, circuit, input_stats


RESULTS = []


def test_search_repropagation_floor_and_power(setting):
    name, circuit, input_stats = setting
    gates = len(circuit)

    start = time.perf_counter()
    result = search_circuit(circuit, input_stats, seed=0)
    search_s = time.perf_counter() - start

    # A naive re-optimizer scores each candidate move by re-propagating
    # the whole circuit; the delta-driven engine pays only dirty cones.
    naive_propagations = result.trials * gates
    speedup = naive_propagations / result.gates_repropagated

    # Wall-clock sanity sample: time a handful of naive full recomputes
    # to put a seconds figure next to the propagation counts.
    start = time.perf_counter()
    for _ in range(NAIVE_SAMPLE):
        local_stats(circuit, input_stats)
    naive_s_per_eval = (time.perf_counter() - start) / NAIVE_SAMPLE

    single = optimize_circuit(circuit, input_stats)
    search_power = circuit_power(result.circuit, input_stats).total
    single_power = circuit_power(single.circuit, input_stats).total

    print(f"\n{name}: {gates} gates [greedy search, power objective]")
    print(f"  trials            : {result.trials} candidate moves, "
          f"{len(result.accepted)} accepted, {result.rounds} rounds")
    print(f"  re-propagations   : {result.gates_repropagated} (dirty-cone) vs "
          f"{naive_propagations} (naive full-circuit)")
    print(f"  speedup           : {speedup:.1f}x "
          f"(required >= {REQUIRED_SPEEDUP:.0f}x)")
    print(f"  search wall-clock : {search_s:.1f}s "
          f"(naive would spend ~{result.trials * naive_s_per_eval:.1f}s on "
          f"stat propagation alone)")
    print(f"  power             : {search_power:.4e} W (search) vs "
          f"{single_power:.4e} W (single-pass optimize)")

    RESULTS.append({
        "circuit": name,
        "gates": gates,
        "trials": result.trials,
        "accepted": len(result.accepted),
        "gates_repropagated": result.gates_repropagated,
        "naive_propagations": naive_propagations,
        "speedup": speedup,
        "search_power": search_power,
        "single_pass_power": single_power,
        "search_s": search_s,
    })

    assert speedup >= REQUIRED_SPEEDUP
    assert search_power <= single_power * (1.0 + 1e-9)


def test_artifacts_byte_identical_across_runs(setting):
    name, circuit, input_stats = setting
    for strategy, kwargs in (
        ("greedy", {}),
        ("anneal", {"seed": 7, "anneal_trials": 200}),
    ):
        one = search_circuit(circuit, input_stats, strategy=strategy, **kwargs)
        two = search_circuit(circuit, input_stats, strategy=strategy, **kwargs)
        blob_one = dumps_artifact(strip_timing(one.to_artifact()))
        blob_two = dumps_artifact(strip_timing(two.to_artifact()))
        assert blob_one == blob_two, f"{strategy} artifact drifted across runs"
        print(f"\n{name}: {strategy} artifact byte-stable "
              f"({len(blob_one)} bytes, {len(one.accepted)} moves)")


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_SEARCH_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_SEARCH_BENCH_OUT")
    if not RESULTS:
        pytest.skip("the speedup test did not run")
    if not out_path:
        pytest.skip("set REPRO_SEARCH_BENCH_OUT to write the artifact")
    from repro.bench.runner import SCHEMA_VERSION

    artifact = {
        "schema": SCHEMA_VERSION,
        "bench": {
            "name": "eco_search",
            "required_speedup": REQUIRED_SPEEDUP,
        },
        "meta": environment_meta(),
        "results": RESULTS,
    }
    write_artifact(artifact, out_path)
    print(f"\nwrote JSON artifact to {out_path}")

"""Acceptance benchmark: vectorized sampled kernel + batch move pricing.

The claims under test: the uint64-blocked sampled kernel
(:mod:`repro.compiled.sampled`) behind the ``"sampled"``
:class:`StatsCache` backend refreshes the cone of an edit at least
**5x faster** than a from-scratch big-int
:func:`repro.sim.bitsim.sampled_stats` run over the edited circuit —
the oracle settles every gate with Python big-int ops per time step —
and batch move pricing in the greedy search
(:mod:`repro.incremental.search`) makes a full candidate pass at least
**5x faster** than per-move ``WhatIf`` trials (the reference run makes
the pricer decline every batch; each side is the median of 5
alternating passes).  Both stay exact: the refreshed
statistics equal a from-scratch backend run and the last big-int run
(one draw order), and the search artifact
is byte-identical modulo run timing and the cone-work counter the
batch path exists to shrink.

Run with::

    pytest -m bench benchmarks/bench_compiled_sampler.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
Environment knobs: ``REPRO_SAMPLER_BENCH_NODES`` (random-logic node
count for the refresh circuit, default 600),
``REPRO_SAMPLER_BENCH_LANES``/``REPRO_SAMPLER_BENCH_STEPS`` (stream
shape, default 256 x 256 — the step count is the vectorisation axis),
``REPRO_SAMPLER_BENCH_EDITS`` (timed edits, default 15),
``REPRO_SAMPLER_BENCH_SEARCH_NODES`` (node count for the greedy-pass
circuit, default 250), ``REPRO_SAMPLER_BENCH_OUT`` (write the
canonical JSON artifact there, ``repro bench`` style).
"""

import os
import statistics
import time

import pytest

pytestmark = pytest.mark.bench

from repro.bench.generators import random_logic
from repro.bench.runner import SCHEMA_VERSION, dumps_artifact, \
    environment_meta, strip_timing, write_artifact
from repro.incremental import SampledBackend, StatsCache, search_circuit
from repro.incremental.search import _BatchPricer
from repro.sim.bitsim import sampled_stats
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit

NODES = int(os.environ.get("REPRO_SAMPLER_BENCH_NODES", "600"))
LANES = int(os.environ.get("REPRO_SAMPLER_BENCH_LANES", "256"))
STEPS = int(os.environ.get("REPRO_SAMPLER_BENCH_STEPS", "256"))
EDITS = int(os.environ.get("REPRO_SAMPLER_BENCH_EDITS", "15"))
SEARCH_NODES = int(os.environ.get("REPRO_SAMPLER_BENCH_SEARCH_NODES", "250"))
REQUIRED_SPEEDUP = 5.0
#: Timed greedy passes per side of the batch-pricing comparison.
PRICING_PASSES = 5

RESULTS = []


def strip_cone(value):
    if isinstance(value, dict):
        return {k: strip_cone(v) for k, v in value.items()
                if k != "gates_repropagated"}
    if isinstance(value, list):
        return [strip_cone(v) for v in value]
    return value


def test_sampled_refresh_speedup():
    circuit = map_circuit(random_logic(24, NODES, seed=7))
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)
    work = circuit.copy()
    cache = StatsCache(work, dict(input_stats), backend="sampled",
                       lanes=LANES, steps=STEPS, seed=4)
    cache.stats()  # warm: streams drawn, circuit settled
    gates = [g for g in work.gates if g.template.num_configurations() > 1]
    refresh_s = 0.0
    scratch_s = 0.0
    for gate in gates[:EDITS]:
        work.set_config(gate.name, gate.template.configurations()[1])
        start = time.perf_counter()
        cache.stats()
        refresh_s += time.perf_counter() - start
        start = time.perf_counter()
        scratch = sampled_stats(work, input_stats, lanes=LANES, steps=STEPS,
                                seed=4)
        scratch_s += time.perf_counter() - start
    fresh = SampledBackend(lanes=LANES, steps=STEPS, dt=cache.backend.dt,
                           seed=4)
    assert cache.stats() == fresh.full(work, input_stats), \
        "sampled cone refresh drifted from a from-scratch run"
    assert cache.stats() == scratch, \
        "sampled cone refresh drifted from the big-int oracle"
    cache.close()
    refresh_s /= EDITS
    scratch_s /= EDITS
    speedup = scratch_s / refresh_s
    print(f"\n{circuit.name}: {len(circuit)} gates, {LANES} lanes x "
          f"{STEPS} steps [sampled cone refresh]")
    print(f"  big-int from scratch : {scratch_s * 1e3:8.2f}ms/edit")
    print(f"  kernel cone refresh  : {refresh_s * 1e3:8.2f}ms/edit")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    RESULTS.append({
        "mode": "sampled-refresh",
        "circuit": circuit.name,
        "gates": len(circuit),
        "lanes": LANES,
        "steps": STEPS,
        "edits": EDITS,
        "scratch_s": scratch_s,
        "refresh_s": refresh_s,
        "speedup": speedup,
    })
    assert speedup >= REQUIRED_SPEEDUP


def test_batch_pricing_pass_speedup(monkeypatch):
    circuit = map_circuit(random_logic(20, SEARCH_NODES, seed=7))
    input_stats = ScenarioA(seed=0).input_stats(circuit.inputs)

    def run():
        start = time.perf_counter()
        result = search_circuit(circuit, input_stats, objective="power",
                                seed=3, max_rounds=1)
        return time.perf_counter() - start, result

    # Each side is the median of PRICING_PASSES timed passes, the two
    # sides alternating, so one noisy pass cannot decide the ratio.
    whatif_times, batched_times = [], []
    for _ in range(PRICING_PASSES):
        with monkeypatch.context() as patch:
            # a declining pricer routes every batch to per-move WhatIf
            # trials
            patch.setattr(_BatchPricer, "score", lambda self, moves: None)
            seconds, reference = run()
        whatif_times.append(seconds)
        seconds, batched = run()
        batched_times.append(seconds)
    whatif_s = statistics.median(whatif_times)
    batched_s = statistics.median(batched_times)
    # byte-identical artifact modulo run timing and the cone counter
    assert dumps_artifact(strip_cone(strip_timing(batched.to_artifact()))) \
        == dumps_artifact(strip_cone(strip_timing(reference.to_artifact()))), \
        "batch pricing drifted from the per-trial path"
    assert batched.gates_repropagated < reference.gates_repropagated
    speedup = whatif_s / batched_s
    print(f"\n{circuit.name}: {len(circuit)} gates, {reference.trials} "
          f"trials [greedy candidate pass]")
    print(f"  per-move WhatIf : {whatif_s:8.2f}s/pass "
          f"(median of {PRICING_PASSES})")
    print(f"  batch priced    : {batched_s:8.2f}s/pass "
          f"(median of {PRICING_PASSES})")
    print(f"  speedup: {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
    RESULTS.append({
        "mode": "batch-pricing-pass",
        "circuit": circuit.name,
        "gates": len(circuit),
        "trials": reference.trials,
        "passes": PRICING_PASSES,
        "whatif_s": whatif_s,
        "batched_s": batched_s,
        "whatif_repropagated": reference.gates_repropagated,
        "batched_repropagated": batched.gates_repropagated,
        "speedup": speedup,
    })
    assert speedup >= REQUIRED_SPEEDUP


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_SAMPLER_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_SAMPLER_BENCH_OUT")
    if not RESULTS:
        pytest.skip("the speedup tests did not run")
    if not out_path:
        pytest.skip("set REPRO_SAMPLER_BENCH_OUT to write the artifact")
    artifact = {
        "schema": SCHEMA_VERSION,
        "bench": {
            "name": "compiled_sampler",
            "required_speedup": REQUIRED_SPEEDUP,
            "nodes": NODES,
            "lanes": LANES,
            "steps": STEPS,
            "search_nodes": SEARCH_NODES,
        },
        "meta": environment_meta(),
        "results": RESULTS,
    }
    write_artifact(artifact, out_path)
    print(f"\nwrote JSON artifact to {out_path}")

"""Acceptance benchmark: annealing trials stay cone-sized as circuits grow.

The claim under test: pricing one annealing trial (a WhatIf apply, a
power and delay read, a rollback) costs about one fanout cone, not one
circuit.  The bench anneals 5 and 23 disjoint renamed copies of the
mapped ``random_logic(16, 220, 7)`` network (434 gates a copy: 2,170
and 9,982 gates in all).  Every copy has the same cone sizes, so a
cone-sized trial costs the same at both scales; a term that sums or
scans the whole circuit grows with the copy count.  The bench requires
µs/trial at ~10k gates to stay within 1.5x of the value at ~2.2k gates.

Per-trial time is the difference between two searches of the same
circuit — ``TRIALS`` annealing trials and none — divided by the trial
count, so the copy, lowering and cache construction that every search
pays up front (and that do scale with the circuit) cancel out.  The
two searches run back to back as a pair, ``PAIRS`` times, alternating
which goes first, and the per-trial time is the median of the
per-pair differences: a difference of two separate best-of-N times
subtracts two independent extremes and swung by up to 10x between
runs on a shared 2-CPU VM, while adjacent runs see the same machine
state and a slow pair moves the median by at most one rank.

That set-up is held to its own linear bound: ``setup_us_per_gate``,
the no-trial search time per gate, must stay within 1.5x at ~10k
gates of its value at ~2.2k gates, so no per-search pass that grows
faster than the circuit creeps back in.

Run with::

    pytest -m bench benchmarks/bench_trial_scaling.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
Set ``REPRO_TRIAL_SCALING_BENCH_OUT`` to write the canonical JSON
artifact there, ``repro bench`` style.
"""

import os
import statistics
import time

import pytest

pytestmark = pytest.mark.bench

from repro.bench.generators import random_logic
from repro.bench.runner import SCHEMA_VERSION, environment_meta, \
    write_artifact
from repro.circuit.netlist import Circuit
from repro.incremental import search_circuit
from repro.sim.stimulus import ScenarioA
from repro.synth.mapper import map_circuit

TRIALS = 60
PAIRS = 5
SMALL_COPIES, LARGE_COPIES = 5, 23
MAX_RATIO = 1.5
MAX_SETUP_RATIO = 1.5

RESULTS = []


def tile_circuit(tile: Circuit, copies: int) -> Circuit:
    """``copies`` disjoint copies of ``tile`` as one circuit, nets renamed.

    A deliberate copy of ``perfbench/workloads.py::tile_circuit``:
    ``perfbench`` belongs to the repository benchmark and is not on the
    import path of a plain ``pytest`` run.
    """
    circuit = Circuit(f"{tile.name}x{copies}", tile.library)
    for index in range(copies):
        prefix = f"t{index}_"
        for net in tile.inputs:
            circuit.add_input(prefix + net)
        for gate in tile.gates:
            circuit.add_gate(
                prefix + gate.name, gate.template.name,
                {pin: prefix + net for pin, net in gate.pin_nets.items()},
                prefix + gate.output, gate.config,
            )
        for net in tile.outputs:
            circuit.add_output(prefix + net)
    return circuit


@pytest.fixture(scope="module")
def tile():
    return map_circuit(random_logic(16, 220, 7))


def _search_s(circuit, stats, trials: int) -> float:
    start = time.perf_counter()
    result = search_circuit(
        circuit, stats, strategy="anneal", seed=7,
        anneal_trials=trials, moves_per_temp=1,
        cooling=0.9 ** (1000.0 / (8 * max(trials, 1))),
    )
    elapsed = time.perf_counter() - start
    assert result.trials == trials
    return elapsed


def _per_trial_us(tile, copies: int) -> dict:
    circuit = tile_circuit(tile, copies)
    stats = ScenarioA(seed=7).input_stats(circuit.inputs)
    setups, searches = [], []
    for pair in range(PAIRS):
        order = (0, TRIALS) if pair % 2 == 0 else (TRIALS, 0)
        times = {trials: _search_s(circuit, stats, trials) for trials in order}
        setups.append(times[0])
        searches.append(times[TRIALS])
    setup_s = min(setups)
    return {
        "copies": copies,
        "gates": len(circuit),
        "trials": TRIALS,
        "setup_s": setup_s,
        "setup_us_per_gate": 1e6 * setup_s / len(circuit),
        "search_s": statistics.median(searches),
        "trial_us": 1e6 * statistics.median(
            search - setup for search, setup in zip(searches, setups)
        ) / TRIALS,
    }


def test_trial_cost_stays_cone_sized(tile):
    small = _per_trial_us(tile, SMALL_COPIES)
    large = _per_trial_us(tile, LARGE_COPIES)
    ratio = large["trial_us"] / small["trial_us"]
    setup_ratio = large["setup_us_per_gate"] / small["setup_us_per_gate"]
    for row in (small, large):
        print(f"\n{row['gates']:6d} gates: {row['trial_us']:10.0f} us/trial "
              f"(median of {PAIRS} paired differences; median search "
              f"{row['search_s']:.3f}s, best setup {row['setup_s']:.3f}s)"
              f", setup {row['setup_us_per_gate']:.1f} us/gate")
    print(f"  ratio: {ratio:.2f}x (required <= {MAX_RATIO:.1f}x)")
    print(f"  setup ratio: {setup_ratio:.2f}x "
          f"(required <= {MAX_SETUP_RATIO:.1f}x)")
    RESULTS.append({"small": small, "large": large, "ratio": ratio,
                    "setup_ratio": setup_ratio})
    assert ratio <= MAX_RATIO
    assert setup_ratio <= MAX_SETUP_RATIO


def test_write_artifact():
    """Emit the canonical JSON artifact when REPRO_TRIAL_SCALING_BENCH_OUT is set."""
    out_path = os.environ.get("REPRO_TRIAL_SCALING_BENCH_OUT")
    if not RESULTS:
        pytest.skip("scaling test did not run")
    if not out_path:
        pytest.skip("set REPRO_TRIAL_SCALING_BENCH_OUT to write the artifact")
    row = RESULTS[0]
    artifact = {
        "schema": SCHEMA_VERSION,
        "bench": {
            "name": "trial_scaling",
            "network": "random_logic(16, 220, 7)",
            "max_ratio": MAX_RATIO,
            "max_setup_ratio": MAX_SETUP_RATIO,
            "pairs": PAIRS,
        },
        "meta": environment_meta(),
        "results": [row["small"], row["large"]],
        "ratio": row["ratio"],
        "setup_ratio": row["setup_ratio"],
    }
    write_artifact(artifact, out_path)
    print(f"\nwrote JSON artifact to {out_path}")

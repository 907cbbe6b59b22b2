"""Acceptance benchmark: the integer front end of the mapper vs its oracles.

The claims under test:

- ``PatternIndex(default_library())`` gathers every pin permutation and
  input phase of a gate with numpy and is at least 10x faster than the
  readable permutation-by-phase loop of
  :func:`repro.synth.reference.reference_pattern_tables`, with equal
  tables;
- :func:`repro.synth.cuts.enumerate_cuts` filters dominated cuts in one
  sorted pass with leaf signatures and is at least 3x faster than the
  quadratic filter of
  :func:`repro.synth.reference.reference_enumerate_cuts` on the subject
  graph of ``random_logic(16, 1000, 7)`` (2,050 mapped gates), with
  equal cuts.

Each side's time is the best of three runs.  Run with::

    pytest -m bench benchmarks/bench_mapper.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
"""

import time

import pytest

from repro.bench.generators import random_logic
from repro.gates.library import default_library
from repro.synth.aig import aig_from_logic_network
from repro.synth.cuts import enumerate_cuts
from repro.synth.mapper import PatternIndex
from repro.synth.reference import reference_enumerate_cuts, reference_pattern_tables

INDEX_SPEEDUP = 10.0
CUTS_SPEEDUP = 3.0
REPEATS = 3


def best_time(fn):
    """(result, best wall time of ``fn()`` over REPEATS calls)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


@pytest.mark.bench
def test_pattern_index_speedup():
    library = default_library()
    index, index_s = best_time(lambda: PatternIndex(library))
    reference, reference_s = best_time(lambda: reference_pattern_tables(library))
    assert index._tables == reference
    speedup = reference_s / index_s
    print(f"\npattern index: {sum(map(len, reference.values()))} entries;"
          f" readable loop {reference_s:.3f}s, gathered {index_s:.3f}s,"
          f" speedup {speedup:.1f}x (required >= {INDEX_SPEEDUP:.0f}x)")
    assert speedup >= INDEX_SPEEDUP


@pytest.mark.bench
def test_cut_enumeration_speedup():
    aig = aig_from_logic_network(random_logic(16, 1000, 7))
    cuts, cuts_s = best_time(lambda: enumerate_cuts(aig))
    reference, reference_s = best_time(lambda: reference_enumerate_cuts(aig))
    assert cuts == reference
    speedup = reference_s / cuts_s
    print(f"\ncuts: {aig.num_ands} AND nodes;"
          f" quadratic filter {reference_s:.3f}s, sorted pass {cuts_s:.3f}s,"
          f" speedup {speedup:.1f}x (required >= {CUTS_SPEEDUP:.0f}x)")
    assert speedup >= CUTS_SPEEDUP

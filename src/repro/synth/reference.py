"""Readable forms of the mapper's front end: the oracles of the integer ones.

- :func:`reference_pattern_tables` expands each library gate with a loop
  over pin permutations then input phases, one truth table per step,
  keeping the first match found per function.
  :class:`~repro.synth.mapper.PatternIndex` gathers all of them at once
  with numpy; its tables equal these.
- :func:`reference_enumerate_cuts` drops every merged cut that has a
  strict subset among the merged cuts (an O(n^2) pass), then keeps the
  ``max_cuts`` smallest.  :func:`~repro.synth.cuts.enumerate_cuts` does
  this in one sorted pass over leaf signatures; its cuts equal these.

The cone functions are checked against :meth:`AIG.cone_truthtable` and
:class:`~repro.boolean.truthtable.TruthTable` directly.  Nothing in the
program calls this module: it exists to be compared against
(``tests/test_synth.py``, ``benchmarks/bench_mapper.py``).
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Set

import numpy as np

from ..gates.library import GateLibrary
from .aig import AIG, lit_node
from .cuts import Cut
from .mapper import _Match

__all__ = ["reference_pattern_tables", "reference_enumerate_cuts"]


def reference_pattern_tables(library: GateLibrary,
                             gate_names: Optional[Set[str]] = None
                             ) -> Dict[int, Dict[int, _Match]]:
    """``PatternIndex`` tables: leaf count -> truth-table bits -> match."""
    tables: Dict[int, Dict[int, _Match]] = {}
    templates = sorted(
        (t for t in library if gate_names is None or t.name in gate_names),
        key=lambda t: (t.area, t.name),
    )
    for template in templates:
        m = template.num_inputs
        table = tables.setdefault(m, {})
        f = template.function()
        size = 1 << m
        f_values = np.array([(f.bits >> i) & 1 for i in range(size)],
                            dtype=np.uint8)
        leaf_bits = [(np.arange(size) >> j) & 1 for j in range(m)]
        for sigma in itertools.permutations(range(m)):
            for psi in range(size):
                # Pin j reads leaf sigma[j], complemented when psi bit j is set.
                pin_index = np.zeros(size, dtype=np.int64)
                for j in range(m):
                    pin_index |= (leaf_bits[sigma[j]] ^ ((psi >> j) & 1)) << j
                bits = int.from_bytes(
                    np.packbits(f_values[pin_index], bitorder="little").tobytes(),
                    "little",
                )
                if bits not in table:
                    table[bits] = _Match(
                        template, sigma, tuple((psi >> j) & 1 for j in range(m))
                    )
    return tables


def _dominated(cut: Cut, others: List[Cut]) -> bool:
    cut_set = set(cut)
    for other in others:
        if other != cut and set(other) <= cut_set:
            return True
    return False


def reference_enumerate_cuts(aig: AIG, k: int = 6,
                             max_cuts: int = 16) -> Dict[int, List[Cut]]:
    """``enumerate_cuts`` with the quadratic dominance filter."""
    if k < 2:
        raise ValueError("k must be at least 2")
    cuts: Dict[int, List[Cut]] = {}
    for node in range(aig.num_nodes):
        if node == 0:
            cuts[node] = [()]
            continue
        if aig.is_pi(node):
            cuts[node] = [(node,)]
            continue
        a, b = aig.fanins(node)
        merged: List[Cut] = []
        seen = set()
        for cut_a in cuts[lit_node(a)]:
            for cut_b in cuts[lit_node(b)]:
                union = tuple(sorted(set(cut_a) | set(cut_b)))
                if len(union) <= k and union not in seen:
                    seen.add(union)
                    merged.append(union)
        merged = [c for c in merged if not _dominated(c, merged)]
        merged.sort(key=lambda c: (len(c), c))
        result = merged[:max_cuts]
        if (node,) not in result:
            result.append((node,))
        cuts[node] = result
    return cuts

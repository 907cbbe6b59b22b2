"""K-feasible cut enumeration on and-inverter graphs.

A *cut* of node ``n`` is a set of nodes (leaves) such that every path
from the primary inputs to ``n`` crosses a leaf; a cut is k-feasible
when it has at most ``k`` leaves.  Cuts are enumerated bottom-up: the
cuts of an AND node are the pairwise unions of its fanin cuts (plus the
trivial cut ``{n}``), pruned for dominance and capped per node — the
standard FlowMap/ABC scheme.

Each cut carries a 64-bit leaf signature, the OR of ``1 << (leaf % 64)``
over its leaves (ABC's priority cuts, Mishchenko et al., ICCAD'07).  A
union whose signature has more than ``k`` bits set has more than ``k``
leaves, and a cut can only contain another whose signature bits it
covers, so most size and subset tests never build a set.

Dominance runs in one pass over the unions sorted by ``(len, leaves)``,
checking each only against the cuts already kept.  That keeps exactly
the smallest ``max_cuts`` undominated unions: a dominated union has a
strictly smaller dominator, which sorts earlier and is either kept or
itself dominated by a smaller kept cut (subset is transitive).  So the
pass can stop as soon as ``max_cuts`` cuts are kept.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .aig import AIG, lit_node

__all__ = ["enumerate_cuts", "Cut"]

#: A cut: sorted tuple of leaf node indices.
Cut = Tuple[int, ...]


def _signature(cut: Cut) -> int:
    sig = 0
    for leaf in cut:
        sig |= 1 << (leaf & 63)
    return sig


def enumerate_cuts(aig: AIG, k: int = 6, max_cuts: int = 16) -> Dict[int, List[Cut]]:
    """All (pruned) k-feasible cuts of every node.

    Primary inputs get only their trivial cut.  The trivial cut of each
    AND node is always kept in addition to up to ``max_cuts`` merged
    cuts (smallest first), so downstream matching always has the
    fallback decomposition available.
    """
    if k < 2:
        raise ValueError("k must be at least 2")
    cuts: Dict[int, List[Cut]] = {}
    # Per node: (leaf set, signature) of each of its cuts, in list order.
    info: Dict[int, List[Tuple[frozenset, int]]] = {}
    for node in range(aig.num_nodes):
        if node == 0:
            cuts[node] = [()]  # the constant has an empty cut
            info[node] = [(frozenset(), 0)]
            continue
        if aig.is_pi(node):
            cuts[node] = [(node,)]
            info[node] = [(frozenset((node,)), _signature((node,)))]
            continue
        a, b = aig.fanins(node)
        info_b = info[lit_node(b)]
        unions: Dict[frozenset, int] = {}
        for set_a, sig_a in info[lit_node(a)]:
            for set_b, sig_b in info_b:
                sig = sig_a | sig_b
                if sig.bit_count() > k:
                    continue
                union = set_a | set_b
                if len(union) <= k:
                    unions[union] = sig
        # Cuts are distinct, so the sort never compares past the tuple.
        merged = sorted((len(u), tuple(sorted(u)), u, sig)
                        for u, sig in unions.items())
        result: List[Cut] = []
        kept: List[Tuple[frozenset, int]] = []
        for _, cut, leaves, sig in merged:
            if len(result) == max_cuts:
                break
            for kept_leaves, kept_sig in kept:
                if not kept_sig & ~sig and kept_leaves <= leaves:
                    break  # dominated by a smaller kept cut
            else:
                result.append(cut)
                kept.append((leaves, sig))
        trivial = (node,)
        if trivial not in result:
            result.append(trivial)
            kept.append((frozenset(trivial), _signature(trivial)))
        cuts[node] = result
        info[node] = kept
    return cuts

"""Transistor-network graph of a static CMOS gate (paper Figure 2a).

A gate is a graph ``(V, E)`` whose vertices are the power rails
(``vdd``, ``vss``), the output node ``y`` and the internal diffusion
nodes, and whose edges are transistors.  The graph retains the
transistor-order information of a configuration: it is built from an
ordered pull-down SP tree and an ordered pull-up SP tree.

For every node ``n_k`` the paper needs two Boolean functions of the
gate inputs:

* ``H_nk`` — all conducting paths from ``n_k`` to ``vdd``;
* ``G_nk`` — all conducting paths from ``n_k`` to ``vss``.

They are extracted by depth-first enumeration of simple paths (the
paper's CALCULATE_H_FUNCTION), with an N transistor contributing the
literal ``x`` and a P transistor the literal ``!x``; contradictory
paths (containing both ``x`` and ``!x``) vanish in the truth-table
conjunction automatically.  ``H`` and ``G`` are complementary exactly
at the output node — the paper's footnote 2 — which is asserted here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..boolean.truthtable import TruthTable
from . import sptree
from .sptree import Leaf, Parallel, Series, SPTree

__all__ = ["Transistor", "TransistorNetwork", "CompiledGate", "compile_gate"]

VDD = "vdd"
VSS = "vss"
OUT = "y"


@dataclass(frozen=True)
class Transistor:
    """One transistor: an edge between ``node_a`` and ``node_b``.

    ``ttype`` is ``'n'`` (conducts when ``signal`` is 1) or ``'p'``
    (conducts when ``signal`` is 0).
    """

    signal: str
    ttype: str
    node_a: str
    node_b: str

    def conducts(self, value: bool) -> bool:
        """Whether the channel conducts for the given gate-signal value."""
        return value if self.ttype == "n" else not value

    def literal(self, variables: Sequence[str]) -> TruthTable:
        """Conduction condition as a truth table over ``variables``."""
        var = TruthTable.variable(variables, self.signal)
        return var if self.ttype == "n" else ~var


class TransistorNetwork:
    """The full transistor graph of one gate configuration."""

    def __init__(self, pdn: SPTree, pun: Optional[SPTree] = None,
                 inputs: Optional[Sequence[str]] = None):
        """Build the graph from an ordered PDN tree and optional PUN tree.

        ``pun`` defaults to the structural dual of ``pdn`` (the unique
        complementary static CMOS pull-up).  ``inputs`` fixes the pin
        order used for all truth tables; it defaults to first-appearance
        order in the PDN.
        """
        self.pdn = sptree.normalize(pdn)
        self.pun = sptree.normalize(pun) if pun is not None else sptree.dual(self.pdn)
        pdn_signals = set(sptree.leaves(self.pdn))
        pun_signals = set(sptree.leaves(self.pun))
        if pdn_signals != pun_signals:
            raise ValueError(
                f"PDN/PUN input mismatch: {sorted(pdn_signals)} vs {sorted(pun_signals)}"
            )
        if inputs is None:
            seen: List[str] = []
            for s in sptree.leaves(self.pdn):
                if s not in seen:
                    seen.append(s)
            inputs = seen
        self.inputs: Tuple[str, ...] = tuple(inputs)
        if set(self.inputs) != pdn_signals:
            raise ValueError(f"inputs {self.inputs} do not match PDN signals {sorted(pdn_signals)}")

        self.transistors: List[Transistor] = []
        self._counter = 0
        # PDN hangs between the output and ground; series children are
        # laid out from the output side towards the rail.
        self._build(self.pdn, OUT, VSS, "n")
        # PUN between supply and output; series children from vdd down.
        self._build(self.pun, VDD, OUT, "p")

        self._adjacency: Dict[str, List[Tuple[str, Transistor]]] = {}
        for t in self.transistors:
            self._adjacency.setdefault(t.node_a, []).append((t.node_b, t))
            self._adjacency.setdefault(t.node_b, []).append((t.node_a, t))
        internal = [n for n in self._adjacency if n not in (VDD, VSS, OUT)]
        self.internal_nodes: Tuple[str, ...] = tuple(sorted(internal))
        # Sanity: output H/G must be complementary (footnote 2 of the paper).
        h_out = self.h_function(OUT)
        g_out = self.g_function(OUT)
        if (h_out ^ g_out) != TruthTable.constant(self.inputs, True):
            raise ValueError("PUN is not the complement of the PDN: not a static CMOS gate")

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    def _fresh_node(self) -> str:
        name = f"n{self._counter}"
        self._counter += 1
        return name

    def _build(self, tree: SPTree, top: str, bottom: str, ttype: str) -> None:
        if isinstance(tree, Leaf):
            self.transistors.append(Transistor(tree.signal, ttype, top, bottom))
            return
        if isinstance(tree, Series):
            nodes = [top]
            for _ in range(len(tree.children) - 1):
                nodes.append(self._fresh_node())
            nodes.append(bottom)
            for child, a, b in zip(tree.children, nodes, nodes[1:]):
                self._build(child, a, b, ttype)
            return
        if isinstance(tree, Parallel):
            for child in tree.children:
                self._build(child, top, bottom, ttype)
            return
        raise TypeError(f"not an SP tree node: {tree!r}")

    # ------------------------------------------------------------------
    # Topology queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[str, ...]:
        """All power-consuming nodes: internal nodes then the output."""
        return self.internal_nodes + (OUT,)

    def terminal_count(self, node: str) -> int:
        """Number of transistor source/drain terminals touching ``node``."""
        return len(self._adjacency.get(node, ()))

    # ------------------------------------------------------------------
    # Path functions
    # ------------------------------------------------------------------
    def path_function(self, node: str, rail: str) -> TruthTable:
        """OR over all simple paths ``node -> rail`` of their conduction terms.

        Paths never pass *through* a rail (a rail is an endpoint, not a
        via) and never revisit a node — the paper's depth-first search.
        """
        if rail not in (VDD, VSS):
            raise ValueError(f"rail must be vdd or vss, got {rail!r}")
        if node == rail:
            return TruthTable.constant(self.inputs, True)
        other_rail = VSS if rail == VDD else VDD
        result = TruthTable.constant(self.inputs, False)
        true_tt = TruthTable.constant(self.inputs, True)
        visited = {node}

        def dfs(current: str, term: TruthTable) -> None:
            nonlocal result
            for neighbour, transistor in self._adjacency.get(current, ()):
                if neighbour == other_rail or neighbour in visited:
                    continue
                new_term = term & transistor.literal(self.inputs)
                if new_term.bits == 0:
                    continue
                if neighbour == rail:
                    result = result | new_term
                    continue
                visited.add(neighbour)
                dfs(neighbour, new_term)
                visited.remove(neighbour)

        dfs(node, true_tt)
        return result

    def h_function(self, node: str) -> TruthTable:
        """``H_nk``: condition for a conducting path from ``node`` to vdd."""
        return self.path_function(node, VDD)

    def g_function(self, node: str) -> TruthTable:
        """``G_nk``: condition for a conducting path from ``node`` to vss."""
        return self.path_function(node, VSS)

    def output_function(self) -> TruthTable:
        """The gate's logic function ``y = H_y`` (complement of the PDN)."""
        return self.h_function(OUT)

    def __repr__(self) -> str:
        return f"TransistorNetwork(pdn={self.pdn}, pun={self.pun})"


class CompiledGate:
    """Precompiled per-configuration data shared by the model and simulator.

    Holds, for every node of one gate configuration: the ``H``/``G``
    truth tables (also as raw bit masks for fast simulation), the
    Boolean differences with respect to every input, and the diffusion
    terminal counts for the capacitance model.
    """

    def __init__(self, network: TransistorNetwork):
        self.network = network
        self.inputs = network.inputs
        self.nodes = network.nodes
        self.h: Dict[str, TruthTable] = {}
        self.g: Dict[str, TruthTable] = {}
        self.dh: Dict[Tuple[str, str], TruthTable] = {}
        self.dg: Dict[Tuple[str, str], TruthTable] = {}
        for node in self.nodes:
            h = network.h_function(node)
            g = network.g_function(node)
            self.h[node] = h
            self.g[node] = g
            for x in self.inputs:
                self.dh[(node, x)] = h.boolean_difference(x)
                self.dg[(node, x)] = g.boolean_difference(x)
        self.output_tt = self.h[OUT]
        self.h_bits: Dict[str, int] = {n: self.h[n].bits for n in self.nodes}
        self.g_bits: Dict[str, int] = {n: self.g[n].bits for n in self.nodes}
        self.terminal_counts: Dict[str, int] = {
            n: network.terminal_count(n) for n in self.nodes
        }

    @property
    def internal_nodes(self) -> Tuple[str, ...]:
        return self.network.internal_nodes

    def evaluate_nodes(self, minterm: int, previous: Mapping[str, int]) -> Dict[str, int]:
        """Steady node states for an input minterm, given retained values.

        A node is 1 when driven high, 0 when driven low, and keeps its
        previous value when isolated (charge sharing ignored, as in the
        paper).  Drive conflicts cannot occur in complementary gates and
        are asserted against.
        """
        states: Dict[str, int] = {}
        for node in self.nodes:
            driven_high = (self.h_bits[node] >> minterm) & 1
            driven_low = (self.g_bits[node] >> minterm) & 1
            if driven_high and driven_low:
                raise AssertionError(
                    f"node {node} shorted for minterm {minterm} — not series-parallel CMOS"
                )
            if driven_high:
                states[node] = 1
            elif driven_low:
                states[node] = 0
            else:
                states[node] = previous[node]
        return states

    def minterm_of(self, values: Mapping[str, bool]) -> int:
        """Pack input pin values into a minterm index for this gate."""
        i = 0
        for j, pin in enumerate(self.inputs):
            if values[pin]:
                i |= 1 << j
        return i


def compile_gate(pdn: SPTree, pun: Optional[SPTree] = None,
                 inputs: Optional[Sequence[str]] = None) -> CompiledGate:
    """Convenience wrapper: build the network and precompile it."""
    return CompiledGate(TransistorNetwork(pdn, pun, inputs))

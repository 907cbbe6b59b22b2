"""Cut-based technology mapping onto the Table 2 library.

The classic DAG-covering flow (FlowMap/ABC style, area-oriented):

1. the logic network becomes a structurally hashed AIG (`aig.py`);
2. every AND node gets its k-feasible cuts (`cuts.py`);
3. each cut's cone function is matched against a **pattern index** of
   the library: every gate function is pre-expanded under all input
   permutations *and* input phase assignments, so a single dictionary
   lookup finds the gate, the pin permutation and which leaves must be
   complemented;
4. dynamic programming picks, per node and output phase, the cheapest
   implementation (gate match, or the other phase plus an inverter);
5. backtracking from the primary outputs instantiates library gates
   into a :class:`~repro.circuit.netlist.Circuit`.

Costs are transistor counts, so the mapper minimises area; inverters
bridge phase mismatches.  Matching both the function and its complement
guarantees every 2-leaf cut is realisable with ``nand2``/``inv``, hence
mapping always succeeds.

All three hot loops run on integers:

- **Functions are words.**  A function of ``n <= 6`` leaves is one
  Python int, the :class:`~repro.boolean.truthtable.TruthTable` encoding
  (bit ``i`` is the value on minterm ``i``, leaf ``j`` is bit ``j`` of
  ``i``).  Cone functions come from the projection words
  (``0xAAAA...``, ``0xCCCC...``, ...) with ``&`` and ``^ full``
  (:meth:`AIG.cone_word`); the support from comparing the two
  cofactors of each variable in place (:func:`word_support`); the
  complement phase is ``bits ^ full``.
- **The index is one gather per phase.**  For a template of ``m`` pins,
  ``base[p, i]`` is the pin minterm that leaf minterm ``i`` drives under
  the ``p``-th permutation (``itertools.permutations`` order).
  Complementing pins ``psi`` XORs ``psi`` into it, so ``f[base ^ psi]``
  packed little-endian is the leaf-order truth table of every
  permutation at once.  Key ``p * 2**m + psi`` is the visit order of the
  readable loop over permutations then phases, and templates go in
  ``(area, name)`` order, so keeping the first occurrence of each key
  (``np.unique(..., return_index=True)``) keeps the match that loop
  keeps: the first writer wins in ``(area, name, sigma, psi)`` order.
- **Cut dominance is one sorted pass** (see :mod:`repro.synth.cuts`).

:mod:`repro.synth.reference` keeps the readable index loop and cut
filter; ``TruthTable`` and :meth:`AIG.cone_truthtable` stay the oracle
of the word functions.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..circuit.logic import LogicNetwork
from ..circuit.netlist import Circuit, CircuitError
from ..gates.library import GateLibrary, GateTemplate, default_library
from .aig import PROJECTIONS, AIG, aig_from_logic_network, lit_node, lit_phase
from .cuts import Cut, enumerate_cuts

__all__ = ["PatternIndex", "TechMapper", "map_circuit"]

_INF = float("inf")


def word_support(bits: int, n: int) -> Tuple[int, ...]:
    """The variables an ``n``-variable truth-table word depends on.

    Variable ``j`` is essential iff the two cofactors differ: the
    minterms with bit ``j`` clear, against those with it set shifted
    down by ``2**j`` onto them.
    """
    return tuple(
        j for j in range(n)
        if bits & ~PROJECTIONS[j] != (bits & PROJECTIONS[j]) >> (1 << j)
    )


@functools.cache
def _shrink_sources(keep: Tuple[int, ...]) -> Tuple[int, ...]:
    """Old minterm read by each new minterm; dropped variables read 0."""
    return tuple(
        sum(((i >> t) & 1) << j for t, j in enumerate(keep))
        for i in range(1 << len(keep))
    )


def shrink_word(bits: int, keep: Sequence[int]) -> int:
    """Re-express a word over the variables ``keep`` (ascending), which
    must include its support: variable ``keep[t]`` becomes variable ``t``."""
    word = 0
    for i, source in enumerate(_shrink_sources(tuple(keep))):
        word |= ((bits >> source) & 1) << i
    return word


def cut_function(aig: AIG, node: int, cut: Cut) -> Optional[Tuple[Cut, int]]:
    """The cone function of ``node`` over ``cut``, shrunk to its support.

    Returns the leaves the function depends on, in cut order, and its
    truth-table word over them, or ``None`` for a constant cone.
    """
    bits = aig.cone_word(node, cut)
    keep = word_support(bits, len(cut))
    if not keep:
        return None
    if len(keep) < len(cut):
        bits = shrink_word(bits, keep)
        cut = tuple(cut[j] for j in keep)
    return cut, bits


@dataclass(frozen=True)
class _Match:
    """One library realisation of a cut function."""

    template: GateTemplate
    permutation: Tuple[int, ...]
    """``permutation[j]`` = index of the leaf feeding pin ``j``."""

    phases: Tuple[int, ...]
    """``phases[j]`` = 1 when pin ``j`` needs the complemented leaf."""


class PatternIndex:
    """Library gate functions expanded under permutation and phase.

    ``lookup(m, bits)`` returns the match for an ``m``-leaf function
    whose truth-table bits are ``bits`` (over leaf variables in order),
    or ``None``.  Built once per library (cached by the mapper).
    """

    def __init__(self, library: GateLibrary,
                 gate_names: Optional[Set[str]] = None):
        self.library = library
        self._tables: Dict[int, Dict[int, _Match]] = {}
        templates = sorted(
            (t for t in library if gate_names is None or t.name in gate_names),
            key=lambda t: (t.area, t.name),
        )
        for template in templates:
            self._index_template(template)

    def _index_template(self, template: GateTemplate) -> None:
        m = template.num_inputs
        table = self._tables.setdefault(m, {})
        size = 1 << m
        f_bits = template.function().bits
        f_values = np.array([(f_bits >> i) & 1 for i in range(size)],
                            dtype=np.uint8)
        # Pin j reads leaf sigma[j]: base[p, i] is the pin minterm that
        # leaf minterm i drives under permutation p.  Complementing the
        # pins in phase psi XORs psi into that index.
        sigmas = list(itertools.permutations(range(m)))
        leaf_index = np.arange(size, dtype=np.uint8)
        base = np.zeros((len(sigmas), size), dtype=np.uint8)
        for j, column in enumerate(np.array(sigmas, dtype=np.uint8).T):
            base |= ((leaf_index[None, :] >> column[:, None]) & 1) << j
        # keys[p, psi]: the leaf-order truth table of (sigma_p, psi).
        keys = np.empty((len(sigmas), size), dtype=np.uint64)
        wide = np.zeros((len(sigmas), 8), dtype=np.uint8)
        for psi in range(size):
            packed = np.packbits(f_values[base ^ psi], axis=1, bitorder="little")
            wide[:, :packed.shape[1]] = packed
            keys[:, psi] = wide.view("<u8")[:, 0]
        # Row p * 2^m + psi is the visit order of the readable loop over
        # permutations then phases, so the first occurrence of each key
        # is the match that loop would have kept.
        flat = keys.ravel()
        _, first = np.unique(flat, return_index=True)
        for row in np.sort(first).tolist():
            bits = int(flat[row])
            if bits not in table:
                sigma, psi = divmod(row, size)
                table[bits] = _Match(
                    template,
                    sigmas[sigma],
                    tuple((psi >> j) & 1 for j in range(m)),
                )

    def lookup(self, num_leaves: int, bits: int) -> Optional[_Match]:
        return self._tables.get(num_leaves, {}).get(bits)


_PATTERN_CACHE: Dict[tuple, PatternIndex] = {}


def _pattern_index(library: GateLibrary,
                   gate_names: Optional[Set[str]]) -> PatternIndex:
    # Keyed by content, not identity: templates are frozen and hashable,
    # and default_library() builds a fresh (equal) library per call.
    key = (tuple(library),
           None if gate_names is None else tuple(sorted(gate_names)))
    index = _PATTERN_CACHE.get(key)
    if index is None:
        index = PatternIndex(library, gate_names)
        _PATTERN_CACHE[key] = index
    return index


# ----------------------------------------------------------------------
# Dynamic-programming cover
# ----------------------------------------------------------------------
class _Choice:
    """How one (node, phase) is implemented."""

    PI = "pi"
    INV = "inv"
    ALIAS = "alias"
    GATE = "gate"

    __slots__ = ("kind", "match", "leaves", "alias")

    def __init__(self, kind, match=None, leaves=None, alias=None):
        self.kind = kind
        self.match = match
        self.leaves = leaves
        self.alias = alias  # (leaf_node, leaf_phase)


class TechMapper:
    """Map logic networks onto a gate library."""

    def __init__(self, library: Optional[GateLibrary] = None, k: int = 6,
                 max_cuts: int = 16, gate_names: Optional[Set[str]] = None):
        self.library = library if library is not None else default_library()
        if "inv" not in self.library or "nand2" not in self.library:
            raise ValueError("mapping requires at least inv and nand2 in the library")
        if gate_names is not None:
            gate_names = set(gate_names) | {"inv", "nand2"}
        self.k = min(k, 6)
        self.max_cuts = max_cuts
        self.patterns = _pattern_index(self.library, gate_names)
        self._inv_area = self.library["inv"].area

    # ------------------------------------------------------------------
    def map(self, network: LogicNetwork, name: Optional[str] = None) -> Circuit:
        """Technology-map ``network`` into a library-gate circuit."""
        aig = aig_from_logic_network(network)
        cost, choice = self._cover(aig)
        circuit = self._instantiate(aig, network, cost, choice, name)
        circuit.validate()
        return circuit

    # ------------------------------------------------------------------
    def _cover(self, aig: AIG):
        cuts = enumerate_cuts(aig, self.k, self.max_cuts)
        cost: Dict[Tuple[int, int], float] = {}
        choice: Dict[Tuple[int, int], _Choice] = {}
        for node in range(1, aig.num_nodes):
            if aig.is_pi(node):
                cost[(node, 0)] = 0.0
                choice[(node, 0)] = _Choice(_Choice.PI)
                cost[(node, 1)] = self._inv_area
                choice[(node, 1)] = _Choice(_Choice.INV)
                continue
            direct: List[Tuple[float, Optional[_Choice]]] = [(_INF, None), (_INF, None)]
            for cut in cuts[node]:
                if node in cut or not cut:
                    continue
                self._match_cut(aig, node, cut, cost, direct)
            pos_cost, pos_choice = direct[0]
            neg_cost, neg_choice = direct[1]
            if pos_cost == _INF and neg_cost == _INF:
                raise CircuitError(
                    f"no library match for AIG node {node}: library too sparse"
                )
            # Phase bridging with an inverter.
            if neg_cost + self._inv_area < pos_cost:
                pos_cost, pos_choice = neg_cost + self._inv_area, _Choice(_Choice.INV)
            if pos_cost + self._inv_area < neg_cost:
                neg_cost, neg_choice = pos_cost + self._inv_area, _Choice(_Choice.INV)
            cost[(node, 0)], choice[(node, 0)] = pos_cost, pos_choice
            cost[(node, 1)], choice[(node, 1)] = neg_cost, neg_choice
        return cost, choice

    def _match_cut(self, aig: AIG, node: int, cut: Cut, cost, direct) -> None:
        found = cut_function(aig, node, cut)
        if found is None:
            return  # constant cone: handled by AIG folding upstream
        cut, bits = found
        m = len(cut)
        if m == 1:
            leaf = cut[0]
            leaf_phase = 0 if bits == 0b10 else 1
            for phase in (0, 1):
                alias_phase = leaf_phase ^ phase
                candidate = cost.get((leaf, alias_phase), _INF)
                if candidate < direct[phase][0]:
                    direct[phase] = (
                        candidate,
                        _Choice(_Choice.ALIAS, alias=(leaf, alias_phase)),
                    )
            return
        full = (1 << (1 << m)) - 1
        for phase, word in ((0, bits), (1, bits ^ full)):
            match = self.patterns.lookup(m, word)
            if match is None:
                continue
            total = match.template.area
            for j in range(m):
                total += cost.get((cut[match.permutation[j]], match.phases[j]), _INF)
                if total == _INF:
                    break
            if total < direct[phase][0]:
                direct[phase] = (total, _Choice(_Choice.GATE, match=match, leaves=cut))

    # ------------------------------------------------------------------
    def _instantiate(self, aig: AIG, network: LogicNetwork, cost, choice,
                     name: Optional[str]) -> Circuit:
        circuit = Circuit(name or network.name, self.library)
        for pi in network.inputs:
            circuit.add_input(pi)
        nets: Dict[Tuple[int, int], str] = {}
        counter = itertools.count()

        def fresh() -> str:
            return f"_m{next(counter)}"

        def realize(node: int, phase: int, forced: Optional[str] = None) -> str:
            key = (node, phase)
            if key in nets and forced is None:
                return nets[key]
            ch = choice[key]
            if ch.kind == _Choice.PI:
                net = aig.pi_name_of(node)
                nets.setdefault(key, net)
                return net
            if ch.kind == _Choice.ALIAS:
                net = realize(*ch.alias)
                nets.setdefault(key, net)
                return net
            if key in nets:  # forced duplicate of an existing realisation
                return nets[key]
            if ch.kind == _Choice.INV:
                source = realize(node, 1 - phase)
                net = forced or fresh()
                circuit.add_gate(f"g{len(circuit)}", "inv",
                                 {"a": source}, net)
                nets[key] = net
                return net
            match, leaves = ch.match, ch.leaves
            pin_nets = {}
            for j, pin in enumerate(match.template.pins):
                leaf = leaves[match.permutation[j]]
                pin_nets[pin] = realize(leaf, match.phases[j])
            net = forced or fresh()
            circuit.add_gate(f"g{len(circuit)}", match.template.name,
                             pin_nets, net)
            nets[key] = net
            return net

        for po_name, lit in aig.pos:
            node, phase = lit_node(lit), lit_phase(lit)
            if node == 0:
                raise CircuitError(
                    f"primary output {po_name!r} is constant; the Table 2 "
                    "library has no tie cells"
                )
            existing = nets.get((node, phase))
            if existing is None:
                net = realize(node, phase, forced=po_name)
                if net != po_name:
                    self._emit_copy(circuit, net, po_name)
            elif existing != po_name:
                self._emit_copy(circuit, existing, po_name)
            circuit.add_output(po_name)
        return circuit

    def _emit_copy(self, circuit: Circuit, source: str, target: str) -> None:
        """Create a net named ``target`` equal to ``source``.

        Duplicates the driving gate when there is one; primary inputs
        are buffered with a double inverter (the library has no buffer).
        """
        driver = circuit.driver(source)
        if driver is not None:
            circuit.add_gate(f"g{len(circuit)}", driver.template.name,
                             dict(driver.pin_nets), target)
        else:
            middle = f"{target}_binv"
            circuit.add_gate(f"g{len(circuit)}", "inv", {"a": source}, middle)
            circuit.add_gate(f"g{len(circuit)}", "inv", {"a": middle}, target)


def map_circuit(network: LogicNetwork, library: Optional[GateLibrary] = None,
                k: int = 6, max_cuts: int = 16,
                gate_names: Optional[Set[str]] = None,
                name: Optional[str] = None) -> Circuit:
    """One-call technology mapping (see :class:`TechMapper`)."""
    return TechMapper(library, k, max_cuts, gate_names).map(network, name)

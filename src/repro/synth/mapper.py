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
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from ..circuit.logic import LogicNetwork
from ..circuit.netlist import Circuit, CircuitError
from ..gates.library import GateLibrary, GateTemplate, default_library
from .aig import AIG, aig_from_logic_network, lit_node, lit_phase
from .cuts import Cut, enumerate_cuts

__all__ = ["PatternIndex", "TechMapper", "map_circuit"]

_INF = float("inf")

#: Generic leaf variable names used for cut functions.
_LEAF_VARS = tuple(f"x{i}" for i in range(8))


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
        f = template.function()
        size = 1 << m
        f_values = np.array(
            [(f.bits >> i) & 1 for i in range(size)], dtype=np.uint8
        )
        leaf_index = np.arange(size, dtype=np.uint32)
        leaf_bits = [((leaf_index >> j) & 1) for j in range(m)]
        for sigma in itertools.permutations(range(m)):
            for psi in range(1 << m):
                # Pin j reads leaf sigma[j], complemented when psi bit j set.
                pin_index = np.zeros(size, dtype=np.uint32)
                for j in range(m):
                    bit = leaf_bits[sigma[j]] ^ ((psi >> j) & 1)
                    pin_index |= bit.astype(np.uint32) << j
                values = f_values[pin_index]
                bits = int.from_bytes(
                    np.packbits(values, bitorder="little").tobytes(), "little"
                )
                if bits not in table:
                    table[bits] = _Match(
                        template,
                        tuple(sigma),
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
        variables = _LEAF_VARS[: len(cut)]
        tt = aig.cone_truthtable(node, cut, variables)
        support = tt.support()
        if len(support) == 0:
            return  # constant cone: handled by AIG folding upstream
        if len(support) < len(cut):
            keep = [i for i, v in enumerate(variables) if v in support]
            cut = tuple(cut[i] for i in keep)
            tt = tt.expand(tuple(variables[i] for i in keep))
            tt = tt.rename(dict(zip(tt.vars, _LEAF_VARS)))
        m = len(cut)
        if m == 1:
            leaf = cut[0]
            leaf_phase = 0 if tt.bits == 0b10 else 1
            for phase in (0, 1):
                alias_phase = leaf_phase ^ phase
                candidate = cost.get((leaf, alias_phase), _INF)
                if candidate < direct[phase][0]:
                    direct[phase] = (
                        candidate,
                        _Choice(_Choice.ALIAS, alias=(leaf, alias_phase)),
                    )
            return
        for phase, bits in ((0, tt.bits), (1, (~tt).bits)):
            match = self.patterns.lookup(m, bits)
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
                circuit.add_gate(f"g{len(circuit.gates)}", "inv",
                                 {"a": source}, net)
                nets[key] = net
                return net
            match, leaves = ch.match, ch.leaves
            pin_nets = {}
            for j, pin in enumerate(match.template.pins):
                leaf = leaves[match.permutation[j]]
                pin_nets[pin] = realize(leaf, match.phases[j])
            net = forced or fresh()
            circuit.add_gate(f"g{len(circuit.gates)}", match.template.name,
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
            circuit.add_gate(f"g{len(circuit.gates)}", driver.template.name,
                             dict(driver.pin_nets), target)
        else:
            middle = f"{target}_binv"
            circuit.add_gate(f"g{len(circuit.gates)}", "inv", {"a": source}, middle)
            circuit.add_gate(f"g{len(circuit.gates)}", "inv", {"a": middle}, target)


def map_circuit(network: LogicNetwork, library: Optional[GateLibrary] = None,
                k: int = 6, max_cuts: int = 16,
                gate_names: Optional[Set[str]] = None,
                name: Optional[str] = None) -> Circuit:
    """One-call technology mapping (see :class:`TechMapper`)."""
    return TechMapper(library, k, max_cuts, gate_names).map(network, name)

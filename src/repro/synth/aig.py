"""And-inverter graphs with structural hashing.

The subject graph for technology mapping: two-input AND nodes with
complementable edges.  Literals are integers ``2*node + phase`` with
``phase = 1`` meaning inverted; literal 0 is constant false, literal 1
constant true.  Construction folds constants and hashes structurally,
so the graph is compact and topologically ordered by node index.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..boolean.expr import And, Const, Expr, Not, Or, Var, Xor
from ..boolean.truthtable import TruthTable
from ..circuit.logic import LogicNetwork
from .sop import cover_to_expr, simplify_cover

__all__ = ["AIG", "aig_from_logic_network"]

CONST0 = 0
CONST1 = 1

#: Projection words of six variables: bit ``i`` of ``PROJECTIONS[j]`` is
#: bit ``j`` of minterm ``i``, the :class:`TruthTable` encoding.  The low
#: ``2**n`` bits of the first ``n`` words are the projections of ``n``
#: variables.
PROJECTIONS = (
    0xAAAAAAAAAAAAAAAA,
    0xCCCCCCCCCCCCCCCC,
    0xF0F0F0F0F0F0F0F0,
    0xFF00FF00FF00FF00,
    0xFFFF0000FFFF0000,
    0xFFFFFFFF00000000,
)


def lit_node(lit: int) -> int:
    """The node index of a literal."""
    return lit >> 1


def lit_phase(lit: int) -> int:
    """1 when the literal is inverted."""
    return lit & 1


def lit_not(lit: int) -> int:
    return lit ^ 1


class AIG:
    """A structurally hashed and-inverter graph."""

    def __init__(self):
        # Node 0 is the constant; nodes 1..n_pi are primary inputs.
        self._fanins: List[Optional[Tuple[int, int]]] = [None]
        self._pi_names: List[str] = []
        self._pi_lit: Dict[str, int] = {}
        self._pos: List[Tuple[str, int]] = []
        self._strash: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_pi(self, name: str) -> int:
        """Declare a primary input; returns its positive literal."""
        if name in self._pi_lit:
            raise ValueError(f"duplicate primary input {name!r}")
        node = len(self._fanins)
        self._fanins.append(None)
        self._pi_names.append(name)
        lit = 2 * node
        self._pi_lit[name] = lit
        return lit

    def add_po(self, name: str, lit: int) -> None:
        if any(po == name for po, _ in self._pos):
            raise ValueError(f"duplicate primary output {name!r}")
        self._check_lit(lit)
        self._pos.append((name, lit))

    def and_(self, a: int, b: int) -> int:
        """AND of two literals, with constant folding and strashing."""
        self._check_lit(a)
        self._check_lit(b)
        if a == CONST0 or b == CONST0 or a == lit_not(b):
            return CONST0
        if a == CONST1:
            return b
        if b == CONST1 or a == b:
            return a
        if b < a:
            a, b = b, a
        key = (a, b)
        node = self._strash.get(key)
        if node is None:
            node = len(self._fanins)
            self._fanins.append(key)
            self._strash[key] = node
        return 2 * node

    def or_(self, a: int, b: int) -> int:
        return lit_not(self.and_(lit_not(a), lit_not(b)))

    def xor_(self, a: int, b: int) -> int:
        return lit_not(self.and_(lit_not(self.and_(a, lit_not(b))),
                                 lit_not(self.and_(lit_not(a), b))))

    def and_many(self, lits: Sequence[int]) -> int:
        """Balanced AND tree over a list of literals."""
        return self._balanced(list(lits), self.and_, CONST1)

    def or_many(self, lits: Sequence[int]) -> int:
        return self._balanced(list(lits), self.or_, CONST0)

    def _balanced(self, lits: List[int], op, identity: int) -> int:
        if not lits:
            return identity
        while len(lits) > 1:
            nxt = []
            for i in range(0, len(lits) - 1, 2):
                nxt.append(op(lits[i], lits[i + 1]))
            if len(lits) % 2:
                nxt.append(lits[-1])
            lits = nxt
        return lits[0]

    def _check_lit(self, lit: int) -> None:
        if not 0 <= lit_node(lit) < len(self._fanins):
            raise ValueError(f"literal {lit} out of range")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """All nodes including the constant and primary inputs."""
        return len(self._fanins)

    @property
    def num_ands(self) -> int:
        return sum(1 for f in self._fanins if f is not None)

    @property
    def pi_names(self) -> Tuple[str, ...]:
        return tuple(self._pi_names)

    @property
    def pos(self) -> Tuple[Tuple[str, int], ...]:
        return tuple(self._pos)

    def is_pi(self, node: int) -> bool:
        return node != 0 and self._fanins[node] is None

    def is_and(self, node: int) -> bool:
        return self._fanins[node] is not None

    def fanins(self, node: int) -> Tuple[int, int]:
        fanin = self._fanins[node]
        if fanin is None:
            raise ValueError(f"node {node} is not an AND node")
        return fanin

    def pi_name_of(self, node: int) -> str:
        if not self.is_pi(node):
            raise ValueError(f"node {node} is not a primary input")
        return self._pi_names[node - 1]

    # ------------------------------------------------------------------
    # Evaluation
    # ------------------------------------------------------------------
    def evaluate(self, assignment: Mapping[str, bool]) -> Dict[str, bool]:
        """Evaluate all primary outputs on one input assignment."""
        values: List[bool] = [False] * len(self._fanins)
        for name, lit in self._pi_lit.items():
            values[lit_node(lit)] = bool(assignment[name])
        for node, fanin in enumerate(self._fanins):
            if fanin is not None:
                a, b = fanin
                va = values[lit_node(a)] ^ bool(lit_phase(a))
                vb = values[lit_node(b)] ^ bool(lit_phase(b))
                values[node] = va and vb
        return {
            name: values[lit_node(lit)] ^ bool(lit_phase(lit))
            for name, lit in self._pos
        }

    def cone_truthtable(self, node: int, leaves: Sequence[int],
                        variables: Sequence[str]) -> TruthTable:
        """Function of ``node`` over cut ``leaves`` (positive leaf phases).

        ``variables[i]`` names leaf ``leaves[i]``.  Raises if the cone
        reaches past the leaves to a primary input or the constant.
        """
        leaf_pos = {leaf: i for i, leaf in enumerate(leaves)}
        cache: Dict[int, TruthTable] = {}

        def walk(n: int) -> TruthTable:
            if n in leaf_pos:
                return TruthTable.variable(variables, variables[leaf_pos[n]])
            hit = cache.get(n)
            if hit is not None:
                return hit
            if not self.is_and(n):
                raise ValueError(f"cone of node {node} escapes the cut at node {n}")
            a, b = self.fanins(n)
            ta = walk(lit_node(a))
            if lit_phase(a):
                ta = ~ta
            tb = walk(lit_node(b))
            if lit_phase(b):
                tb = ~tb
            result = ta & tb
            cache[n] = result
            return result

        return walk(node)

    def cone_word(self, node: int, leaves: Sequence[int]) -> int:
        """Function of ``node`` over at most six cut ``leaves``, as one word.

        The word is the truth table that :meth:`cone_truthtable` computes,
        built from the projection words of :data:`PROJECTIONS` with
        integer ``&`` and ``^`` instead of :class:`TruthTable` objects.
        """
        if len(leaves) > len(PROJECTIONS):
            raise ValueError(f"at most {len(PROJECTIONS)} leaves, got {len(leaves)}")
        full = (1 << (1 << len(leaves))) - 1
        words = {leaf: PROJECTIONS[j] & full for j, leaf in enumerate(leaves)}
        fanins = self._fanins

        def walk(n: int) -> int:
            word = words.get(n)
            if word is not None:
                return word
            fanin = fanins[n]
            if fanin is None:
                raise ValueError(f"cone of node {node} escapes the cut at node {n}")
            a, b = fanin
            word = walk(a >> 1)
            if a & 1:
                word ^= full
            other = walk(b >> 1)
            if b & 1:
                other ^= full
            word &= other
            words[n] = word
            return word

        return walk(node)

    # Convenience: mimic the Circuit/LogicNetwork evaluation interface.
    @property
    def inputs(self) -> Tuple[str, ...]:
        return self.pi_names

    @property
    def outputs(self) -> Tuple[str, ...]:
        return tuple(name for name, _ in self._pos)


class _LitOps:
    """Adapter giving AIG literals the operator protocol Expr expects."""

    __slots__ = ("aig", "lit")

    def __init__(self, aig: AIG, lit: int):
        self.aig = aig
        self.lit = lit

    def __and__(self, other):
        return _LitOps(self.aig, self.aig.and_(self.lit, other.lit))

    def __or__(self, other):
        return _LitOps(self.aig, self.aig.or_(self.lit, other.lit))

    def __xor__(self, other):
        return _LitOps(self.aig, self.aig.xor_(self.lit, other.lit))

    def __invert__(self):
        return _LitOps(self.aig, lit_not(self.lit))


def aig_from_logic_network(network: LogicNetwork, factored: bool = True) -> AIG:
    """Build the subject graph of a logic network.

    Each node's cover is minimised (two-level,
    :func:`repro.synth.espresso.minimize_cover`) and, when ``factored``,
    algebraically factored (:func:`repro.synth.factoring.factor_to_expr`)
    before being folded into the AIG with structural hashing — factored
    forms share literals, which shrinks the subject graph and hence the
    mapped netlist.
    """
    from .espresso import minimize_cover
    from .factoring import factor_to_expr

    network.validate()
    aig = AIG()
    lits: Dict[str, int] = {}
    for name in network.inputs:
        lits[name] = aig.add_pi(name)
    for node in network.topological_nodes():
        cover = minimize_cover(
            [c.pattern for c in node.cubes], len(node.inputs)
        )
        if factored and len(cover) >= 2:
            expr = factor_to_expr(cover, node.inputs)
        else:
            expr = cover_to_expr(cover, node.inputs)
        env = {name: _LitOps(aig, lits[name]) for name in node.inputs}
        value = expr.evaluate(env)
        if isinstance(value, bool):
            lit = CONST1 if value else CONST0
        else:
            lit = value.lit
        if not node.phase:
            lit = lit_not(lit)
        lits[node.name] = lit
    for name in network.outputs:
        aig.add_po(name, lits[name])
    return aig

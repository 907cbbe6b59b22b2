"""A reduced ordered binary decision diagram (ROBDD) package.

Gate-local computations in the power model use dense truth tables; this
BDD engine is the *exact* companion used at circuit level: it builds
global functions of the primary inputs (reconvergent fanout handled
exactly), computes signal probabilities, Boolean differences and hence
exact Najm transition densities for cross-checking the fast local
propagators.

Nodes are integers into flat arrays; :class:`Func` wraps a node id with
its manager so ``&``, ``|``, ``^``, ``~`` work and expression trees can
be folded directly over BDD operands.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Optional, Tuple

__all__ = ["BDD", "Func"]


class Func:
    """A Boolean function handle: a node id bound to its :class:`BDD` manager."""

    __slots__ = ("bdd", "node")

    def __init__(self, bdd: "BDD", node: int):
        self.bdd = bdd
        self.node = node

    def _coerce(self, other) -> "Func":
        if isinstance(other, Func):
            if other.bdd is not self.bdd:
                raise ValueError("operands belong to different BDD managers")
            return other
        if isinstance(other, bool):
            return self.bdd.true if other else self.bdd.false
        raise TypeError(f"cannot combine BDD function with {type(other).__name__}")

    def __and__(self, other):
        other = self._coerce(other)
        return Func(self.bdd, self.bdd._apply("and", self.node, other.node))

    __rand__ = __and__

    def __or__(self, other):
        other = self._coerce(other)
        return Func(self.bdd, self.bdd._apply("or", self.node, other.node))

    __ror__ = __or__

    def __xor__(self, other):
        other = self._coerce(other)
        return Func(self.bdd, self.bdd._apply("xor", self.node, other.node))

    __rxor__ = __xor__

    def __invert__(self):
        return Func(self.bdd, self.bdd._negate(self.node))

    def __eq__(self, other) -> bool:
        return isinstance(other, Func) and other.bdd is self.bdd and other.node == self.node

    def __hash__(self) -> int:
        return hash((id(self.bdd), self.node))

    def __repr__(self) -> str:
        return f"Func(node={self.node}, support={self.support()})"

    # Convenience pass-throughs -----------------------------------------
    def is_false(self) -> bool:
        return self.node == BDD.FALSE

    def is_true(self) -> bool:
        return self.node == BDD.TRUE

    def cofactor(self, name: str, value: bool) -> "Func":
        return Func(self.bdd, self.bdd.restrict(self.node, name, value))

    def boolean_difference(self, name: str) -> "Func":
        return self.cofactor(name, True) ^ self.cofactor(name, False)

    def probability(self, probs: Mapping[str, float]) -> float:
        return self.bdd.probability(self.node, probs)

    def support(self) -> Tuple[str, ...]:
        return self.bdd.support(self.node)

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        return self.bdd.evaluate(self.node, assignment)

    def sat_count(self, nvars: Optional[int] = None) -> int:
        return self.bdd.sat_count(self.node, nvars)


class BDD:
    """ROBDD manager with a unique table and memoised apply/negate/probability."""

    FALSE = 0
    TRUE = 1

    def __init__(self, var_order: Iterable[str] = ()):  # noqa: D107
        self._level: List[int] = [2**31, 2**31]  # terminals sit below every variable
        self._low: List[int] = [0, 1]
        self._high: List[int] = [0, 1]
        self._unique: Dict[Tuple[int, int, int], int] = {}
        self._apply_cache: Dict[Tuple[str, int, int], int] = {}
        self._neg_cache: Dict[int, int] = {}
        self._var_names: List[str] = []
        self._var_level: Dict[str, int] = {}
        for name in var_order:
            self.add_var(name)

    # ------------------------------------------------------------------
    # Variables
    # ------------------------------------------------------------------
    def add_var(self, name: str) -> Func:
        """Declare (or fetch) a variable; new variables go at the bottom of the order."""
        if name not in self._var_level:
            self._var_level[name] = len(self._var_names)
            self._var_names.append(name)
        level = self._var_level[name]
        return Func(self, self._mk(level, self.FALSE, self.TRUE))

    def var(self, name: str) -> Func:
        """Fetch an existing variable's function."""
        if name not in self._var_level:
            raise KeyError(f"unknown BDD variable {name!r}")
        return Func(self, self._mk(self._var_level[name], self.FALSE, self.TRUE))

    @property
    def false(self) -> Func:
        return Func(self, self.FALSE)

    @property
    def true(self) -> Func:
        return Func(self, self.TRUE)

    def size(self) -> int:
        """Number of live nodes (including the two terminals)."""
        return len(self._level)

    # ------------------------------------------------------------------
    # Core construction
    # ------------------------------------------------------------------
    def _mk(self, level: int, low: int, high: int) -> int:
        if low == high:
            return low
        key = (level, low, high)
        node = self._unique.get(key)
        if node is None:
            node = len(self._level)
            self._level.append(level)
            self._low.append(low)
            self._high.append(high)
            self._unique[key] = node
        return node

    def _apply(self, op: str, f: int, g: int) -> int:
        if op == "and":
            if f == self.FALSE or g == self.FALSE:
                return self.FALSE
            if f == self.TRUE:
                return g
            if g == self.TRUE or f == g:
                return f
        elif op == "or":
            if f == self.TRUE or g == self.TRUE:
                return self.TRUE
            if f == self.FALSE:
                return g
            if g == self.FALSE or f == g:
                return f
        elif op == "xor":
            if f == g:
                return self.FALSE
            if f == self.FALSE:
                return g
            if g == self.FALSE:
                return f
            if f == self.TRUE:
                return self._negate(g)
            if g == self.TRUE:
                return self._negate(f)
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown op {op!r}")
        if op in ("and", "or", "xor") and g < f:
            f, g = g, f  # commutative: canonicalise the cache key
        key = (op, f, g)
        cached = self._apply_cache.get(key)
        if cached is not None:
            return cached
        lf, lg = self._level[f], self._level[g]
        top = min(lf, lg)
        f0, f1 = (self._low[f], self._high[f]) if lf == top else (f, f)
        g0, g1 = (self._low[g], self._high[g]) if lg == top else (g, g)
        result = self._mk(top, self._apply(op, f0, g0), self._apply(op, f1, g1))
        self._apply_cache[key] = result
        return result

    def _negate(self, f: int) -> int:
        if f == self.FALSE:
            return self.TRUE
        if f == self.TRUE:
            return self.FALSE
        cached = self._neg_cache.get(f)
        if cached is not None:
            return cached
        result = self._mk(self._level[f], self._negate(self._low[f]), self._negate(self._high[f]))
        self._neg_cache[f] = result
        return result

    def ite(self, f: Func, g: Func, h: Func) -> Func:
        """If-then-else: ``f & g | ~f & h``."""
        return (f & g) | (~f & h)

    # ------------------------------------------------------------------
    # Analysis
    # ------------------------------------------------------------------
    def restrict(self, f: int, name: str, value: bool) -> int:
        """Cofactor node ``f`` with variable ``name`` fixed to ``value``."""
        level = self._var_level.get(name)
        if level is None:
            raise KeyError(f"unknown BDD variable {name!r}")
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            nl = self._level[node]
            if nl > level:
                return node
            hit = cache.get(node)
            if hit is not None:
                return hit
            if nl == level:
                result = self._high[node] if value else self._low[node]
            else:
                result = self._mk(nl, walk(self._low[node]), walk(self._high[node]))
            cache[node] = result
            return result

        return walk(f)

    def exists(self, f: Func, names: Iterable[str]) -> Func:
        """Existential quantification over ``names``."""
        node = f.node
        for name in names:
            node = self._apply(
                "or", self.restrict(node, name, False), self.restrict(node, name, True)
            )
        return Func(self, node)

    def support(self, f: int) -> Tuple[str, ...]:
        """Variables the function depends on, in variable order."""
        levels = set()
        seen = set()
        stack = [f]
        while stack:
            node = stack.pop()
            if node in seen or node <= self.TRUE:
                continue
            seen.add(node)
            levels.add(self._level[node])
            stack.append(self._low[node])
            stack.append(self._high[node])
        return tuple(self._var_names[lv] for lv in sorted(levels))

    def evaluate(self, f: int, assignment: Mapping[str, bool]) -> bool:
        node = f
        while node > self.TRUE:
            name = self._var_names[self._level[node]]
            node = self._high[node] if assignment[name] else self._low[node]
        return node == self.TRUE

    def probability(self, f: int, probs: Mapping[str, float]) -> float:
        """``P(f = 1)`` for independent variables with given one-probabilities."""
        cache: Dict[int, float] = {self.FALSE: 0.0, self.TRUE: 1.0}

        def walk(node: int) -> float:
            hit = cache.get(node)
            if hit is not None:
                return hit
            p = float(probs[self._var_names[self._level[node]]])
            result = p * walk(self._high[node]) + (1.0 - p) * walk(self._low[node])
            cache[node] = result
            return result

        return walk(f)

    def sat_count(self, f: int, nvars: Optional[int] = None) -> int:
        """Number of satisfying assignments over the first ``nvars`` variables."""
        if nvars is None:
            nvars = len(self._var_names)
        cache: Dict[int, int] = {}

        def walk(node: int) -> int:
            if node == self.FALSE:
                return 0
            if node == self.TRUE:
                return 1 << nvars
            hit = cache.get(node)
            if hit is None:
                hit = (walk(self._low[node]) + walk(self._high[node])) // 2
                cache[node] = hit
            return hit

        return walk(f)

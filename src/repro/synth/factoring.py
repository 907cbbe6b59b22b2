"""Algebraic factoring: kernel extraction and factored forms.

SIS-style algebraic division over SOP covers treated as polynomials of
literals:

* :func:`divide` — weak (algebraic) division of a cover by a divisor;
* :func:`kernels` — all kernels (cube-free primary divisors) and their
  co-kernels, by the classic recursive literal-division algorithm;
* :func:`factor` — quick-factor: recursively divide by the best kernel,
  producing a factored expression tree.

Feeding factored forms (instead of flat OR-of-AND trees) into the AIG
builder shares more structure and maps to smaller netlists; the mapper
uses it through :func:`repro.synth.aig.aig_from_logic_network` when the
cover is large.  Covers here are sets of frozensets of literals, where
a literal is ``(name, polarity)``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from ..boolean.expr import And, Const, Expr, Not, Or, Var

__all__ = ["Cube", "Cover", "cover_from_patterns", "divide", "kernels", "factor",
           "factor_to_expr"]

#: A literal: (variable name, True for positive polarity).
Literal = Tuple[str, bool]
Cube = FrozenSet[Literal]
Cover = FrozenSet[Cube]


def cover_from_patterns(patterns: Sequence[str], inputs: Sequence[str]) -> Cover:
    """Build an algebraic cover from BLIF-style patterns."""
    cubes: Set[Cube] = set()
    for pattern in patterns:
        if len(pattern) != len(inputs):
            raise ValueError(f"pattern {pattern!r} arity != {len(inputs)}")
        literals: Set[Literal] = set()
        for char, name in zip(pattern, inputs):
            if char == "1":
                literals.add((name, True))
            elif char == "0":
                literals.add((name, False))
        cubes.add(frozenset(literals))
    return frozenset(cubes)


def divide(cover: Cover, divisor: Cover) -> Tuple[Cover, Cover]:
    """Weak division: ``cover = quotient * divisor + remainder``.

    The quotient is the largest cover Q with ``Q x divisor`` contained
    in ``cover`` (algebraically, i.e. cube-by-cube concatenation).
    """
    if not divisor:
        raise ValueError("division by the empty cover")
    quotients: Optional[Set[Cube]] = None
    for d_cube in divisor:
        partial = set()
        for c_cube in cover:
            if d_cube <= c_cube:
                partial.add(frozenset(c_cube - d_cube))
        if quotients is None:
            quotients = partial
        else:
            quotients &= partial
        if not quotients:
            return frozenset(), cover
    quotient = frozenset(quotients or set())
    used = {
        frozenset(q | d) for q in quotient for d in divisor
    }
    remainder = frozenset(c for c in cover if c not in used)
    return quotient, remainder


def _literal_counts(cover: Cover) -> Dict[Literal, int]:
    counts: Dict[Literal, int] = {}
    for cube in cover:
        for lit in cube:
            counts[lit] = counts.get(lit, 0) + 1
    return counts


def is_cube_free(cover: Cover) -> bool:
    if not cover:
        return True
    common = None
    for cube in cover:
        common = set(cube) if common is None else common & cube
    return not common


def kernels(cover: Cover) -> List[Tuple[Cube, Cover]]:
    """All (co-kernel, kernel) pairs of an algebraic cover.

    The kernel set includes the cover itself when it is cube-free (the
    level-0 trivial kernel).  Deterministic order.
    """
    found: Dict[Cover, Cube] = {}

    def visit(current: Cover, picked: Set[Literal], start_index: int,
              literal_order: List[Literal]) -> None:
        counts = _literal_counts(current)
        for index in range(start_index, len(literal_order)):
            literal = literal_order[index]
            if counts.get(literal, 0) < 2:
                continue
            sub = frozenset(
                frozenset(c - {literal}) for c in current if literal in c
            )
            common: Optional[Set[Literal]] = None
            for cube in sub:
                common = set(cube) if common is None else common & cube
            common = common or set()
            kernel = frozenset(frozenset(c - common) for c in sub)
            co_kernel = frozenset(picked | {literal} | common)
            if kernel not in found:
                found[kernel] = co_kernel
                visit(kernel, set(co_kernel), index + 1, literal_order)

    literal_order = sorted(_literal_counts(cover))
    visit(cover, set(), 0, literal_order)
    if is_cube_free(cover) and cover not in found:
        found[cover] = frozenset()
    return sorted(
        ((co, k) for k, co in found.items()),
        key=lambda pair: (sorted(map(sorted, pair[1])), sorted(pair[0])),
    )


def _best_kernel(cover: Cover) -> Optional[Cover]:
    """The kernel maximising literal savings (None when none helps)."""
    best = None
    best_value = 0
    for _, kernel in kernels(cover):
        if len(kernel) < 2 or kernel == cover:
            continue
        quotient, _ = divide(cover, kernel)
        if not quotient:
            continue
        kernel_lits = sum(len(c) for c in kernel)
        value = (len(quotient) - 1) * kernel_lits
        if value > best_value:
            best_value = value
            best = kernel
    return best


def _cube_expr(cube: Cube) -> Expr:
    literals = sorted(cube)
    parts: List[Expr] = [
        Var(name) if positive else Not(Var(name)) for name, positive in literals
    ]
    if not parts:
        return Const(True)
    return parts[0] if len(parts) == 1 else And(tuple(parts))


def _sum_expr(cover: Cover) -> Expr:
    cubes = sorted(cover, key=lambda c: sorted(c))
    if not cubes:
        return Const(False)
    parts = [_cube_expr(c) for c in cubes]
    return parts[0] if len(parts) == 1 else Or(tuple(parts))


def factor(cover: Cover) -> Expr:
    """Quick-factor: recursively pull out the most valuable kernel."""
    if not cover:
        return Const(False)
    if len(cover) == 1:
        return _cube_expr(next(iter(cover)))
    kernel = _best_kernel(cover)
    if kernel is None:
        return _sum_expr(cover)
    quotient, remainder = divide(cover, kernel)
    if not quotient:
        return _sum_expr(cover)
    product = And((factor(quotient), factor(kernel)))
    if not remainder:
        return product
    return Or((product, factor(remainder)))


def factor_to_expr(patterns: Sequence[str], inputs: Sequence[str]) -> Expr:
    """Factored expression of a BLIF cover (algebraically equivalent)."""
    if not patterns:
        return Const(False)
    if any(set(pattern) <= {"-"} for pattern in patterns):
        return Const(True)  # the universal cube covers everything
    return factor(cover_from_patterns(patterns, inputs))

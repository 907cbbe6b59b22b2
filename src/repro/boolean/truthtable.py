"""Bit-parallel truth tables for small Boolean functions.

Library gates have at most six inputs, so every gate-local Boolean
computation in the power model (the path functions ``H``/``G``, their
Boolean differences, signal probabilities) runs on truth tables packed
into a single Python integer.  Minterm ``i`` assigns variable ``j`` the
value ``(i >> j) & 1``; bit ``i`` of :attr:`TruthTable.bits` is the
function value on that minterm.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Sequence, Tuple

import numpy as np

__all__ = ["TruthTable", "MAX_VARS"]

#: Safety bound: tables are dense in ``2**n``, so cap the variable count.
MAX_VARS = 20

_MINTERM_CACHE: Dict[int, np.ndarray] = {}


def _minterm_matrix(nvars: int) -> np.ndarray:
    """Return a ``(2**nvars, nvars)`` 0/1 matrix of variable values per minterm."""
    mat = _MINTERM_CACHE.get(nvars)
    if mat is None:
        idx = np.arange(1 << nvars, dtype=np.uint32)
        mat = (idx[:, None] >> np.arange(nvars, dtype=np.uint32)[None, :]) & 1
        _MINTERM_CACHE[nvars] = mat
    return mat


class TruthTable:
    """An immutable Boolean function over an ordered tuple of named variables."""

    __slots__ = ("vars", "bits")

    def __init__(self, variables: Sequence[str], bits: int):
        variables = tuple(variables)
        if len(variables) > MAX_VARS:
            raise ValueError(f"too many variables for a dense truth table: {len(variables)}")
        if len(set(variables)) != len(variables):
            raise ValueError(f"duplicate variable names: {variables}")
        mask = (1 << (1 << len(variables))) - 1
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "bits", bits & mask)

    def __setattr__(self, name, value):  # pragma: no cover - immutability guard
        raise AttributeError("TruthTable is immutable")

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def constant(cls, variables: Sequence[str], value: bool) -> "TruthTable":
        """The constant 0 or constant 1 function over ``variables``."""
        n = 1 << len(tuple(variables))
        return cls(variables, (1 << n) - 1 if value else 0)

    @classmethod
    def variable(cls, variables: Sequence[str], name: str) -> "TruthTable":
        """The projection function of variable ``name``."""
        variables = tuple(variables)
        j = variables.index(name)
        n = len(variables)
        bits = 0
        # Pattern of variable j: blocks of 2**j ones alternating with zeros.
        block = (1 << (1 << j)) - 1
        period = 1 << (j + 1)
        for start in range(1 << j, 1 << n, period):
            bits |= block << start
        return cls(variables, bits)

    @classmethod
    def from_function(cls, variables: Sequence[str], fn) -> "TruthTable":
        """Build a table by evaluating ``fn(assignment_dict) -> bool`` on all minterms."""
        variables = tuple(variables)
        bits = 0
        for i in range(1 << len(variables)):
            assignment = {v: bool((i >> j) & 1) for j, v in enumerate(variables)}
            if fn(assignment):
                bits |= 1 << i
        return cls(variables, bits)

    # ------------------------------------------------------------------
    # Logical connectives
    # ------------------------------------------------------------------
    def _check_aligned(self, other: "TruthTable") -> None:
        if self.vars != other.vars:
            raise ValueError(f"variable mismatch: {self.vars} vs {other.vars}")

    def __invert__(self) -> "TruthTable":
        return TruthTable(self.vars, ~self.bits)

    def __and__(self, other: "TruthTable") -> "TruthTable":
        self._check_aligned(other)
        return TruthTable(self.vars, self.bits & other.bits)

    def __or__(self, other: "TruthTable") -> "TruthTable":
        self._check_aligned(other)
        return TruthTable(self.vars, self.bits | other.bits)

    def __xor__(self, other: "TruthTable") -> "TruthTable":
        self._check_aligned(other)
        return TruthTable(self.vars, self.bits ^ other.bits)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TruthTable)
            and self.vars == other.vars
            and self.bits == other.bits
        )

    def __hash__(self) -> int:
        return hash((self.vars, self.bits))

    def __repr__(self) -> str:
        n = 1 << len(self.vars)
        return f"TruthTable(vars={self.vars}, bits=0b{self.bits:0{n}b})"

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def nvars(self) -> int:
        return len(self.vars)

    def is_constant(self) -> bool:
        """True when the function does not depend on any variable."""
        n = 1 << len(self.vars)
        return self.bits == 0 or self.bits == (1 << n) - 1

    def constant_value(self) -> bool:
        """Value of a constant function (raises if not constant)."""
        if not self.is_constant():
            raise ValueError("function is not constant")
        return self.bits != 0

    def evaluate(self, assignment: Mapping[str, bool]) -> bool:
        """Evaluate on a full assignment of the variables."""
        i = 0
        for j, v in enumerate(self.vars):
            if assignment[v]:
                i |= 1 << j
        return bool((self.bits >> i) & 1)

    def evaluate_index(self, minterm: int) -> bool:
        """Evaluate on a minterm index (bit ``j`` = value of ``vars[j]``)."""
        return bool((self.bits >> minterm) & 1)

    def cofactor(self, name: str, value: bool) -> "TruthTable":
        """Shannon cofactor with respect to one variable (variable list kept)."""
        j = self.vars.index(name)
        var_bits = TruthTable.variable(self.vars, name).bits
        keep = var_bits if value else ~var_bits
        shift = 1 << j
        selected = self.bits & keep
        if value:
            spread = selected | (selected >> shift)
        else:
            spread = selected | (selected << shift)
        n = 1 << len(self.vars)
        return TruthTable(self.vars, spread & ((1 << n) - 1))

    def boolean_difference(self, name: str) -> "TruthTable":
        """Najm's Boolean difference ``f|x=1 XOR f|x=0`` with respect to ``name``."""
        return self.cofactor(name, True) ^ self.cofactor(name, False)

    def depends_on(self, name: str) -> bool:
        """True when the function depends essentially on variable ``name``."""
        return self.boolean_difference(name).bits != 0

    def support(self) -> Tuple[str, ...]:
        """The essential variables of the function, in declaration order."""
        return tuple(v for v in self.vars if self.depends_on(v))

    def count_minterms(self) -> int:
        """Number of satisfying assignments."""
        return bin(self.bits).count("1")

    def minterms(self) -> Iterable[int]:
        """Iterate indices of satisfying minterms."""
        bits = self.bits
        i = 0
        while bits:
            if bits & 1:
                yield i
            bits >>= 1
            i += 1

    # ------------------------------------------------------------------
    # Variable manipulation
    # ------------------------------------------------------------------
    def expand(self, variables: Sequence[str]) -> "TruthTable":
        """Re-express the function over a superset/reordering of its variables."""
        variables = tuple(variables)
        missing = [v for v in self.vars if v not in variables and self.depends_on(v)]
        if missing:
            raise ValueError(f"cannot drop essential variables {missing}")
        if variables == self.vars:
            return self
        n_new = len(variables)
        old_pos = {v: j for j, v in enumerate(self.vars)}
        mat = _minterm_matrix(n_new)
        # Map each new minterm to the old minterm index it corresponds to.
        old_index = np.zeros(1 << n_new, dtype=np.uint64)
        for new_j, v in enumerate(variables):
            if v in old_pos:
                old_index |= mat[:, new_j].astype(np.uint64) << np.uint64(old_pos[v])
        new_bits = 0
        for i, oi in enumerate(old_index.tolist()):
            if (self.bits >> oi) & 1:
                new_bits |= 1 << i
        return TruthTable(variables, new_bits)

    def rename(self, mapping: Mapping[str, str]) -> "TruthTable":
        """Rename variables (must stay unique)."""
        return TruthTable(tuple(mapping.get(v, v) for v in self.vars), self.bits)

    def permute(self, permutation: Sequence[int]) -> "TruthTable":
        """Reorder variables: ``vars[new_j] = old_vars[permutation[new_j]]``."""
        new_vars = tuple(self.vars[p] for p in permutation)
        return self.expand(new_vars)

    # ------------------------------------------------------------------
    # Probability
    # ------------------------------------------------------------------
    def probability(self, probs: Mapping[str, float]) -> float:
        """Signal probability ``P(f = 1)`` under spatially independent inputs.

        ``probs`` maps each variable name to its equilibrium probability.
        Variables the function does not mention still participate (their
        weights sum out to 1), so only names missing from ``probs`` raise.

        The masked sum folds the selected minterm weights left to right
        in ascending minterm order, as the compiled kernels do.
        """
        n = len(self.vars)
        if n == 0 or self.is_constant():
            return 1.0 if self.bits else 0.0
        p = np.array([float(probs[v]) for v in self.vars])
        if np.any((p < 0.0) | (p > 1.0)):
            raise ValueError("probabilities must lie in [0, 1]")
        mat = _minterm_matrix(n)
        weights = np.prod(np.where(mat == 1, p[None, :], 1.0 - p[None, :]), axis=1)
        idx = np.frombuffer(
            self.bits.to_bytes((1 << n) // 8 if n >= 3 else 1, "little"), dtype=np.uint8
        )
        sel = np.unpackbits(idx, bitorder="little")[: 1 << n].astype(bool)
        return float(min(1.0, max(0.0, np.cumsum(weights[sel])[-1])))

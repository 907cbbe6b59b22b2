"""The standard-cell library of the paper's Table 2.

Seventeen static CMOS gates (inverter, NANDs, NORs, AOIs, OAIs), each
described by its pull-down conduction expression over canonical pin
names ``a..f``.  All configurations of a gate have the same area — the
paper's observation that reordering is area-neutral — because they use
the same transistors.

:func:`default_library` builds the Table 2 library; per-configuration
compilation results are cached process-wide since every instance of a
gate shares them.
"""

from __future__ import annotations

import string
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..boolean.expr import Not, parse_expr
from ..boolean.truthtable import TruthTable
from . import sptree
from .network import CompiledGate, TransistorNetwork
from .sptree import SPTree

__all__ = ["GateConfig", "GateTemplate", "GateLibrary", "default_library", "TABLE2_GATES"]


@dataclass(frozen=True)
class GateConfig:
    """One transistor ordering of a gate: an ordered (PDN, PUN) tree pair."""

    pdn: SPTree
    pun: SPTree

    def key(self) -> tuple:
        """Hashable order-sensitive identity (memoised — hot-path lookup)."""
        cached = getattr(self, "_key", None)
        if cached is None:
            cached = (sptree._ordered_key(self.pdn),
                      sptree._ordered_key(self.pun))
            object.__setattr__(self, "_key", cached)
        return cached

    def __str__(self) -> str:
        return f"pdn={self.pdn} pun={self.pun}"


_COMPILE_CACHE: Dict[tuple, CompiledGate] = {}


def _compile_config(config: GateConfig, inputs: Tuple[str, ...]) -> CompiledGate:
    cache_key = (config.key(), inputs)
    compiled = _COMPILE_CACHE.get(cache_key)
    if compiled is None:
        compiled = CompiledGate(TransistorNetwork(config.pdn, config.pun, inputs))
        _COMPILE_CACHE[cache_key] = compiled
    return compiled


@dataclass(frozen=True)
class GateTemplate:
    """A library cell: logic function plus series-parallel topology."""

    name: str
    pdn_expr: str
    pins: Tuple[str, ...] = ()

    def __post_init__(self):
        pdn = sptree.canonical(sptree.from_expr(parse_expr(self.pdn_expr)))
        signals = sptree.leaves(pdn)
        if len(set(signals)) != len(signals):
            raise ValueError(f"{self.name}: repeated input signal in PDN {pdn}")
        pins = self.pins or tuple(sorted(set(signals)))
        if set(pins) != set(signals):
            raise ValueError(f"{self.name}: pins {pins} do not match PDN signals")
        object.__setattr__(self, "pins", pins)
        object.__setattr__(self, "_pdn", pdn)
        object.__setattr__(self, "_transistors",
                           2 * sptree.transistor_count(pdn))

    # ------------------------------------------------------------------
    @property
    def pdn(self) -> SPTree:
        """Canonical pull-down SP tree."""
        return self._pdn  # type: ignore[attr-defined]

    @property
    def num_inputs(self) -> int:
        return len(self.pins)

    @property
    def num_transistors(self) -> int:
        """Total device count (N plus P)."""
        return self._transistors  # type: ignore[attr-defined]

    @property
    def area(self) -> float:
        """Area proxy: the transistor count (identical across configurations)."""
        return float(self.num_transistors)

    def function(self) -> TruthTable:
        """Logic function of the output (complement of the PDN conduction)."""
        return Not(sptree.to_expr(self.pdn, "n")).to_truthtable(self.pins)

    def default_config(self) -> GateConfig:
        """The as-mapped configuration: canonical PDN and its dual PUN.

        Memoised (the template is frozen): every call returns the same
        object, so its memoised :meth:`GateConfig.key` is derived once.
        """
        cached = getattr(self, "_default_config", None)
        if cached is None:
            cached = GateConfig(self.pdn, sptree.dual(self.pdn))
            object.__setattr__(self, "_default_config", cached)
        return cached

    def num_configurations(self) -> int:
        """Table 2's #C column: distinct orderings of PDN × PUN (memoised)."""
        cached = getattr(self, "_num_configurations", None)
        if cached is None:
            cached = (sptree.num_orderings(self.pdn)
                      * sptree.num_orderings(sptree.dual(self.pdn)))
            object.__setattr__(self, "_num_configurations", cached)
        return cached

    def configurations(self) -> List[GateConfig]:
        """Every distinct transistor ordering (brute-force enumeration).

        Memoised (the template is frozen) as a tuple of the same
        :class:`GateConfig` objects, so their memoised keys are derived
        once; each call returns a fresh list the caller may mutate.
        """
        cached = getattr(self, "_configurations", None)
        if cached is None:
            pdns = list(sptree.enumerate_orderings(self.pdn))
            puns = list(sptree.enumerate_orderings(sptree.dual(self.pdn)))
            cached = tuple(GateConfig(p, q) for p in pdns for q in puns)
            object.__setattr__(self, "_configurations", cached)
        return list(cached)

    def config_index(self, config: GateConfig) -> Optional[int]:
        """Position of ``config`` in :meth:`configurations`, or ``None``.

        ``None`` means ``config`` is not an ordering of this template.
        The key-to-position map is memoised (the template is frozen),
        so the lookup is O(1) on the edit path.
        """
        positions = getattr(self, "_config_positions", None)
        if positions is None:
            positions = {c.key(): i for i, c in enumerate(self.configurations())}
            object.__setattr__(self, "_config_positions", positions)
        return positions.get(config.key())

    def compile_config(self, config: Optional[GateConfig] = None) -> CompiledGate:
        """Compile (with caching) a configuration of this gate."""
        if config is None:
            config = self.default_config()
        return _compile_config(config, self.pins)

    def __str__(self) -> str:
        return f"{self.name}({', '.join(self.pins)})"


class GateLibrary:
    """A named collection of gate templates with function lookup for mapping."""

    def __init__(self, templates: Sequence[GateTemplate] = ()):
        self._templates: Dict[str, GateTemplate] = {}
        for t in templates:
            self.add(t)

    def add(self, template: GateTemplate) -> None:
        if template.name in self._templates:
            raise ValueError(f"duplicate gate name {template.name!r}")
        self._templates[template.name] = template

    def __getitem__(self, name: str) -> GateTemplate:
        template = self._templates.get(name)
        if template is None:
            # Deferred import: circuit.netlist imports this module, so
            # the error type cannot be imported at module level.
            from ..circuit.netlist import CircuitError

            raise CircuitError(
                f"unknown template {name!r}; available: "
                f"{', '.join(self._templates)}"
            )
        return template

    def __contains__(self, name: str) -> bool:
        return name in self._templates

    def __iter__(self) -> Iterator[GateTemplate]:
        return iter(self._templates.values())

    def __len__(self) -> int:
        return len(self._templates)

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self._templates)

    def max_inputs(self) -> int:
        return max(t.num_inputs for t in self)

    def configuration_table(self) -> List[Tuple[str, int]]:
        """(gate, #configurations) rows — regenerates the paper's Table 2."""
        return [(t.name, t.num_configurations()) for t in self]


def _pins(n: int) -> Tuple[str, ...]:
    return tuple(string.ascii_lowercase[:n])


#: name -> (pull-down expression, pin tuple); the paper's Table 2 plus the
#: nand4/nor2 companions needed for a complete 1–4 input NAND/NOR family.
TABLE2_GATES: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "inv": ("a", _pins(1)),
    "nand2": ("a & b", _pins(2)),
    "nand3": ("a & b & c", _pins(3)),
    "nand4": ("a & b & c & d", _pins(4)),
    "nor2": ("a | b", _pins(2)),
    "nor3": ("a | b | c", _pins(3)),
    "nor4": ("a | b | c | d", _pins(4)),
    "aoi21": ("(a & b) | c", _pins(3)),
    "aoi22": ("(a & b) | (c & d)", _pins(4)),
    "aoi211": ("(a & b) | c | d", _pins(4)),
    "aoi221": ("(a & b) | (c & d) | e", _pins(5)),
    "aoi222": ("(a & b) | (c & d) | (e & f)", _pins(6)),
    "oai21": ("(a | b) & c", _pins(3)),
    "oai22": ("(a | b) & (c | d)", _pins(4)),
    "oai211": ("(a | b) & c & d", _pins(4)),
    "oai221": ("(a | b) & (c | d) & e", _pins(5)),
    "oai222": ("(a | b) & (c | d) & (e | f)", _pins(6)),
}


def default_library() -> GateLibrary:
    """The Table 2 gate library used throughout the reproduction."""
    return GateLibrary(
        [GateTemplate(name, expr, pins) for name, (expr, pins) in TABLE2_GATES.items()]
    )

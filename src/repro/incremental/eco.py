"""What-if trials and the scripted ECO edit vocabulary.

:class:`WhatIf` wraps a :class:`~repro.incremental.cache.StatsCache`:
edits applied through it are trial edits — read the delta power, then
either :meth:`~WhatIf.commit` or let the ``with`` block roll everything
back.  Rollback replays the recorded inverse edits in reverse order
through the same dirty-cone machinery, so the cache lands back on
bit-identical statistics and power (cone-sized work both ways).

The module also defines the JSON edit-script vocabulary of the
``repro eco`` CLI subcommand::

    [{"op": "reorder",       "gate": "g3", "config": 2},
     {"op": "retemplate",    "gate": "g7", "template": "nor2", "config": 0},
     {"op": "input-stats",   "net": "a", "probability": 0.3, "density": 2e5},
     {"op": "input-arrival", "net": "a", "arrival": 2.0e-10},
     {"op": "add-gate",      "gate": "b0", "template": "inv",
      "pins": {"a": "n3"}, "output": "n3_buf"},
     {"op": "remove-gate",   "gate": "g9"},
     {"op": "rewire",        "gate": "g7", "pin": "b", "net": "n3_buf"}]

``"config"`` indexes the gate template's deterministic
:meth:`~repro.gates.library.GateTemplate.configurations` enumeration
(-1 = the template default); on ``"retemplate"`` and ``"add-gate"`` it
is optional (omitted = the template default).  Unknown keys in an
entry are rejected, not ignored — a typo must not silently change what
a script replays.  ``"input-arrival"`` is timing-side only: statistics
never see arrival times, so only the timing cache that ``repro eco``
keeps next to the statistics cache reacts to it.

The last three ops are the **structural** vocabulary (serialised forms
of :class:`~repro.circuit.netlist.AddGate` /
:class:`~repro.circuit.netlist.RemoveGate` /
:class:`~repro.circuit.netlist.RewireNet`).  Their invalidation rules:
an added or rewired gate dirties its (new) transitive fanout cone, a
removed gate's cached entries are purged, and the drivers of every net
whose external load changed (the added/removed gate's fanin nets; a
rewired pin's old and new net) go power- and timing-dirty.  Structural
edits rebuild the circuit's memoised fanout index / topological order,
and both caches re-read them; only backends with
``supports_structure`` (the analytic backend) accept them, and
:meth:`WhatIf.apply` refuses up front for the rest (the sampled
backend keeps per-net lane histories keyed to the old structure),
before anything mutates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Union

from ..circuit.netlist import (
    AddGate,
    Circuit,
    CircuitError,
    RemoveGate,
    RewireNet,
    SetConfig,
    SetTemplate,
    StructuralEdit,
    lookup_template,
)
from ..stochastic.signal import SignalStats
from .cache import StatsCache
from .timing import TimingCache

__all__ = [
    "InputStatsEdit",
    "InputArrivalEdit",
    "EcoEdit",
    "WhatIf",
    "resolve_edit",
    "resolve_edit_script",
    "script_edit_label",
]


@dataclass(frozen=True)
class InputStatsEdit:
    """Replace one primary input's (P, D) — a stimulus-side ECO."""

    net: str
    stats: SignalStats


@dataclass(frozen=True)
class InputArrivalEdit:
    """Replace one primary input's arrival time — a timing-side ECO.

    Only meaningful through a :class:`WhatIf` carrying a
    :class:`~repro.incremental.timing.TimingCache` (statistics do not
    depend on arrival times, so the stats cache never sees it).
    """

    net: str
    arrival: float


#: Everything :meth:`WhatIf.apply` and the eco CLI accept.
EcoEdit = Union[SetConfig, SetTemplate, AddGate, RemoveGate, RewireNet,
                InputStatsEdit, InputArrivalEdit]


class WhatIf:
    """Trial-apply edits against a cache; roll back unless committed.

    ::

        with WhatIf(cache) as trial:
            trial.apply(SetConfig("g3", config))
            if trial.delta_power() < 0.0:
                trial.commit()
        # not committed -> the circuit and cache are back to baseline

    Exception safety: a trial body that raises is **aborted** — the
    rollback runs even after :meth:`commit` was called, so no partial
    trial ever leaks into the circuit.

    Trials nest: an inner ``WhatIf`` on the same cache stacks on top of
    the outer one and must unwind in LIFO order (exiting the outer
    context while an inner trial is still open raises, before any
    out-of-order rollback can corrupt the circuit).  Committing an
    inner trial hands its undo log to the enclosing trial, so rolling
    the outer trial back still undoes the inner edits.

    Pass ``timing=`` (a :class:`~repro.incremental.timing.TimingCache`
    on the same circuit) to co-price delay: :meth:`delay` and
    :meth:`delta_delay` read it cone-sized, and rollback restores it
    for free — the timing cache listens to the same edit notifications
    the inverse edits emit, and recomputing a restored cone reproduces
    the baseline arrivals bit-for-bit (same kernel, same floats).
    Nesting and undo-log promotion need no extra machinery for the
    same reason; only :data:`InputArrivalEdit` goes through the
    timing cache directly (statistics never see arrival times).  An
    inner trial carrying ``timing=`` must share the enclosing trial's
    timing cache — committing it promotes the undo log outward, and a
    promoted ``InputArrivalEdit`` can only be rolled back through the
    cache that applied it (entering with a different one raises).
    """

    def __init__(self, cache: StatsCache, timing: Optional[TimingCache] = None):
        if timing is not None and timing.circuit is not cache.circuit:
            raise ValueError(
                "timing= must be a TimingCache on the cache's own circuit"
            )
        self.cache = cache
        self.timing = timing
        self._undo: List[EcoEdit] = []
        self._committed = False
        self._entered = False
        self.baseline_power = cache.total_power()
        self.baseline_delay = timing.delay() if timing is not None else None

    # ------------------------------------------------------------------
    def apply(self, edit: EcoEdit) -> None:
        """Apply one edit, recording its inverse for rollback."""
        if isinstance(edit, InputStatsEdit):
            old = self.cache.set_input_stats(edit.net, edit.stats)
            self._undo.append(InputStatsEdit(edit.net, old))
        elif isinstance(edit, InputArrivalEdit):
            if self.timing is None:
                raise TypeError(
                    "InputArrivalEdit needs a WhatIf constructed with timing="
                )
            old = self.timing.set_input_arrival(edit.net, edit.arrival)
            self._undo.append(InputArrivalEdit(edit.net, old))
        else:
            if (isinstance(edit, StructuralEdit)
                    and not getattr(self.cache.backend,
                                    "supports_structure", False)):
                # Refuse BEFORE the circuit mutates: the cache listener
                # would raise too, but only after apply_edit changed the
                # netlist, leaving circuit and cache out of sync.
                raise CircuitError(
                    f"cannot trial {script_edit_label(edit)!r}: the "
                    f"{self.cache.backend.name!r} backend does not support "
                    f"structural edits (use the analytic backend)"
                )
            self._undo.append(self.cache.circuit.apply_edit(edit))

    def power(self) -> float:
        """Current total modelled power (incrementally recomputed)."""
        return self.cache.total_power()

    def delta_power(self) -> float:
        """Power change of the trial edits so far versus the baseline."""
        return self.cache.total_power() - self.baseline_power

    def delay(self) -> float:
        """Current circuit delay (incrementally retimed); needs ``timing=``."""
        if self.timing is None:
            raise TypeError("delay() needs a WhatIf constructed with timing=")
        return self.timing.delay()

    def delta_delay(self) -> float:
        """Delay change of the trial edits so far versus the baseline."""
        return self.delay() - self.baseline_delay

    def commit(self) -> None:
        """Keep the applied edits; exiting the block will not roll back."""
        self._committed = True

    def rollback(self) -> None:
        """Undo all applied edits now (most recent first)."""
        while self._undo:
            edit = self._undo.pop()
            if isinstance(edit, InputStatsEdit):
                self.cache.set_input_stats(edit.net, edit.stats)
            elif isinstance(edit, InputArrivalEdit):
                self.timing.set_input_arrival(edit.net, edit.arrival)
            else:
                self.cache.circuit.apply_edit(edit)

    # ------------------------------------------------------------------
    def __enter__(self) -> "WhatIf":
        stack = self.cache.trial_stack
        if (stack and self.timing is not None
                and stack[-1].timing is not self.timing):
            # Committing this trial would promote its undo log — with
            # any InputArrivalEdit inverses — to a trial that cannot
            # replay them through the right timing cache.
            raise RuntimeError(
                "a nested WhatIf carrying timing= must share the enclosing "
                "trial's timing cache"
            )
        self._entered = True
        stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        stack = self.cache.trial_stack
        if self._entered:
            if not stack or stack[-1] is not self:
                # Out-of-order unwinding: rolling back now would replay
                # inverses over an inner trial's live edits and corrupt
                # the circuit.  Refuse loudly instead.
                raise RuntimeError(
                    "nested WhatIf contexts must unwind in LIFO order "
                    "(an inner trial on this cache is still open)"
                )
            stack.pop()
            self._entered = False
        if exc_type is not None:
            # The trial body raised: abort, even after commit() — a
            # partially executed trial must never leak into the circuit.
            self.rollback()
        elif not self._committed:
            self.rollback()
        elif stack:
            # Inner commit under an open outer trial: "keep" is relative
            # to the enclosing trial, which inherits the undo log so its
            # own rollback still restores the true baseline.
            stack[-1]._undo.extend(self._undo)
            self._undo.clear()


# ----------------------------------------------------------------------
# JSON edit scripts (the `repro eco` CLI)
# ----------------------------------------------------------------------
#: Exhaustive per-op key sets: a script entry carrying anything else is
#: rejected (a typo like "confg" must not silently replay differently).
_ENTRY_KEYS = {
    "reorder": frozenset({"op", "gate", "config"}),
    "retemplate": frozenset({"op", "gate", "template", "config"}),
    "input-stats": frozenset({"op", "net", "probability", "density"}),
    "input-arrival": frozenset({"op", "net", "arrival"}),
    "add-gate": frozenset({"op", "gate", "template", "pins", "output",
                           "config"}),
    "remove-gate": frozenset({"op", "gate"}),
    "rewire": frozenset({"op", "gate", "pin", "net"}),
}


def _config_from_index(template, index, label):
    """``template.configurations()[index]`` with -1 = default (None)."""
    index = int(index)
    if index == -1:
        return None
    configurations = template.configurations()
    if not 0 <= index < len(configurations):
        raise ValueError(
            f"{label}: config index {index} outside "
            f"0..{len(configurations) - 1}"
        )
    return configurations[index]


#: Entry fields that name a gate, net, cell or pin: JSON strings only.
_NAME_KEYS = ("gate", "net", "template", "pin", "output")


def _check_entry(circuit: Circuit, entry, where: str) -> None:
    """Reject a malformed script entry before anything resolves it."""
    if not isinstance(entry, Mapping):
        raise ValueError(f"{where}: expected a JSON object, got {entry!r}")
    op = entry.get("op")
    allowed = _ENTRY_KEYS.get(op)
    if allowed is None:
        raise ValueError(
            f"{where}: unknown edit op {op!r}; use one of "
            f"{', '.join(repr(k) for k in _ENTRY_KEYS)}"
        )
    unknown = sorted(set(entry) - allowed)
    if unknown:
        raise ValueError(
            f"{where}: {op} entry has unknown keys {unknown}; allowed: "
            f"{sorted(allowed)}"
        )
    # ``config`` is optional except on a reorder, where it is the edit.
    required = allowed if op == "reorder" else allowed - {"config"}
    missing = sorted(required - set(entry))
    if missing:
        raise ValueError(f"{where}: {op} entry is missing keys {missing}")
    for key in _NAME_KEYS:
        if key in entry and not isinstance(entry[key], str):
            raise ValueError(
                f"{where}: {op} entry field {key!r} must be a string, "
                f"got {entry[key]!r}"
            )
    if "gate" in entry and op != "add-gate" and entry["gate"] not in circuit:
        raise ValueError(f"{where}: unknown gate {entry['gate']!r}")
    if op.startswith("input-") and entry["net"] not in circuit.inputs:
        raise ValueError(
            f"{where}: {op} net {entry['net']!r} is not a primary input")


def resolve_edit(circuit: Circuit, entry: Mapping,
                 index: Optional[int] = None) -> EcoEdit:
    """Turn one JSON script entry into an :data:`EcoEdit`.

    Malformed entries — not a JSON object, an unknown op, unknown or
    missing keys, a non-string name field, an unknown gate, an
    ``input-*`` net that is not a primary input — raise
    :class:`ValueError` naming the entry (``index``, its position in
    the script, when given) before anything is resolved.
    """
    _check_entry(circuit, entry,
                 "script entry" if index is None else f"script entry {index}")
    op = entry["op"]
    if op == "reorder":
        gate = circuit.gate(entry["gate"])
        return SetConfig(
            gate.name,
            _config_from_index(
                gate.template, entry["config"],
                f"gate {gate.name} ({gate.template.name})",
            ),
        )
    if op == "retemplate":
        gate = circuit.gate(entry["gate"])
        template = lookup_template(circuit.library, entry["template"])
        config = None
        if "config" in entry:
            config = _config_from_index(
                template, entry["config"],
                f"gate {gate.name} (-> {template.name})",
            )
        return SetTemplate(gate.name, template.name, config)
    if op == "input-stats":
        return InputStatsEdit(
            entry["net"],
            SignalStats(float(entry["probability"]), float(entry["density"])),
        )
    if op == "input-arrival":
        return InputArrivalEdit(entry["net"], float(entry["arrival"]))
    if op == "add-gate":
        template = lookup_template(circuit.library, entry["template"])
        pins = entry["pins"]
        if sorted(pins) != sorted(template.pins):
            raise ValueError(
                f"add-gate {entry['gate']}: pins {sorted(pins)} do not "
                f"match template {template.name!r} pins "
                f"{sorted(template.pins)}"
            )
        config = None
        if "config" in entry:
            config = _config_from_index(
                template, entry["config"],
                f"add-gate {entry['gate']} ({template.name})",
            )
        return AddGate(
            entry["gate"], template.name,
            tuple((pin, str(pins[pin])) for pin in template.pins),
            entry["output"], config,
        )
    if op == "remove-gate":
        return RemoveGate(entry["gate"])
    # op == "rewire"
    return RewireNet(entry["gate"], entry["pin"], entry["net"])


def resolve_edit_script(circuit: Circuit,
                        entries: Sequence[Mapping]) -> List[EcoEdit]:
    """Resolve a whole JSON script (a list of entries) against a circuit."""
    return [resolve_edit(circuit, entry, index)
            for index, entry in enumerate(entries)]


def script_edit_label(edit: EcoEdit) -> str:
    """Short human-readable form of an edit for reports and tables."""
    if isinstance(edit, SetConfig):
        suffix = "default" if edit.config is None else "reordered"
        return f"reorder {edit.gate} ({suffix})"
    if isinstance(edit, SetTemplate):
        return f"retemplate {edit.gate} -> {edit.template}"
    if isinstance(edit, InputStatsEdit):
        return (
            f"input-stats {edit.net} -> (P={edit.stats.probability:g}, "
            f"D={edit.stats.density:g})"
        )
    if isinstance(edit, InputArrivalEdit):
        return f"input-arrival {edit.net} -> {edit.arrival:g}"
    if isinstance(edit, AddGate):
        return f"add-gate {edit.gate} ({edit.template}) -> {edit.output}"
    if isinstance(edit, RemoveGate):
        return f"remove-gate {edit.gate}"
    if isinstance(edit, RewireNet):
        return f"rewire {edit.gate}.{edit.pin} -> {edit.net}"
    return repr(edit)

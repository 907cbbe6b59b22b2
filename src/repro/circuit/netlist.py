"""Mapped gate-level netlists.

A :class:`Circuit` is a combinational multilevel network of library
gate instances — the representation the paper's optimisation algorithm
traverses.  Nets are strings; every net is driven either by a primary
input or by exactly one gate output.  Each gate instance carries its
own transistor-ordering :class:`~repro.gates.library.GateConfig`, which
is what the optimiser rewrites.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Tuple

from ..gates.capacitance import TechParams, net_load, pin_capacitance
from ..gates.library import GateConfig, GateLibrary, GateTemplate
from ..gates.network import CompiledGate

__all__ = [
    "GateInstance",
    "Circuit",
    "CircuitError",
    "SetConfig",
    "SetTemplate",
    "AddGate",
    "RemoveGate",
    "RewireNet",
    "StructureEvent",
    "CircuitEdit",
    "StructuralEdit",
    "lookup_template",
]


class CircuitError(ValueError):
    """Raised for structurally invalid netlists."""


def lookup_template(library: GateLibrary, name: str) -> GateTemplate:
    """``library[name]``, with misses routed into :class:`CircuitError`.

    Every edit-algebra entry point (``add_gate``, ``SetTemplate``, eco
    scripts) resolves template names through here so that a typo in a
    script or CLI invocation reports the available cells instead of
    surfacing a raw :class:`KeyError` traceback.  The library's own
    ``__getitem__`` raises :class:`CircuitError` too; the try/except
    keeps mapping-like stand-ins (tests, adapters) on the same
    contract.
    """
    try:
        return library[name]
    except KeyError:
        raise CircuitError(
            f"unknown template {name!r}; available: {', '.join(library.names)}"
        ) from None


def _check_config(gate_name: str, template: GateTemplate,
                 config: Optional[GateConfig]) -> None:
    """Refuse a configuration that is not an ordering of ``template``.

    Every caller that binds a configuration to a gate (``add_gate``,
    ``SetConfig``, ``SetTemplate``, ``AddGate``) checks here before it
    mutates anything.  It is what makes a reordering function-preserving
    by construction: the statistics cache relies on that to leave a
    reordered gate's fanout cone clean.  ``None`` (the template's
    default ordering) always passes.
    """
    if config is not None and template.config_index(config) is None:
        raise CircuitError(
            f"gate {gate_name}: configuration {config} is not an ordering "
            f"of template {template.name!r}"
        )


# ----------------------------------------------------------------------
# ECO edits
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class SetConfig:
    """Reorder one gate: replace its transistor ordering.

    ``config=None`` restores the template's default (as-mapped)
    configuration.  Connectivity and logic function are unchanged.
    """

    gate: str
    config: Optional[GateConfig]


@dataclass(frozen=True)
class SetTemplate:
    """Swap one gate's library cell for a same-arity cell.

    The new template's pins are bound positionally to the nets of the
    old template's pins, and the instance's configuration is replaced
    by ``config`` (``None`` = the new template's default) — an old
    ordering cannot survive a function change.  Connectivity is
    unchanged, the logic function generally is not.
    """

    gate: str
    template: str
    config: Optional[GateConfig] = None


@dataclass(frozen=True)
class AddGate:
    """Structural edit: instantiate a new gate.

    ``pin_nets`` is a tuple of ``(pin, net)`` pairs (hashable, unlike a
    dict) covering exactly the template's pins; every bound net must
    already be driven.  ``index`` is the creation-order position to
    insert at (``None`` = append) — the inverse of a :class:`RemoveGate`
    carries the removed gate's original position so that a rollback
    restores gate-creation order exactly.  Creation order is load-bearing:
    it fixes :meth:`Circuit.nets` ordering, topological tie-breaks and
    therefore every float summation order in the incremental layer.
    """

    gate: str
    template: str
    pin_nets: Tuple[Tuple[str, str], ...]
    output: str
    config: Optional[GateConfig] = None
    index: Optional[int] = None


@dataclass(frozen=True)
class RemoveGate:
    """Structural edit: delete a gate whose output has no sinks.

    Only dead gates (output drives no pin and is not a primary output)
    can be removed — anything else would leave dangling pins.  The
    inverse is an :class:`AddGate` carrying the full instance state plus
    its creation-order position.
    """

    gate: str


@dataclass(frozen=True)
class RewireNet:
    """Structural edit: rebind one pin of one gate to a different net.

    The new net must already be driven (by a primary input or a gate)
    and must not depend combinationally on the rewired gate's output.
    The inverse is the same edit with the old net.
    """

    gate: str
    pin: str
    net: str


@dataclass(frozen=True)
class StructureEvent:
    """What the last structural edit did, for ``"structure"`` listeners.

    Published on :attr:`Circuit.structure_event` immediately before the
    listeners fire, so caches can seed their dirty sets precisely:
    ``load_nets`` are the nets whose external load changed (the edited
    gate's fanin nets for add/remove, the old and new net for rewire) —
    their drivers must be power- and timing-dirtied even though their
    own statistics are untouched.
    """

    op: str  # "add" | "remove" | "rewire"
    gate: str
    output: str
    load_nets: Tuple[str, ...]


#: The edit algebra accepted by :meth:`Circuit.apply_edit`.
CircuitEdit = (SetConfig, SetTemplate, AddGate, RemoveGate, RewireNet)

#: The connectivity-changing subset — these notify listeners with kind
#: ``"structure"`` and invalidate the memoised derived structure.
StructuralEdit = (AddGate, RemoveGate, RewireNet)

#: Gate fields only :meth:`Circuit.apply_edit` may change after
#: construction: every cache (statistics, power, timing, the compiled
#: class codes) keeps them current from the edit notifications alone.
_EDIT_ONLY_FIELDS = frozenset({"template", "config"})


@dataclass
class GateInstance:
    """One placed gate: a template, pin-to-net bindings and an ordering.

    ``template`` and ``config`` are read-only once constructed: change
    them through :meth:`Circuit.apply_edit` (or its ``set_config`` /
    ``set_template`` wrappers), which notifies every attached cache.
    A direct assignment raises :class:`AttributeError`.
    """

    name: str
    template: GateTemplate
    pin_nets: Dict[str, str]
    output: str
    config: Optional[GateConfig] = None
    """``None`` means the template's default (as-mapped) configuration."""

    def __setattr__(self, name, value):
        if name in _EDIT_ONLY_FIELDS and name in self.__dict__:
            raise AttributeError(
                f"gate {self.name}: {name!r} is read-only; change it "
                f"through Circuit.apply_edit (SetConfig / SetTemplate)"
            )
        object.__setattr__(self, name, value)

    def __post_init__(self):
        missing = [p for p in self.template.pins if p not in self.pin_nets]
        extra = [p for p in self.pin_nets if p not in self.template.pins]
        if missing or extra:
            raise CircuitError(
                f"gate {self.name} ({self.template.name}): "
                f"missing pins {missing}, unknown pins {extra}"
            )

    @property
    def fanin_nets(self) -> Tuple[str, ...]:
        """Input nets in pin order (duplicates preserved)."""
        return tuple(self.pin_nets[p] for p in self.template.pins)

    def clone(self) -> "GateInstance":
        """A copy with its own pin map.

        Skips the pin checks of construction: this instance passed them.
        """
        twin = object.__new__(GateInstance)
        twin.__dict__.update(self.__dict__, pin_nets=dict(self.pin_nets))
        return twin

    def effective_config(self) -> GateConfig:
        return self.config if self.config is not None else self.template.default_config()

    def compiled(self) -> CompiledGate:
        """The (cached) compiled form of this instance's configuration."""
        return self.template.compile_config(self.effective_config())


class Circuit:
    """A combinational netlist of library gates."""

    def __init__(self, name: str, library: GateLibrary):
        self.name = name
        self.library = library
        self.inputs: List[str] = []
        #: ``set(inputs)``, for O(1) membership tests; kept beside
        #: ``inputs`` by every method that changes it.
        self._input_set: set = set()
        self.outputs: List[str] = []
        self._gates: Dict[str, GateInstance] = {}
        self._driver: Dict[str, GateInstance] = {}
        self._edit_listeners: List[Callable[[str, str], None]] = []
        #: Memoised derived structure (the integer structure record,
        #: fanout index, topological order and positions, levels,
        #: compiled form); cleared by structural mutation.  See
        #: :meth:`structure` / :meth:`fanout_index` / :meth:`topo_gates` /
        #: :meth:`topo_positions` / :meth:`gate_levels`.
        self._structure: Dict[str, object] = {}
        self._structure_event: Optional[StructureEvent] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, net: str) -> None:
        if net in self._input_set:
            raise CircuitError(f"duplicate primary input {net!r}")
        if net in self._driver:
            raise CircuitError(f"net {net!r} already driven by a gate")
        self.inputs.append(net)
        self._input_set.add(net)
        self._invalidate_structure()

    def add_output(self, net: str) -> None:
        if net in self.outputs:
            raise CircuitError(f"duplicate primary output {net!r}")
        self.outputs.append(net)
        self._invalidate_structure()

    def add_gate(self, name: str, template_name: str,
                 pin_nets: Mapping[str, str], output: str,
                 config: Optional[GateConfig] = None) -> GateInstance:
        """Instantiate ``template_name`` driving ``output``."""
        if name in self._gates:
            raise CircuitError(f"duplicate gate name {name!r}")
        if output in self._driver:
            raise CircuitError(f"net {output!r} has multiple drivers")
        if output in self._input_set:
            raise CircuitError(f"net {output!r} is a primary input")
        template = lookup_template(self.library, template_name)
        _check_config(name, template, config)
        gate = GateInstance(name, template, dict(pin_nets), output, config)
        self._gates[name] = gate
        self._driver[output] = gate
        self._invalidate_structure()
        return gate

    # ------------------------------------------------------------------
    # Memoised derived structure
    # ------------------------------------------------------------------
    def _invalidate_structure(self) -> None:
        """Drop memoised structure after a structural mutation.

        The supported ECO edits (:meth:`apply_edit`) never change
        connectivity, so they do **not** invalidate; only adding
        inputs/outputs/gates does.  A memoised compiled form keeps an
        edit listener alive, so it is detached before being dropped.
        """
        compiled = self._structure.pop("compiled", None)
        if compiled is not None:
            compiled.close()
        self._structure.clear()

    def structure(self):
        """The memoised :class:`~repro.circuit.topology.CircuitStructure`.

        One integer pass over the gates yields net ids, the CSR fanin,
        the sink CSRs, levels and the topological order; every other
        structure accessor, the compiled lowering and :meth:`validate`
        read it.  Invalidated by structural mutation; the supported
        edits keep it valid.
        """
        record = self._structure.get("record")
        if record is None:
            from .topology import build_structure

            record = build_structure(self)
            self._structure["record"] = record
        return record

    def fanout_index(self):
        """The memoised :class:`~repro.circuit.topology.FanoutIndex`.

        A view of :meth:`structure`, shared by every consumer (stats
        cache, timing cache, searches, load queries), so attaching a
        second cache does not redo the inversion.  Invalidated by
        structural mutation; the supported edits keep it valid.
        """
        index = self._structure.get("fanout_index")
        if index is None:
            from .topology import FanoutIndex

            index = FanoutIndex(self)
            self._structure["fanout_index"] = index
        return index

    def topo_gates(self) -> Tuple[GateInstance, ...]:
        """Memoised topological order (drivers before sinks).

        Equal to :func:`~repro.circuit.topology.topological_gates`,
        read from :meth:`structure`.
        """
        order = self._structure.get("topo")
        if order is None:
            record = self.structure()
            record.check_acyclic()
            gates = record.gates
            order = tuple([gates[gid] for gid in record.topo.tolist()])
            self._structure["topo"] = order
        return order

    def topo_positions(self) -> Mapping[str, int]:
        """Memoised gate name -> position in :meth:`topo_gates` (read-only)."""
        positions = self._structure.get("positions")
        if positions is None:
            positions = {g.name: i for i, g in enumerate(self.topo_gates())}
            self._structure["positions"] = positions
        return positions

    def gate_levels(self) -> Mapping[str, int]:
        """Memoised logic level per gate, in topological order (read-only).

        A gate with only primary-input fanins is level 0; any other is
        one above its highest-level fanin driver.
        """
        levels = self._structure.get("levels")
        if levels is None:
            record = self.structure()
            record.check_acyclic()
            names = record.gate_names
            topo = record.topo
            levels = dict(zip([names[gid] for gid in topo.tolist()],
                              record.level[topo].tolist()))
            self._structure["levels"] = levels
        return levels

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def gates(self) -> Tuple[GateInstance, ...]:
        return tuple(self._gates.values())

    def gate(self, name: str) -> GateInstance:
        return self._gates[name]

    def __len__(self) -> int:
        return len(self._gates)

    def __contains__(self, gate_name: str) -> bool:
        return gate_name in self._gates

    def driver(self, net: str) -> Optional[GateInstance]:
        """The gate driving ``net`` (``None`` for primary inputs)."""
        return self._driver.get(net)

    @property
    def structure_event(self) -> Optional[StructureEvent]:
        """The :class:`StructureEvent` of the last structural edit.

        Valid during (and after) a ``"structure"`` listener
        notification; ``None`` until the first structural edit.
        """
        return self._structure_event

    def fanin_drivers(self, gate_name: str) -> Tuple[GateInstance, ...]:
        """Unique gates driving ``gate_name``'s fanin nets, in pin order.

        The greedy search re-enqueues them around an accepted move.  A
        reorder or retemplate of ``gate_name`` never changes their load:
        every pin of every template drives one N and one P device.
        """
        gate = self.gate(gate_name)
        drivers: List[GateInstance] = []
        seen = set()
        for net in gate.fanin_nets:
            pred = self._driver.get(net)
            if pred is not None and pred.name not in seen:
                seen.add(pred.name)
                drivers.append(pred)
        return tuple(drivers)

    def nets(self) -> Tuple[str, ...]:
        """All nets: primary inputs then gate outputs, in creation order."""
        return tuple(self.inputs) + tuple(g.output for g in self._gates.values())

    def fanout(self, net: str) -> List[Tuple[GateInstance, str]]:
        """(gate, pin) sinks of ``net`` (primary-output sinks excluded)."""
        sinks = []
        for gate in self._gates.values():
            for pin, bound in gate.pin_nets.items():
                if bound == net:
                    sinks.append((gate, pin))
        return sinks

    def output_load(self, net: str, tech: TechParams,
                    po_load: float = 10.0e-15) -> float:
        """External capacitance on ``net``: fanin pins plus primary-output load.

        Sinks come from the memoised :meth:`fanout_index` (O(result)
        per query instead of an O(gates) scan per call), in the same
        gate-creation-then-template-pin order every other load consumer
        uses.
        """
        return net_load(self.fanout_index().sinks(net), net in self.outputs,
                        tech, po_load)

    def gate_count_by_template(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for gate in self._gates.values():
            counts[gate.template.name] = counts.get(gate.template.name, 0) + 1
        return counts

    def transistor_count(self) -> int:
        return sum(g.template.num_transistors for g in self._gates.values())

    def area(self) -> float:
        """Total area (configuration-independent, as the paper notes)."""
        return float(sum(g.template.area for g in self._gates.values()))

    # ------------------------------------------------------------------
    # ECO edits (see the dataclasses at module top)
    # ------------------------------------------------------------------
    def add_edit_listener(self, callback: Callable[[str, str], None]) -> None:
        """Register ``callback(gate_name, kind)`` for every applied edit.

        ``kind`` is ``"config"``, ``"template"`` or ``"structure"``
        (the latter for :data:`StructuralEdit` kinds, with the details
        published on :attr:`structure_event`).  A ``SetTemplate`` to
        the gate's own template is at most a reordering and notifies
        ``"config"``.  Incremental caches
        (:class:`repro.incremental.StatsCache`) subscribe here so that
        edits through any code path invalidate them.
        """
        self._edit_listeners.append(callback)

    def remove_edit_listener(self, callback: Callable[[str, str], None]) -> None:
        self._edit_listeners.remove(callback)

    def _notify_edit(self, gate_name: str, kind: str) -> None:
        # Snapshot: a listener may detach itself mid-event (a directly
        # built CompiledCircuit closes on a structural edit).  No
        # listener derives structure; caches record seeds.
        for callback in list(self._edit_listeners):
            callback(gate_name, kind)

    def apply_edit(self, edit):
        """Apply one :data:`CircuitEdit` in place; return its inverse.

        The returned edit, applied through this same method, restores
        the circuit exactly — for the local kinds the gate's template,
        pin bindings and configuration; for the :data:`StructuralEdit`
        kinds also the gate set, connectivity and gate-creation order
        (a removed gate is re-added at its original position, keeping
        every downstream float summation order bit-stable).  This is
        the primitive the :class:`repro.incremental.WhatIf` rollback is
        built on.  The local kinds never change connectivity, so fanout
        indices and topological orders stay valid across them; the
        structural kinds invalidate the memoised derived structure and
        notify listeners with kind ``"structure"`` (details on
        :attr:`structure_event`).  All validation happens before any
        mutation — a rejected edit leaves the circuit untouched.
        """
        if isinstance(edit, SetConfig):
            gate = self.gate(edit.gate)
            _check_config(gate.name, gate.template, edit.config)
            inverse = SetConfig(gate.name, gate.config)
            object.__setattr__(gate, "config", edit.config)
            self._notify_edit(gate.name, "config")
            return inverse
        if isinstance(edit, SetTemplate):
            gate = self.gate(edit.gate)
            template = lookup_template(self.library, edit.template)
            if len(template.pins) != len(gate.template.pins):
                raise CircuitError(
                    f"gate {gate.name}: cannot swap {gate.template.name} "
                    f"({len(gate.template.pins)} pins) for {template.name} "
                    f"({len(template.pins)} pins)"
                )
            _check_config(gate.name, template, edit.config)
            inverse = SetTemplate(gate.name, gate.template.name, gate.config)
            # The gate's own template keeps its pins and function, so at
            # most the ordering changes: notify a reorder.
            kind = "config" if template is gate.template else "template"
            gate.pin_nets = {
                new_pin: gate.pin_nets[old_pin]
                for new_pin, old_pin in zip(template.pins, gate.template.pins)
            }
            object.__setattr__(gate, "template", template)
            object.__setattr__(gate, "config", edit.config)
            self._notify_edit(gate.name, kind)
            return inverse
        if isinstance(edit, AddGate):
            return self._apply_add_gate(edit)
        if isinstance(edit, RemoveGate):
            return self._apply_remove_gate(edit)
        if isinstance(edit, RewireNet):
            return self._apply_rewire(edit)
        raise TypeError(f"unknown edit {edit!r}; expected one of {CircuitEdit}")

    def _apply_add_gate(self, edit: AddGate) -> RemoveGate:
        pin_nets = dict(edit.pin_nets)
        undriven = sorted(
            {net for net in pin_nets.values()
             if net not in self._input_set and net not in self._driver}
        )
        if undriven:
            raise CircuitError(
                f"add-gate {edit.gate}: fanin nets {undriven} have no driver"
            )
        gate = self.add_gate(edit.gate, edit.template, pin_nets,
                             edit.output, edit.config)
        if edit.index is not None and edit.index != len(self._gates) - 1:
            # Restore the creation-order position (inverse of a remove).
            names = list(self._gates)
            names.remove(gate.name)
            names.insert(edit.index, gate.name)
            self._gates = {n: self._gates[n] for n in names}
        self._structure_event = StructureEvent(
            "add", gate.name, gate.output, tuple(dict.fromkeys(gate.fanin_nets))
        )
        self._notify_edit(gate.name, "structure")
        return RemoveGate(gate.name)

    def _apply_remove_gate(self, edit: RemoveGate) -> AddGate:
        gate = self.gate(edit.gate)
        sinks = self.fanout(gate.output)
        if sinks:
            names = sorted({g.name for g, _ in sinks})
            raise CircuitError(
                f"cannot remove {gate.name}: net {gate.output!r} still "
                f"drives {names}"
            )
        if gate.output in self.outputs:
            raise CircuitError(
                f"cannot remove {gate.name}: net {gate.output!r} is a "
                f"primary output"
            )
        inverse = AddGate(
            gate.name, gate.template.name,
            tuple((pin, gate.pin_nets[pin]) for pin in gate.template.pins),
            gate.output, gate.config, index=list(self._gates).index(gate.name),
        )
        load_nets = tuple(dict.fromkeys(gate.fanin_nets))
        del self._gates[gate.name]
        del self._driver[gate.output]
        self._invalidate_structure()
        self._structure_event = StructureEvent(
            "remove", gate.name, gate.output, load_nets
        )
        self._notify_edit(gate.name, "structure")
        return inverse

    def _apply_rewire(self, edit: RewireNet) -> RewireNet:
        gate = self.gate(edit.gate)
        if edit.pin not in gate.template.pins:
            raise CircuitError(
                f"gate {gate.name} ({gate.template.name}) has no pin "
                f"{edit.pin!r}; pins: {', '.join(gate.template.pins)}"
            )
        if edit.net not in self._input_set and edit.net not in self._driver:
            raise CircuitError(
                f"rewire {gate.name}.{edit.pin}: net {edit.net!r} has no driver"
            )
        # The new net must not depend on this gate's output (iterative
        # walk of the transitive fanin — no recursion, deep chains are
        # fine; see _check_acyclic).
        stack = [edit.net]
        seen = set()
        while stack:
            pred = self._driver.get(stack.pop())
            if pred is None or pred.name in seen:
                continue
            if pred is gate:
                raise CircuitError(
                    f"rewire {gate.name}.{edit.pin} -> {edit.net!r} would "
                    f"create a combinational cycle"
                )
            seen.add(pred.name)
            stack.extend(pred.fanin_nets)
        old_net = gate.pin_nets[edit.pin]
        inverse = RewireNet(gate.name, edit.pin, old_net)
        gate.pin_nets[edit.pin] = edit.net
        self._invalidate_structure()
        self._structure_event = StructureEvent(
            "rewire", gate.name, gate.output,
            tuple(dict.fromkeys((old_net, edit.net))),
        )
        self._notify_edit(gate.name, "structure")
        return inverse

    def set_config(self, gate_name: str, config: Optional[GateConfig]) -> SetConfig:
        """Reorder ``gate_name``; returns the inverse edit."""
        return self.apply_edit(SetConfig(gate_name, config))

    def set_template(self, gate_name: str, template_name: str,
                     config: Optional[GateConfig] = None) -> SetTemplate:
        """Swap ``gate_name``'s cell; returns the inverse edit."""
        return self.apply_edit(SetTemplate(gate_name, template_name, config))

    # ------------------------------------------------------------------
    # Validation / copying
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Check structural sanity; raises :class:`CircuitError` on problems.

        The integer :meth:`structure` pass finds undriven pins and
        cycles; only when it (or the primary-output check) finds a
        problem do the object walks run, to raise the first error in
        their order with their message.
        """
        record = self.structure()
        if record.undriven or record.cyclic or any(
            net not in self._input_set and net not in self._driver
            for net in self.outputs
        ):
            self._validate_walks()

    def _validate_walks(self) -> None:
        for gate in self._gates.values():
            for pin, net in gate.pin_nets.items():
                if net not in self._input_set and net not in self._driver:
                    raise CircuitError(
                        f"gate {gate.name} pin {pin}: net {net!r} has no driver"
                    )
        for net in self.outputs:
            if net not in self._input_set and net not in self._driver:
                raise CircuitError(f"primary output {net!r} has no driver")
        self._check_acyclic()

    def _check_acyclic(self) -> None:
        # Iterative three-colour DFS.  The recursive form (with a bumped
        # recursion limit) still exhausted the C stack on deep gate
        # chains — the same reason topology.topological_gates uses
        # Kahn's algorithm — so the grey/black marking is driven by an
        # explicit stack of (gate, fanin-iterator) frames instead.
        state: Dict[str, int] = {}  # absent=white, 1=grey, 2=black
        for root in self._gates.values():
            if state.get(root.name, 0) != 0:
                continue
            state[root.name] = 1
            stack: List[Tuple[GateInstance, Iterator[str]]] = [
                (root, iter(root.fanin_nets))
            ]
            while stack:
                gate, nets = stack[-1]
                for net in nets:
                    pred = self._driver.get(net)
                    if pred is None:
                        continue
                    mark = state.get(pred.name, 0)
                    if mark == 1:
                        raise CircuitError(
                            f"combinational cycle through {pred.name}"
                        )
                    if mark == 0:
                        state[pred.name] = 1
                        stack.append((pred, iter(pred.fanin_nets)))
                        break
                else:
                    state[gate.name] = 2
                    stack.pop()

    def copy(self, name: Optional[str] = None) -> "Circuit":
        """Deep copy (gate configs included).

        The gates are cloned directly: they were validated when they
        were added or edited, so the copy skips the template lookups
        and pin checks of :meth:`add_gate`.  Listeners and memoised
        structure are not copied.
        """
        clone = Circuit(name or self.name, self.library)
        clone.inputs = list(self.inputs)
        clone._input_set = set(self.inputs)
        clone.outputs = list(self.outputs)
        clone._gates = {key: gate.clone() for key, gate in self._gates.items()}
        clone._driver = {gate.output: gate for gate in clone._gates.values()}
        return clone

    # ------------------------------------------------------------------
    # Functional evaluation (for equivalence checks and logic simulation)
    # ------------------------------------------------------------------
    def evaluate(self, input_values: Mapping[str, bool]) -> Dict[str, bool]:
        """Zero-delay evaluation of every net for one input vector."""
        values: Dict[str, bool] = {n: bool(input_values[n]) for n in self.inputs}
        for gate in self.topo_gates():
            compiled = gate.compiled()
            minterm = 0
            for j, pin in enumerate(gate.template.pins):
                if values[gate.pin_nets[pin]]:
                    minterm |= 1 << j
            values[gate.output] = compiled.output_tt.evaluate_index(minterm)
        return values

    def __repr__(self) -> str:
        return (
            f"Circuit({self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, gates={len(self._gates)})"
        )

"""Structural capacitance model and technology parameters.

The paper extracts node capacitances from the Sea-of-Gates layout of
every library cell.  Without layouts we estimate them structurally
(documented as a substitution in DESIGN.md §3.5):

* every transistor source/drain terminal touching a node contributes
  one diffusion capacitance ``c_diff``;
* every transistor *gate* terminal a net drives contributes ``c_gate``
  (a library-cell input pin is one N plus one P device per occurrence);
* every output net carries a fixed wiring term ``c_wire``.

Defaults are loosely based on a mid-90s 0.8 µm process and — more
importantly for reproducing the paper's *relative* results — put
internal-node power in the 20–40 % range of total gate power, the
regime in which transistor reordering buys the reported ~12 %.
"""

from __future__ import annotations

from dataclasses import dataclass

from .network import CompiledGate, TransistorNetwork

__all__ = [
    "TechParams",
    "pin_capacitance",
    "pin_terminal_counts",
    "net_load",
    "internal_node_capacitance",
    "output_intrinsic_capacitance",
]


@dataclass(frozen=True)
class TechParams:
    """Process/electrical parameters shared by the model, simulator and STA."""

    vdd: float = 3.3
    """Supply voltage (V)."""

    c_diff: float = 2.0e-15
    """Diffusion capacitance per transistor source/drain terminal (F)."""

    c_gate: float = 2.5e-15
    """Gate capacitance per transistor gate terminal (F)."""

    c_wire: float = 4.0e-15
    """Fixed wiring capacitance per output net (F)."""

    r_n: float = 8.0e3
    """On-resistance of one N transistor (ohm)."""

    r_p: float = 12.0e3
    """On-resistance of one P transistor (ohm)."""

    def __post_init__(self):
        for field in ("vdd", "c_diff", "c_gate", "c_wire", "r_n", "r_p"):
            if getattr(self, field) <= 0.0:
                raise ValueError(f"{field} must be positive")

    @property
    def switch_energy_factor(self) -> float:
        """``0.5 * Vdd**2`` — energy per farad per node transition (J/F)."""
        return 0.5 * self.vdd * self.vdd


def pin_terminal_counts(gate: CompiledGate) -> dict:
    """Transistor gate-terminal count per pin, computed once per compiled gate.

    Configuration-independent (every ordering uses the same devices);
    cached on the compiled gate because the load summations below run
    it per sink pin on every hot-path load query, and the flat-circuit
    lowering (:mod:`repro.compiled`) reads the whole table at once.
    """
    counts = getattr(gate, "_pin_terminal_counts", None)
    if counts is None:
        counts = {}
        for t in gate.network.transistors:
            counts[t.signal] = counts.get(t.signal, 0) + 1
        gate._pin_terminal_counts = counts
    return counts


def pin_capacitance(gate: CompiledGate, pin: str, tech: TechParams) -> float:
    """Input capacitance presented by one pin of a gate configuration.

    Counts the transistor gate terminals driven by the pin across both
    networks (one N and one P device for ordinary library gates).
    """
    count = pin_terminal_counts(gate).get(pin, 0)
    if count == 0:
        raise KeyError(f"gate has no pin {pin!r}")
    return count * tech.c_gate


def net_load(sinks, is_output: bool, tech: TechParams,
             po_load: float) -> float:
    """External capacitance on a net from its ``(gate, pin)`` sinks.

    The **single** implementation of the load summation every consumer
    shares — :meth:`repro.circuit.netlist.Circuit.output_load`, the
    batch STA and both incremental caches — so they add the same
    floats in the same order (their bit-identity contracts depend on
    it).  ``sinks`` iterates ``(gate_instance, pin_name)`` pairs; both
    :meth:`Circuit.fanout` and :meth:`FanoutIndex.sinks` produce them
    in gate-creation-then-pin order.  The sum is a strict left fold, not
    ``sum()`` (compensated from Python 3.12), like the compiled
    ``net_loads`` kernel's ``np.add.at``.
    """
    load = 0.0
    for gate, pin in sinks:
        load += pin_capacitance(gate.compiled(), pin, tech)
    if is_output:
        load += po_load
    return load


def internal_node_capacitance(gate: CompiledGate, node: str, tech: TechParams) -> float:
    """Capacitance of an internal diffusion node (terminals × ``c_diff``)."""
    if node not in gate.internal_nodes:
        raise KeyError(f"{node!r} is not an internal node")
    return gate.terminal_counts[node] * tech.c_diff


def output_intrinsic_capacitance(gate: CompiledGate, tech: TechParams) -> float:
    """Output-node capacitance excluding the external load.

    The external load (fanout pins, primary-output load) is a property
    of the netlist, added by the circuit-level power model.
    """
    from .network import OUT

    return gate.terminal_counts[OUT] * tech.c_diff + tech.c_wire


def node_capacitance(gate: CompiledGate, node: str, tech: TechParams,
                     load: float = 0.0) -> float:
    """Capacitance of any gate node; ``load`` applies to the output only."""
    from .network import OUT

    if node == OUT:
        return output_intrinsic_capacitance(gate, tech) + load
    return internal_node_capacitance(gate, node, tech)

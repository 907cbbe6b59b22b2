"""BLIF reader and writer.

Supports the combinational subset used by the MCNC benchmark suite:
``.model``, ``.inputs``, ``.outputs``, ``.names`` (ON-set or OFF-set
covers), ``.gate`` (mapped netlists) and ``.end``, with ``\\``
line continuations and ``#`` comments.  Latches are rejected — the
paper optimises combinational multilevel circuits.
"""

from __future__ import annotations

import os
from typing import Dict, Iterable, List, Optional, Tuple

from ..gates.library import GateLibrary
from .logic import Cube, LogicError, LogicNetwork, LogicNode
from .netlist import Circuit

__all__ = [
    "parse_blif",
    "load_blif",
    "write_blif",
    "parse_mapped_blif",
    "write_mapped_blif",
    "BlifError",
]

#: Pin name used for gate outputs in ``.gate`` lines.
OUTPUT_PIN = "O"


class BlifError(ValueError):
    """Raised on malformed BLIF input."""


def _logical_lines(text: str) -> Iterable[Tuple[int, List[str]]]:
    """Yield (line_number, tokens) with continuations joined and comments stripped."""
    pending: List[str] = []
    pending_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if "#" in raw:
            raw = raw[: raw.index("#")]
        raw = raw.strip()
        if not raw:
            continue
        continued = raw.endswith("\\")
        if continued:
            raw = raw[:-1].strip()
        if not pending:
            pending_line = lineno
        pending.extend(raw.split())
        if not continued:
            if pending:
                yield pending_line, pending
            pending = []
    if pending:
        yield pending_line, pending


def parse_blif(text: str, default_name: str = "circuit") -> LogicNetwork:
    """Parse BLIF text into a :class:`LogicNetwork` (first model only)."""
    network: Optional[LogicNetwork] = None
    # (output, inputs, line of the .names directive)
    current_cover: Optional[Tuple[str, Tuple[str, ...], int]] = None
    cubes: List[Cube] = []
    phases: List[bool] = []
    ended = False

    def flush_cover() -> None:
        nonlocal current_cover, cubes, phases
        if current_cover is None:
            return
        name, inputs, names_line = current_cover
        if phases and not all(phases) and any(phases):
            raise BlifError(
                f"line {names_line}: node {name}: mixed ON-set/OFF-set cover"
            )
        phase = phases[0] if phases else True
        network.add_node(LogicNode(name, inputs, tuple(cubes), phase))
        current_cover = None
        cubes = []
        phases = []

    for lineno, tokens in _logical_lines(text):
        if ended:
            break
        head = tokens[0]
        if head.startswith("."):
            if head != ".names":
                flush_cover()
            if head == ".model":
                if network is not None:
                    flush_cover()
                    break  # only the first model is read
                network = LogicNetwork(tokens[1] if len(tokens) > 1 else default_name)
            elif head == ".inputs":
                if network is None:
                    network = LogicNetwork(default_name)
                for net in tokens[1:]:
                    network.add_input(net)
            elif head == ".outputs":
                if network is None:
                    network = LogicNetwork(default_name)
                for net in tokens[1:]:
                    network.add_output(net)
            elif head == ".names":
                if network is None:
                    raise BlifError(f"line {lineno}: .names before .model/.inputs")
                flush_cover()
                if len(tokens) < 2:
                    raise BlifError(f"line {lineno}: .names needs at least an output")
                current_cover = (tokens[-1], tuple(tokens[1:-1]), lineno)
            elif head == ".end":
                flush_cover()
                ended = True
            elif head in (".latch", ".subckt"):
                raise BlifError(
                    f"line {lineno}: {head} is not supported (combinational BLIF only)"
                )
            else:
                # Ignore directives such as .default_input_arrival, .exdc, etc.
                continue
        else:
            if current_cover is None:
                raise BlifError(f"line {lineno}: cover row outside .names: {tokens}")
            inputs = current_cover[1]
            if len(inputs) == 0:
                if len(tokens) != 1 or tokens[0] not in ("0", "1"):
                    raise BlifError(f"line {lineno}: bad constant row {tokens}")
                # Constant node: a single '1' row makes it constant one.
                cubes.append(Cube(""))
                phases.append(tokens[0] == "1")
            else:
                if len(tokens) != 2:
                    raise BlifError(f"line {lineno}: bad cover row {tokens}")
                pattern, out = tokens
                if len(pattern) != len(inputs):
                    raise BlifError(
                        f"line {lineno}: pattern {pattern!r} arity != {len(inputs)}"
                    )
                if out not in ("0", "1"):
                    raise BlifError(f"line {lineno}: bad output value {out!r}")
                try:
                    cubes.append(Cube(pattern))
                except LogicError as error:
                    raise BlifError(f"line {lineno}: {error}") from None
                phases.append(out == "1")
    if network is None:
        raise BlifError("no BLIF content found")
    flush_cover()
    # Constant-0 nodes encoded as an empty ON-set cover need special care:
    # a '.names x' with no rows is constant 0, handled by construction.
    network.validate()
    return network


def load_blif(path: str) -> LogicNetwork:
    """Read a BLIF file from disk."""
    with open(path) as handle:
        text = handle.read()
    return parse_blif(text, default_name=os.path.splitext(os.path.basename(path))[0])


def write_blif(network: LogicNetwork) -> str:
    """Serialise a logic network to BLIF text."""
    lines = [f".model {network.name}"]
    lines.append(".inputs " + " ".join(network.inputs))
    lines.append(".outputs " + " ".join(network.outputs))
    for node in network.nodes:
        lines.append(".names " + " ".join(node.inputs + (node.name,)))
        out = "1" if node.phase else "0"
        for cube in node.cubes:
            lines.append(f"{cube.pattern} {out}" if cube.pattern else out)
    lines.append(".end")
    return "\n".join(lines) + "\n"


def write_mapped_blif(circuit: Circuit) -> str:
    """Serialise a mapped circuit using ``.gate`` lines."""
    lines = [f".model {circuit.name}"]
    lines.append(".inputs " + " ".join(circuit.inputs))
    lines.append(".outputs " + " ".join(circuit.outputs))
    for gate in circuit.gates:
        bindings = [f"{pin}={gate.pin_nets[pin]}" for pin in gate.template.pins]
        bindings.append(f"{OUTPUT_PIN}={gate.output}")
        lines.append(f".gate {gate.template.name} " + " ".join(bindings))
    lines.append(".end")
    return "\n".join(lines) + "\n"


def parse_mapped_blif(text: str, library: GateLibrary,
                      default_name: str = "circuit") -> Circuit:
    """Parse a ``.gate``-style mapped BLIF back into a :class:`Circuit`."""
    circuit: Optional[Circuit] = None
    counter = 0
    for lineno, tokens in _logical_lines(text):
        head = tokens[0]
        if head == ".model":
            circuit = Circuit(tokens[1] if len(tokens) > 1 else default_name, library)
        elif head == ".inputs":
            for net in tokens[1:]:
                circuit.add_input(net)
        elif head == ".outputs":
            for net in tokens[1:]:
                circuit.add_output(net)
        elif head == ".gate":
            if circuit is None:
                raise BlifError(f"line {lineno}: .gate before .model")
            template_name = tokens[1]
            bindings: Dict[str, str] = {}
            for item in tokens[2:]:
                if "=" not in item:
                    raise BlifError(f"line {lineno}: bad binding {item!r}")
                pin, net = item.split("=", 1)
                bindings[pin] = net
            if OUTPUT_PIN not in bindings:
                raise BlifError(f"line {lineno}: .gate without {OUTPUT_PIN}= output")
            output = bindings.pop(OUTPUT_PIN)
            circuit.add_gate(f"g{counter}", template_name, bindings, output)
            counter += 1
        elif head == ".names":
            raise BlifError(f"line {lineno}: .names in mapped BLIF; use parse_blif")
        elif head == ".end":
            break
    if circuit is None:
        raise BlifError("no BLIF content found")
    circuit.validate()
    return circuit

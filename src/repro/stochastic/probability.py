"""Signal-probability computation for mapped circuits.

Two engines, mirroring the paper's references:

* :func:`local_probabilities` — one topological sweep assuming spatial
  independence of gate fanins (the Parker–McCluskey-style treatment the
  paper's OBTAIN_PROBABILITIES uses); exact on fanout-free circuits,
  approximate under reconvergence.
* :func:`exact_probabilities` — global ROBDDs over the primary inputs;
  exact everywhere, exponential in the worst case, intended for small
  circuits and for quantifying the local engine's error (ablation A3).
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from ..boolean.bdd import BDD, Func
from ..circuit.netlist import Circuit

__all__ = ["local_probabilities", "exact_probabilities", "build_global_bdds"]


def local_probabilities(circuit: Circuit,
                        input_probs: Mapping[str, float]) -> Dict[str, float]:
    """Propagate equilibrium probabilities gate by gate (independence assumed)."""
    probs: Dict[str, float] = {}
    for net in circuit.inputs:
        p = float(input_probs[net])
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability of {net!r} outside [0, 1]")
        probs[net] = p
    for gate in circuit.topo_gates():
        compiled = gate.compiled()
        pin_probs = {
            pin: probs[gate.pin_nets[pin]] for pin in gate.template.pins
        }
        probs[gate.output] = compiled.output_tt.probability(pin_probs)
    return probs


def build_global_bdds(circuit: Circuit) -> Tuple[BDD, Dict[str, Func]]:
    """Global BDD of every net as a function of the primary inputs."""
    bdd = BDD(circuit.inputs)
    funcs: Dict[str, Func] = {net: bdd.var(net) for net in circuit.inputs}
    for gate in circuit.topo_gates():
        compiled = gate.compiled()
        pins = gate.template.pins
        # Shannon-expand the gate truth table over the fanin functions.
        tt = compiled.output_tt
        result = bdd.false
        for minterm in tt.minterms():
            term = bdd.true
            for j, pin in enumerate(pins):
                f = funcs[gate.pin_nets[pin]]
                term = term & (f if (minterm >> j) & 1 else ~f)
                if term.is_false():
                    break
            result = result | term
        funcs[gate.output] = result
    return bdd, funcs


def exact_probabilities(circuit: Circuit,
                        input_probs: Mapping[str, float]) -> Dict[str, float]:
    """Exact net probabilities via global BDDs (independent primary inputs)."""
    _, funcs = build_global_bdds(circuit)
    return {net: f.probability(input_probs) for net, f in funcs.items()}

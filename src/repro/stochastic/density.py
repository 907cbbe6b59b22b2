"""Transition-density propagation (Najm, DAC'91) for mapped circuits.

``D(y) = Σ_i P(∂y/∂x_i) · D(x_i)`` — the transition density of a gate
output is the sum over inputs of the input density weighted by the
probability of the Boolean difference.  Three engines:

* :func:`propagate_stats` with ``method="analytic"`` — gate-local
  Boolean differences with fanin-independence, one topological sweep;
  this is what the paper's optimisation loop (CALCULATE_DENS) uses.
* ``method="exact"`` — Boolean differences of the *global* functions
  with respect to the primary inputs, computed on ROBDDs; handles
  reconvergent correlation of the probabilities exactly.
* ``method="sampled"`` — bit-parallel Monte Carlo measurement on
  per-input RNG substreams (the uint64 kernel of
  :mod:`repro.compiled.sampled`; :func:`repro.sim.bitsim.sampled_stats`
  is its big-int oracle); unbiased under
  reconvergence at sampling-noise accuracy, and the only engine whose
  cost does not grow with BDD size.

All return a full net-to-:class:`SignalStats` map; see
``src/repro/sim/README.md`` for the accuracy/cost trade-offs.
"""

from __future__ import annotations

from typing import Dict, Mapping

from ..circuit.netlist import Circuit
from .probability import build_global_bdds
from .signal import SignalStats

__all__ = ["propagate_stats", "local_stats", "local_gate_stats", "exact_stats"]

_EPS = 1e-12


def _clamp(probability: float, density: float) -> SignalStats:
    probability = min(1.0, max(0.0, probability))
    if density > 0.0:
        probability = min(1.0 - _EPS, max(_EPS, probability))
    return SignalStats(probability, density)


def local_gate_stats(gate, net_stats: Mapping[str, SignalStats]) -> SignalStats:
    """Output (P, D) of one gate from its fanin nets' statistics.

    The gate-local kernel of :func:`local_stats`, exposed so the
    incremental engine (:mod:`repro.incremental`) re-propagates a dirty
    cone with bit-identical arithmetic to a from-scratch sweep.
    """
    compiled = gate.compiled()
    pins = gate.template.pins
    pin_probs = {pin: net_stats[gate.pin_nets[pin]].probability for pin in pins}
    probability = compiled.output_tt.probability(pin_probs)
    density = 0.0
    for pin in pins:
        d_in = net_stats[gate.pin_nets[pin]].density
        if d_in:
            diff = compiled.output_tt.boolean_difference(pin)
            density += diff.probability(pin_probs) * d_in
    return _clamp(probability, density)


def local_stats(circuit: Circuit,
                input_stats: Mapping[str, SignalStats]) -> Dict[str, SignalStats]:
    """One topological sweep with gate-local Boolean differences."""
    stats: Dict[str, SignalStats] = {}
    for net in circuit.inputs:
        stats[net] = input_stats[net]
    for gate in circuit.topo_gates():
        stats[gate.output] = local_gate_stats(gate, stats)
    return stats


def exact_stats(circuit: Circuit,
                input_stats: Mapping[str, SignalStats]) -> Dict[str, SignalStats]:
    """Global-BDD probabilities and primary-input-level Boolean differences."""
    _, funcs = build_global_bdds(circuit)
    input_probs = {net: input_stats[net].probability for net in circuit.inputs}
    stats: Dict[str, SignalStats] = {net: input_stats[net] for net in circuit.inputs}
    for net, func in funcs.items():
        if net in stats:
            continue
        probability = func.probability(input_probs)
        density = 0.0
        for pi in func.support():
            d_in = input_stats[pi].density
            if d_in:
                density += func.boolean_difference(pi).probability(input_probs) * d_in
        stats[net] = _clamp(probability, density)
    return stats


def propagate_stats(circuit: Circuit,
                    input_stats: Mapping[str, SignalStats],
                    method: str = "analytic",
                    **kwargs) -> Dict[str, SignalStats]:
    """The full (P, D) map of ``circuit`` from one of three engines.

    ``"exact"`` runs :func:`exact_stats`.  ``"analytic"`` and
    ``"sampled"`` run ``full`` on a fresh
    :func:`~repro.incremental.backends.make_backend` engine, which owns
    their names and knobs: the analytic one is the flat-array sweep of
    :mod:`repro.compiled`, bit-identical to the per-gate
    :func:`local_stats` oracle, and the sampled one takes ``lanes``,
    ``steps``, ``dt`` and ``seed`` and equals the big-int
    :func:`repro.sim.bitsim.sampled_stats` and a fresh
    ``StatsCache(backend="sampled")``.
    """
    missing = [n for n in circuit.inputs if n not in input_stats]
    if missing:
        raise KeyError(f"missing input statistics for {missing}")
    if method == "exact":
        return exact_stats(circuit, input_stats, **kwargs)
    from ..incremental.backends import make_backend

    return make_backend(method, **kwargs).full(circuit, input_stats)

"""The paper's extended power-consumption model of a static CMOS gate (§3.3).

For every node ``n_k`` (internal and output) of a gate configuration the
model computes, from the equilibrium probabilities ``P(x_i)`` and
transition densities ``D(x_i)`` of the gate inputs:

* the node's steady-state probability
  ``P(n_k) = P(H_nk) / (P(H_nk) + P(G_nk))`` (Markov steady state of the
  charge/discharge process, Hossain et al. as cited by the paper);
* the per-input transition count ``T_{nk,xi}`` through the Boolean
  differences of ``H_nk``/``G_nk`` (DESIGN.md §3.2 documents the exact
  reconstruction; at the output node every variant collapses to Najm's
  transition density ``P(∂F/∂x_i)·D(x_i)``);
* the node power ``W_nk = ½·C_nk·Vdd²·Σ_i T_{nk,xi}``.

Three formula variants are provided for the ablation study:

``"conditioned"`` (default)
    Rising/falling events conditioned on the node being in the opposite
    state *and* undriven — exact at the output node, and the most
    faithful reading of the paper's derivation.
``"independent"``
    Drops the conditioning denominators; still exact at the output.
``"output-only"``
    Ignores internal nodes entirely (the prior art the paper improves
    on); transistor reordering is invisible to this variant.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from ..gates.capacitance import TechParams, node_capacitance
from ..gates.network import OUT, CompiledGate
from ..stochastic.signal import SignalStats

__all__ = ["GatePowerModel", "GatePowerReport", "NodePowerEntry", "FORMULAS"]

FORMULAS = ("conditioned", "independent", "output-only")

_EPS = 1e-12


def _left_fold(values) -> float:
    """``0.0 + v0 + v1 + ...``, added strictly left to right."""
    total = 0.0
    for value in values:
        total += value
    return total


@dataclass(frozen=True)
class NodePowerEntry:
    """Per-node results of one gate-power evaluation."""

    node: str
    capacitance: float
    probability: float
    transitions: float
    """Estimated node transitions per time unit (all inputs summed)."""

    power: float
    """``½·C·Vdd²·transitions`` (W when densities are per second)."""


@dataclass(frozen=True)
class GatePowerReport:
    """Breakdown of one gate's estimated power."""

    entries: Tuple[NodePowerEntry, ...]
    tech: TechParams

    # Strict left folds, not ``sum()``: float ``sum`` is compensated
    # from Python 3.12, and the compiled power kernel, the incremental
    # cache and the search's batch pricer all fold left.
    @property
    def total(self) -> float:
        return _left_fold(e.power for e in self.entries)

    @property
    def output_power(self) -> float:
        return _left_fold(e.power for e in self.entries if e.node == OUT)

    @property
    def internal_power(self) -> float:
        return _left_fold(e.power for e in self.entries if e.node != OUT)

    def entry(self, node: str) -> NodePowerEntry:
        for e in self.entries:
            if e.node == node:
                return e
        raise KeyError(node)


class GatePowerModel:
    """Evaluate the extended power model on compiled gate configurations."""

    def __init__(self, tech: Optional[TechParams] = None, formula: str = "conditioned"):
        if formula not in FORMULAS:
            raise ValueError(f"unknown formula {formula!r}; choose from {FORMULAS}")
        self.tech = tech if tech is not None else TechParams()
        self.formula = formula

    # ------------------------------------------------------------------
    # Node-level pieces
    # ------------------------------------------------------------------
    def node_probability(self, gate: CompiledGate, node: str,
                         probs: Mapping[str, float]) -> float:
        """Steady-state probability of node ``n_k`` being charged."""
        ph = gate.h[node].probability(probs)
        pg = gate.g[node].probability(probs)
        if ph + pg <= _EPS:
            return 0.0
        return ph / (ph + pg)

    def node_transitions(self, gate: CompiledGate, node: str,
                         stats: Mapping[str, SignalStats]) -> float:
        """``Σ_i T_{nk,xi}`` — expected node transitions per time unit."""
        probs = {pin: stats[pin].probability for pin in gate.inputs}
        ph = gate.h[node].probability(probs)
        pg = gate.g[node].probability(probs)
        if ph + pg <= _EPS:
            return 0.0
        p_node = ph / (ph + pg)
        total = 0.0
        for pin in gate.inputs:
            density = stats[pin].density
            if density == 0.0:
                continue
            p_dh = gate.dh[(node, pin)].probability(probs)
            p_dg = gate.dg[(node, pin)].probability(probs)
            total += density * self._transition_fraction(
                node, p_dh, p_dg, p_node, ph, pg
            )
        return total

    def _transition_fraction(self, node: str, p_dh: float, p_dg: float,
                             p_node: float, ph: float, pg: float) -> float:
        """Expected node transitions per input transition."""
        if self.formula == "output-only":
            if node != OUT:
                return 0.0
            # At the output ∂H = ∂G = ∂F; use the H-side difference.
            return p_dh
        if self.formula == "independent":
            return p_dh * (1.0 - p_node) + p_dg * p_node
        # "conditioned": a toggling H charges the node iff the node is 0,
        # which can only coincide with H = 0 (a driven node tracks its
        # drive), hence the conditional P(n=0 | H=0); dually for G.
        rise = 0.0
        if 1.0 - ph > _EPS:
            rise = 0.5 * p_dh * min(1.0, (1.0 - p_node) / (1.0 - ph))
        fall = 0.0
        if 1.0 - pg > _EPS:
            fall = 0.5 * p_dg * min(1.0, p_node / (1.0 - pg))
        return rise + fall

    # ------------------------------------------------------------------
    # Gate-level power
    # ------------------------------------------------------------------
    def gate_power(self, gate: CompiledGate, stats: Mapping[str, SignalStats],
                   output_load: float = 0.0) -> GatePowerReport:
        """Estimate the power of one gate configuration.

        ``stats`` maps every input pin to its :class:`SignalStats`;
        ``output_load`` is the external capacitance on the output net
        (fanout pins plus any primary-output load).
        """
        missing = [p for p in gate.inputs if p not in stats]
        if missing:
            raise KeyError(f"missing input statistics for pins {missing}")
        probs = {pin: stats[pin].probability for pin in gate.inputs}
        entries = []
        factor = self.tech.switch_energy_factor
        for node in gate.nodes:
            cap = node_capacitance(gate, node, self.tech, load=output_load)
            p_node = self.node_probability(gate, node, probs)
            transitions = self.node_transitions(gate, node, stats)
            entries.append(
                NodePowerEntry(node, cap, p_node, transitions, factor * cap * transitions)
            )
        return GatePowerReport(tuple(entries), self.tech)

    # ------------------------------------------------------------------
    # Output statistics (for circuit-level propagation)
    # ------------------------------------------------------------------
    def output_probability(self, gate: CompiledGate,
                           stats: Mapping[str, SignalStats]) -> float:
        """``P(y)`` under spatially independent inputs."""
        probs = {pin: stats[pin].probability for pin in gate.inputs}
        return gate.output_tt.probability(probs)

    def output_density(self, gate: CompiledGate,
                       stats: Mapping[str, SignalStats]) -> float:
        """Najm's transition density ``D(y) = Σ_i P(∂F/∂x_i)·D(x_i)``."""
        probs = {pin: stats[pin].probability for pin in gate.inputs}
        density = 0.0
        for pin in gate.inputs:
            d = stats[pin].density
            if d:
                density += gate.dh[(OUT, pin)].probability(probs) * d
        return density

    def output_stats(self, gate: CompiledGate,
                     stats: Mapping[str, SignalStats]) -> SignalStats:
        """(P, D) of the gate output — what the optimiser propagates.

        Every configuration of a gate yields the same output statistics
        (the function is unchanged), which is exactly the monotonicity
        property the paper's greedy traversal relies on (§4.2).
        """
        p = self.output_probability(gate, stats)
        d = self.output_density(gate, stats)
        if d > 0.0:
            p = min(1.0 - _EPS, max(_EPS, p))
        elif p not in (0.0, 1.0):
            p = min(1.0, max(0.0, p))
        return SignalStats(p, d)

#!/usr/bin/env python
"""The complete paper flow on one benchmark circuit.

BLIF in -> technology mapping onto the Table 2 library -> transistor
reordering for low power (Scenario A statistics) -> validation by
switch-level simulation -> delay check with static timing analysis.
This is the flow behind every Table 3 row of ``repro table3``: the
bench runner (``repro.bench.runner.run_suite``) maps each circuit once
and ``repro.analysis.run_table3_case`` runs the rest for each scenario.

Run:  python examples/full_flow.py [circuit-name]
"""

import sys

from repro.analysis import format_percent, format_si
from repro.bench import benchmark_suite, get_case
from repro.core import GatePowerModel, circuit_power, optimize_circuit
from repro.sim import ScenarioA, SwitchLevelSimulator, check_equivalence
from repro.synth import map_circuit
from repro.timing import circuit_delay


def main(name: str = "rca8") -> None:
    case = get_case(name)
    network = case.network()
    print(f"benchmark      : {case.name} — {case.description}")
    print(f"logic network  : {len(network)} nodes, "
          f"{len(network.inputs)} inputs, {len(network.outputs)} outputs")

    # --- technology mapping ------------------------------------------------
    circuit = map_circuit(network)
    assert check_equivalence(network, circuit), "mapping broke the function!"
    print(f"mapped netlist : {len(circuit)} gates "
          f"({circuit.transistor_count()} transistors)")
    print(f"gate mix       : {circuit.gate_count_by_template()}")

    # --- input statistics (Scenario A) -------------------------------------
    scenario = ScenarioA(seed=42)
    stats = scenario.input_stats(circuit.inputs)

    # --- optimisation -------------------------------------------------------
    model = GatePowerModel()
    best = optimize_circuit(circuit, stats, model, objective="best")
    worst = optimize_circuit(circuit, stats, model, objective="worst")
    improved = sum(1 for d in best.decisions if d.saving_vs_default > 1e-12)
    print(f"reordered gates: {improved} of {len(best.decisions)} "
          f"improve on the as-mapped ordering")
    print(f"model power    : best {format_si(best.power_after, 'W')}, "
          f"worst {format_si(worst.power_after, 'W')} "
          f"(M = {format_percent(1 - best.power_after / worst.power_after)}%)")

    # --- switch-level validation -------------------------------------------
    mean_density = sum(s.density for s in stats.values()) / len(stats)
    stimulus = scenario.generate(circuit.inputs, duration=150.0 / mean_density)
    sim_best = SwitchLevelSimulator(best.circuit).run(stimulus)
    sim_worst = SwitchLevelSimulator(worst.circuit).run(stimulus)
    s = 1.0 - sim_best.power / sim_worst.power
    print(f"simulated power: best {format_si(sim_best.power, 'W')}, "
          f"worst {format_si(sim_worst.power, 'W')} (S = {format_percent(s)}%)")

    # --- timing -------------------------------------------------------------
    d0 = circuit_delay(circuit)
    d1 = circuit_delay(best.circuit)
    print(f"delay          : {format_si(d0, 's')} -> {format_si(d1, 's')} "
          f"(D = {format_percent((d1 - d0) / d0)}%)")

    # --- model accuracy ------------------------------------------------------
    report = circuit_power(best.circuit, stats, model)
    print(f"model/sim ratio: {report.total / sim_best.power:.2f} "
          f"(the paper notes the model overestimates by an offset)")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "rca8")

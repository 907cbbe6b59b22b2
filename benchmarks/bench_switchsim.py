"""Acceptance benchmark: the lowered switch-level loop vs its oracle.

The claim under test: :class:`repro.sim.switchsim.SwitchLevelSimulator`
runs its Elmore event loop on integer arrays lowered once per circuit,
and that makes ``run`` at least 3x faster than the readable
:class:`repro.sim.switchsim_reference.ReferenceSwitchSimulator` on the
largest suite circuit — with reports equal field for field.  Both
simulators get the Table 3 flow's stimuli (scenario A, about 150
transitions per input; scenario B, 250 clock cycles) and run
transport-delay Elmore mode, the mode that produces Table 3's S
column.  Each side's time is the best of three runs.

Run with::

    pytest -m bench benchmarks/bench_switchsim.py -s

(the ``bench`` marker is deselected by default so tier-1 stays fast).
"""

import statistics
import time

import pytest

from repro.analysis.experiments import case_seed
from repro.bench.suite import benchmark_suite, get_case
from repro.sim.stimulus import ScenarioA, ScenarioB
from repro.sim.switchsim import SwitchLevelSimulator
from repro.sim.switchsim_reference import ReferenceSwitchSimulator
from repro.synth.mapper import map_circuit

REQUIRED_SPEEDUP = 3.0
REPEATS = 3


def largest_case_name() -> str:
    sizes = [
        (len(map_circuit(case.network())), case.name)
        for case in benchmark_suite("full")
    ]
    return max(sizes)[1]


def table3_stimuli(circuit, name):
    generator = ScenarioA(seed=case_seed(name))
    stats = generator.input_stats(circuit.inputs)
    duration = 150.0 / statistics.mean(s.density for s in stats.values())
    yield "A", generator.generate(circuit.inputs, duration)
    yield "B", ScenarioB(seed=case_seed(name)).generate(circuit.inputs, 250)


def best_run(simulator, stimulus):
    """(report, best wall time of ``run`` over REPEATS calls)."""
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        report = simulator.run(stimulus)
        best = min(best, time.perf_counter() - start)
    return report, best


def report_fields(report):
    return (report.duration,
            [(n, e.internal, e.output) for n, e in report.gate_energy.items()],
            report.input_net_energy,
            list(report.net_transitions.items()),
            list(report.net_high_time.items()),
            repr(report.power))


@pytest.mark.bench
def test_lowered_run_speedup_on_largest_circuit():
    name = largest_case_name()
    circuit = map_circuit(get_case(name).network())
    print(f"\n{name}: {len(circuit)} gates, Elmore transport delay")
    for scenario, stimulus in table3_stimuli(circuit, name):
        lowered, lowered_s = best_run(SwitchLevelSimulator(circuit), stimulus)
        reference, reference_s = best_run(
            ReferenceSwitchSimulator(circuit), stimulus)
        assert report_fields(lowered) == report_fields(reference)
        speedup = reference_s / lowered_s
        print(f"  scenario {scenario}: {stimulus.event_count()} input events;"
              f" reference {reference_s:.3f}s, lowered {lowered_s:.3f}s,"
              f" speedup {speedup:.1f}x (required >= {REQUIRED_SPEEDUP:.0f}x)")
        assert speedup >= REQUIRED_SPEEDUP

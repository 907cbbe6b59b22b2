"""E4 + E7 — paper Table 3: the main evaluation.

For every suite circuit and both scenarios, runs the complete flow
(map -> optimise best/worst -> switch-level simulate both -> STA) and
prints the paper's columns: G (gates), M (model best-vs-worst power
reduction), S (simulated reduction), D (delay increase of the
power-optimised circuit).

Shape claims under test (paper §5 / conclusions):

* scenario A average simulated reduction ≈ 12 % (we accept 4-25 %);
* the scenario B average is clearly below scenario A (paper: roughly
  half);
* the average delay change is small (|D| below ~15 %, paper: +4 %);
* the model average tracks the simulated average within a few points.

Set ``REPRO_TABLE3_SUBSET=full`` for the full 30-circuit run (the
default "quick" subset keeps CI fast).
"""

import os

import pytest

from repro.analysis.report import format_percent, format_table
from repro.analysis.stats import mean
from repro.bench.runner import run_suite

SUBSET = os.environ.get("REPRO_TABLE3_SUBSET", "quick")


@pytest.fixture(scope="module")
def table3_results():
    """The bench runner's rows, the ones `repro table3` prints."""
    rows = run_suite(subset=SUBSET, scenarios=("A", "B"), seed=0)["results"]
    assert all(r["status"] == "ok" for r in rows), rows
    return {sc: [r for r in rows if r["scenario"] == sc] for sc in ("A", "B")}


def _print_scenario(rows, scenario):
    table = [
        (r["circuit"], r["gates"], format_percent(r["model_reduction"]),
         format_percent(r["sim_reduction"]),
         format_percent(r["delay_increase"]))
        for r in rows
    ]
    footer = ("average", "",
              format_percent(mean([r["model_reduction"] for r in rows])),
              format_percent(mean([r["sim_reduction"] for r in rows])),
              format_percent(mean([r["delay_increase"] for r in rows])))
    print()
    print(format_table(("Circuit", "G", "M%", "S%", "D%"), table,
                       title=f"Table 3 - scenario {scenario} ({SUBSET} subset)",
                       footer=footer))


def test_table3_runs(benchmark, table3_results):
    # The heavy work happens in the fixture; benchmark the re-aggregation
    # so pytest-benchmark still reports a timing row for E4.
    benchmark.pedantic(
        lambda: {sc: len(rows) for sc, rows in table3_results.items()},
        rounds=1, iterations=1,
    )
    for scenario, rows in table3_results.items():
        _print_scenario(rows, scenario)
        assert len(rows) >= 8


def test_table3_scenario_a_average(benchmark, table3_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = table3_results["A"]
    avg_sim = mean([r["sim_reduction"] for r in rows])
    avg_model = mean([r["model_reduction"] for r in rows])
    # Paper: 12% simulated / 9% estimated average in scenario A.
    assert 0.04 <= avg_sim <= 0.25, f"scenario A avg S = {avg_sim:.3f}"
    assert 0.04 <= avg_model <= 0.25, f"scenario A avg M = {avg_model:.3f}"
    # Model and simulation agree on the trend.
    assert abs(avg_model - avg_sim) < 0.08


def test_table3_scenario_b_below_a(benchmark, table3_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    avg_a = mean([r["sim_reduction"] for r in table3_results["A"]])
    avg_b = mean([r["sim_reduction"] for r in table3_results["B"]])
    # Paper: "the power reduction in scenario B is roughly half of A".
    assert avg_b < avg_a
    assert avg_b >= 0.0
    assert avg_b / avg_a < 0.85


def test_table3_delay_impact_small(benchmark, table3_results):
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    rows = table3_results["A"]
    avg_delay = mean([r["delay_increase"] for r in rows])
    # Paper: +4% average; sign may differ with our Elmore model, but the
    # impact must stay small relative to the power savings.
    assert abs(avg_delay) < 0.15, f"avg delay change = {avg_delay:.3f}"


def test_table3_model_positive_everywhere(benchmark, table3_results):
    """Best-vs-worst is non-negative by construction of the model."""
    benchmark.pedantic(lambda: None, rounds=1, iterations=1)
    for rows in table3_results.values():
        for r in rows:
            assert r["model_reduction"] >= -1e-9, r
            assert r["model_power_best"] > 0.0
            assert r["sim_power_best"] > 0.0

"""Tests for report formatting, statistics and the experiment drivers."""

import pytest

from repro.analysis.experiments import (
    run_adder_activity,
    run_table1,
    run_table2,
    run_table3_case,
)
from repro.analysis.report import format_percent, format_si, format_table
from repro.analysis.stats import geomean, mean, relative_increase, relative_reduction
from repro.bench.suite import get_case
from repro.synth.mapper import map_circuit


class TestFormatting:
    def test_format_percent(self):
        assert format_percent(0.123) == "12.3"
        assert format_percent(-0.05) == "-5.0"
        assert format_percent(0.0) == "0.0"

    def test_format_si(self):
        assert format_si(1.5e-9, "W") == "1.50nW"
        assert format_si(2.3e-6, "s") == "2.30us"
        assert format_si(0.0, "W") == "0W"
        assert format_si(1.0) == "1.00"

    def test_format_table_alignment(self):
        text = format_table(("Name", "Value"), [("a", 1), ("bb", 22)])
        lines = text.splitlines()
        assert lines[0].startswith("Name")
        assert lines[1].startswith("-")
        assert len(lines) == 4

    def test_format_table_footer_and_title(self):
        text = format_table(("N", "V"), [("a", 1)], title="T", footer=("sum", 1))
        assert text.splitlines()[0] == "T"
        assert "sum" in text.splitlines()[-1]


class TestStats:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == 2.0
        with pytest.raises(ValueError):
            mean([])

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geomean([0.0, 1.0])

    def test_relative_reduction(self):
        assert relative_reduction(10.0, 8.0) == pytest.approx(0.2)
        assert relative_reduction(0.0, 5.0) == 0.0

    def test_relative_increase(self):
        assert relative_increase(10.0, 11.0) == pytest.approx(0.1)
        assert relative_increase(0.0, 1.0) == 0.0


class TestTable1Driver:
    def test_two_cases_with_moving_optimum(self):
        rows = run_table1()
        assert len(rows) == 2
        assert rows[0].best_index != rows[1].best_index
        for row in rows:
            assert len(row.relative_powers) == 4
            assert max(row.relative_powers) == pytest.approx(1.0)
            assert 0.0 < row.reduction_vs_worst < 0.5


class TestTable2Driver:
    def test_counts(self):
        table = dict(run_table2())
        assert table["aoi222"] == 48
        assert table["inv"] == 1
        assert len(table) == 17


def mapped(name):
    case = get_case(name)
    return case, map_circuit(case.network())


class TestTable3Driver:
    def test_single_case_scenario_a(self):
        case, circuit = mapped("fa1")
        row = run_table3_case(case, "A", circuit=circuit, seed=1,
                              target_transitions=60.0)
        assert row.scenario == "A"
        assert row.gates > 0
        assert 0.0 <= row.model_reduction < 0.5
        assert -0.3 < row.sim_reduction < 0.5
        assert row.model_power_best > 0.0
        assert row.sim_power_best > 0.0

    def test_single_case_scenario_b(self):
        case, circuit = mapped("c17")
        row = run_table3_case(case, "B", circuit=circuit, seed=1, cycles=100)
        assert row.scenario == "B"
        assert row.model_reduction >= 0.0

    def test_one_propagation_per_scenario(self, monkeypatch):
        # The best and the worst run share one (P, D) sweep: no
        # reordering moves a statistic.
        from repro.compiled.circuit import CompiledCircuit

        calls = []
        stats_arrays = CompiledCircuit.stats_arrays

        def counted(self, input_stats):
            calls.append(1)
            return stats_arrays(self, input_stats)

        monkeypatch.setattr(CompiledCircuit, "stats_arrays", counted)
        case, circuit = mapped("c17")
        for scenario in ("A", "B"):
            calls.clear()
            run_table3_case(case, scenario, circuit=circuit, seed=1,
                            target_transitions=30.0, cycles=50)
            assert len(calls) == 1

    def test_bad_scenario(self):
        case, circuit = mapped("c17")
        with pytest.raises(ValueError):
            run_table3_case(case, "C", circuit=circuit)


class TestAdderActivityDriver:
    def test_monotone_carry_chain(self):
        profile = run_adder_activity(4)
        carries = [profile[f"c{i}"] for i in range(4)]
        assert all(c > profile["operand"] for c in carries)
        for lo, hi in zip(carries, carries[1:]):
            assert hi >= lo - 1e-9

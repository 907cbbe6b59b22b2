"""Experiment drivers and report formatting."""

from .experiments import (
    Table1Row,
    Table3Row,
    case_seed,
    run_adder_activity,
    run_table1,
    run_table2,
    run_table2_instances,
    run_table3_case,
)
from .glitches import GlitchReport, analyze_glitches
from .report import format_percent, format_si, format_table
from .stats import geomean, mean, relative_increase, relative_reduction

__all__ = [
    "case_seed",
    "run_table1",
    "run_table2",
    "run_table2_instances",
    "run_table3_case",
    "run_adder_activity",
    "Table1Row",
    "Table3Row",
    "format_table",
    "format_percent",
    "format_si",
    "GlitchReport",
    "analyze_glitches",
    "mean",
    "geomean",
    "relative_reduction",
    "relative_increase",
]

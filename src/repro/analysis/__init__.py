"""Result analysis: statistics, ASCII tables, strategy comparison."""

from repro.analysis.compare import crossover_point, speedup
from repro.analysis.stats import jain_index, summarize
from repro.analysis.report import render_experiment_section, render_markdown_report, render_scorecard
from repro.analysis.tables import format_table

__all__ = [
    "crossover_point",
    "format_table",
    "jain_index",
    "render_experiment_section",
    "render_markdown_report",
    "render_scorecard",
    "speedup",
    "summarize",
]

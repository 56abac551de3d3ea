"""Statistics and analytical results: confidence intervals, theory bounds."""

from repro.analysis.stats import mean_ci, ConfidenceInterval
from repro.analysis.bounds import (
    grid_id_bound,
    uniform_id_bound,
    connectivity_range_uniform,
    approximation_bound,
    fdd_step_complexity_bound,
)
from repro.analysis.tables import TextTable
from repro.analysis.asciiplot import AsciiPlot

__all__ = [
    "mean_ci",
    "ConfidenceInterval",
    "grid_id_bound",
    "uniform_id_bound",
    "connectivity_range_uniform",
    "approximation_bound",
    "fdd_step_complexity_bound",
    "TextTable",
    "AsciiPlot",
]

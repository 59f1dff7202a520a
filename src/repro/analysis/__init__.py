"""Analysis toolkit: boxplot statistics, rendering, and experiment running.

The paper reports per-event matching times as boxplots (Figures 6-9)
and a quartile table (Figure 10).  This package computes the same
statistics — quartiles, the 1.5 x IQR whiskers, outliers — renders
ASCII boxplots and tables, and provides the harness the benchmark
suite uses to regenerate every figure.
"""

from repro.analysis.stats import BoxplotStats, compute_boxplot
from repro.analysis.boxplot import render_boxplots
from repro.analysis.diagram import render_diagram
from repro.analysis.export import causality_edges, to_dot
from repro.analysis.metrics import ComputationMetrics, compute_metrics, happens_before_graph
from repro.analysis.tables import format_table, quartile_table
from repro.analysis.runner import CaseResult, run_case, scaled

__all__ = [
    "BoxplotStats",
    "compute_boxplot",
    "render_boxplots",
    "render_diagram",
    "causality_edges",
    "to_dot",
    "ComputationMetrics",
    "compute_metrics",
    "happens_before_graph",
    "format_table",
    "quartile_table",
    "CaseResult",
    "run_case",
    "scaled",
]

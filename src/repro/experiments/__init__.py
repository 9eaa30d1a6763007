"""Experiment harness reproducing every table and figure of the paper's evaluation.

Module map (see docs/experiments.md for the full per-experiment index):

================================  =============================================
Module                            Paper artefact
================================  =============================================
``bell_example``                  Figure 2, Tables 2/3/5, Equation 3
``figure1_ac_reduction``          Figure 1 (AC size before/after optimizations)
``figure3_peaked_distribution``   Figure 3 (peaked QAOA output distribution)
``figure6_scaling``               Figure 6 and Table 4 (AC nodes vs CNF size)
``figure7_sampling_error``        Figure 7 (KL divergence vs samples)
``figure8_ideal_performance``     Figure 8 (ideal-circuit sampling time)
``figure9_noisy_performance``     Figure 9 (noisy-circuit sampling time)
``table6_compilation_metrics``    Table 6 (compilation metrics)
``runner``                        runs everything (``python -m repro.experiments.runner``)
================================  =============================================
"""

from . import (
    ablation_orderings,
    bell_example,
    figure1_ac_reduction,
    figure3_peaked_distribution,
    figure6_scaling,
    figure7_sampling_error,
    figure8_ideal_performance,
    figure9_noisy_performance,
    table6_compilation_metrics,
)
from .common import ExperimentResult, format_table, rows_to_csv, time_callable, write_csv

__all__ = [
    "ExperimentResult",
    "format_table",
    "rows_to_csv",
    "write_csv",
    "time_callable",
    "ablation_orderings",
    "bell_example",
    "figure1_ac_reduction",
    "figure3_peaked_distribution",
    "figure6_scaling",
    "figure7_sampling_error",
    "figure8_ideal_performance",
    "figure9_noisy_performance",
    "table6_compilation_metrics",
]

"""Experiment drivers reproducing every figure of the paper's evaluation.

Each module implements one experiment as a pure library function returning
a structured result, plus a text formatter.  The benchmark harness
(``benchmarks/``) and the command-line runner (``python -m
repro.experiments``) are thin wrappers around these drivers, so the exact
same code path produces the numbers recorded in ``benchmarks/README.md``.

| Experiment | Paper figure | Driver |
|---|---|---|
| Voronoi out-degree histograms | Figure 5 | :mod:`repro.experiments.fig5_degree` |
| Route length vs overlay size  | Figure 6 | :mod:`repro.experiments.fig6_routes` |
| log(H) vs log(log N) slope    | Figure 7 | :mod:`repro.experiments.fig7_slope` |
| Effect of #long links         | Figure 8 | :mod:`repro.experiments.fig8_longlinks` |
| Close-neighbour ablation      | (ABL1)   | :mod:`repro.experiments.ablation_close_neighbors` |
| Baseline comparison           | (ABL2)   | :mod:`repro.experiments.ablation_baselines` |
| Maintenance cost              | (ABL3)   | :mod:`repro.experiments.ablation_maintenance` |
| Churn/crash repair (protocol) | (ABL4)   | :mod:`repro.experiments.ablation_churn_protocol` |

Every driver accepts a ``scale`` factor: 1.0 is the laptop-sized default
(see :mod:`repro.experiments.runner`); larger values approach the paper's
300 000-object runs at correspondingly larger runtimes.
"""

from repro.experiments.fig5_degree import Fig5Result, run_fig5
from repro.experiments.fig6_routes import Fig6Result, run_fig6
from repro.experiments.fig7_slope import Fig7Result, run_fig7
from repro.experiments.fig8_longlinks import Fig8Result, run_fig8
from repro.experiments.ablation_close_neighbors import AblationCloseResult, run_ablation_close
from repro.experiments.ablation_baselines import BaselineComparisonResult, run_baseline_comparison
from repro.experiments.ablation_maintenance import MaintenanceResult, run_maintenance_experiment
from repro.experiments.ablation_churn_protocol import (
    ChurnProtocolResult,
    run_ablation_churn_protocol,
)

__all__ = [
    "run_fig5",
    "Fig5Result",
    "run_fig6",
    "Fig6Result",
    "run_fig7",
    "Fig7Result",
    "run_fig8",
    "Fig8Result",
    "run_ablation_close",
    "AblationCloseResult",
    "run_baseline_comparison",
    "BaselineComparisonResult",
    "run_maintenance_experiment",
    "MaintenanceResult",
    "run_ablation_churn_protocol",
    "ChurnProtocolResult",
]

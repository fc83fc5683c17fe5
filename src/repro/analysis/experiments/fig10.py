"""Fig. 10 — CDF of path latency fluctuation: CV of SRTT per (prefix, PoP).

Sessions grouped by (client /24 prefix, serving PoP); each session
contributes its mean SRTT; the CV across a path's sessions measures
long-term path stability.  The paper finds ~40% of paths with CV > 1.
"""

from __future__ import annotations

import numpy as np

from ...analysis.stats import empirical_cdf
from ...core.netdiag import path_cv_values
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig10"
TITLE = "Fig. 10: CV of latency per (prefix, PoP) path"


def run(dataset: Dataset, min_sessions: int = 5) -> ExperimentResult:
    values = path_cv_values(dataset, min_sessions=min_sessions)
    cdf = empirical_cdf(values)
    high_fraction = float(np.mean([v > 1.0 for v in values])) if values else 0.0
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"path_cv_values": values},
        summary={
            "n_paths": float(len(values)),
            "median_path_cv": cdf.median if len(cdf) else float("nan"),
            "fraction_paths_cv_above_1": high_fraction,
        },
        checks={
            "paths_measured": len(values) >= 20,
            "high_variation_paths_exist": high_fraction > 0.02,
            "cv_distribution_skewed": len(cdf) > 0
            and cdf.value_at(0.95) > 2.0 * max(cdf.median, 1e-9),
        },
    )

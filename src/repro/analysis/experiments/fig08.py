"""Fig. 8 — CDF of baseline latency and latency variation across sessions.

srtt_min (the per-session baseline, computed from per-chunk minima of SRTT
and the rtt0 upper bound) and σ(SRTT) (the per-session standard deviation).
Both problems coexist in the population: a heavy baseline tail (distance,
enterprise paths) and a heavy variation tail (episodes).
"""

from __future__ import annotations

import numpy as np

from ...analysis.stats import empirical_cdf
from ...core.decomposition import session_min_rtt, session_srtt_sigma
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig08"
TITLE = "Fig. 8: CDFs of srtt_min and sigma(SRTT) across sessions"


def run(dataset: Dataset) -> ExperimentResult:
    minima = []
    sigmas = []
    for session in dataset.sessions():
        baseline = session_min_rtt(session)
        if baseline is not None:
            minima.append(baseline)
        sigma = session_srtt_sigma(session)
        if sigma is not None:
            sigmas.append(sigma)

    min_cdf = empirical_cdf(minima)
    sigma_cdf = empirical_cdf(sigmas)
    tail_fraction = float(np.mean([m > 100.0 for m in minima])) if minima else 0.0

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={
            "srtt_min_ms": minima[:5000],
            "sigma_srtt_ms": sigmas[:5000],
        },
        summary={
            "median_srtt_min_ms": min_cdf.median if len(min_cdf) else float("nan"),
            "p90_srtt_min_ms": min_cdf.value_at(0.9) if len(min_cdf) else float("nan"),
            "median_sigma_srtt_ms": sigma_cdf.median if len(sigma_cdf) else float("nan"),
            "p90_sigma_srtt_ms": sigma_cdf.value_at(0.9) if len(sigma_cdf) else float("nan"),
            "fraction_srtt_min_above_100ms": tail_fraction,
        },
        checks={
            "baseline_tail_exists": tail_fraction > 0.01,
            "variation_tail_exists": len(sigma_cdf) > 0
            and sigma_cdf.value_at(0.9) > 3.0 * max(sigma_cdf.median, 1e-9),
            "median_baseline_reasonable": len(min_cdf) > 0
            and 5.0 <= min_cdf.median <= 200.0,
        },
    )

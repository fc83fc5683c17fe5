"""Fig. 12 — re-buffering rate vs retransmission rate across sessions.

Higher loss rates generally indicate higher re-buffering, though §4.2-3
stresses the relation is noisy because loss *position* matters too.
"""

from __future__ import annotations

import numpy as np

from ...core.netdiag import session_rebuffer_vs_retx
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig12"
TITLE = "Fig. 12: rebuffering rate vs retransmission rate"


def run(dataset: Dataset) -> ExperimentResult:
    rows = session_rebuffer_vs_retx(dataset)
    centers = np.array([c for c, _, _ in rows])
    means = np.array([m for _, m, _ in rows])
    counts = np.array([n for _, _, n in rows])
    # Session-count-weighted correlation over the binned relation: the
    # sparse high-retx tail bins hold a handful of sessions each, so an
    # unweighted correlation is dominated by their noise (the paper calls
    # the relation noisy — loss position matters as much as loss rate).
    trend = 0.0
    if len(rows) >= 3:
        cov = np.cov(np.vstack([centers, means]), aweights=counts)
        if cov[0, 0] > 0 and cov[1, 1] > 0:
            trend = float(cov[0, 1] / np.sqrt(cov[0, 0] * cov[1, 1]))
    # Pooled low/high comparison: rebuffering among sessions with >= 2%
    # retransmissions vs the (large) < 1% population.
    sessions = dataset.sessions()
    low = [100.0 * s.rebuffer_rate for s in sessions if 100.0 * s.session_retx_rate < 1.0]
    high = [100.0 * s.rebuffer_rate for s in sessions if 100.0 * s.session_retx_rate >= 2.0]
    low_mean = float(np.mean(low)) if low else float("nan")
    high_mean = float(np.mean(high)) if high else float("nan")
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"retx_pct_center__rebuffer_pct__n": [tuple(r) for r in rows]},
        summary={
            "n_bins": float(len(rows)),
            "rebuffer_pct_low_retx": low_mean,
            "rebuffer_pct_high_retx": high_mean,
            "weighted_binned_correlation": trend,
        },
        checks={
            "rebuffering_rises_with_loss": bool(
                low and high and high_mean > 1.5 * max(low_mean, 1e-9)
            ),
            "positive_trend": trend > 0.3,
        },
    )

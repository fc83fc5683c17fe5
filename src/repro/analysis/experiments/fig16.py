"""Fig. 16 — latency vs throughput shares for good and bad chunks.

Chunks split by Eq. 2's performance score (τ/(D_FB+D_LB) ≷ 1):
(a) the latency share D_FB/(D_FB+D_LB) — bad chunks have *lower* latency
share, i.e. they are throughput-dominated; (b,c) raw D_FB and D_LB — both
higher for bad chunks, but the D_LB gap is the defining one.
"""

from __future__ import annotations

import numpy as np

from ...core.perfscore import latency_share, split_by_score
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig16"
TITLE = "Fig. 16: latency share, D_FB, D_LB by performance score"


def run(dataset: Dataset) -> ExperimentResult:
    good, bad = split_by_score(dataset.join_chunks())
    good_shares = [latency_share(c.player) for c in good]
    bad_shares = [latency_share(c.player) for c in bad]
    good_dfb = [c.player.dfb_ms for c in good]
    bad_dfb = [c.player.dfb_ms for c in bad]
    good_dlb = [c.player.dlb_ms for c in good]
    bad_dlb = [c.player.dlb_ms for c in bad]

    def med(values):
        return float(np.median(values)) if values else float("nan")

    dfb_gap = med(bad_dfb) - med(good_dfb)
    dlb_gap = med(bad_dlb) - med(good_dlb)

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={
            "good_latency_shares": good_shares[:5000],
            "bad_latency_shares": bad_shares[:5000],
            "good_dfb_ms": good_dfb[:5000],
            "bad_dfb_ms": bad_dfb[:5000],
            "good_dlb_ms": good_dlb[:5000],
            "bad_dlb_ms": bad_dlb[:5000],
        },
        summary={
            "n_good": float(len(good)),
            "n_bad": float(len(bad)),
            "median_latency_share_good": med(good_shares),
            "median_latency_share_bad": med(bad_shares),
            "median_dfb_good_ms": med(good_dfb),
            "median_dfb_bad_ms": med(bad_dfb),
            "median_dlb_good_ms": med(good_dlb),
            "median_dlb_bad_ms": med(bad_dlb),
        },
        checks={
            "bad_chunks_exist": len(bad) > 20,
            "good_chunks_have_higher_latency_share": med(good_shares) > med(bad_shares),
            "bad_chunks_throughput_dominated": med(bad_shares) < 0.5,
            "dlb_gap_dwarfs_dfb_gap": dlb_gap > 3.0 * max(dfb_gap, 1.0),
        },
    )

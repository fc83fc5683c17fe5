"""Fig. 11 — sessions with vs without loss: length, bitrate, re-buffering.

The paper's three panels: the session-length and average-bitrate
distributions are nearly identical between the two groups, but the
re-buffering CCDF separates clearly — loss sessions rebuffer more.
"""

from __future__ import annotations

import numpy as np

from ...core.netdiag import split_sessions_by_loss
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig11"
TITLE = "Fig. 11: session length / bitrate / rebuffering, loss vs no-loss"


def run(dataset: Dataset) -> ExperimentResult:
    split = split_sessions_by_loss(dataset)
    summary = split.summary()
    loss = summary["loss"]
    no_loss = summary["no_loss"]

    chunks_similar = (
        no_loss["n"] > 0
        and loss["n"] > 0
        and abs(loss["median_chunks"] - no_loss["median_chunks"])
        <= max(2.0, 0.5 * no_loss["median_chunks"])
    )
    bitrate_similar = (
        no_loss["n"] > 0
        and loss["n"] > 0
        and abs(loss["median_bitrate_kbps"] - no_loss["median_bitrate_kbps"])
        <= 0.35 * max(no_loss["median_bitrate_kbps"], 1.0)
    )
    rebuffer_separates = (
        loss.get("rebuffer_session_fraction", 0.0)
        > 2.0 * max(no_loss.get("rebuffer_session_fraction", 0.0), 1e-4)
    )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={
            "loss_session_chunks": [s.n_chunks for s in split.with_loss[:5000]],
            "no_loss_session_chunks": [s.n_chunks for s in split.without_loss[:5000]],
            "loss_session_bitrate": [s.avg_bitrate_kbps for s in split.with_loss[:5000]],
            "no_loss_session_bitrate": [
                s.avg_bitrate_kbps for s in split.without_loss[:5000]
            ],
            "loss_rebuffer_rates_pct": [
                100.0 * s.rebuffer_rate for s in split.with_loss[:5000]
            ],
            "no_loss_rebuffer_rates_pct": [
                100.0 * s.rebuffer_rate for s in split.without_loss[:5000]
            ],
        },
        summary={
            "n_loss_sessions": loss["n"],
            "n_no_loss_sessions": no_loss["n"],
            "median_chunks_loss": loss.get("median_chunks", float("nan")),
            "median_chunks_no_loss": no_loss.get("median_chunks", float("nan")),
            "median_bitrate_loss": loss.get("median_bitrate_kbps", float("nan")),
            "median_bitrate_no_loss": no_loss.get("median_bitrate_kbps", float("nan")),
            "rebuffer_fraction_loss": loss.get("rebuffer_session_fraction", float("nan")),
            "rebuffer_fraction_no_loss": no_loss.get(
                "rebuffer_session_fraction", float("nan")
            ),
        },
        checks={
            "both_groups_populated": loss["n"] > 50 and no_loss["n"] > 50,
            "session_length_similar": bool(chunks_similar),
            "bitrate_similar": bool(bitrate_similar),
            "rebuffering_separates_groups": bool(rebuffer_separates),
        },
    )

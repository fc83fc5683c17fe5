"""Fig. 7 — startup delay vs first-chunk network latency (SRTT).

Same presentation as Fig. 4 but against the first chunk's SRTT: high
network round-trip times push startup delay up roughly linearly (every
slow-start round costs one RTT).
"""

from __future__ import annotations

from ...core.qoe import startup_vs_first_chunk_srtt
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig07"
TITLE = "Fig. 7: startup delay vs first-chunk SRTT"


def run(dataset: Dataset) -> ExperimentResult:
    binned = startup_vs_first_chunk_srtt(dataset)
    rows = binned.rows()
    means = [mean for _, mean, _, _, _, _ in rows]
    increase = means[-1] - means[0] if len(means) >= 2 else 0.0
    monotone_pairs = sum(1 for a, b in zip(means[:-1], means[1:]) if b >= a)
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"rows_center_mean_median_q25_q75_n": rows},
        summary={
            "n_bins": float(len(rows)),
            "startup_ms_low_srtt": means[0] if means else float("nan"),
            "startup_ms_high_srtt": means[-1] if means else float("nan"),
            "startup_increase_ms": increase,
        },
        checks={
            "startup_grows_with_srtt": increase > 0,
            "mostly_monotone": len(means) >= 3
            and monotone_pairs >= 0.7 * (len(means) - 1),
        },
    )

"""Fig. 15 — average per-chunk retransmission rate.

The first chunk carries by far the highest retransmission rate: slow
start doubles the window until it overruns the bottleneck queue, and the
resulting burst loss lands in chunk 0.  Later chunks, in congestion
avoidance, lose little.
"""

from __future__ import annotations

import numpy as np

from ...core.netdiag import per_chunk_retx_rates
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig15"
TITLE = "Fig. 15: average retransmission rate per chunk position"


def run(dataset: Dataset, max_chunk_id: int = 12) -> ExperimentResult:
    rows = per_chunk_retx_rates(dataset, max_chunk_id=max_chunk_id)
    rates = {cid: rate for cid, rate in rows}
    first = rates.get(0, 0.0)
    later = [rate for cid, rate in rows if cid >= 2]
    later_mean = float(np.mean(later)) if later else 0.0
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"retx_rate_by_chunk": [(cid, 100.0 * r) for cid, r in rows]},
        summary={
            "first_chunk_retx_pct": 100.0 * first,
            "later_chunks_retx_pct": 100.0 * later_mean,
            "first_to_later_ratio": first / later_mean if later_mean > 0 else float("inf"),
        },
        checks={
            "first_chunk_highest": bool(rows)
            and first >= max(rate for _, rate in rows) - 1e-12,
            "first_chunk_much_higher": later_mean > 0 and first > 2.0 * later_mean,
        },
    )

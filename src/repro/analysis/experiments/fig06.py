"""Fig. 6 — performance vs popularity.

(a) cache-miss percentage among videos ranked >= x — rises steeply into
the unpopular tail; (b) median hit-only server delay among videos ranked
>= x — even hits get slower with rank because cold content reads from
disk (retry timer + seek).
"""

from __future__ import annotations

import numpy as np

from ...core.popularity import rank_tail_hit_latency, rank_tail_miss_percentage
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig06"
TITLE = "Fig. 6: cache miss rate and hit latency vs video rank"


def run(dataset: Dataset) -> ExperimentResult:
    miss_rows = rank_tail_miss_percentage(dataset)
    latency_rows = rank_tail_hit_latency(dataset)

    miss_values = [pct for _, pct in miss_rows]
    latency_values = [ms for _, ms in latency_rows]

    def mostly_increasing(values) -> bool:
        if len(values) < 3:
            return False
        # Dips below 1% of the running value are seed noise, not a trend
        # reversal — the paper's claim is about the decade-scale rise.
        ups = sum(1 for a, b in zip(values[:-1], values[1:]) if b >= 0.99 * a)
        return ups >= 0.7 * (len(values) - 1)

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={
            "miss_pct_vs_rank_tail": miss_rows,
            "hit_latency_ms_vs_rank_tail": latency_rows,
        },
        summary={
            "head_miss_pct": miss_values[0] if miss_values else float("nan"),
            "tail_miss_pct": miss_values[-1] if miss_values else float("nan"),
            "head_hit_latency_ms": latency_values[0] if latency_values else float("nan"),
            "tail_hit_latency_ms": latency_values[-1] if latency_values else float("nan"),
        },
        checks={
            "miss_rate_rises_with_rank": mostly_increasing(miss_values),
            "hit_latency_rises_with_rank": mostly_increasing(latency_values),
            "tail_miss_much_higher": len(miss_values) >= 2
            and miss_values[-1] > 1.5 * max(miss_values[0], 1e-9),
        },
    )

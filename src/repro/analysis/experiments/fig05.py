"""Fig. 5 — CDN latency breakdown across all chunks.

CDFs of D_wait, D_open, D_read, plus total server latency split by cache
hit vs miss.  The paper's signatures, all asserted here:

* D_wait < 1 ms for most chunks; D_open negligible;
* D_read bimodal, the two modes separated by the ~10 ms open-read-retry
  timer (which affects ~35% of chunks in the paper);
* median total: ~2 ms on a hit vs ~80 ms on a miss (~40x);
* misses dominate the ~5% of chunks where server latency exceeds the
  network RTT.
"""

from __future__ import annotations

import numpy as np

from ...analysis.stats import empirical_cdf
from ...core.decomposition import server_latency_exceeds_network
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig05"
TITLE = "Fig. 5: CDN latency breakdown (wait/open/read, hit vs miss)"


def run(dataset: Dataset) -> ExperimentResult:
    chunks = dataset.join_chunks()
    waits = [c.cdn.d_wait_ms for c in chunks]
    opens = [c.cdn.d_open_ms for c in chunks]
    reads = [c.cdn.d_read_ms for c in chunks]
    hit_total = [c.cdn.total_server_ms for c in chunks if c.cdn.is_hit]
    miss_total = [c.cdn.total_server_ms for c in chunks if not c.cdn.is_hit]

    retry_affected = float(np.mean([r >= 10.0 for r in reads])) if reads else 0.0
    median_hit = float(np.median(hit_total)) if hit_total else float("nan")
    median_miss = float(np.median(miss_total)) if miss_total else float("nan")

    # "for 95% of chunks, network latency is higher than server latency;
    # however, among the remaining 5%, the cache miss ratio is 40%".
    server_dominant = [c for c in chunks if server_latency_exceeds_network(c)]
    dominant_fraction = len(server_dominant) / len(chunks) if chunks else 0.0
    miss_ratio_overall = float(np.mean([not c.cdn.is_hit for c in chunks])) if chunks else 0.0
    miss_ratio_dominant = (
        float(np.mean([not c.cdn.is_hit for c in server_dominant]))
        if server_dominant
        else 0.0
    )

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={
            "wait_cdf": empirical_cdf(waits).xs.tolist()[:: max(1, len(waits) // 500)],
            "read_values_ms": reads[:5000],
            "hit_total_ms": hit_total[:5000],
            "miss_total_ms": miss_total[:5000],
        },
        summary={
            "median_wait_ms": float(np.median(waits)) if waits else float("nan"),
            "median_open_ms": float(np.median(opens)) if opens else float("nan"),
            "median_read_ms": float(np.median(reads)) if reads else float("nan"),
            "median_hit_total_ms": median_hit,
            "median_miss_total_ms": median_miss,
            "hit_miss_ratio": median_miss / median_hit if hit_total else float("nan"),
            "retry_timer_chunk_fraction": retry_affected,
            "server_dominant_fraction": dominant_fraction,
            "miss_ratio_among_server_dominant": miss_ratio_dominant,
            "miss_ratio_overall": miss_ratio_overall,
        },
        checks={
            "wait_negligible": bool(waits) and float(np.median(waits)) < 1.0,
            "open_negligible": bool(opens) and float(np.median(opens)) < 1.0,
            "read_bimodal_retry_timer": bool(reads)
            and float(np.percentile(reads, 95)) >= 10.0
            and float(np.median(reads)) < 10.0,
            "miss_order_of_magnitude": bool(miss_total)
            and median_miss / median_hit >= 10.0,
            "misses_dominate_server_dominant_chunks": miss_ratio_dominant
            > 2.0 * max(miss_ratio_overall, 1e-9),
        },
    )

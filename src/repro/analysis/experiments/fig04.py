"""Fig. 4 — impact of first-chunk server latency on startup time.

Startup delay (time to play) binned by the first chunk's server-side
latency (D_CDN + D_BE), with mean, median, and IQR error bars.  The paper's
shape: a clear monotone increase — server latency passes straight through
to the user's startup experience.
"""

from __future__ import annotations

import numpy as np

from ...core.qoe import startup_vs_first_chunk_server_latency
from ...telemetry.dataset import Dataset
from .base import ExperimentResult

EXPERIMENT_ID = "fig04"
TITLE = "Fig. 4: startup time vs first-chunk server latency"


def run(dataset: Dataset) -> ExperimentResult:
    binned = startup_vs_first_chunk_server_latency(dataset)
    rows = binned.rows()
    means = [mean for _, mean, _, _, _, _ in rows]
    # Judge the trend on binned *medians*: startup's download-phase tail
    # makes bin means noisy at simulation scale (the paper plots both and
    # its medians carry the trend too).
    medians = [median for _, _, median, _, _, _ in rows]
    increase = medians[-1] - medians[0] if len(medians) >= 2 else 0.0

    # Startup has a heavy-tailed download component, so raw-mean
    # regressions are fragile; the robust pass-through evidence is the
    # *median* startup and first-byte delay of miss-sessions (high server
    # latency) versus RAM-hit sessions (sub-millisecond server latency).
    startup_by_status: dict = {"hit_ram": [], "hit_disk": [], "miss": []}
    dfb_by_status: dict = {"hit_ram": [], "hit_disk": [], "miss": []}
    for session in dataset.sessions():
        if not session.chunks or session.chunks[0].chunk_id != 0:
            continue
        startup = session.startup_delay_ms
        if startup is None:
            continue
        first = session.chunks[0]
        startup_by_status.setdefault(first.cdn.cache_status, []).append(startup)
        dfb_by_status.setdefault(first.cdn.cache_status, []).append(first.player.dfb_ms)

    def med(values):
        return float(np.median(values)) if values else float("nan")

    median_startup_hit = med(startup_by_status["hit_ram"])
    median_startup_slow = med(
        startup_by_status["miss"] + startup_by_status["hit_disk"]
    )
    median_dfb_hit = med(dfb_by_status["hit_ram"])
    median_dfb_miss = med(dfb_by_status["miss"])

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"rows_center_mean_median_q25_q75_n": rows},
        summary={
            "n_bins": float(len(rows)),
            "startup_ms_low_server_latency": means[0] if means else float("nan"),
            "startup_ms_high_server_latency": means[-1] if means else float("nan"),
            "startup_increase_ms": increase,
            "median_startup_fast_server_ms": median_startup_hit,
            "median_startup_slow_server_ms": median_startup_slow,
            "median_first_dfb_hit_ms": median_dfb_hit,
            "median_first_dfb_miss_ms": median_dfb_miss,
        },
        checks={
            "startup_grows_with_server_latency": increase > 0,
            "slow_server_slower_startup": np.isfinite(median_startup_slow)
            and median_startup_slow > median_startup_hit,
            "server_latency_reaches_first_byte": np.isfinite(median_dfb_miss)
            and median_dfb_miss > median_dfb_hit + 30.0,
        },
    )

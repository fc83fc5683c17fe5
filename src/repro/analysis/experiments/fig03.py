"""Fig. 3 — dataset shape: video-length CCDF and rank-vs-popularity.

(a) CCDF of video durations over the catalog (long tail from tens of
seconds to hours); (b) normalized rank vs normalized request frequency on
log-log axes, with the headline skew statistic: the top 10% of videos
receive ~66% of all playbacks (§3).
"""

from __future__ import annotations

import numpy as np

from ...analysis.stats import empirical_ccdf
from ...workload.catalog import generate_catalog
from ...workload.popularity import PopularityModel
from ...workload.randomness import spawn
from .base import ExperimentResult

EXPERIMENT_ID = "fig03"
TITLE = "Fig. 3: video length CCDF and rank-vs-popularity skew"


def run(
    n_videos: int = 10_000,
    zipf_alpha: float = 0.8,
    n_requests: int = 200_000,
    seed: int = 7,
) -> ExperimentResult:
    """Build a full-size catalog and sample one day of requests."""
    catalog = generate_catalog(n_videos=n_videos, seed=seed, zipf_alpha=zipf_alpha)

    # (a) video-length CCDF, in seconds as the paper plots it.
    durations_s = [video.duration_ms / 1000.0 for video in catalog.videos]
    ccdf = empirical_ccdf(durations_s)

    # (b) rank vs observed frequency from sampled requests.
    rng = spawn(seed, "fig03-requests")
    ranks = catalog.popularity.sample_ranks(rng, n_requests)
    counts = np.bincount(ranks, minlength=n_videos).astype(float)
    order = np.argsort(-counts)
    frequencies = counts[order] / n_requests
    normalized_rank = (np.arange(n_videos) + 1) / n_videos

    top10_mass = catalog.popularity.top_fraction_mass(0.10)
    observed_top10 = float(frequencies[: max(1, n_videos // 10)].sum())

    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={
            "length_ccdf_xs_s": ccdf.xs.tolist(),
            "length_ccdf_ps": ccdf.ps.tolist(),
            "normalized_rank": normalized_rank.tolist(),
            "normalized_frequency": frequencies.tolist(),
        },
        summary={
            "median_video_length_s": float(np.median(durations_s)),
            "p99_video_length_s": float(np.percentile(durations_s, 99)),
            "top10pct_playback_share_model": top10_mass,
            "top10pct_playback_share_observed": observed_top10,
        },
        checks={
            "length_tail_spans_decades": max(durations_s) / max(min(durations_s), 1e-9) > 100,
            # §3: "top 10% of most popular videos receive about 66% of all
            # playbacks" — allow a band around the paper's 0.66.
            "top10pct_share_near_66pct": 0.55 <= observed_top10 <= 0.78,
            "popularity_monotone": bool(np.all(np.diff(frequencies[:100]) <= 1e-12)),
        },
    )

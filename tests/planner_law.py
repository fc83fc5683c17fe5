"""Two-sample law check of the calm-window TCP planner.

On a lossy path the planner (``TcpConnection._advance_calm_rounds``)
picks the first lossy round by inverting one uniform through the no-loss
survival product, where the per-round loop draws one binomial per round.
Draw by draw the two differ; in law they must agree.  This module runs
both on the same path profiles and compares the per-transfer outcome
distributions with two-sample Kolmogorov-Smirnov tests.  A no-op fault
probe forces the per-round loop: it consumes no draw and changes no
sampled value, and the planner only runs on probe-free paths.  The seeds
are fixed, so a verdict never changes between runs.

``tests/test_planner_law.py`` runs the small set in tier-1 and
``benchmarks/test_bench_planner_law.py`` the large set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

import numpy as np
from scipy.stats import ks_2samp

from repro.net.path import NetworkPath
from repro.net.tcp import TcpConnection

#: each connection carries this many transfers of this size, back to back
TRANSFER_BYTES = 1_500_000
TRANSFERS = 2
IDLE_MS = 2_000.0
METRICS = ("duration_ms", "rounds", "segments_retx")
ARMS = ("planner", "per-round")
#: false-alarm rate of a whole run, split evenly over its comparisons
#: (Bonferroni), so a correct planner fails a run with probability < 1 %
FAMILY_ALPHA = 0.01


@dataclass(frozen=True)
class Profile:
    """One path shape: ``NetworkPath`` fields plus the receiver window."""

    path: Dict[str, Any]
    max_window_segments: int = 4096


#: no congestion episode within any transfer: every round is calm
_CALM = dict(jitter_sigma=0.1, episode_gap_mean_ms=1e12)

PROFILES: Dict[str, Profile] = {
    # residential access: ~1 % random loss behind a deep buffer
    "residential": Profile(
        dict(_CALM, base_rtt_ms=40.0, bottleneck_kbps=20_000.0,
             loss_rate=0.01, buffer_bdp_multiple=4.0)
    ),
    # shallow buffer: slow-start overflow dominates the loss (Fig. 15)
    "shallow-buffer": Profile(
        dict(_CALM, base_rtt_ms=60.0, bottleneck_kbps=6_000.0,
             loss_rate=0.002, buffer_bdp_multiple=0.5)
    ),
    # 8 % loss on tiny windows: most lossy rounds are severe, so the
    # retransmission-timeout branch carries the transfer time
    "severe-loss": Profile(
        dict(_CALM, base_rtt_ms=30.0, bottleneck_kbps=10_000.0,
             loss_rate=0.08, buffer_bdp_multiple=1.5),
        max_window_segments=4,
    ),
    # enterprise jitter: congestion episodes (per-round loop in both
    # arms) interleave with calm windows (planner in one arm)
    "enterprise-jitter": Profile(
        dict(base_rtt_ms=80.0, bottleneck_kbps=30_000.0, loss_rate=0.005,
             jitter_sigma=0.8, episode_gap_mean_ms=25_000.0,
             episode_duration_mean_ms=15_000.0, buffer_bdp_multiple=2.0)
    ),
}


def _no_fault(now_ms: float) -> Optional[Any]:
    return None


def run_arm(profile: str, arm: str, n_connections: int) -> np.ndarray:
    """Outcomes of *n_connections* fresh connections on *profile*.

    Shape ``(n_connections, TRANSFERS, len(METRICS))``.  The two arms and
    every profile draw from disjoint seeds, so they are independent
    samples.
    """
    spec = PROFILES[profile]
    key = (ARMS.index(arm), list(PROFILES).index(profile))
    out = np.empty((n_connections, TRANSFERS, len(METRICS)))
    for k in range(n_connections):
        path = NetworkPath(rng=np.random.default_rng([*key, k, 0]), **spec.path)
        if arm == "per-round":
            path.fault_probe = _no_fault
        conn = TcpConnection(
            path,
            np.random.default_rng([*key, k, 1]),
            max_window_segments=spec.max_window_segments,
        )
        t = 0.0
        for j in range(TRANSFERS):
            result = conn.transfer(TRANSFER_BYTES, t)
            out[k, j] = (result.duration_ms, result.rounds, result.segments_retx)
            t += result.duration_ms + IDLE_MS
    return out


def comparison_alpha(n_profiles: int) -> float:
    """Per-comparison significance level of a run over *n_profiles*."""
    return FAMILY_ALPHA / (n_profiles * TRANSFERS * len(METRICS))


def ks_pvalues(planner: np.ndarray, per_round: np.ndarray) -> Dict[str, float]:
    """Two-sample KS p-value per transfer and metric."""
    return {
        f"transfer{j + 1}.{metric}": float(
            ks_2samp(planner[:, j, m], per_round[:, j, m]).pvalue
        )
        for j in range(TRANSFERS)
        for m, metric in enumerate(METRICS)
    }

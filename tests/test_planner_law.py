"""The calm-window TCP planner samples the per-round loop's law.

Identity with the per-round loop is pinned for zero-loss paths in
``test_perf_hotpath.py``; on lossy paths the planner draws differently,
so this module checks the outcome distributions instead (see
``planner_law.py``).  300 connections per profile, each carrying two
1.5 MB transfers; ``benchmarks/test_bench_planner_law.py`` runs 3,000
and adds congestion episodes.
"""

from __future__ import annotations

import pytest

from planner_law import ARMS, METRICS, comparison_alpha, ks_pvalues, run_arm

PROFILES = ("residential", "shallow-buffer", "severe-loss")
N_CONNECTIONS = 300


@pytest.fixture(scope="module")
def outcomes():
    return {
        profile: {arm: run_arm(profile, arm, N_CONNECTIONS) for arm in ARMS}
        for profile in PROFILES
    }


@pytest.mark.parametrize("profile", PROFILES)
def test_planner_matches_per_round_law(outcomes, profile):
    pvalues = ks_pvalues(outcomes[profile]["planner"], outcomes[profile]["per-round"])
    assert min(pvalues.values()) >= comparison_alpha(len(PROFILES)), pvalues


def test_first_transfer_retransmits_more_on_shallow_buffer(outcomes):
    # Fig. 15: slow-start overflow concentrates retransmissions in a
    # session's first chunk; the planner must reproduce the spike.
    retx = outcomes["shallow-buffer"]["planner"][:, :, METRICS.index("segments_retx")]
    assert retx[:, 0].mean() > retx[:, 1].mean()

"""Large statistical set for the calm-window TCP planner's law.

The tier-1 check (``tests/test_planner_law.py``) runs 300 connections on
three calm profiles.  This bench runs 3,000 per profile and adds the
enterprise-jitter profile, whose congestion episodes interleave
per-round steps with planned batches.  It reuses the tier-1 harness in
``tests/planner_law.py``.  Run it with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_planner_law.py -m bench -q
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from planner_law import (  # noqa: E402  (needs the tests directory on the path)
    ARMS,
    PROFILES,
    comparison_alpha,
    ks_pvalues,
    run_arm,
)

N_CONNECTIONS = 3_000

pytestmark = pytest.mark.bench


@pytest.mark.parametrize("profile", list(PROFILES))
def test_planner_matches_per_round_law_large(profile):
    samples = {arm: run_arm(profile, arm, N_CONNECTIONS) for arm in ARMS}
    pvalues = ks_pvalues(samples["planner"], samples["per-round"])
    print(f"\n{profile}: " + ", ".join(f"{k} p={v:.3f}" for k, v in pvalues.items()))
    assert min(pvalues.values()) >= comparison_alpha(len(PROFILES)), pvalues

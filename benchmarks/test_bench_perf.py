"""Perf-smoke regression gate: pinned small workload under a wall budget.

Not a paper artifact — the CI `perf-smoke` job runs exactly this bench on
every push.  It simulates a pinned small workload (fixed session count and
seed, so the work is identical run-to-run), appends the timing to the
``BENCH_perf.json`` trajectory (uploaded as a CI artifact), and fails if
the best-of-three wall time blows through a generous absolute budget.

The budget is deliberately loose — CI runners are slow and noisy, and this
gate exists to catch *order-of-magnitude* hot-path regressions (an
accidentally quadratic loop, a lost fast path), not single-digit-percent
drift.  Percent-level tracking comes from the recorded trajectory, where a
regression shows up as a step between consecutive entries for the same
scenario.  docs/PERFORMANCE.md documents the workflow.
"""

from __future__ import annotations

import pytest

from bench_util import attach_observability, write_perf_record
from repro.api import run
from repro.simulation.config import SimulationConfig

pytestmark = pytest.mark.bench

N_SESSIONS = 120
SEED = 7
#: absolute best-of-three budget: ~0.5 s on a 2024 laptop, so 30 s only
#: trips on a genuine hot-path catastrophe, never on CI runner noise
WALL_BUDGET_S = 30.0


def run_simulation():
    return run(
        SimulationConfig(n_sessions=N_SESSIONS, warmup_sessions=0, seed=SEED)
    )


def test_perf_smoke_under_budget(benchmark):
    result = benchmark.pedantic(run_simulation, rounds=3, iterations=1)
    assert result.dataset.n_sessions == N_SESSIONS
    attach_observability(benchmark)
    best_s = benchmark.stats.stats.min
    record = write_perf_record(
        "perf_smoke",
        best_s,
        n_sessions=N_SESSIONS,
        n_chunks=result.dataset.n_chunks,
    )
    print(f"\n  perf-smoke: {record['wall_s']}s wall, "
          f"{record['sessions_per_s']} sessions/s, spans={record['spans']}")
    assert best_s < WALL_BUDGET_S, (
        f"perf smoke exceeded wall budget: {best_s:.2f}s >= {WALL_BUDGET_S}s "
        f"(see BENCH_perf.json trajectory)"
    )

"""Large-tier bench: 10k-session fleet-scale throughput.

Not a paper artifact and not part of the default bench sweep — 10k
sessions take minutes, so the tier is opt-in behind ``REPRO_BENCH_LARGE=1``
(CI's manually dispatched perf job sets it and uploads
``BENCH_perf.json``).  Each run appends one entry to the ``large``
scenario's history.
"""

from __future__ import annotations

import os

import pytest

from bench_util import attach_observability, write_perf_record
from repro.api import run
from repro.simulation.config import SimulationConfig

pytestmark = [
    pytest.mark.bench,
    pytest.mark.skipif(
        os.environ.get("REPRO_BENCH_LARGE") != "1",
        reason="large tier is opt-in: set REPRO_BENCH_LARGE=1",
    ),
]

N_SESSIONS = 10_000
SEED = 7


def run_simulation():
    return run(
        SimulationConfig(n_sessions=N_SESSIONS, warmup_sessions=0, seed=SEED)
    )


def test_bench_large_throughput(benchmark):
    result = benchmark.pedantic(run_simulation, rounds=1, iterations=1)
    assert result.dataset.n_sessions == N_SESSIONS
    attach_observability(benchmark)
    record = write_perf_record(
        "large",
        benchmark.stats.stats.min,
        n_sessions=N_SESSIONS,
        n_chunks=result.dataset.n_chunks,
    )
    print(f"\n  large: {record['wall_s']}s wall, "
          f"{record['chunks_per_s']} chunks/s, spans={record['spans']}")

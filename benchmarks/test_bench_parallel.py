"""Bench: sharded parallel runner vs the serial simulator on one workload.

Times the same ≥5k-session collection period through the classic serial
``Simulator`` and through ``run`` with ``workers=4``, asserting both
that the outputs agree (the determinism contract, at benchmark scale) and
that sharding pays for itself: on a multi-core host the sharded run must
not be slower than the serial one; on a single-core host (e.g. a 1-vCPU CI
runner, where parallelism cannot win) it must stay within a bounded
process/merge overhead of serial.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.api import run
from repro.simulation.config import SimulationConfig
from repro.simulation.driver import Simulator

pytestmark = pytest.mark.bench

N_SESSIONS = 5000
WORKERS = 4
#: slack allowed on hosts where workers just time-slice one core: the
#: per-shard plan regeneration and result pickling cannot be hidden there,
#: so this only guards against pathological (not constant-factor) slowdowns
SINGLE_CORE_OVERHEAD = 2.5


def _config() -> SimulationConfig:
    return SimulationConfig(n_sessions=N_SESSIONS, warmup_sessions=0, seed=42)


def test_bench_parallel_vs_serial(benchmark):
    started = time.perf_counter()
    serial = Simulator(_config()).run()
    serial_s = time.perf_counter() - started

    parallel = benchmark.pedantic(
        run,
        args=(_config().with_overrides(workers=WORKERS),),
        rounds=1,
        iterations=1,
        warmup_rounds=0,
    )
    parallel_s = benchmark.stats.stats.mean

    assert parallel.dataset == serial.dataset
    assert sum(r.sessions for r in parallel.shard_reports) == N_SESSIONS

    cores = os.cpu_count() or 1
    speedup = serial_s / parallel_s if parallel_s else float("inf")
    print(
        f"\n  serial {serial_s:.2f}s vs {WORKERS} shards {parallel_s:.2f}s "
        f"({speedup:.2f}x) on {cores} core(s)"
    )
    for report in parallel.shard_reports:
        print(
            f"  shard {report.shard_index}: {report.sessions} sessions / "
            f"{report.n_servers} servers in {report.wall_time_s:.2f}s"
        )
    if cores >= 2:
        assert parallel_s <= serial_s, (
            f"sharded run slower than serial on {cores} cores: "
            f"{parallel_s:.2f}s > {serial_s:.2f}s"
        )
    else:
        assert parallel_s <= SINGLE_CORE_OVERHEAD * serial_s, (
            f"sharding overhead beyond {SINGLE_CORE_OVERHEAD}x on one core: "
            f"{parallel_s:.2f}s vs {serial_s:.2f}s"
        )

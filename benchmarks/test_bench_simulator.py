"""Bench: raw simulator throughput (sessions simulated per second).

Not a paper artifact — an engineering benchmark guarding against
performance regressions in the period runner / TCP model hot path.
"""

from bench_util import attach_observability, write_perf_record
from repro.api import run
from repro.simulation.config import SimulationConfig

N_SESSIONS = 300


def run_simulation():
    return run(SimulationConfig(n_sessions=N_SESSIONS, warmup_sessions=0, seed=42))


def test_bench_simulator_throughput(benchmark):
    result = benchmark.pedantic(run_simulation, rounds=3, iterations=1)
    assert result.dataset.n_sessions == N_SESSIONS
    attach_observability(benchmark)
    write_perf_record(
        "medium",
        benchmark.stats.stats.min,
        n_sessions=N_SESSIONS,
        n_chunks=result.dataset.n_chunks,
    )
    mean_s = benchmark.stats.stats.mean
    print(f"\n  {N_SESSIONS / mean_s:.0f} sessions/s "
          f"({result.dataset.n_chunks / mean_s:.0f} chunks/s)")

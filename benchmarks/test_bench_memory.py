"""Memory-smoke gate: the columnar analysis pass over a spill under a
heap budget and a resident-memory budget.

Not a paper artifact — the CI `memory-smoke` job runs exactly this bench
on every push.  It generates a mid-size synthetic spill
(`repro.telemetry.synth`, schema-valid columnar sessions straight to
sorted on-disk runs), then runs the QoE and localization analyses in one
`analyze_dataset` pass — the blockwise cascade pass that `repro analyze`
and `repro serve` run, which also grades the ground truth — twice:

* with `tracemalloc` tracing, failing if peak traced heap blows through
  the budget implied by docs/TELEMETRY.md's RSS model: one
  session-aligned block of rows at a time + the session-id universe +
  the analyses' per-session scalars — nothing that scales with total
  rows;
* in a fresh child process over the same spill, failing if the child's
  `ru_maxrss` grows past a budget over its baseline once the spill is
  open.  tracemalloc does not count the spill's memory-mapped pages;
  resident memory does, and the pass must drop the pages it has read,
  or the whole spill ends up resident (the model's "mapped run pages"
  row).  Linux only, where `ru_maxrss` is in KiB.

The spill threshold is set low on purpose so the run has many sorted
runs per kind: that is the regime where an unbounded reader (one full
block per open run) would blow past the budget, which is precisely the
regression this gate exists to catch.  Wall time, peak heap and resident
growth land in the ``BENCH_perf.json`` trajectory (uploaded as a CI
artifact).

The `large` tier — a million-session spill, the paper-scale regime the
columnar core is built for — is stubbed here behind
``REPRO_BENCH_LARGE=1``: too slow for per-push CI, same code path and
same two budgets, run it manually before touching the spill reader or
the columnar pass.

The serve tier steps the live service, which folds each round through
the same pass, and requires the heap it retains once warm to stay flat in
run duration (the simulated CDN caches, which fill for as long as the
service runs, are left out).
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

import repro
from bench_util import write_perf_record
from repro.core.columnar_analysis import analyze_dataset
from repro.telemetry.synth import synthesize_spill

pytestmark = pytest.mark.bench

N_SESSIONS = 50_000
SEED = 7
#: low threshold => many sorted runs per kind (the stress regime)
THRESHOLD_ROWS = 32_768
#: peak traced heap budget.  The columnar pass peaks at ~33 MB at this
#: scale on a shared 2-core Linux container (the per-session pass this
#: gate ran before peaked at ~134 MB); the model says the peak is
#: independent of session count, so the headroom only trips on an actual
#: O(rows) regression.
PEAK_HEAP_BUDGET_MB = 320.0
#: growth of the pass's ru_maxrss over its post-open baseline.  At this
#: scale (a 164 MiB spill) it reads about 58 MB when the pass drops the
#: mapped pages it has read and 192 MB when it keeps them; the model
#: says neither the heap nor the resident run pages grow with the
#: session count, so the large tier shares the budget.
PEAK_RSS_GROWTH_BUDGET_MB = 96.0
WALL_BUDGET_S = 600.0

LARGE_N_SESSIONS = 1_000_000


def _stream_analyses(dataset):
    out = analyze_dataset(dataset, ("qoe", "localization"))
    return out["qoe"], out["localization"]


#: the child's pass: imports and the open come before its baseline, so
#: the growth is the pass's own.  It prints the growth in KiB.
_CHILD_PASS = """
import resource, sys
from repro.core.columnar_analysis import analyze_dataset
from repro.telemetry.spill import SpilledDataset
dataset = SpilledDataset(sys.argv[1])
baseline = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
analyze_dataset(dataset, ("qoe", "localization"))
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - baseline)
"""

#: ``ru_maxrss`` survives exec: a process starts from the resident size
#: of the one it was forked from, here the test's, which would hide the
#: pass's growth.  So the pass runs in a grandchild, forked from a bare
#: interpreter.
_LAUNCH = "import subprocess, sys; subprocess.run(sys.argv[1:], check=True)"


def _child_rss_growth_mb(spill_dir):
    """Growth of a fresh process's ``ru_maxrss`` over its post-open
    baseline while it runs the pass over *spill_dir*; None off Linux,
    where ``ru_maxrss`` is not in KiB."""
    if not sys.platform.startswith("linux"):
        return None
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))
    ))
    child = subprocess.run(
        [sys.executable, "-c", _LAUNCH, sys.executable, "-c", _CHILD_PASS, str(spill_dir)],
        env=env, capture_output=True, text=True, timeout=WALL_BUDGET_S, check=True,
    )
    return int(child.stdout.split()[-1]) * 1024 / 1e6


def _run(tmp_path, n_sessions):
    """Generate a spill, run the analyses traced and in a child; return
    (dataset, peak traced bytes, wall s, child ru_maxrss growth MB)."""
    dataset = synthesize_spill(
        tmp_path / "spill", n_sessions, seed=SEED, threshold_rows=THRESHOLD_ROWS
    )
    assert dataset.n_sessions == n_sessions
    tracemalloc.start()
    start = time.perf_counter()
    qoe, localization = _stream_analyses(dataset)
    wall_s = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert qoe["n_sessions"] == n_sessions
    assert abs(sum(localization.values()) - 1.0) < 1e-9
    return dataset, peak, wall_s, _child_rss_growth_mb(tmp_path / "spill")


def _assert_under_budgets(peak_mb, growth_mb):
    assert peak_mb < PEAK_HEAP_BUDGET_MB, (
        f"columnar pass peaked at {peak_mb:.1f} MB >= "
        f"{PEAK_HEAP_BUDGET_MB} MB — read-side memory is scaling with row "
        f"volume (docs/TELEMETRY.md, 'RSS budget model')"
    )
    if growth_mb is not None:
        assert growth_mb < PEAK_RSS_GROWTH_BUDGET_MB, (
            f"columnar pass grew ru_maxrss by {growth_mb:.1f} MB >= "
            f"{PEAK_RSS_GROWTH_BUDGET_MB} MB — the pass keeps the spill's "
            "mapped pages resident (docs/TELEMETRY.md, 'RSS budget model')"
        )


def _growth_text(growth_mb):
    return "n/a" if growth_mb is None else f"{growth_mb:.1f} MB"


def test_memory_smoke_under_heap_budget(tmp_path):
    dataset, peak, wall_s, growth_mb = _run(tmp_path, N_SESSIONS)
    peak_mb = peak / 1e6
    record = write_perf_record(
        "memory_smoke",
        wall_s,
        n_sessions=N_SESSIONS,
        n_chunks=dataset.n_chunks,
        extra={
            "peak_heap_mb": round(peak_mb, 1),
            "peak_rss_growth_mb": None if growth_mb is None else round(growth_mb, 1),
        },
        instrumented=True,
    )
    print(f"\n  memory-smoke: {record['wall_s']}s wall (tracemalloc on), "
          f"{peak_mb:.1f} MB peak heap, "
          f"{_growth_text(growth_mb)} ru_maxrss growth (child pass), "
          f"{record['sessions_per_s']} sessions/s")
    _assert_under_budgets(peak_mb, growth_mb)
    assert wall_s < WALL_BUDGET_S


@pytest.mark.skipif(
    os.environ.get("REPRO_BENCH_LARGE") != "1",
    reason="large tier: set REPRO_BENCH_LARGE=1 (million-session spill, minutes)",
)
def test_memory_large_tier(tmp_path):
    # The same gate at paper-order scale: 1 M sessions, ~22 M rows.
    # Neither budget grows with the 20x session count — the heap and the
    # resident run pages both stay flat; that flatness is the whole
    # contract.
    dataset, peak, wall_s, growth_mb = _run(tmp_path, LARGE_N_SESSIONS)
    peak_mb = peak / 1e6
    write_perf_record(
        "memory_large",
        wall_s,
        n_sessions=LARGE_N_SESSIONS,
        n_chunks=dataset.n_chunks,
        extra={
            "peak_heap_mb": round(peak_mb, 1),
            "peak_rss_growth_mb": None if growth_mb is None else round(growth_mb, 1),
        },
        instrumented=True,
    )
    print(f"\n  memory-large: {wall_s:.1f}s wall, {peak_mb:.1f} MB peak heap, "
          f"{_growth_text(growth_mb)} ru_maxrss growth (child pass)")
    _assert_under_budgets(peak_mb, growth_mb)


# ---------------------------------------------------------------------------
# live service tier: retained service heap flat in run duration


#: rounds stepped before the first measurement: the warmup fills the
#: fleet's caches, and the service's bounded state (the sealed-window
#: deque, the trace ring) reaches its size
SERVE_WARM_ROUNDS = 4
SERVE_ROUNDS_SHORT = 4
SERVE_ROUNDS_LONG = 12
#: long/short retained-heap ratio bound.  The service drops per-round
#: telemetry after folding, bounds the sealed-window deque, and keeps O(1)
#: accumulator state, so 3x the rounds must not grow its heap materially;
#: 1.5x absorbs allocator noise while still tripping on O(rounds) state.
SERVE_HEAP_RATIO_BOUND = 1.5
#: where the simulated world allocates: the CDN fleet, and the simulation
#: and workload layers that make the chunk keys and sizes its caches keep.
#: The caches admit every new key for as long as the service runs (the
#: 16 GiB disk level never fills), which is the world filling, not
#: service state.  What remains is the service's own: the telemetry it
#: collects and folds, its windows, detectors and metrics.
WORLD_FILES = ("*/repro/cdn/*", "*/repro/simulation/*", "*/repro/workload/*")


def _service_heap() -> int:
    """Bytes traced since the service was built and still allocated,
    outside the simulated world."""
    snapshot = tracemalloc.take_snapshot().filter_traces(
        [tracemalloc.Filter(False, pattern) for pattern in WORLD_FILES]
    )
    return sum(stat.size for stat in snapshot.statistics("filename"))


def test_memory_serve_peak_flat_in_run_duration():
    # the run-forever requirement: once warm, a service stepped 3x as long
    # must retain the same heap — sealed windows are deque-bounded,
    # per-round telemetry is dropped after folding (docs/OBSERVABILITY.md,
    # "Service mode").  Tracing starts once the world is built, so every
    # allocation of the service and of its rounds is counted; the
    # simulated world's growth is left out (WORLD_FILES).
    from repro.serve import LiveService
    from repro.simulation.config import SimulationConfig

    config = SimulationConfig(n_sessions=60, warmup_sessions=200, seed=7)
    service = LiveService(
        config, window_ms=10_000.0, sessions_per_round=60, retain_windows=64
    )
    tracemalloc.start()
    start = time.perf_counter()
    service.run_rounds(SERVE_WARM_ROUNDS + SERVE_ROUNDS_SHORT)
    heap_short = _service_heap()
    service.run_rounds(SERVE_ROUNDS_LONG - SERVE_ROUNDS_SHORT)
    heap_long = _service_heap()
    wall_s = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    ratio = heap_long / heap_short
    health = service.health_document()
    record = write_perf_record(
        "memory_serve",
        wall_s,
        n_sessions=health["sessions"],
        n_chunks=health["chunks"],
        extra={
            "heap_short_mb": round(heap_short / 1e6, 2),
            "heap_long_mb": round(heap_long / 1e6, 2),
            "peak_mb": round(peak / 1e6, 1),
            "rounds": SERVE_WARM_ROUNDS + SERVE_ROUNDS_LONG,
        },
        instrumented=True,
    )
    print(
        f"\n  memory-serve: {record['wall_s']}s wall, service heap "
        f"{heap_short / 1e6:.2f} MB after {SERVE_ROUNDS_SHORT} warm rounds vs "
        f"{heap_long / 1e6:.2f} MB after {SERVE_ROUNDS_LONG} (ratio {ratio:.2f}), "
        f"{peak / 1e6:.1f} MB traced peak"
    )
    assert ratio < SERVE_HEAP_RATIO_BOUND, (
        f"live-service retained heap grew {ratio:.2f}x when the run got "
        f"{SERVE_ROUNDS_LONG // SERVE_ROUNDS_SHORT}x longer — service "
        "state is scaling with run duration"
    )

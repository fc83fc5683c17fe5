"""Read-path gate: the columnar analysis pass must hold its speedup.

Not a paper artifact — the CI ``perf-smoke`` job runs this bench on every
push.  It synthesizes the 50k-session spill tier
(``repro.telemetry.synth``, low threshold so every kind has many sorted
runs), drives the three headline analyses once through the per-session
oracle of ``tests/streaming_oracle.py`` (one ``consume`` pass — the
fastest record-object spelling) and once through
``repro.core.columnar_analysis``, asserts the
outputs are *identical* (JSON serialization and report text, the
byte-identity contract of docs/PERFORMANCE.md "The read path"), and then
requires the columnar pass to be at least ``MIN_SPEEDUP`` times faster.
The ratio is machine-independent to first order — both paths scale with
the same row volume on the same interpreter — so the gate catches a lost
vectorized path or an accidentally quadratic planner, not percent-level
drift.  Wall times land in the ``read-path`` trajectory of
``BENCH_perf.json``.

The public tier times the three public analyses on one freshly opened
spill of the same 50k sessions, against the same three calls each on
its own fresh open.  On one object the first call, ``summarize``, runs
the one cascade pass and memoizes all three results, so the object
joins once where separate objects join three times.  It asserts the
results are identical, requires the shared object to be at least
``MIN_PUBLIC_SPEEDUP`` times faster, and records the best of
``PUBLIC_REPEATS`` as ``read-path-public``.

The in-memory tier times what ``repro analyze``-style callers pay on a
freshly simulated 1,000-session dataset: ``filter_proxies`` plus the
three public analyses, each pass on a new filtered dataset (a session-id
mask over the columns the collector encoded) so no pass memoizes
anything for the next.  It records
the best of ``MEMORY_REPEATS`` passes as ``read-path-memory``, next to
the same pass spelled with one oracle ``consume`` per analysis.

A memo hit publishes an empty registry, so the public and in-memory
records carry the ``analysis.*`` span totals summed over one pass's
calls, taken from an untimed pass after the timed ones.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from bench_util import span_totals, write_perf_record
from repro.api import run
from repro.core import columnar_analysis as ca
from repro.core.faultscore import score_fault_localization
from repro.core.localization import diagnose_dataset
from repro.core.proxy_filter import filter_proxies
from repro.core.qoe import summarize
from repro.simulation.config import SimulationConfig
from repro.telemetry.spill import SpilledDataset
from repro.telemetry.synth import synthesize_spill

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from streaming_oracle import (  # noqa: E402  (needs the tests directory on the path)
    FaultScoreAccumulator,
    LocalizationAccumulator,
    QoeAccumulator,
    consume,
)

pytestmark = pytest.mark.bench

N_SESSIONS = 50_000
SEED = 7
#: low threshold => many sorted runs per kind (the planner's stress regime)
THRESHOLD_ROWS = 32_768
#: measured ~44x on the development host; 10x is the contract floor
MIN_SPEEDUP = 10.0
#: the in-memory tier: simulated sessions (after warmup) and timed passes
MEMORY_SESSIONS = 1_000
MEMORY_WARMUP = 500
MEMORY_REPEATS = 5
#: the public tier: timed passes, and the floor on the time three calls
#: on separate opens take over the same calls on one open.  Separately
#: they run the cascade pass three times, together once: 2.9-3.9x in
#: five runs on the development host, where a second join on the shared
#: object (a QoE pass before the cascade) read 1.8x.
PUBLIC_REPEATS = 5
MIN_PUBLIC_SPEEDUP = 2.0


@pytest.fixture(scope="module")
def spill_dir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("read") / "spill"
    synthesize_spill(directory, N_SESSIONS, seed=SEED, threshold_rows=THRESHOLD_ROWS)
    return directory


def _public_calls(dataset):
    """The three public analyses on *dataset*, as ``repro analyze`` runs them."""
    return (
        lambda: summarize(dataset),
        lambda: diagnose_dataset(dataset),
        lambda: score_fault_localization(dataset),
    )


def _pass_spans(calls) -> dict:
    """The span totals of *calls*, each of which publishes its own registry."""
    totals: Counter = Counter()
    for call in calls:
        call()
        totals.update(span_totals())
    return {name: round(total, 6) for name, total in sorted(totals.items())}


def _assert_identical(results, expected) -> None:
    (q, loc, fs), (q_ref, loc_ref, fs_ref) = results, expected
    assert json.dumps(q) == json.dumps(q_ref)
    assert json.dumps(loc) == json.dumps(loc_ref)
    assert fs == fs_ref
    assert fs.format_report() == fs_ref.format_report()


def test_read_path_speedup_and_identity(spill_dir):
    dataset = SpilledDataset(spill_dir)
    assert dataset.n_sessions == N_SESSIONS

    start = time.perf_counter()
    q_rec, loc_rec, fs_rec = consume(
        dataset, QoeAccumulator(), LocalizationAccumulator(), FaultScoreAccumulator()
    )
    records_wall_s = time.perf_counter() - start

    # columnar last, so the recorded obs spans are the analysis.* breakdown
    start = time.perf_counter()
    out = ca.analyze_dataset(dataset)
    columnar_wall_s = time.perf_counter() - start

    _assert_identical(
        (out["qoe"], out["localization"], out["faultscore"]), (q_rec, loc_rec, fs_rec)
    )

    speedup = records_wall_s / columnar_wall_s
    record = write_perf_record(
        "read-path",
        columnar_wall_s,
        n_sessions=N_SESSIONS,
        n_chunks=dataset.n_chunks,
        extra={
            "records_wall_s": round(records_wall_s, 4),
            "speedup": round(speedup, 2),
        },
    )
    print(
        f"\n  read-path: records {records_wall_s:.2f}s vs columnar "
        f"{columnar_wall_s:.2f}s = {speedup:.1f}x "
        f"({record['chunks_per_s']} chunks/s columnar)"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"columnar read path only {speedup:.1f}x faster than the record "
        f"path (contract floor {MIN_SPEEDUP}x, docs/PERFORMANCE.md)"
    )


def test_public_calls_on_one_open_share_the_cascade_pass(spill_dir):
    def one_open():
        return tuple(call() for call in _public_calls(SpilledDataset(spill_dir)))

    def separate_opens():
        return (
            summarize(SpilledDataset(spill_dir)),
            diagnose_dataset(SpilledDataset(spill_dir)),
            score_fault_localization(SpilledDataset(spill_dir)),
        )

    _assert_identical(one_open(), separate_opens())
    separate_wall_s = _best_of(PUBLIC_REPEATS, separate_opens)
    shared_wall_s = _best_of(PUBLIC_REPEATS, one_open)
    speedup = separate_wall_s / shared_wall_s
    dataset = SpilledDataset(spill_dir)
    record = write_perf_record(
        "read-path-public",
        shared_wall_s,
        n_sessions=dataset.n_sessions,
        n_chunks=dataset.n_chunks,
        extra={
            "separate_wall_s": round(separate_wall_s, 4),
            "speedup": round(speedup, 2),
            "repeats": PUBLIC_REPEATS,
            "spans": _pass_spans(_public_calls(dataset)),
        },
    )
    print(
        f"\n  read-path-public: separate opens {separate_wall_s * 1e3:.1f} ms vs "
        f"one open {shared_wall_s * 1e3:.1f} ms = {speedup:.2f}x "
        f"({record['sessions_per_s']} sessions/s)"
    )
    assert speedup >= MIN_PUBLIC_SPEEDUP, (
        f"three public calls on one open only {speedup:.2f}x faster than on "
        f"separate opens (floor {MIN_PUBLIC_SPEEDUP}x): the cascade pass is no "
        "longer shared (docs/PERFORMANCE.md, 'Analyse once')"
    )


def _best_of(repeats: int, fn) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_in_memory_read_path_identity_and_record():
    config = SimulationConfig(
        n_sessions=MEMORY_SESSIONS, warmup_sessions=MEMORY_WARMUP, seed=SEED
    )
    dataset = run(config).dataset

    def columnar_pass():
        filtered, _ = filter_proxies(dataset)
        return (
            summarize(filtered),
            diagnose_dataset(filtered),
            score_fault_localization(filtered),
        )

    def oracle_pass():
        filtered, _ = filter_proxies(dataset)
        return (
            consume(filtered, QoeAccumulator())[0],
            consume(filtered, LocalizationAccumulator())[0],
            consume(filtered, FaultScoreAccumulator())[0],
        )

    _assert_identical(columnar_pass(), oracle_pass())

    records_wall_s = _best_of(MEMORY_REPEATS, oracle_pass)
    columnar_wall_s = _best_of(MEMORY_REPEATS, columnar_pass)
    speedup = records_wall_s / columnar_wall_s
    record = write_perf_record(
        "read-path-memory",
        columnar_wall_s,
        n_sessions=dataset.n_sessions,
        n_chunks=dataset.n_chunks,
        extra={
            "records_wall_s": round(records_wall_s, 4),
            "speedup": round(speedup, 2),
            "repeats": MEMORY_REPEATS,
            "spans": _pass_spans(_public_calls(filter_proxies(dataset)[0])),
        },
    )
    print(
        f"\n  read-path-memory: oracle {records_wall_s * 1e3:.1f} ms vs columnar "
        f"{columnar_wall_s * 1e3:.1f} ms = {speedup:.2f}x "
        f"({record['sessions_per_s']} sessions/s columnar)"
    )

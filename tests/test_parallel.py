"""Sharded parallel runner: determinism, merge canonicalization, fault tolerance.

The contract under test (docs/PARALLEL.md): for a fixed seed, the merged
dataset of ``run(config)`` with ``workers=K`` equals the serial
``Simulator`` dataset record-for-record (canonical order), for any K, and
a crashed worker is retried once on a fresh process without changing the
result.
"""

from __future__ import annotations

import statistics
from pathlib import Path

import pytest

from repro.api import run
from repro.cli import main as cli_main
from repro.faults import FaultEvent, FaultSpec
from repro.obs.manifest import dump_json, metrics_document
from repro.obs.trace import event_json_line
from repro.simulation.config import SimulationConfig
from repro.simulation.driver import Simulator
from repro.simulation.parallel import (
    ParallelSimulator,
    PeriodSpec,
    ShardFailedError,
    execute_periods,
)
from repro.simulation.shard import ShardSpec, partition_server_ids, shard_of_server
from repro.telemetry.io import load_dataset

FAULT_SPEC = (
    Path(__file__).resolve().parent.parent / "examples" / "fault_cdn_degradation.json"
)


def _config(**overrides) -> SimulationConfig:
    """The reference workload: small but exercises warmup + cache warming."""
    defaults = dict(
        n_sessions=150,
        warmup_sessions=100,
        seed=11,
        warm_first_chunks=True,
        prefetch_after_miss=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def serial_result():
    return Simulator(_config()).run()


@pytest.fixture(scope="module")
def parallel_result():
    return run(_config(workers=4))


def _run_with_crashes(config, fail_shard_attempts):
    """A sharded single-period run whose workers crash on purpose."""
    runner = ParallelSimulator(config, fail_shard_attempts=fail_shard_attempts)
    return runner.run_periods([PeriodSpec(config=config)])


class TestShardSpec:
    def test_partition_is_complete_and_disjoint(self):
        server_ids = [f"srv-{i:03d}" for i in range(40)]
        shards = partition_server_ids(server_ids, n_shards=4)
        assert len(shards) == 4
        seen = [sid for part in shards for sid in part]
        assert sorted(seen) == sorted(server_ids)
        assert len(seen) == len(set(seen))

    def test_assignment_is_stable(self):
        assert shard_of_server("srv-001", 4) == shard_of_server("srv-001", 4)

    def test_ownership_matches_hash(self):
        for n_shards in (2, 3, 5):
            spec = ShardSpec(index=1, n_shards=n_shards)
            for sid in ("srv-000", "srv-017", "edge-9"):
                assert spec.owns_server(sid) == (shard_of_server(sid, n_shards) == 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardSpec(index=3, n_shards=3)
        with pytest.raises(ValueError):
            ShardSpec(index=0, n_shards=0)


class TestSerialParallelEquality:
    def test_four_shards_equal_serial(self, serial_result, parallel_result):
        serial = serial_result.dataset
        parallel = parallel_result.dataset
        # both datasets are canonical: equal as they come, no sorting
        assert serial == parallel
        assert serial.n_sessions == parallel.n_sessions
        assert serial.n_chunks == parallel.n_chunks
        # record-level equality, table by table (frozen dataclass ==)
        assert serial.player_sessions == parallel.player_sessions
        assert serial.player_chunks == parallel.player_chunks
        assert serial.cdn_sessions == parallel.cdn_sessions
        assert serial.cdn_chunks == parallel.cdn_chunks
        assert serial.tcp_snapshots == parallel.tcp_snapshots
        assert serial.ground_truth == parallel.ground_truth

    def test_shard_count_invariance(self, parallel_result):
        two = run(_config(workers=2))
        assert two.dataset == parallel_result.dataset

    def test_serial_and_sharded_equal_the_materialized_spill(
        self, serial_result, parallel_result, tmp_path
    ):
        spilled = run(_config(spill_dir=str(tmp_path), spill_threshold_rows=64)).dataset
        assert len(spilled.run_arrays("player_chunks")) > 1
        materialized = spilled.to_dataset()
        assert serial_result.dataset == materialized
        assert parallel_result.dataset == materialized

    def test_server_fleet_union_matches_serial(self, serial_result, parallel_result):
        assert set(parallel_result.servers) == set(serial_result.servers)
        assert parallel_result.fleet_miss_ratio == serial_result.fleet_miss_ratio

    def test_shard_reports_cover_all_sessions(self, parallel_result):
        reports = parallel_result.shard_reports
        assert [r.shard_index for r in reports] == [0, 1, 2, 3]
        assert all(r.retries == 0 for r in reports)
        assert sum(r.sessions for r in reports) == parallel_result.dataset.n_sessions
        assert sum(r.n_servers for r in reports) == len(parallel_result.servers)

    def test_simulate_dispatches_on_config_workers(self, parallel_result):
        result = run(_config(workers=2))
        assert result.dataset == parallel_result.dataset
        assert len(result.shard_reports) == 2


class TestFaultTraceSpillIdentity:
    """Serial == ``workers=4`` with faults, tracing and spill all on."""

    KINDS = (
        "player_chunks",
        "cdn_chunks",
        "tcp_snapshots",
        "player_sessions",
        "cdn_sessions",
        "ground_truth",
    )

    @classmethod
    def _snapshot(cls, spill_dir, **overrides):
        """(per-kind record reprs, metrics-document bytes, trace JSONL)."""
        config = SimulationConfig(
            n_sessions=120,
            warmup_sessions=40,
            seed=11,
            n_videos=60,
            n_servers=12,
            trace_sample=0.2,
            spill_dir=str(spill_dir),
            **overrides,
        )
        simulation = run(config, faults=FAULT_SPEC)
        dataset = simulation.dataset
        kinds = {
            kind: [str(record) for record in getattr(dataset, kind)]
            for kind in cls.KINDS
        }
        metrics = dump_json(metrics_document(simulation))
        trace = "\n".join(event_json_line(e) for e in simulation.trace.events())
        return kinds, metrics, trace

    @pytest.fixture(scope="class")
    def serial(self, tmp_path_factory):
        return self._snapshot(tmp_path_factory.mktemp("spill-serial"))

    def test_sharded_matches_serial(self, serial, tmp_path):
        assert self._snapshot(tmp_path, workers=4) == serial

    def test_reference_is_nontrivial(self, serial):
        # guard against the identity trivially passing on an empty run
        kinds, _, trace = serial
        assert len(kinds["player_chunks"]) > 300
        assert len(kinds["tcp_snapshots"]) > 1000
        assert trace.count("\n") > 100


class TestFaultTolerance:
    def test_crashed_shard_is_retried_once(self, parallel_result):
        result = _run_with_crashes(_config(workers=4), {0: 1})
        report = result.shard_reports[0]
        assert report.retries == 1
        # the retry re-ran the same deterministic shard: output unchanged
        assert result.dataset == parallel_result.dataset

    def test_shard_failing_both_attempts_raises(self):
        with pytest.raises(ShardFailedError, match="shard 1"):
            _run_with_crashes(_config(workers=2), {1: 2})


class TestMultiPeriod:
    def test_run_periods_equals_serial_execute_periods(self):
        base = _config(n_sessions=80, warmup_sessions=60, seed=5)
        periods = [
            PeriodSpec(config=base, label="baseline"),
            PeriodSpec(
                config=base,
                label="incident",
                mutation="repro.simulation.scenarios:_flush_caches",
            ),
        ]
        serial_datasets, _ = execute_periods(periods)
        result = ParallelSimulator(base.with_overrides(workers=3)).run_periods(periods)
        datasets = result.datasets
        assert len(datasets) == 2
        assert datasets[0] == serial_datasets[0]
        assert datasets[1] == serial_datasets[1]
        assert set(result.servers) and len(result.shard_reports) == 3

    # -- a period whose config changes continues the run's fleet and clock --

    #: a cache brownout over [0, 10 s): over before the first measured
    #: session, which starts when the 60-session warmup has drained
    EARLY_BROWNOUT = FaultSpec(
        name="early-brownout",
        events=(FaultEvent("early", "cache-brownout", 0.0, 10_000.0),),
    )

    @classmethod
    def _config_change_periods(cls):
        base = _config(n_sessions=60, warmup_sessions=60, seed=5).with_overrides(
            faults=cls.EARLY_BROWNOUT
        )
        surge = base.with_overrides(
            arrival_rate_per_s=3.0 * base.arrival_rate_per_s,
            seed=6,
            warmup_sessions=0,
        )
        return [
            PeriodSpec(config=base, label="baseline"),
            PeriodSpec(config=surge, label="surge"),
        ]

    @pytest.fixture(scope="class")
    def config_change_serial(self):
        datasets, _ = execute_periods(self._config_change_periods())
        return datasets

    def test_config_change_period_continues_the_clock(self, config_change_serial):
        baseline, surge = config_change_serial
        assert min(s.start_ms for s in surge.player_sessions) > max(
            s.start_ms for s in baseline.player_sessions
        )

    def test_config_change_periods_sharded_equal_serial(self, config_change_serial):
        periods = self._config_change_periods()
        runner = ParallelSimulator(periods[0].config.with_overrides(workers=2))
        result = runner.run_periods(periods)
        assert len(result.datasets) == 2
        for sharded, serial in zip(result.datasets, config_change_serial):
            assert sharded == serial

    def test_config_change_period_after_an_ended_epoch_is_unlabelled(
        self, config_change_serial
    ):
        baseline, surge = config_change_serial
        end_ms = self.EARLY_BROWNOUT.events[0].end_ms
        assert min(s.start_ms for s in baseline.player_sessions) > end_ms
        assert surge.n_chunks > 0
        assert not [t for t in surge.ground_truth if t.fault_labels]


    # -- a config change may change the fault schedule and the world --------

    @staticmethod
    def _degraded(start_ms):
        return FaultSpec(
            name="degraded",
            events=(FaultEvent("deg", "server-degraded", start_ms, 1e12, 8.0),),
        )

    @pytest.mark.parametrize("workers", [1, 2])
    def test_config_change_period_applies_its_own_fault_schedule(self, workers):
        base = _config(n_sessions=40, warmup_sessions=100, seed=3, workers=workers)

        def incident(start_ms):
            periods = [
                PeriodSpec(config=base, label="baseline"),
                PeriodSpec(
                    config=base.with_overrides(faults=self._degraded(start_ms)),
                    label="incident",
                ),
            ]
            result = run(periods=periods)
            return result.period("incident"), result.metrics.snapshot()["counters"]

        degraded, counters = incident(0.0)
        # the same periods with an epoch that never starts: the control
        healthy, _ = incident(1e11)
        labelled = [t for t in degraded.ground_truth if t.fault_labels]
        assert degraded.n_chunks > 0 and len(labelled) == degraded.n_chunks
        # the inherited servers apply the schedule the labels come from
        assert counters["faults.server_requests_total"] == len(labelled)
        assert statistics.median(c.total_server_ms for c in degraded.cdn_chunks) > (
            4.0 * statistics.median(c.total_server_ms for c in healthy.cdn_chunks)
        )

    def test_config_change_periods_report_the_first_period_world(self):
        base = _config(n_sessions=30, warmup_sessions=30, seed=5)
        narrow = base.with_overrides(n_videos=10, seed=6)
        results = [
            run(
                periods=[
                    PeriodSpec(config=base.with_overrides(workers=workers), label="baseline"),
                    PeriodSpec(config=narrow.with_overrides(workers=workers), label="narrow"),
                ]
            )
            for workers in (1, 2)
        ]
        serial, sharded = results
        assert len(serial.catalog.videos) == base.n_videos
        assert serial.catalog.videos == sharded.catalog.videos
        assert serial.population.config == sharded.population.config
        assert serial.population.config.seed == base.seed
        assert serial.deployment.pops == sharded.deployment.pops
        assert serial.config == base and sharded.config == base.with_overrides(workers=2)


class TestMultiPeriodSpill:
    """Multi-period spill: each period seals its own period-<name>/ spill."""

    @staticmethod
    def _periods(base):
        return [
            PeriodSpec(config=base, label="baseline"),
            PeriodSpec(config=base, label="surge", start_ms=500_000.0),
        ]

    def test_serial_layout_and_identity(self, tmp_path):
        base = _config(n_sessions=60, warmup_sessions=40, seed=5)
        memory_datasets, _ = execute_periods(self._periods(base))
        spilled = base.with_overrides(spill_dir=str(tmp_path))
        spill_datasets, _ = execute_periods(self._periods(spilled))
        layout = sorted(
            str(p.relative_to(tmp_path)) for p in tmp_path.rglob("spill.json")
        )
        assert layout == ["period-baseline/spill.json", "period-surge/spill.json"]
        for memory, spill in zip(memory_datasets, spill_datasets):
            assert tuple(spill.player_chunks) == memory.player_chunks
            assert spill.n_sessions == memory.n_sessions

    def test_sharded_layout_and_identity(self, tmp_path):
        base = _config(n_sessions=60, warmup_sessions=40, seed=5)
        serial_datasets, _ = execute_periods(self._periods(base))
        spilled = base.with_overrides(spill_dir=str(tmp_path))
        result = ParallelSimulator(spilled.with_overrides(workers=2)).run_periods(
            self._periods(spilled)
        )
        datasets, reports = result.datasets, result.shard_reports
        layout = sorted(
            str(p.relative_to(tmp_path)) for p in tmp_path.rglob("spill.json")
        )
        assert layout == [
            "shard-00/period-baseline/spill.json",
            "shard-00/period-surge/spill.json",
            "shard-01/period-baseline/spill.json",
            "shard-01/period-surge/spill.json",
        ]
        assert len(reports) == 2
        for serial, spill in zip(serial_datasets, datasets):
            assert tuple(spill.player_chunks) == serial.player_chunks
            assert tuple(spill.player_sessions) == serial.player_sessions

    def test_duplicate_labels_rejected(self, tmp_path):
        base = _config(spill_dir=str(tmp_path))
        periods = [PeriodSpec(config=base, label="p"), PeriodSpec(config=base, label="p")]
        with pytest.raises(ValueError, match="unique period labels"):
            execute_periods(periods)


class TestCli:
    def test_simulate_workers_flag(self, tmp_path, capsys):
        out = tmp_path / "trace"
        code = cli_main(
            [
                "simulate",
                "--sessions", "40",
                "--warmup", "30",
                "--seed", "11",
                "--workers", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr().out
        assert "on 2 shard workers" in captured
        assert "shard 0/2" in captured and "shard 1/2" in captured
        dataset = load_dataset(out)
        assert dataset.n_sessions == 40
        serial = Simulator(
            SimulationConfig(n_sessions=40, warmup_sessions=30, seed=11)
        ).run()
        assert dataset == serial.dataset

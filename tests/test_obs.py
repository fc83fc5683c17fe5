"""Observability layer: registry semantics, manifests, metrics determinism.

The headline contract under test (docs/OBSERVABILITY.md): for a fixed
seed, ``repro simulate --metrics-out`` serializes **byte-identical**
metrics documents whether the run is serial or sharded across any worker
count — counters are integers, histogram bucket edges are fixed by spec,
gauges merge by max.  Spans are wall-clock and therefore live only in the
run manifest, never in the deterministic document.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.api import run
from repro.cli import main as cli_main
from repro.obs import (
    EXECUTION_FIELDS,
    LATENCY_BUCKETS_MS,
    METRIC_SPECS,
    MANIFEST_FILENAME,
    MetricSpec,
    MetricsRegistry,
    SPAN_SPECS,
    SpanSpec,
    config_hash,
    dump_json,
    last_run,
    metrics_document,
    register_metric,
    register_span,
    run_manifest,
    write_metrics_document,
)
from repro.simulation.config import SimulationConfig


def _config(**overrides) -> SimulationConfig:
    """Small workload that still exercises warmup, prefetch, and misses."""
    defaults = dict(
        n_sessions=80,
        warmup_sessions=40,
        seed=11,
        n_videos=20,
        n_servers=12,
        warm_first_chunks=True,
        prefetch_after_miss=True,
    )
    defaults.update(overrides)
    return SimulationConfig(**defaults)


@pytest.fixture(scope="module")
def serial_result():
    return run(_config())


@pytest.fixture(scope="module")
def sharded_result():
    return run(_config(workers=4))


# ---------------------------------------------------------------------------
# registry semantics


class TestRegistry:
    def test_counter_is_integer(self):
        registry = MetricsRegistry()
        counter = registry.counter("cdn.requests_total")
        counter.inc()
        counter.inc(3)
        counter.inc(2.9)  # coerced, never accumulates floats
        assert counter.value == 6
        assert isinstance(counter.value, int)

    def test_unknown_name_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(KeyError):
            registry.counter("cdn.not_in_contract_total")
        with pytest.raises(KeyError):
            registry.tracer.span("not.a_span")

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        with pytest.raises(TypeError):
            registry.counter("engine.clock_ms")
        with pytest.raises(TypeError):
            registry.histogram("cdn.requests_total")

    def test_histogram_bucket_placement(self):
        registry = MetricsRegistry()
        hist = registry.histogram("cdn.serve_latency_ms")
        assert hist.edges == LATENCY_BUCKETS_MS
        hist.observe(0.5)  # <= 1 ms: first bucket
        hist.observe(1.0)  # boundary values land in their own bucket
        hist.observe(15.0)
        hist.observe(99999.0)  # beyond the last edge: overflow bucket
        assert hist.counts[0] == 2
        assert hist.counts[LATENCY_BUCKETS_MS.index(20.0)] == 1
        assert hist.counts[-1] == 1
        assert hist.count == 4

    def test_snapshot_covers_full_contract_zero_valued(self):
        # workload snapshot (the byte-stable metrics document) plus the
        # execution snapshot (run-manifest accounting, docs/TELEMETRY.md)
        # jointly cover every registered spec, exactly once
        registry = MetricsRegistry()
        snap = registry.snapshot()
        emitted = set(snap["counters"]) | set(snap["gauges"]) | set(snap["histograms"])
        workload = {
            name for name, spec in METRIC_SPECS.items() if spec.scope == "workload"
        }
        assert emitted == workload
        execution = registry.execution_snapshot()
        executed = (
            set(execution["counters"])
            | set(execution["gauges"])
            | set(execution["histograms"])
        )
        assert executed == set(METRIC_SPECS) - workload
        assert executed, "expected execution-scoped specs in the contract"
        assert all(value == 0 for value in snap["counters"].values())
        assert all(
            payload["count"] == 0 and set(payload["counts"]) == {0}
            for payload in snap["histograms"].values()
        )

    def test_merge_semantics(self):
        shard_a = MetricsRegistry()
        shard_a.counter("cdn.requests_total").inc(5)
        shard_a.gauge("engine.clock_ms").set(120.0)
        shard_a.histogram("client.dfb_ms").observe(3.0)

        shard_b = MetricsRegistry()
        shard_b.counter("cdn.requests_total").inc(7)
        shard_b.gauge("engine.clock_ms").set(90.0)
        shard_b.histogram("client.dfb_ms").observe(4.0)

        merged = MetricsRegistry.from_snapshots(
            [shard_a.snapshot(), shard_b.snapshot()]
        )
        snap = merged.snapshot()
        assert snap["counters"]["cdn.requests_total"] == 12
        assert snap["gauges"]["engine.clock_ms"] == 120.0  # max, not sum
        assert snap["histograms"]["client.dfb_ms"]["count"] == 2
        bucket = LATENCY_BUCKETS_MS.index(5.0)
        assert snap["histograms"]["client.dfb_ms"]["counts"][bucket] == 2

    def test_merge_order_independent(self):
        snaps = []
        for seed_value in (3, 5, 9):
            registry = MetricsRegistry()
            registry.counter("client.chunks_total").inc(seed_value)
            registry.histogram("client.dlb_ms").observe(float(seed_value))
            snaps.append(registry.snapshot())
        forward = MetricsRegistry.from_snapshots(snaps).snapshot()
        backward = MetricsRegistry.from_snapshots(reversed(snaps)).snapshot()
        assert dump_json(forward) == dump_json(backward)

    def test_merge_rejects_mismatched_edges(self):
        registry = MetricsRegistry()
        foreign = MetricsRegistry().snapshot()
        foreign["histograms"]["client.dfb_ms"]["edges"] = [1.0, 2.0]
        foreign["histograms"]["client.dfb_ms"]["counts"] = [0, 0, 0]
        with pytest.raises(ValueError):
            registry.merge_snapshot(foreign)

    def test_runtime_registration_guards_duplicates(self):
        with pytest.raises(ValueError):
            register_metric(METRIC_SPECS["cdn.requests_total"])
        with pytest.raises(ValueError):
            register_span(SPAN_SPECS["cdn.serve"])

    def test_histogram_spec_requires_buckets(self):
        with pytest.raises(ValueError):
            # _specs validation path, exercised via a registry-independent spec
            from repro.obs.registry import _specs

            _specs([MetricSpec("x.bad", "histogram", "ms", "d", "—")])


class TestSpans:
    def test_nesting_records_parent_links(self):
        tracer = MetricsRegistry().tracer
        with tracer.span("driver.period"):
            with tracer.span("engine.run"):
                time.sleep(0.001)
            with tracer.span("engine.run"):
                pass
        snap = tracer.snapshot()
        keyed = {(entry["name"], entry["parent"]): entry for entry in snap}
        assert keyed[("driver.period", None)]["count"] == 1
        assert keyed[("engine.run", "driver.period")]["count"] == 2
        assert keyed[("engine.run", "driver.period")]["total_s"] > 0.0

    def test_totals_sum_over_parents(self):
        tracer = MetricsRegistry().tracer
        with tracer.span("driver.warmup"):
            with tracer.span("engine.run"):
                pass
        with tracer.span("driver.period"):
            with tracer.span("engine.run"):
                pass
        totals = dict(tracer.totals())
        assert set(totals) == {"driver.warmup", "driver.period", "engine.run"}


# ---------------------------------------------------------------------------
# manifests


class TestManifest:
    def test_config_hash_ignores_execution_fields(self):
        base = _config()
        assert config_hash(base) == config_hash(_config(workers=4))
        assert config_hash(base) == config_hash(_config(shard_timeout_s=30.0))
        assert config_hash(base) != config_hash(_config(seed=12))
        assert config_hash(base) != config_hash(_config(n_sessions=81))

    def test_execution_fields_exist_on_config(self):
        # the exclusion list must track SimulationConfig's real field names
        field_names = set(vars(SimulationConfig()).keys())
        assert EXECUTION_FIELDS <= field_names

    def test_hash_exclusion_is_structural(self, tmp_path):
        # the workload hash drops exactly the EXECUTION_FIELDS list: a knob
        # on it never changes the hash, whatever its value
        base = _config()
        changed = dict(
            workers=3,
            shard_timeout_s=5.0,
            trace_sample=0.5,
            spill_dir=str(tmp_path),
            spill_threshold_rows=7,
        )
        assert set(changed) == EXECUTION_FIELDS
        for name, value in changed.items():
            assert config_hash(base.with_overrides(**{name: value})) == config_hash(base)

    def test_spill_and_tracing_excluded_from_config_hash(self, tmp_path):
        base = _config()
        for overrides in (
            dict(spill_dir=str(tmp_path)),
            dict(trace_sample=0.5, workers=4),
        ):
            assert config_hash(base.with_overrides(**overrides)) == config_hash(base)

    def test_engine_is_not_a_config_field(self):
        # one stepping engine: the old execution knob is gone, not ignored
        assert "engine" not in EXECUTION_FIELDS
        with pytest.raises(TypeError, match="engine"):
            SimulationConfig(engine="event")

    def test_metrics_document_shape(self, serial_result):
        document = metrics_document(serial_result)
        manifest = document["manifest"]
        assert manifest["schema"] == "repro.obs/1"
        assert manifest["seed"] == 11
        assert manifest["n_sessions"] == serial_result.dataset.n_sessions
        assert manifest["n_chunks"] == serial_result.dataset.n_chunks
        assert "execution" not in manifest  # deterministic doc: identity only
        assert set(document["metrics"]) == {"counters", "gauges", "histograms"}

    def test_run_manifest_records_execution(self, sharded_result):
        manifest = run_manifest(sharded_result, wall_time_s=1.5)
        execution = manifest["execution"]
        assert execution["workers"] == 4
        assert execution["n_shards"] == 4
        assert execution["wall_time_s"] == 1.5
        assert len(execution["shard_reports"]) == 4
        span_names = {entry["name"] for entry in execution["spans"]}
        assert "parallel.merge" in span_names

    def test_write_metrics_document_round_trips(self, serial_result, tmp_path):
        path = write_metrics_document(serial_result, tmp_path / "metrics.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert loaded == json.loads(dump_json(metrics_document(serial_result)))


# ---------------------------------------------------------------------------
# end-to-end determinism (the acceptance criterion)


class TestMetricsDeterminism:
    def test_serial_runs_are_reproducible(self, serial_result):
        rerun = run(_config())
        assert dump_json(metrics_document(rerun)) == dump_json(
            metrics_document(serial_result)
        )

    def test_serial_and_sharded_bytes_identical(self, serial_result, sharded_result):
        assert dump_json(metrics_document(sharded_result)) == dump_json(
            metrics_document(serial_result)
        )

    def test_two_shard_run_matches_too(self, serial_result):
        two_shards = run(_config(workers=2))
        assert dump_json(metrics_document(two_shards)) == dump_json(
            metrics_document(serial_result)
        )

    def test_histogram_edges_stable_across_shard_counts(
        self, serial_result, sharded_result
    ):
        serial_hists = serial_result.metrics.snapshot()["histograms"]
        sharded_hists = sharded_result.metrics.snapshot()["histograms"]
        for name, payload in serial_hists.items():
            assert payload["edges"] == list(LATENCY_BUCKETS_MS), name
            assert sharded_hists[name]["edges"] == payload["edges"], name

    def test_counters_are_internally_consistent(self, serial_result):
        counters = serial_result.metrics.snapshot()["counters"]
        config = _config()
        # every serve call resolves to exactly one cache status
        assert counters["cdn.requests_total"] == (
            counters["cdn.cache_hits_ram_total"]
            + counters["cdn.cache_hits_disk_total"]
            + counters["cdn.cache_misses_total"]
        )
        assert counters["cdn.backend_fetches_total"] == counters["cdn.cache_misses_total"]
        # warmup streams are observable work (they shape cache state)
        assert counters["client.sessions_total"] == (
            config.n_sessions + config.warmup_sessions
        )
        assert counters["client.chunks_total"] >= serial_result.dataset.n_chunks
        assert counters["engine.events_total"] > 0
        assert serial_result.metrics.snapshot()["gauges"]["engine.clock_ms"] > 0.0

    def test_shard_reports_carry_span_totals(self, sharded_result):
        for report in sharded_result.shard_reports:
            totals = dict(report.span_totals)
            assert "parallel.worker" in totals
            assert totals["parallel.worker"] > 0.0

    def test_last_run_capture_published(self, serial_result):
        run(_config())
        capture = last_run()
        assert capture is not None
        assert set(capture) == {"metrics", "spans"}
        assert capture["metrics"]["counters"]["cdn.requests_total"] > 0


# ---------------------------------------------------------------------------
# CLI surface


class TestCliObservability:
    def _simulate(self, tmp_path, name, *extra):
        out = tmp_path / name
        metrics = tmp_path / f"{name}.metrics.json"
        argv = [
            "simulate",
            "--sessions", "30",
            "--warmup", "20",
            "--videos", "12",
            "--seed", "5",
            "--out", str(out),
            "--metrics-out", str(metrics),
            *extra,
        ]
        assert cli_main(argv) == 0
        return out, metrics

    def test_metrics_out_and_manifest_written(self, tmp_path, capsys):
        out, metrics = self._simulate(tmp_path, "serial")
        capsys.readouterr()
        assert (out / MANIFEST_FILENAME).is_file()
        manifest = json.loads((out / MANIFEST_FILENAME).read_text(encoding="utf-8"))
        assert manifest["execution"]["workers"] == 1
        document = json.loads(metrics.read_text(encoding="utf-8"))
        assert document["manifest"]["config_hash"] == manifest["config_hash"]

    def test_cli_metrics_bytes_identical_across_workers(self, tmp_path, capsys):
        _, serial_metrics = self._simulate(tmp_path, "serial")
        _, sharded_metrics = self._simulate(tmp_path, "sharded", "--workers", "2")
        capsys.readouterr()
        assert serial_metrics.read_bytes() == sharded_metrics.read_bytes()

    def test_profile_flag_writes_stats(self, tmp_path, capsys):
        profile_path = tmp_path / "run.prof"
        self._simulate(tmp_path, "profiled", "--profile", str(profile_path))
        output = capsys.readouterr().out
        assert profile_path.is_file() and profile_path.stat().st_size > 0
        assert "top stages" in output
        assert "span driver.period" in output

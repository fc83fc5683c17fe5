"""The scenario-matrix DSL and factorial sweep runner (docs/SCENARIOS.md).

Pins the written contracts:

* the override grammar (literals, scale/offset transforms, the
  execution/structured field bans);
* workload shapes resolve to the documented period structures;
* the canned scenarios re-expressed in the DSL resolve to exactly the
  configs the imperative builders produced;
* sweep grids enumerate deterministically (`axis=value+axis=value`
  names, last axis fastest) and round-trip through JSON;
* determinism: a grid run serially and with ``--workers 4`` produces
  byte-identical per-cell metrics documents and an identical aggregate
  report, and re-running a single cell reproduces its records;
* failures are captured per cell (``sweeps.cells_failed_total``), never
  killing the grid;
* the CLI surface (``repro sweep run|list|report``,
  ``repro scenario --json``) and the shipped example spec.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api import run
from repro.cli import main
from repro.core import columnar_analysis as ca
from repro.core.qoe import summarize
from repro.faults.spec import FaultSpec
from repro.simulation.config import SimulationConfig
from repro.sweep import (
    CANNED_SCENARIOS,
    WORKLOAD_SHAPES,
    AxisValue,
    PeriodDef,
    ScenarioSpec,
    SweepAxis,
    SweepSpec,
    aggregate_report,
    format_report,
    load_cell_documents,
    outcome_document,
    run_cell,
    run_sweep,
)
from repro.sweep.report import _round_floats
from repro.sweep.spec import _apply_overrides
from streaming_oracle import QoeAccumulator

REPO_ROOT = Path(__file__).resolve().parent.parent

_SMALL_FAULT = {
    "name": "small-degradation",
    "description": "tiny server degradation for tests",
    "events": [
        {
            "id": "deg-1",
            "class": "server-degraded",
            "start_ms": 0,
            "end_ms": 1000000000000,
            "magnitude": 50.0,
        }
    ],
}


def _tiny_scenario(**kwargs) -> ScenarioSpec:
    base = {"n_sessions": 40, "warmup_sessions": 20}
    base.update(kwargs.pop("base", {}))
    return ScenarioSpec(name=kwargs.pop("name", "tiny"), base=base, seed=11, **kwargs)


# -- override grammar ---------------------------------------------------------


class TestOverrideGrammar:
    def test_literal_replaces(self):
        config = _apply_overrides(SimulationConfig(), {"zipf_alpha": 1.3})
        assert config.zipf_alpha == 1.3

    def test_scale_transform(self):
        base = SimulationConfig()
        config = _apply_overrides(base, {"arrival_rate_per_s": {"scale": 3.0}})
        assert config.arrival_rate_per_s == base.arrival_rate_per_s * 3.0

    def test_offset_transform(self):
        base = SimulationConfig()
        config = _apply_overrides(base, {"seed": {"offset": 1}})
        assert config.seed == base.seed + 1

    def test_int_fields_round_back_to_int(self):
        base = SimulationConfig().with_overrides(n_sessions=10)
        config = _apply_overrides(base, {"n_sessions": {"scale": 0.25}})
        assert config.n_sessions == 2 and isinstance(config.n_sessions, int)

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field"):
            _apply_overrides(SimulationConfig(), {"not_a_field": 1})

    def test_removed_engine_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config field 'engine'"):
            _apply_overrides(SimulationConfig(), {"engine": "fleet"})

    def test_execution_fields_rejected(self):
        with pytest.raises(ValueError, match="execution knob"):
            _apply_overrides(SimulationConfig(), {"workers": 4})

    def test_structured_fields_rejected(self):
        with pytest.raises(ValueError, match="structured object"):
            _apply_overrides(SimulationConfig(), {"population": {}})

    def test_malformed_transform_rejected(self):
        with pytest.raises(ValueError, match="one-key transform"):
            _apply_overrides(
                SimulationConfig(), {"zipf_alpha": {"scale": 2, "offset": 1}}
            )
        with pytest.raises(ValueError, match="one-key transform"):
            _apply_overrides(SimulationConfig(), {"zipf_alpha": {"multiply": 2}})


# -- scenarios and shapes -----------------------------------------------------


class TestScenarioSpec:
    def test_round_trip(self, tmp_path):
        spec = ScenarioSpec(
            name="rt",
            description="round trip",
            workload="live-event-spike",
            workload_params={"arrival_scale": 2.0},
            base={"n_sessions": 50},
            seed=7,
        )
        path = spec.save(tmp_path / "spec.json")
        assert ScenarioSpec.load(path) == spec

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario field"):
            ScenarioSpec.from_dict({"name": "x", "bogus": 1})

    def test_unknown_workload_rejected(self):
        with pytest.raises(ValueError, match="unknown workload shape"):
            ScenarioSpec(name="x", workload="tsunami")

    def test_unsafe_name_rejected(self):
        with pytest.raises(ValueError, match="unsafe characters"):
            ScenarioSpec(name="a/b")

    def test_resolve_applies_base_seed_and_execution(self):
        spec = _tiny_scenario()
        periods = spec.resolve(workers=4)
        assert len(periods) == 1
        config = periods[0].config
        assert config.n_sessions == 40
        assert config.seed == 11
        assert config.workers == 4

    def test_resolve_rejects_non_execution_kwargs(self):
        with pytest.raises(ValueError, match="not execution knobs"):
            _tiny_scenario().resolve(n_sessions=5)

    def test_faults_from_relative_path(self, tmp_path):
        (tmp_path / "f.json").write_text(json.dumps(_SMALL_FAULT))
        (tmp_path / "spec.json").write_text(
            json.dumps({"name": "s", "faults": "f.json"})
        )
        spec = ScenarioSpec.load(tmp_path / "spec.json")
        assert isinstance(spec.faults, FaultSpec)
        assert spec.faults.events[0].fault_id == "deg-1"


class TestWorkloadShapes:
    def test_registry_names(self):
        assert set(WORKLOAD_SHAPES) == {
            "steady",
            "diurnal",
            "live-event-spike",
            "short-session-skew",
            "regional-isp-outage",
        }

    def test_unknown_shape_param_rejected(self):
        with pytest.raises(ValueError, match="unknown workload_params"):
            ScenarioSpec(
                name="x", workload="diurnal", workload_params={"bogus": 1}
            ).resolve()

    def test_diurnal_period_structure(self):
        spec = ScenarioSpec(
            name="d", workload="diurnal", base={"n_sessions": 400}, seed=3
        )
        periods = spec.resolve()
        assert [p.label for p in periods] == ["night", "morning", "peak", "evening"]
        assert [p.config.n_sessions for p in periods] == [100, 100, 100, 100]
        base_rate = SimulationConfig().arrival_rate_per_s
        assert periods[2].config.arrival_rate_per_s == pytest.approx(base_rate * 1.6)
        # later phases continue the stream: no warmup, shifted seeds
        assert periods[0].config.seed == 3
        assert [p.config.warmup_sessions for p in periods[1:]] == [0, 0, 0]
        assert [p.config.seed for p in periods[1:]] == [4, 5, 6]

    def test_short_session_skew_sets_watch_knobs(self):
        periods = ScenarioSpec(name="s", workload="short-session-skew").resolve()
        config = periods[0].config
        assert config.watch_median_chunks == 2.0
        assert config.watch_sigma_chunks == 1.2
        assert config.zipf_alpha == 1.5

    def test_regional_isp_outage_contributes_faults(self):
        periods = ScenarioSpec(
            name="o",
            workload="regional-isp-outage",
            workload_params={"orgs": ["Verizon"], "loss": 0.1},
        ).resolve()
        faults = periods[0].config.faults
        assert faults is not None
        classes = {e.fault_class for e in faults.events}
        assert classes == {"network-latency", "network-loss"}
        assert all(e.orgs == ("Verizon",) for e in faults.events)


class TestCannedScenarios:
    def test_registry_matches_scenarios_module(self):
        from repro.simulation import scenarios

        assert set(CANNED_SCENARIOS) == {
            "flash-crowd",
            "cache-flush",
            "backend-brownout",
        }
        # every incident mutation names a callable of the scenarios module
        mutations = [
            period.mutation
            for spec in CANNED_SCENARIOS.values()
            for period in spec.resolve()
            if period.mutation is not None
        ]
        assert len(mutations) == 2
        for mutation in mutations:
            module, _, name = mutation.partition(":")
            assert module == scenarios.__name__
            assert callable(getattr(scenarios, name))

    def test_flash_crowd_resolution(self):
        baseline, incident = CANNED_SCENARIOS["flash-crowd"].resolve(seed=41)
        assert baseline.config.n_sessions == incident.config.n_sessions == 800
        assert baseline.config.warmup_sessions == 1600
        assert incident.config.warmup_sessions == 0
        assert incident.config.arrival_rate_per_s == pytest.approx(
            baseline.config.arrival_rate_per_s * 3.0
        )
        assert incident.config.zipf_alpha == 1.6
        assert incident.config.n_videos == 10
        assert incident.config.seed == baseline.config.seed + 1

    def test_cache_flush_keeps_simulator_reuse(self):
        # equal period configs are what lets execute_periods reuse the
        # warmed simulator for the incident period
        baseline, incident = CANNED_SCENARIOS["cache-flush"].resolve(seed=5)
        assert baseline.config == incident.config
        assert incident.mutation == "repro.simulation.scenarios:_flush_caches"

    def test_backend_brownout_mutation_args(self):
        _, incident = CANNED_SCENARIOS["backend-brownout"].resolve()
        assert incident.mutation == "repro.simulation.scenarios:_slow_backend"
        assert incident.mutation_args == (8.0,)


# -- sweeps -------------------------------------------------------------------


def _grid_2x2(fault=True) -> SweepSpec:
    fault_values = [AxisValue(name="none")]
    if fault:
        fault_values.append(
            AxisValue(name="deg", faults=FaultSpec.from_dict(_SMALL_FAULT))
        )
    return SweepSpec(
        name="grid",
        scenario=_tiny_scenario(),
        axes=(
            SweepAxis(
                axis="mapping",
                values=(
                    AxisValue(
                        name="cache-focused",
                        overrides={"mapping_strategy": "cache-focused"},
                    ),
                    AxisValue(
                        name="random", overrides={"mapping_strategy": "random"}
                    ),
                ),
            ),
            SweepAxis(axis="fault", values=tuple(fault_values)),
        ),
    )


class TestSweepSpec:
    def test_cell_enumeration_order(self):
        spec = _grid_2x2()
        names = [cell.name for cell in spec.cells()]
        # declared axis order, last axis fastest
        assert names == [
            "mapping=cache-focused+fault=none",
            "mapping=cache-focused+fault=deg",
            "mapping=random+fault=none",
            "mapping=random+fault=deg",
        ]
        assert spec.n_cells == 4

    def test_cell_lookup(self):
        spec = _grid_2x2()
        cell = spec.cell("mapping=random+fault=deg")
        assert cell.coordinates == (("mapping", "random"), ("fault", "deg"))
        assert cell.scenario.base["mapping_strategy"] == "random"
        assert cell.scenario.faults is not None
        with pytest.raises(KeyError, match="no cell named"):
            spec.cell("mapping=bogus")

    def test_axis_value_patches_compose(self):
        spec = _grid_2x2()
        cell = spec.cell("mapping=cache-focused+fault=none")
        periods = cell.resolve(workers=2)
        assert periods[0].config.mapping_strategy == "cache-focused"
        assert periods[0].config.workers == 2
        assert periods[0].config.faults is None

    def test_duplicate_axis_rejected(self):
        axis = SweepAxis(axis="a", values=(AxisValue(name="x"),))
        with pytest.raises(ValueError, match="duplicate axis"):
            SweepSpec(name="s", axes=(axis, axis))

    def test_duplicate_value_name_rejected(self):
        with pytest.raises(ValueError, match="duplicate value name"):
            SweepAxis(axis="a", values=(AxisValue(name="x"), AxisValue(name="x")))

    def test_round_trip(self, tmp_path):
        spec = _grid_2x2()
        path = spec.save(tmp_path / "sweep.json")
        loaded = SweepSpec.load(path)
        assert [c.name for c in loaded.cells()] == [c.name for c in spec.cells()]
        assert loaded == spec

    def test_canned_scenario_by_name(self):
        spec = SweepSpec.from_dict({"name": "s", "scenario": "flash-crowd"})
        assert spec.scenario == CANNED_SCENARIOS["flash-crowd"]
        with pytest.raises(ValueError, match="unknown canned scenario"):
            SweepSpec.from_dict({"name": "s", "scenario": "bogus"})

    def test_example_spec_is_a_12_cell_grid(self):
        spec = SweepSpec.load(REPO_ROOT / "examples" / "sweep_mapping_vs_faults.json")
        assert spec.n_cells == 12
        assert len(spec.axes) == 2
        names = [cell.name for cell in spec.cells()]
        assert "mapping=cache-focused+fault=cdn-degradation" in names
        # every fault axis value except the control carries a schedule
        faulted = [c for c in spec.cells() if c.scenario.faults is not None]
        assert len(faulted) == 9


# -- reports ------------------------------------------------------------------


class TestOutcomeDocument:
    def test_single_period_document(self):
        result = run(SimulationConfig(n_sessions=30, warmup_sessions=0, seed=3))
        document = outcome_document("solo", [""], [result.dataset])
        assert document["schema"] == "repro.sweep.outcome/1"
        assert document["periods"][0]["label"] == "measure"
        assert document["overall"]["n_sessions"] == 30
        assert "deltas" not in document
        assert "faultscore" not in document  # no labels, no block

    def test_faulted_document_carries_scorecard(self):
        config = SimulationConfig(
            n_sessions=40,
            warmup_sessions=20,
            seed=11,
            faults=FaultSpec.from_dict(_SMALL_FAULT),
        )
        result = run(config)
        document = outcome_document("faulted", [""], [result.dataset])
        score = document["faultscore"]
        assert score["n_labeled"] > 0
        assert 0.0 <= score["recall"] <= 1.0
        assert "server-degraded" in score["classes"]

    def test_multi_period_overall_folds_the_periods(self):
        # both periods draw from one session-id stream: overall holds every
        # period's sessions and never joins a session across periods
        spec = _tiny_scenario(
            base={"n_sessions": 30},
            periods=(
                PeriodDef(label="baseline"),
                PeriodDef(
                    label="incident",
                    mutation="repro.simulation.scenarios:_flush_caches",
                ),
            ),
        )
        result = run(periods=spec.resolve())
        ids = [{r.session_id for r in d.player_sessions} for d in result.datasets]
        assert ids[0] == ids[1]
        document = outcome_document("flush", list(result.labels), result.datasets)
        periods, overall = document["periods"], document["overall"]
        assert overall["qoe"]["n_sessions"] == sum(
            period["qoe"]["n_sessions"] for period in periods
        ) == 60
        assert overall["n_sessions"] == result.manifest()["n_sessions"] == 60
        fold = QoeAccumulator()
        for dataset in result.datasets:
            for view in dataset.iter_sessions():
                fold.update(view)
        assert overall["qoe"] == _round_floats(fold.result())

    def test_each_period_is_joined_once(self, monkeypatch):
        spec = _tiny_scenario(
            base={"n_sessions": 30},
            periods=(
                PeriodDef(label="baseline"),
                PeriodDef(
                    label="incident",
                    mutation="repro.simulation.scenarios:_flush_caches",
                ),
            ),
        )
        result = run(periods=spec.resolve())
        plans = []

        class CountingPlan(ca._BlockPlan):
            def __init__(self, runs, *args):
                plans.append(len(runs))
                super().__init__(runs, *args)

        monkeypatch.setattr(ca, "_BlockPlan", CountingPlan)
        document = outcome_document("flush", list(result.labels), result.datasets)
        # one cascade plan per period feeds its QoE, the overall QoE and
        # the fault score
        assert plans == [6, 6]
        for period, dataset in zip(document["periods"], result.datasets):
            assert period["qoe"] == _round_floats(summarize(dataset))

    def test_aggregate_ranking_orders_and_failures(self):
        def doc(name, rebuf, recall):
            d = {
                "schema": "repro.sweep.outcome/1",
                "name": name,
                "periods": [],
                "overall": {
                    "n_sessions": 1,
                    "n_chunks": 1,
                    "qoe": {
                        "mean_rebuffer_rate_pct": rebuf,
                        "rebuffer_session_fraction": 0.0,
                        "median_startup_ms": 900.0,
                        "p90_startup_ms": 2000.0,
                        "median_bitrate_kbps": 2500.0,
                    },
                },
            }
            if recall is not None:
                d["faultscore"] = {
                    "n_chunks": 1,
                    "n_labeled": 5,
                    "recall": recall,
                    "precision": 1.0,
                    "classes": {},
                }
            return d

        report = aggregate_report(
            "s",
            {
                "a": doc("a", 2.0, 0.3),
                "b": doc("b", 0.5, 0.9),
                "c": doc("c", 1.0, None),
            },
            failed={"d": "ValueError: boom"},
        )
        assert report["ranking"]["by_rebuffer"] == ["b", "c", "a"]
        assert report["ranking"]["by_fault_recall"] == ["b", "a"]
        assert report["n_cells"] == 4 and report["n_failed"] == 1
        assert report["sweeps"] == {"cells_total": 4, "cells_failed_total": 1}
        text = format_report(report)
        assert "d: ValueError: boom" in text


# -- the runner and its determinism contract ----------------------------------


class TestSweepRunner:
    def test_serial_vs_sharded_byte_identity(self, tmp_path):
        spec = _grid_2x2()
        serial = run_sweep(spec, workers=1, out_dir=tmp_path / "serial")
        sharded = run_sweep(spec, workers=4, out_dir=tmp_path / "sharded")
        assert serial.n_failed == sharded.n_failed == 0
        for a, b in zip(serial.cells, sharded.cells):
            assert a.name == b.name
            assert a.metrics_json == b.metrics_json, a.name
            assert a.document == b.document, a.name
        assert serial.report == sharded.report
        # and the on-disk artifacts are byte-identical too
        for rel in ["report.json", "report.txt", "sweep.json"]:
            assert (tmp_path / "serial" / rel).read_bytes() == (
                tmp_path / "sharded" / rel
            ).read_bytes()
        for cell in serial.cells:
            for artifact in ["cell.json", "metrics.json"]:
                rel = Path("cells") / cell.name / artifact
                assert (tmp_path / "serial" / rel).read_bytes() == (
                    tmp_path / "sharded" / rel
                ).read_bytes(), str(rel)

    def test_serial_vs_jobs_byte_identity(self, tmp_path):
        # whole-cell process-pool parallelism (`repro sweep run --jobs`)
        # must keep every artifact byte-identical to the serial run
        spec = _grid_2x2()
        serial = run_sweep(spec, workers=1, out_dir=tmp_path / "serial")
        pooled = run_sweep(spec, workers=1, jobs=4, out_dir=tmp_path / "jobs")
        assert serial.n_failed == pooled.n_failed == 0
        for a, b in zip(serial.cells, pooled.cells):
            assert a.name == b.name
            assert a.metrics_json == b.metrics_json, a.name
            assert a.document == b.document, a.name
        assert serial.report == pooled.report
        for rel in ["report.json", "report.txt", "sweep.json"]:
            assert (tmp_path / "serial" / rel).read_bytes() == (
                tmp_path / "jobs" / rel
            ).read_bytes()
        for cell in serial.cells:
            for artifact in ["cell.json", "metrics.json"]:
                rel = Path("cells") / cell.name / artifact
                assert (tmp_path / "serial" / rel).read_bytes() == (
                    tmp_path / "jobs" / rel
                ).read_bytes(), str(rel)

    def test_single_cell_rerun_reproduces(self, tmp_path):
        spec = _grid_2x2()
        full = run_sweep(spec, workers=1)
        name = "mapping=random+fault=deg"
        partial = run_sweep(spec, workers=1, cell_names=[name])
        assert [cell.name for cell in partial.cells] == [name]
        full_cell = next(cell for cell in full.cells if cell.name == name)
        assert partial.cells[0].metrics_json == full_cell.metrics_json
        assert partial.cells[0].document == full_cell.document

    def test_unknown_cell_name_raises_before_running(self):
        with pytest.raises(KeyError, match="no cell"):
            run_sweep(_grid_2x2(), cell_names=["bogus"])

    def test_failed_cell_is_captured_not_fatal(self, tmp_path):
        spec = SweepSpec(
            name="half-broken",
            scenario=_tiny_scenario(),
            axes=(
                SweepAxis(
                    axis="v",
                    values=(
                        AxisValue(name="ok"),
                        # zipf_alpha <= 0 fails SimulationConfig validation
                        # at cell resolution time
                        AxisValue(name="bad", overrides={"zipf_alpha": -1.0}),
                    ),
                ),
            ),
        )
        result = run_sweep(spec, out_dir=tmp_path)
        assert result.n_failed == 1
        failed = next(cell for cell in result.cells if not cell.succeeded)
        assert failed.name == "v=bad"
        assert failed.error == "ValueError: alpha must be non-negative"
        assert result.metrics.counter("sweeps.cells_total").value == 2
        assert result.metrics.counter("sweeps.cells_failed_total").value == 1
        assert result.report["failed"]["v=bad"].startswith("ValueError")
        assert (tmp_path / "cells" / "v=bad" / "error.txt").is_file()
        assert not (tmp_path / "cells" / "v=bad" / "cell.json").exists()
        # the report still ranks the surviving cell
        assert result.report["ranking"]["by_rebuffer"] == ["v=ok"]

    def test_run_cell_document_coordinates(self):
        spec = _grid_2x2(fault=False)
        cell = spec.cell("mapping=random+fault=none")
        result = run_cell(cell)
        assert result.succeeded
        assert result.document["coordinates"] == {
            "mapping": "random",
            "fault": "none",
        }
        assert result.document["name"] == cell.name

    def test_report_reaggregation_matches(self, tmp_path):
        spec = _grid_2x2(fault=False)
        result = run_sweep(spec, out_dir=tmp_path)
        documents, failures = load_cell_documents(tmp_path)
        assert failures == {}
        rebuilt = aggregate_report(spec.name, documents, failures)
        assert rebuilt == result.report


# -- CLI ----------------------------------------------------------------------


class TestSweepCLI:
    def _write_spec(self, tmp_path) -> Path:
        path = tmp_path / "grid.json"
        _grid_2x2(fault=False).save(path)
        return path

    def test_sweep_list(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        assert main(["sweep", "list", str(path)]) == 0
        out = capsys.readouterr().out
        assert "2 cells" in out
        assert "mapping=cache-focused+fault=none" in out

    def test_sweep_run_and_report(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        out_dir = tmp_path / "out"
        code = main(
            ["sweep", "run", str(path), "--out", str(out_dir),
             "--cell", "mapping=random+fault=none"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "best rebuffer ratio first" in out
        report_before = (out_dir / "report.json").read_bytes()
        assert main(["sweep", "report", str(out_dir)]) == 0
        assert "rebuf%" in capsys.readouterr().out
        # re-aggregation of the one-cell run is reproducible
        assert (out_dir / "report.json").read_bytes() == report_before

    def test_sweep_run_unknown_cell_exits_2(self, tmp_path, capsys):
        path = self._write_spec(tmp_path)
        assert main(["sweep", "run", str(path), "--cell", "nope"]) == 2
        assert "no cell" in capsys.readouterr().err

    def test_sweep_report_on_empty_dir_exits_2(self, tmp_path, capsys):
        (tmp_path / "cells").mkdir()
        assert main(["sweep", "report", str(tmp_path)]) == 2
        assert "no cells found" in capsys.readouterr().err


class TestScenarioJsonExport:
    def test_scenario_json_file_shares_sweep_serialization(
        self, tmp_path, capsys, monkeypatch
    ):
        # shrink the canned scenario so the CLI test stays fast; the
        # export path is identical for any size
        from repro.sweep import spec as sweep_spec

        small = dict(CANNED_SCENARIOS)
        small["flash-crowd"] = sweep_spec.ScenarioSpec(
            name="flash-crowd",
            workload="live-event-spike",
            base={"n_sessions": 40, "warmup_sessions": 40},
        )
        monkeypatch.setattr(sweep_spec, "CANNED_SCENARIOS", small)
        out = tmp_path / "outcome.json"
        code = main(
            ["scenario", "flash-crowd", "--seed", "7", "--json", str(out)]
        )
        assert code == 0
        document = json.loads(out.read_text())
        assert document["schema"] == "repro.sweep.outcome/1"
        assert document["name"] == "flash-crowd"
        assert [p["label"] for p in document["periods"]] == [
            "baseline",
            "incident",
        ]
        assert "deltas" in document

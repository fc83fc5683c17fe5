"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main
from repro.obs.manifest import load_run_manifest
from repro.telemetry.io import load_dataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_args(self):
        args = build_parser().parse_args(
            ["simulate", "--sessions", "10", "--out", "x", "--abr", "buffer"]
        )
        assert args.sessions == 10
        assert args.abr == "buffer"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])

    def test_removed_engine_flag_is_a_usage_error(self, tmp_path):
        # the stepping-engine knob is gone: its flag is an unknown argument
        removed = "engine"
        argv = ["simulate", "--out", str(tmp_path / "x")]
        assert removed not in vars(build_parser().parse_args(argv))
        with pytest.raises(SystemExit) as exit_info:
            main(argv + [f"--{removed}", "fleet"])
        assert exit_info.value.code == 2


class TestCommands:
    def test_manifest_with_engine_field_still_compares(self, tmp_path, capsys):
        # manifests written while the engine and shard_by knobs existed
        # carry execution.engine / execution.shard_by; they still load and
        # diff as the same workload
        out = tmp_path / "ds"
        code = main(
            ["simulate", "--sessions", "70", "--warmup", "0", "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        removed = {"engine": "fleet", "shard_by": "server"}
        for key, value in removed.items():
            assert key not in manifest["execution"]
            manifest["execution"][key] = value
        old = tmp_path / "old-manifest.json"
        old.write_text(json.dumps(manifest))
        loaded = load_run_manifest(old)["execution"]
        assert {key: loaded[key] for key in removed} == removed
        capsys.readouterr()
        assert main(["metrics", "diff", str(old), str(out / "manifest.json")]) == 0
        assert "documents identical" in capsys.readouterr().out

    def test_list_prints_all_experiments(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        for experiment_id in ("fig03", "fig22", "table01", "table04", "table05"):
            assert experiment_id in output

    def test_simulate_then_analyze_then_findings(self, tmp_path, capsys):
        out = str(tmp_path / "trace")
        assert (
            main(
                [
                    "simulate",
                    "--sessions",
                    "120",
                    "--warmup",
                    "120",
                    "--seed",
                    "3",
                    "--out",
                    out,
                ]
            )
            == 0
        )
        dataset = load_dataset(out)
        assert dataset.n_sessions == 120

        assert main(["analyze", out]) == 0
        output = capsys.readouterr().out
        assert "QoE summary" in output
        assert "Bottleneck localization" in output

        # tiny cold traces cannot support every finding; the command must
        # still run to completion and render the report
        code = main(["findings", out])
        output = capsys.readouterr().out
        assert "Key findings:" in output
        assert code in (0, 1)

    def test_analyze_without_proxy_filter(self, tmp_path, capsys):
        out = str(tmp_path / "trace")
        main(["simulate", "--sessions", "60", "--warmup", "0", "--out", out])
        capsys.readouterr()
        assert main(["analyze", out, "--no-proxy-filter"]) == 0
        assert "proxy filter" not in capsys.readouterr().out

    def test_experiment_standalone(self, capsys):
        assert main(["experiment", "fig13"]) == 0
        assert "fig13" in capsys.readouterr().out

    def test_experiment_plot_flag(self, capsys):
        assert main(["experiment", "fig20", "--plot"]) == 0
        output = capsys.readouterr().out
        assert "fig20" in output
        assert "CDF" in output or "x vs y" in output

    def test_experiment_unknown_id(self):
        with pytest.raises(KeyError):
            main(["experiment", "fig99"])

    def test_missing_dataset_errors(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            main(["analyze", str(tmp_path / "nope")])

    def test_report_writes_markdown(self, tmp_path, capsys):
        out = str(tmp_path / "report.md")
        code = main(["report", "--scale", "tiny", "--out", out])
        assert code in (0, 1)  # tiny scale may not support every check
        text = open(out, encoding="utf-8").read()
        assert text.startswith("# Reproduction report")
        assert "fig03" in text and "table05" in text
        assert "experiments pass all checks" in text

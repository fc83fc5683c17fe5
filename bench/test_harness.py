"""Tests of the benchmark harness itself (``python -m pytest bench -q``).

They live outside the tier-1 ``testpaths``: the smoke runs below start
real workload processes and take about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import reference
import run
from stats import percentile, tail_percentile, verdict
from tracing import LAYERS, Tracer, layer_metrics, resolve

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]

FAKE_SOURCE = '''
def inner(cost):
    clock.advance(cost)
    return cost

def outer():
    clock.advance(1.0)
    inner(2.0)
    inner(3.0)
    clock.advance(0.5)

def produce(n):
    for i in range(n):
        clock.advance(4.0)
        yield i

class Service:
    def step(self):
        clock.advance(0.25)
        outer()
        for _ in produce(2):
            clock.advance(0.125)  # the consumer's work is not the generator's

class Derived(Service):
    pass
'''

FAKE_LAYERS = {
    "fake.step": ("bench_fake_layers:Service.step",),
    "fake.outer": ("bench_fake_layers:outer",),
    "fake.inner": ("bench_fake_layers:inner",),
    "fake.produce": ("bench_fake_layers:produce",),
}


class FakeClock:
    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


@pytest.fixture
def fake(monkeypatch):
    """A module of nested fake layers that advance a fake clock."""
    module = types.ModuleType("bench_fake_layers")
    module.clock = FakeClock()
    exec(FAKE_SOURCE, module.__dict__)
    monkeypatch.setitem(sys.modules, "bench_fake_layers", module)
    return module


def test_self_time_of_nested_layers(fake):
    tracer = Tracer(clock=fake.clock)
    tracer.install(FAKE_LAYERS)
    fake.Service().step()
    fake.clock.advance(0.75)  # time outside every wrapped call
    tracer.uninstall()

    spans = tracer.spans()
    assert spans == {
        ("fake.step", None): [1, 15.0, 0.5],
        ("fake.outer", "fake.step"): [1, 6.5, 1.5],
        ("fake.inner", "fake.outer"): [2, 5.0, 5.0],
        # two items plus the resumption that ends the generator
        ("fake.produce", "fake.step"): [3, 8.0, 8.0],
    }
    assert tracer.accounting() == {
        "wall_s": 15.75,
        "self_total_s": 15.0,
        "root_busy_s": 15.0,
        "other_s": 0.75,
    }


def test_uninstall_restores_the_originals(fake):
    originals = (fake.outer, fake.inner, fake.produce, fake.Service.step)
    tracer = Tracer(clock=fake.clock)
    tracer.install(FAKE_LAYERS)
    assert fake.outer is not originals[0]
    tracer.uninstall()
    assert (fake.outer, fake.inner, fake.produce, fake.Service.step) == originals
    fake.Service().step()
    assert tracer.spans() == {}


def test_missing_targets_are_recorded_absent(fake):
    tracer = Tracer(clock=fake.clock)
    tracer.install({
        "gone.module": ("repro_no_such_module:run",),
        "gone.class": ("bench_fake_layers:Missing.step",),
        "gone.method": ("bench_fake_layers:Service.gone",),
        "gone.inherited": ("bench_fake_layers:Derived.step",),
        "kept": ("bench_fake_layers:inner",),
    })
    assert sorted(tracer.absent) == ["gone.class", "gone.inherited", "gone.method", "gone.module"]
    assert fake.inner(1.0) == 1.0
    tracer.uninstall()
    assert tracer.spans() == {("kept", None): [1, 1.0, 1.0]}


def test_absent_layers_still_report_every_metric():
    tracer = Tracer()
    tracer.install({layer: ("repro_no_such_module:gone",) for layer in LAYERS})
    tracer.uninstall()
    assert sorted(tracer.absent) == sorted(LAYERS)
    metrics = layer_metrics(tracer)
    # run.py adds the two metrics that compare the traced and untraced runs
    assert set(PER_LAYER) - {"trace.overhead_ratio", "serve.health_p50_ms"} <= set(metrics)
    assert all(metrics[name] == 0 for name in metrics if not name.startswith("trace."))


def test_every_layer_target_exists_today(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    for targets in LAYERS.values():
        for target in targets:
            resolve(target)  # raises LookupError if the target is gone


def test_host_clock_normalizes_each_sample_by_the_units_around_it(monkeypatch):
    clock = FakeClock()
    # seconds of the reference units: before sample 1, between the
    # samples, after sample 2
    unit_costs = iter([0.02, 0.04, 0.01])
    monkeypatch.setattr(reference, "perf_counter", clock)
    monkeypatch.setattr(reference, "reference_unit", lambda: clock.advance(next(unit_costs)))
    host = reference.HostClock()
    nominal = reference.UNIT_NOMINAL_S

    result, raw, norm = host.time(lambda: clock.advance(0.5) or "done")
    assert (result, raw) == ("done", 0.5)
    assert norm == pytest.approx(0.5 * nominal / 0.03)
    _, raw, norm = host.time(lambda: clock.advance(0.25))
    assert norm == pytest.approx(0.25 * nominal / 0.025)  # the shared unit, then the next
    assert host.unit_samples == pytest.approx([0.02, 0.04, 0.01])


def test_percentile_needs_ten_samples_beyond_a_tail():
    assert percentile(list(range(100)), 90) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        percentile(list(range(99)), 90)
    assert tail_percentile(list(range(99)), 90) is None
    assert percentile([3.0, 1.0, 2.0], 50) == 2.0  # the median needs no tail


def test_verdicts():
    base = [100.0 + i for i in range(10)]
    assert verdict(base, [b * 0.8 for b in base], "lower", 0.1)["status"] == "improved"
    assert verdict(base, [b * 1.2 for b in base], "lower", 0.1)["status"] == "regressed"
    assert verdict(base, base, "lower", 0.1)["status"] == "unchanged"
    assert verdict(base, [b * 0.8 for b in base], "higher", 0.1)["status"] == "regressed"
    noisy = [50.0, 150.0] * 5
    assert verdict(noisy, list(noisy), "lower", 0.1)["status"] == "unresolved"


def _record(workload, seed, metrics, counts):
    return {
        "workload": workload, "seed": seed, "smoke": False, "instrumented": False,
        "host": {"nproc": 2}, "metrics": metrics, "exact_counts": counts,
    }


def test_compare_flags_regressions_and_changed_counts(tmp_path, capsys):
    files = []
    for pair in range(3):
        for side, scale in (("base", 1.0), ("head", 1.5)):
            metrics = {name: 10.0 + pair for name in E2E}
            metrics["op_p50_ms"] *= scale
            counts = {"chunks": 100 if side == "base" or pair else 101}
            path = tmp_path / f"{side}{pair}.json"
            path.write_text(json.dumps([_record("batch", pair, metrics, counts)]))
            files.append(str(path))
    assert run.main(["compare", *files]) == 1
    out = capsys.readouterr().out
    assert "op_p50_ms" in out and "regressed" in out
    assert "pair 1 batch: chunks 100 -> 101" in out


def _bench(args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True,
        text=True, timeout=600,
    )


def test_smoke_run_prints_every_metric():
    proc = _bench(["--smoke", "--trace", "--seed", "7"])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("SMOKE RUN")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    assert sorted(result["metrics"]) == sorted(run.WORKLOADS)
    for workload, metrics in result["metrics"].items():
        assert set(metrics) == set(E2E) | set(PER_LAYER), workload
        for name in E2E:
            assert metrics[name]["value"] > 0, (workload, name)


def test_single_workload_prints_the_result_contract():
    proc = _bench(["--workload", "spill-read", "--seed", "3", "--seconds", "20",
                   "--trace", "0", "--smoke"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert sorted(result["metrics"]) == sorted(E2E)
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for name, entry in result["metrics"].items():
        assert entry["unit"] == units[name]


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(["--workload", "batch", "--seed", "1", "--seconds", "20",
                   "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""

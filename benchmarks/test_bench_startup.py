"""Start-up bench: what each entry point imports, timed in fresh interpreters.

Not a paper artifact — the CI ``perf-smoke`` job runs this bench on every
push.  Each target below names the modules its caller imports and,
optionally, what it then runs.  For each target the bench starts
``REPEATS`` fresh interpreters, times the imports in each (the best of
them is the record), and counts the ``repro`` modules loaded after the
imports and after the run.  The counts are exact for a commit;
``tests/test_imports.py`` pins which modules the analysis layer may
load, so the only gate here is a generous wall-time budget that catches
an import gone pathological.  The results land in the ``startup``
trajectory of ``BENCH_perf.json`` (docs/PERFORMANCE.md, "Start-up").

Targets:

* ``analysis-read-path`` — the imports of ``bench/run.py``'s
  ``spill-read`` workload, then the three headline analyses on a
  synthetic spill;
* ``table01`` — the proxy filter and the Table 1 findings on that spill;
* ``simulation-driver`` — ``repro.simulation.driver``, the simulator;
* ``repro`` — the root package alone.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from bench_util import write_perf_record
from repro.telemetry.synth import synthesize_spill

pytestmark = pytest.mark.bench

SRC = Path(__file__).resolve().parent.parent / "src"
#: fresh interpreters per target; the record keeps the fastest import
REPEATS = 5
#: sessions of the synthetic spill the analysis targets read
SPILL_SESSIONS = 2_000
#: the best import of every target stays under this.  Every target
#: imports in well under a second on a shared 2-core host, even compiling
#: from source, so only an order-of-magnitude regression trips it.
IMPORT_BUDGET_S = 5.0

#: target -> (modules its caller imports, what it runs on the spill)
TARGETS = {
    "analysis-read-path": (
        ("repro.core.faultscore", "repro.core.localization", "repro.core.qoe",
         "repro.telemetry.spill"),
        "from repro.core import faultscore, localization, qoe\n"
        "from repro.telemetry.spill import SpilledDataset\n"
        "dataset = SpilledDataset(spill)\n"
        "qoe.summarize(dataset)\n"
        "localization.diagnose_dataset(dataset)\n"
        "faultscore.score_fault_localization(dataset)\n",
    ),
    "table01": (
        ("repro.core.proxy_filter", "repro.core.report", "repro.telemetry.spill"),
        "from repro.core.proxy_filter import filter_proxies\n"
        "from repro.core.report import evaluate_key_findings\n"
        "from repro.telemetry.spill import SpilledDataset\n"
        "evaluate_key_findings(filter_proxies(SpilledDataset(spill))[0])\n",
    ),
    "simulation-driver": (("repro.simulation.driver",), ""),
    "repro": (("repro",), ""),
}

#: times the imports named in argv[1], runs argv[3] on the spill argv[2]
SCRIPT = """
import importlib, json, sys, time

def repro_modules():
    return sum(1 for name in sys.modules if name == "repro" or name.startswith("repro."))

names, spill, run = sys.argv[1].split(","), sys.argv[2], sys.argv[3]
start = time.perf_counter()
for name in names:
    importlib.import_module(name)
import_s = time.perf_counter() - start
imported = repro_modules()
exec(run)
print(json.dumps({"import_s": import_s, "repro_modules": imported,
                  "repro_modules_after_run": repro_modules()}))
"""


def _measure(modules, run: str, spill: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, ",".join(modules), str(spill), run],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_startup_imports(tmp_path):
    spill = tmp_path / "spill"
    synthesize_spill(spill, SPILL_SESSIONS, seed=7)
    targets = {}
    for name, (modules, run) in TARGETS.items():
        samples = [_measure(modules, run, spill) for _ in range(REPEATS)]
        # the counts are exact: every interpreter loads the same modules
        assert len({json.dumps({**s, "import_s": 0}) for s in samples}) == 1, samples
        targets[name] = {
            "import_s": round(min(s["import_s"] for s in samples), 4),
            "repro_modules": samples[0]["repro_modules"],
            "repro_modules_after_run": samples[0]["repro_modules_after_run"],
        }
    write_perf_record(
        "startup",
        targets["analysis-read-path"]["import_s"],
        n_sessions=0,
        n_chunks=0,
        # the record times imports only; no simulated run's spans belong to it
        extra={"repeats": REPEATS, "spill_sessions": SPILL_SESSIONS,
               "targets": targets, "spans": {}},
    )
    print()
    for name, target in targets.items():
        print(
            f"{name:<20} {target['import_s'] * 1e3:7.1f} ms  "
            f"{target['repro_modules']:3d} repro modules "
            f"({target['repro_modules_after_run']} after its run)"
        )
    slow = {name: t["import_s"] for name, t in targets.items()
            if t["import_s"] > IMPORT_BUDGET_S}
    assert not slow, f"imports over the {IMPORT_BUDGET_S} s budget: {slow}"

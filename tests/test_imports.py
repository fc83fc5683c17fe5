"""Import layering: each ``repro`` import loads only what its caller uses.

Six packages re-export their modules' names lazily (``repro._lazy``), the
figure registry imports a figure's module only when that figure is
asked for, and the CLI imports per command (docs/ARCHITECTURE.md,
"Import layering").  So the analysis layer, which reads only
production-observable telemetry, loads no simulator module.

The test process shares one ``sys.modules`` with every other test, so
each layering check runs its script in a fresh interpreter and reads
which ``repro`` modules it loaded.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import List, Set

import pytest

from repro.analysis.experiments import all_experiments, get_experiment
from repro.telemetry.synth import synthesize_spill

SRC = Path(__file__).resolve().parent.parent / "src"

#: the packages whose re-exports resolve on first access
LAZY_PACKAGES = (
    "repro",
    "repro.core",
    "repro.telemetry",
    "repro.obs",
    "repro.workload",
    "repro.net",
)

#: what the analysis layer must not load: the simulator, what drives or
#: serves it, the figure suite, and the modules that write telemetry or
#: generate the simulated workload
FORBIDDEN_PACKAGES = (
    "repro.simulation",
    "repro.cdn",
    "repro.client",
    "repro.faults",
    "repro.sweep",
    "repro.serve",
    "repro.api",
    "repro.cli",
    "repro.analysis.experiments",
)
FORBIDDEN_MODULES = (
    "repro.net.path",
    "repro.net.tcp",
    "repro.workload.catalog",
    "repro.workload.clients",
    "repro.workload.sessions",
    "repro.workload.popularity",
    "repro.telemetry.collector",
    "repro.telemetry.synth",
)

#: appended to every script: report the loaded ``repro`` modules
_REPORT = """
import json as _json, sys as _sys
print(_json.dumps(sorted(
    name for name in _sys.modules if name == "repro" or name.startswith("repro.")
)))
"""


def _run(script: str, *args: str) -> str:
    """stdout of *script* in a fresh interpreter that imports from ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def _loaded(script: str, *args: str) -> Set[str]:
    """The ``repro`` modules loaded once *script* has run."""
    return set(json.loads(_run(script + _REPORT, *args).splitlines()[-1]))


def _forbidden(loaded: Set[str], allowed: Set[str] = frozenset()) -> List[str]:
    return sorted(
        name
        for name in loaded - allowed
        if name in FORBIDDEN_MODULES
        or any(name == p or name.startswith(p + ".") for p in FORBIDDEN_PACKAGES)
    )


# -- layering ------------------------------------------------------------------


ANALYSIS_READ_PATH = """
import sys
from repro.core.faultscore import score_fault_localization
from repro.core.localization import diagnose_dataset
from repro.core.proxy_filter import filter_proxies
from repro.core.qoe import summarize
from repro.core.report import evaluate_key_findings
from repro.telemetry.spill import SpilledDataset

dataset, _ = filter_proxies(SpilledDataset(sys.argv[1]))
summarize(dataset)
diagnose_dataset(dataset)
score_fault_localization(dataset)
evaluate_key_findings(dataset)
"""


def test_analysis_read_path_loads_no_simulator_module(tmp_path):
    spill = tmp_path / "spill"
    synthesize_spill(spill, 300, seed=3, threshold_rows=256)
    loaded = _loaded(ANALYSIS_READ_PATH, str(spill))
    # the analyses ran: their one cascade pass and its registry loaded
    assert {"repro.core.columnar_analysis", "repro.obs.registry"} <= loaded
    assert not _forbidden(loaded), _forbidden(loaded)


def test_cli_parser_loads_no_simulator_module():
    # building the parser is what `repro --help` does
    loaded = _loaded("from repro.cli import build_parser\nbuild_parser().format_help()")
    assert "repro.cli" in loaded
    assert not _forbidden(loaded, allowed={"repro.cli"}), _forbidden(loaded, {"repro.cli"})


# -- the lazy packages -----------------------------------------------------------

LAZY_CHECK = """
import importlib, json, sys

name = sys.argv[1]
package = importlib.import_module(name)
problems = []
for export in package.__all__:
    eager = export in vars(package)
    try:
        value = getattr(package, export)
    except AttributeError as error:
        problems.append(f"{export}: {error}")
        continue
    # the object its defining module binds (or the module itself)
    owners = [
        module for key, module in list(sys.modules.items())
        if key.startswith(name + ".")
        and (module is value or vars(module).get(export) is value)
    ]
    if not (eager or owners):
        problems.append(f"{export}: bound by no module of {name}")
    if export not in vars(package):
        problems.append(f"{export}: not bound on the package after access")
    if export not in dir(package):
        problems.append(f"{export}: missing from dir()")
namespace = {}
exec(f"from {name} import *", namespace)
problems += [f"{export}: not bound by a star import"
             for export in package.__all__ if export not in namespace]
try:
    package.no_such_name
    problems.append("no_such_name resolved")
except AttributeError:
    pass
if hasattr(package, "no_such_name"):
    problems.append("hasattr(no_such_name) is true")
print(json.dumps(problems))
"""


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_resolves_every_export(package):
    problems = json.loads(_run(LAZY_CHECK, package).splitlines()[-1])
    assert not problems, problems


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_lazy_package_import_loads_no_module_it_reexports(package):
    # `import repro` loads `repro` and `repro._lazy` only
    assert _loaded(f"import {package}") == {"repro", "repro._lazy", package}


HOT_PATH = """
import json, sys
from repro import SimulationConfig, run
from repro.core.faultscore import score_fault_localization
from repro.core.localization import diagnose_dataset
from repro.core.proxy_filter import filter_proxies
from repro.core.qoe import summarize

LAZY = %r


def simulate_and_analyze(seed):
    result = run(SimulationConfig(n_sessions=40, warmup_sessions=40, seed=seed))
    dataset, _ = filter_proxies(result.dataset)
    summarize(dataset)
    diagnose_dataset(dataset)
    score_fault_localization(dataset)


simulate_and_analyze(3)  # resolves and binds what the run uses
calls = {}
for name in LAZY:
    package = sys.modules[name]

    def counting(attr, resolve=package.__getattr__, name=name):
        calls[name] = calls.get(name, 0) + 1
        return resolve(attr)

    package.__getattr__ = counting
simulate_and_analyze(4)
second = dict(calls)
hasattr(sys.modules["repro.core"], "no_such_name")  # the counter counts
print(json.dumps([second, calls]))
""" % (LAZY_PACKAGES,)


def test_no_lazy_resolution_on_the_hot_path():
    second, probed = json.loads(_run(HOT_PATH).splitlines()[-1])
    assert second == {}, f"lazy lookups in a second run: {second}"
    assert probed == {"repro.core": 1}


# -- the figure table ------------------------------------------------------------


@pytest.mark.parametrize("experiment_id", all_experiments())
def test_figure_module_is_its_id(experiment_id):
    module = importlib.import_module(f"repro.analysis.experiments.{experiment_id}")
    assert module.EXPERIMENT_ID == experiment_id
    assert get_experiment(experiment_id) is module.run


def test_unknown_figure_id_names_the_known_ids():
    # a module of the package that is not an experiment is no id either
    for experiment_id in ("fig99", "common", "base"):
        with pytest.raises(KeyError, match="known: \\['fig03'"):
            get_experiment(experiment_id)


@pytest.mark.parametrize(
    "module", ["repro.analysis.experiments", "repro.analysis.experiments.common"]
)
def test_figure_suite_import_loads_no_figure_module(module):
    loaded = _loaded(f"import {module}")
    figures = sorted(
        name for name in loaded
        if name.rpartition(".")[2] in all_experiments()
    )
    assert not figures, figures

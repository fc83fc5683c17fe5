"""One module per paper figure/table, each named after its id.

Usage::

    from repro.analysis.experiments import run_experiment, common
    result = run_experiment("fig05", common.filtered_dataset("small"))
    print(result.format_report())

Experiments take different inputs depending on what they reproduce:
figures over the production dataset take a :class:`~repro.telemetry.dataset.Dataset`;
geography/fleet analyses (fig09, table01) take the full
:class:`~repro.simulation.driver.SimulationResult`; scripted case studies
(fig13, fig17, fig20) and the workload-shape figure (fig03) build their
own fixtures and take only parameters.  The id tuples in
:mod:`.base` declare which is which; an experiment's module is imported
only when that experiment is run, so importing this package (or
:mod:`.common`) loads no figure module.
"""

from . import common
from .base import (
    DATASET_EXPERIMENTS,
    RESULT_EXPERIMENTS,
    STANDALONE_EXPERIMENTS,
    ExperimentResult,
    all_experiments,
    get_experiment,
)


def run_experiment(experiment_id: str, *args, **kwargs) -> ExperimentResult:
    """Run the experiment *experiment_id* (see :func:`get_experiment`)."""
    return get_experiment(experiment_id)(*args, **kwargs)


def run_all(scale: str = "medium", seed: int = 7, workers: int = 1) -> dict:
    """Run the entire suite against one shared simulation; returns {id: result}.

    ``workers > 1`` shards the shared simulation across worker processes
    (identical telemetry).
    """
    results = {}
    for experiment_id in STANDALONE_EXPERIMENTS:
        results[experiment_id] = run_experiment(experiment_id)
    dataset = common.filtered_dataset(scale, seed, workers)
    for experiment_id in DATASET_EXPERIMENTS:
        results[experiment_id] = run_experiment(experiment_id, dataset)
    sim_result = common.standard_result(scale, seed, workers)
    for experiment_id in RESULT_EXPERIMENTS:
        results[experiment_id] = run_experiment(experiment_id, sim_result)
    return results


__all__ = [
    "ExperimentResult",
    "all_experiments",
    "get_experiment",
    "run_experiment",
    "run_all",
    "common",
    "DATASET_EXPERIMENTS",
    "RESULT_EXPERIMENTS",
    "STANDALONE_EXPERIMENTS",
]

"""One module per paper figure/table, all registered under their ids.

Usage::

    from repro.analysis.experiments import run_experiment, common
    result = run_experiment("fig05", common.filtered_dataset("small"))
    print(result.format_report())

Experiments take different inputs depending on what they reproduce:
figures over the production dataset take a :class:`~repro.telemetry.dataset.Dataset`;
geography/fleet analyses (fig09, table01) take the full
:class:`~repro.simulation.driver.SimulationResult`; scripted case studies
(fig13, fig17, fig20) and the workload-shape figure (fig03) build their
own fixtures and take only parameters.
"""

from . import (  # noqa: F401  (import for registration side effects)
    fig03,
    fig04,
    fig05,
    fig06,
    fig07,
    fig08,
    fig09,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fig19,
    fig20,
    fig21,
    fig22,
    table01,
    table04,
    table05,
)
from . import common
from .base import ExperimentResult, all_experiments, get_experiment

#: experiments whose ``run`` takes the joined/filtered Dataset
DATASET_EXPERIMENTS = (
    "fig04",
    "fig05",
    "fig06",
    "fig07",
    "fig08",
    "fig10",
    "fig11",
    "fig12",
    "fig14",
    "fig15",
    "fig16",
    "fig18",
    "fig19",
    "fig21",
    "fig22",
    "table04",
    "table05",
)
#: experiments whose ``run`` takes the full SimulationResult
RESULT_EXPERIMENTS = ("fig09", "table01")
#: experiments that build their own fixtures
STANDALONE_EXPERIMENTS = ("fig03", "fig13", "fig17", "fig20")


def run_experiment(experiment_id: str, *args, **kwargs) -> ExperimentResult:
    """Run a registered experiment by id."""
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

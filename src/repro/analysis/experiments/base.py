"""Experiment plumbing: result container and the figure table.

Every paper figure/table maps to one module in this package, named after
its id, exposing

* ``EXPERIMENT_ID`` — the module's name, e.g. ``"fig05"`` / ``"table04"``;
* ``TITLE`` — the paper artifact it reproduces;
* ``run(...)`` — returns an :class:`ExperimentResult` whose ``series``
  holds the plottable data (the same rows/curves the paper shows) and
  whose ``summary`` holds scalar headline numbers.

``checks`` carries named boolean shape-assertions (the qualitative claims
that must survive the simulator substitution); EXPERIMENTS.md records the
paper-vs-measured comparison for each.

The registry is that module table: the three id tuples below declare
every experiment by the input its ``run`` takes, and
:func:`get_experiment` imports an experiment's module only when that
experiment is asked for.  A module is its id, so two experiments cannot
share one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import import_module
from typing import Any, Callable, Dict, List

__all__ = [
    "ExperimentResult",
    "get_experiment",
    "all_experiments",
    "DATASET_EXPERIMENTS",
    "RESULT_EXPERIMENTS",
    "STANDALONE_EXPERIMENTS",
]

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


@dataclass
class ExperimentResult:
    """Output of one experiment reproduction."""

    experiment_id: str
    title: str
    series: Dict[str, Any] = field(default_factory=dict)
    summary: Dict[str, float] = field(default_factory=dict)
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def all_checks_passed(self) -> bool:
        return all(self.checks.values())

    def format_report(self) -> str:
        """Human-readable report block (used by the bench harness)."""
        lines = [f"== {self.experiment_id}: {self.title} =="]
        for key, value in self.summary.items():
            lines.append(f"  {key} = {value:.4g}" if isinstance(value, float) else f"  {key} = {value}")
        for key, passed in self.checks.items():
            lines.append(f"  [{'PASS' if passed else 'FAIL'}] {key}")
        return "\n".join(lines)


def get_experiment(experiment_id: str) -> Callable[..., ExperimentResult]:
    """The ``run`` of the experiment *experiment_id*, importing its module."""
    if experiment_id not in all_experiments():
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {all_experiments()}"
        )
    return import_module(f"{__package__}.{experiment_id}").run


def all_experiments() -> List[str]:
    """All experiment ids, sorted."""
    return sorted(DATASET_EXPERIMENTS + RESULT_EXPERIMENTS + STANDALONE_EXPERIMENTS)

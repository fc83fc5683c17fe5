"""Fig. 20 — controlled experiment: dropped frames vs CPU load.

The lab replay (see :mod:`repro.simulation.controlled`): Firefox on an
8-core Mac over GigE, 10 chunks per level.  GPU rendering drops almost
nothing; software rendering degrades roughly linearly as background load
occupies more cores.
"""

from __future__ import annotations

import numpy as np

from ...simulation.controlled import run_controlled_rendering_experiment
from .base import ExperimentResult

EXPERIMENT_ID = "fig20"
TITLE = "Fig. 20: dropped frames vs CPU load (controlled)"


def run(n_cores: int = 8, seed: int = 0) -> ExperimentResult:
    result = run_controlled_rendering_experiment(n_cores=n_cores, seed=seed)
    gpu = result.dropped_pct[0]
    software = list(result.dropped_pct[1:])
    loads = list(range(len(software)))
    slope = 0.0
    if len(software) >= 3 and np.std(loads) > 0:
        slope = float(np.polyfit(loads, software, 1)[0])
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"labels": list(result.labels), "dropped_pct": list(result.dropped_pct)},
        summary={
            "gpu_drop_pct": gpu,
            "software_idle_drop_pct": software[0] if software else float("nan"),
            "software_full_load_drop_pct": software[-1] if software else float("nan"),
            "drop_pct_per_loaded_core": slope,
        },
        checks={
            "gpu_near_zero": gpu < 1.5,
            "software_worse_than_gpu": bool(software) and software[0] > gpu,
            "drops_grow_with_load": bool(software) and software[-1] > software[0],
            "roughly_linear_growth": slope > 0.3,
        },
    )

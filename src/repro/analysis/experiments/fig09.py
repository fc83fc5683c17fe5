"""Fig. 9 — geography of persistent tail-latency prefixes.

§4.2-1's pipeline: aggregate to /24 prefixes, keep those whose srtt_min
exceeds 100 ms recurrently across days, and look at where they are.  The
paper: 75% are outside the US (distance-limited); among US prefixes, a
large cluster sits within a few km of a CDN server — and ~90% of those
nearby prefixes are enterprises, not residential ISPs.
"""

from __future__ import annotations

import numpy as np

from ...core.persistence import tail_latency_prefixes
from ...simulation.driver import SimulationResult
from ...core.proxy_filter import filter_proxies
from .base import ExperimentResult
from .common import pop_locations

EXPERIMENT_ID = "fig09"
TITLE = "Fig. 9: distance of persistent tail-latency US prefixes"


def run(result: SimulationResult) -> ExperimentResult:
    dataset, _ = filter_proxies(result.dataset)
    report = tail_latency_prefixes(dataset, pop_locations(result))

    distances = report.us_distances_km
    close_fraction = (
        float(np.mean([d <= 200.0 for d in distances])) if distances else 0.0
    )
    return ExperimentResult(
        experiment_id=EXPERIMENT_ID,
        title=TITLE,
        series={"us_prefix_distances_km": distances},
        summary={
            "n_persistent_prefixes": float(report.n_persistent),
            "non_us_fraction": report.non_us_fraction,
            "n_us_prefixes": float(len(distances)),
            "us_close_fraction": close_fraction,
            "us_close_enterprise_fraction": report.us_enterprise_close_fraction,
        },
        checks={
            "tail_prefixes_found": report.n_persistent > 10,
            # paper: 75% of tail prefixes outside the US
            "non_us_majority": report.non_us_fraction > 0.5,
            # paper: ~90% of nearby US tail prefixes are enterprises
            "nearby_us_mostly_enterprise": report.us_enterprise_close_fraction > 0.6,
        },
    )

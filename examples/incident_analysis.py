#!/usr/bin/env python
"""Incident what-if analysis: scenarios + A/B comparison.

Runs the three canned incident scenarios (flash crowd, cache flush,
backend brownout) against a warmed baseline fleet and quantifies the QoE
movement with bootstrap confidence intervals — the operational loop the
paper's findings are meant to drive.

Run:  python examples/incident_analysis.py [scenario]
"""

import sys

from repro import run
from repro.core.comparison import compare_datasets
from repro.core.localization import diagnose_dataset
from repro.sweep import CANNED_SCENARIOS


def analyze(name: str) -> None:
    print(f"=== scenario: {name} ===")
    result = run(periods=CANNED_SCENARIOS[name].resolve())
    baseline, incident = result.period("baseline"), result.period("incident")
    report = compare_datasets(baseline, incident)
    print(report)
    moved = report.significant_changes
    if moved:
        print("significant movements: " + ", ".join(d.metric for d in moved))
    baseline_loc = diagnose_dataset(baseline)
    incident_loc = diagnose_dataset(incident)
    print("bottleneck shift (share of chunks, baseline -> incident):")
    for location in sorted(baseline_loc):
        before = 100.0 * baseline_loc[location]
        after = 100.0 * incident_loc.get(location, 0.0)
        if max(before, after) >= 0.5:
            print(f"  {location:<22} {before:5.1f}% -> {after:5.1f}%")
    print()


def main() -> None:
    names = sys.argv[1:] if len(sys.argv) > 1 else sorted(CANNED_SCENARIOS)
    for name in names:
        analyze(name)


if __name__ == "__main__":
    main()

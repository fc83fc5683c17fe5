#!/usr/bin/env python
"""Diagnose client download-stack problems from two-sided telemetry.

The paper's §4.3 showcase: with only player-side data, a chunk buffered in
the browser/Flash stack looks like a network problem (huge first-byte
delay).  Joining CDN-side TCP state exposes it.  This example:

1. runs Eq. 4 (transient buffering outlier detection) over a simulated
   trace and validates the detections against simulator ground truth;
2. computes the Eq. 5 persistent bound and prints the Table-5-style
   platform ranking;
3. shows what a throughput-based ABR would have concluded with and
   without the paper's outlier screening.

Run:  python examples/download_stack_diagnosis.py
"""

import numpy as np

from repro import SimulationConfig, run
from repro.client.abr import ChunkObservation, RateBasedAbr
from repro.core import downstack, filter_proxies


def main() -> None:
    print("Simulating 4000 sessions...")
    result = run(
        SimulationConfig(n_sessions=4000, warmup_sessions=6000, seed=13)
    )
    dataset, _ = filter_proxies(result.dataset)

    # --- Eq. 4: transient buffering events -------------------------------
    flagged = downstack.detect_transient_outliers_dataset(dataset)
    n_flagged = sum(len(chunks) for chunks in flagged.values())
    truth = {
        (t.session_id, t.chunk_id)
        for t in dataset.ground_truth
        if t.transient_ds
    }
    flagged_keys = {
        (sid, c.chunk_id) for sid, chunks in flagged.items() for c in chunks
    }
    true_positives = len(flagged_keys & truth)
    print(f"\nEq. 4 transient detection: {n_flagged} chunks flagged "
          f"in {len(flagged)} sessions")
    if flagged_keys:
        print(f"  precision vs ground truth: {true_positives / len(flagged_keys):.2f} "
              f"({len(truth)} true events in the trace)")

    # --- Eq. 5: persistent platform latency ------------------------------
    rows = downstack.platform_ds_table(dataset, min_chunks=30)
    rows.sort(key=lambda r: r.expected_ds_ms, reverse=True)
    print("\nEq. 5 platform ranking (Table 5 reproduction, by per-chunk burden):")
    print("  os / browser     | mean DS (ms) | nonzero frac | burden (ms/chunk)")
    for row in rows[:8]:
        print(
            f"  {row.os:>7} / {row.browser:<9} | {row.mean_ds_ms:9.1f} | "
            f"{row.nonzero_fraction:12.3f} | {row.expected_ds_ms:8.1f}"
        )

    # --- ABR over/under-shooting demo ------------------------------------
    print("\nABR throughput estimation right after a buffered chunk:")
    # pick a burst with enough preceding chunks for the ABR window
    session = None
    burst_id = None
    for candidate in dataset.sessions():
        if candidate.session_id not in flagged:
            continue
        chunk_id = flagged[candidate.session_id][0].chunk_id
        if chunk_id >= 3:
            session, burst_id = candidate, chunk_id
            break
    if session is None:
        print("  (no suitably placed burst in this trace)")
        return
    ladder = tuple(sorted({int(c.player.bitrate_kbps) for c in session.chunks}))
    # Instantaneous-rate ABRs (bytes / D_LB) are the burst-vulnerable kind
    # the paper's over-shooting discussion targets.
    plain = RateBasedAbr(ladder or (1000,), use_instantaneous=True)
    screened = RateBasedAbr(
        plain.ladder, use_instantaneous=True, screen_outliers=True
    )
    # Feed the window the ABR would hold at the decision right after the
    # burst — that is where the naive estimate over-shoots.
    for chunk in session.chunks:
        if chunk.chunk_id > burst_id:
            break
        observation = ChunkObservation(
            bitrate_kbps=chunk.player.bitrate_kbps,
            dfb_ms=chunk.player.dfb_ms,
            dlb_ms=chunk.player.dlb_ms,
            chunk_bytes=chunk.cdn.chunk_bytes,
        )
        plain.observe(observation)
        screened.observe(observation)
    print(f"  naive estimate:    {plain.estimate_kbps():8.0f} kbps")
    print(f"  screened estimate: {screened.estimate_kbps():8.0f} kbps")
    print("  (the naive window still contains the impossible burst sample)")


if __name__ == "__main__":
    main()

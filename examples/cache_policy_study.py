#!/usr/bin/env python
"""Cache-policy and prefetching study (paper §4.1 take-aways).

Compares eviction policies on a popularity-skewed stream under capacity
pressure, then measures the paper's two operational fixes on the full
simulator: pre-fetching subsequent chunks after a session's first miss,
and pre-warming every title's first chunk.

Run:  python examples/cache_policy_study.py
"""

import numpy as np

from repro import SimulationConfig, run
from repro.cdn.cache import TwoLevelCache
from repro.workload.popularity import PopularityModel


def policy_study() -> None:
    print("Eviction-policy comparison (Zipf stream, capacity = 1.5% of footprint)")
    n_objects, n_requests, obj_bytes = 4000, 60_000, 1000
    popularity = PopularityModel(n_videos=n_objects, alpha=0.9)
    requests = popularity.sample_ranks(np.random.default_rng(1), n_requests)
    print("  policy       | hit ratio")
    for name in ("fifo", "lru", "gdsize", "perfect-lfu"):
        cache = TwoLevelCache(60 * obj_bytes, 400 * obj_bytes, policy_name=name)
        hits = 0
        for key in requests:
            if cache.lookup(int(key), obj_bytes).is_hit:
                hits += 1
            else:
                cache.admit(int(key), obj_bytes)
        print(f"  {name:<12} | {hits / n_requests:.4f}")


def miss_stats(result):
    chunks = result.dataset.cdn_chunks
    first = [c for c in chunks if c.chunk_id == 0]
    later = [c for c in chunks if c.chunk_id > 0]
    return (
        float(np.mean([c.cache_status == "miss" for c in first])),
        float(np.mean([c.cache_status == "miss" for c in later])),
    )


def operational_fixes() -> None:
    print("\nOperational fixes on the full simulator (800 sessions each):")
    base_config = SimulationConfig(n_sessions=800, warmup_sessions=1600, seed=23)
    baseline = run(base_config)
    prefetch = run(
        base_config.with_overrides(prefetch_after_miss=True, prefetch_depth=4)
    )
    warmed = run(base_config.with_overrides(warm_first_chunks=True))

    base_first, base_later = miss_stats(baseline)
    _, prefetch_later = miss_stats(prefetch)
    warm_first, _ = miss_stats(warmed)
    print(f"  baseline:    first-chunk miss {base_first:.3f}, later-chunk miss {base_later:.3f}")
    print(f"  +prefetch:   later-chunk miss {prefetch_later:.3f} "
          f"({100 * (1 - prefetch_later / max(base_later, 1e-9)):.0f}% fewer)")
    print(f"  +warm-first: first-chunk miss {warm_first:.3f} "
          f"({100 * (1 - warm_first / max(base_first, 1e-9)):.0f}% fewer)")


def main() -> None:
    policy_study()
    operational_fixes()


if __name__ == "__main__":
    main()

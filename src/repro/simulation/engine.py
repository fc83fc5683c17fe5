"""The discrete-event engine: the period runner.

Sessions interact only through the CDN server they are mapped to (its
caches and load EWMA), and the mapping is a pure function of stable ids.
So :func:`run_period` splits a collection period into per-server groups
and drains each group through its own heap, in sorted server-id order.
Within a group, events run in exactly the order one global heap would
give them; across groups nothing is shared, so the records are those of
a global interleaving.  Only one group's sessions are in flight at a
time, which bounds a period's live actors by its largest group instead
of by every in-flight session (docs/PERFORMANCE.md, "Stepping").
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from ..cdn.mapping import MappingDecision
from ..client.abr import make_abr
from ..telemetry.collector import TelemetryCollector
from ..workload.sessions import SessionPlan
from .session import SessionActor

if TYPE_CHECKING:  # pragma: no cover — typing only, avoids a runtime cycle
    from ..obs.trace import TraceRecorder
    from .driver import Simulator

__all__ = ["run_period"]


def run_period(
    sim: "Simulator",
    n_sessions: int,
    seed: int,
    collector: TelemetryCollector,
    start_ms: float,
    trace: Optional["TraceRecorder"] = None,
) -> float:
    """Run one collection period into *collector*; returns its end clock.

    The period folds one ``engine.run`` span, its event count into
    ``engine.events_total`` and its end clock (the latest group's) into
    the ``engine.clock_ms`` gauge.
    """
    groups: Dict[str, List[Tuple[SessionPlan, MappingDecision]]] = {}
    servers = sim.servers
    for plan in sim._session_generator(seed).generate(n_sessions, start_ms=start_ms):
        # The decision is a pure function of stable ids: the one the
        # session gets, whenever it is computed.  Every shard regenerates
        # the whole stream, so RNG use does not depend on the shard count,
        # and keeps the plans of the servers it built (a serial run builds
        # them all).
        decision = sim.mapping.assign(
            plan.client.prefix.geo,
            plan.video.video_id,
            plan.video.rank,
            plan.session_id,
        )
        if decision.server_id in servers:
            groups.setdefault(decision.server_id, []).append((plan, decision))

    events = 0
    clock = 0.0
    metrics = sim.metrics
    with metrics.span("engine.run"):
        for server_id in sorted(groups):
            group_events, group_clock = _drain_group(
                sim, groups[server_id], collector, trace
            )
            events += group_events
            clock = max(clock, group_clock)
    metrics.counter("engine.events_total").inc(events)
    metrics.gauge("engine.clock_ms").set(clock)
    return clock


def _drain_group(
    sim: "Simulator",
    members: List[Tuple[SessionPlan, MappingDecision]],
    collector: TelemetryCollector,
    trace: Optional["TraceRecorder"],
) -> Tuple[int, float]:
    """Run one server's sessions to completion; returns (events, end clock).

    Heap entries are ``(at_ms, seq, member index)``, so equal-time events
    run in scheduling order.  A member's first
    event builds its actor; every later one processes a chunk.  A finished
    actor is dropped at once, so only in-flight sessions hold memory.
    """
    config = sim.config
    abr_options = (
        {"screen_outliers": True}
        if config.abr_screen_outliers and config.abr_name != "buffer"
        else {}
    )
    heap = [(plan.start_ms, index, index) for index, (plan, _) in enumerate(members)]
    heapq.heapify(heap)
    heappop = heapq.heappop
    heappush = heapq.heappush
    actors: List[Optional[SessionActor]] = [None] * len(members)
    seq = len(members)
    at_ms = 0.0
    while heap:
        at_ms, _, index = heappop(heap)
        actor = actors[index]
        if actor is None:
            plan, decision = members[index]
            actor = actors[index] = SessionActor(
                plan=plan,
                mapping=decision,
                server=sim.servers[decision.server_id],
                abr=make_abr(config.abr_name, plan.video.bitrates_kbps, **abr_options),
                collector=collector,
                config=config,
                metrics=sim.metrics,
                faults=sim.faults,
                trace=trace,
            )
            next_at = at_ms + actor.manifest_time_ms(at_ms)
        else:
            next_at = actor.process_chunk(at_ms)
            if next_at is None:
                actors[index] = None
                continue
        heappush(heap, (next_at, seq, index))
        seq += 1
    return seq, at_ms  # every scheduled event ran: seq counts them

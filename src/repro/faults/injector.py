"""The fault injector: turns a :class:`FaultSpec` into per-call effects.

The injector is stateless and deterministic: every query is a pure
function of ``(spec, stable ids, sim time)``.  That is what lets the
sharded runner inject faults without breaking the record-identity
contract — each shard rebuilds the same injector from the pickled config
and asks it the same questions at the same sim times, so serial and
sharded runs apply byte-identical fault schedules (docs/FAULTS.md).

Three query surfaces, one per layer:

* :meth:`FaultInjector.server_state` — called by
  :class:`~repro.cdn.server.CdnServer` on every request (keyed by server
  id + arrival time; a server's request stream lives inside one shard);
* :meth:`FaultInjector.path_probe` — a per-session closure installed on
  the session's :class:`~repro.net.path.NetworkPath`, consulted by RTT /
  bandwidth / loss sampling (keyed by the client prefix + sample time);
* :meth:`FaultInjector.render_state` — called by the session actor before
  rendering a chunk (keyed by the client OS + completion time).

Ground-truth stamping: the session actor gathers the active labels from
the same queries that produced the effects and writes them into
:class:`~repro.telemetry.records.ChunkGroundTruth.fault_labels`, so
``repro faultscore`` can grade :mod:`repro.core.localization` verdicts
against what was actually injected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from .spec import CLIENT_CLASSES, NETWORK_CLASSES, SERVER_CLASSES, FaultEvent, FaultSpec

__all__ = [
    "ServerFaultState",
    "PathFaultState",
    "RenderFaultState",
    "FaultInjector",
    "merge_labels",
]


@dataclass(frozen=True)
class ServerFaultState:
    """Combined effect of every server-layer epoch active on one request."""

    latency_mult: float = 1.0
    wait_add_ms: float = 0.0
    backend_mult: float = 1.0
    bypass_cache: bool = False
    labels: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PathFaultState:
    """Combined effect of every network-layer epoch active on one sample."""

    rtt_mult: float = 1.0
    loss_add: float = 0.0
    bw_div: float = 1.0
    labels: Tuple[str, ...] = ()


@dataclass(frozen=True)
class RenderFaultState:
    """Combined effect of every client-layer epoch active on one chunk."""

    drop_add: float = 0.0
    labels: Tuple[str, ...] = ()


def merge_labels(*groups: Tuple[str, ...]) -> str:
    """Canonical ``fault_labels`` string: sorted, deduplicated, comma-joined."""
    seen = {label for group in groups for label in group}
    return ",".join(sorted(seen))


class FaultInjector:
    """Answers "which faults strike X at time t?" for one :class:`FaultSpec`."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._server_events: List[FaultEvent] = [
            e for e in spec.events if e.fault_class in SERVER_CLASSES
        ]
        self._network_events: List[FaultEvent] = [
            e for e in spec.events if e.fault_class in NETWORK_CLASSES
        ]
        self._client_events: List[FaultEvent] = [
            e for e in spec.events if e.fault_class in CLIENT_CLASSES
        ]

    # -- server layer --------------------------------------------------------

    def server_state(self, server_id: str, now_ms: float) -> Optional[ServerFaultState]:
        """Effects active on *server_id* for a request arriving at *now_ms*."""
        latency_mult = 1.0
        wait_add = 0.0
        backend_mult = 1.0
        bypass = False
        labels: List[str] = []
        for event in self._server_events:
            if not event.active_at(now_ms) or not event.targets_server(server_id):
                continue
            if event.fault_class == "server-degraded":
                latency_mult *= event.magnitude
            elif event.fault_class == "server-overload":
                wait_add += event.magnitude
            elif event.fault_class == "cache-brownout":
                bypass = True
            else:  # origin-slowdown
                backend_mult *= event.magnitude
            labels.append(event.label)
        if not labels:
            return None
        return ServerFaultState(
            latency_mult=latency_mult,
            wait_add_ms=wait_add,
            backend_mult=backend_mult,
            bypass_cache=bypass,
            labels=tuple(labels),
        )

    # -- network layer -------------------------------------------------------

    def path_state(
        self, org: str, prefix_id: str, now_ms: float
    ) -> Optional[PathFaultState]:
        """Effects active on the (org, prefix) path at *now_ms*."""
        rtt_mult = 1.0
        loss_add = 0.0
        bw_div = 1.0
        labels: List[str] = []
        for event in self._network_events:
            if not event.active_at(now_ms) or not event.targets_path(org, prefix_id):
                continue
            if event.fault_class == "network-latency":
                rtt_mult *= event.magnitude
            else:  # network-loss: add loss and halve our bandwidth share —
                # a lossy path is a congested path
                loss_add += event.magnitude
                bw_div = max(bw_div, 2.0)
            labels.append(event.label)
        if not labels:
            return None
        return PathFaultState(
            rtt_mult=rtt_mult,
            loss_add=min(0.9, loss_add),
            bw_div=bw_div,
            labels=tuple(labels),
        )

    def path_probe(
        self, org: str, prefix_id: str
    ) -> Optional[Callable[[float], Optional[PathFaultState]]]:
        """A per-session closure for :class:`~repro.net.path.NetworkPath`.

        Returns None when no network epoch can ever strike this path, so
        un-faulted sessions keep a branch-free hot loop.
        """
        if not any(e.targets_path(org, prefix_id) for e in self._network_events):
            return None

        def probe(now_ms: float) -> Optional[PathFaultState]:
            return self.path_state(org, prefix_id, now_ms)

        return probe

    # -- client layer --------------------------------------------------------

    def render_state(self, os_name: str, now_ms: float) -> Optional[RenderFaultState]:
        """Effects active on hosts running *os_name* at *now_ms*."""
        drop_add = 0.0
        labels: List[str] = []
        for event in self._client_events:
            if not event.active_at(now_ms) or not event.targets_platform(os_name):
                continue
            drop_add += event.magnitude
            labels.append(event.label)
        if not labels:
            return None
        return RenderFaultState(drop_add=min(0.95, drop_add), labels=tuple(labels))

"""Timing wrappers around the public entry points of each ``repro`` layer.

The benchmark attributes cost to layers from the outside, without any
change to the program: :meth:`Tracer.install` replaces each target in
:data:`LAYERS` with a wrapper, patching the class attribute, or the module
global where the caller looks the name up.  Each wrapped call pushes a
frame on a per-thread stack; on return its *self time* is its duration
minus the time of wrapped calls nested inside it.  Spans are aggregated in
memory by ``(layer, parent layer)`` and read once, when the workload ends.

A target that no longer exists (a deleted module, class or function) is
recorded as absent and skipped, so the benchmark keeps running, unedited,
after a layer is removed or renamed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: layer name -> its wrapped entry points, as ``"module:Qual.name"``.
#: Methods are patched on the class named here; functions are patched in
#: the module whose global the caller looks up.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "workload.build_world": ("repro.simulation.driver:build_world",),
    "workload.generate": ("repro.workload.sessions:SessionGenerator.generate",),
    "simulation.run": (
        "repro.simulation.driver:Simulator.run",
        "repro.simulation.driver:Simulator.run_round",
    ),
    "simulation.actor_init": ("repro.simulation.session:SessionActor.__init__",),
    "cdn.assign": ("repro.cdn.mapping:TrafficEngineering.assign",),
    "cdn.serve": ("repro.cdn.server:CdnServer.serve",),
    "net.build_path": ("repro.simulation.session:build_session_path",),
    "net.sample_rtt": ("repro.net.path:NetworkPath.sample_rtt",),
    "net.tcp_transfer": ("repro.net.tcp:TcpConnection.transfer",),
    "client.abr": (
        "repro.client.abr:RateBasedAbr.choose_bitrate",
        "repro.client.abr:RateBasedAbr.observe",
        "repro.client.abr:BufferBasedAbr.choose_bitrate",
        "repro.client.abr:BufferBasedAbr.observe",
        "repro.client.abr:HybridAbr.choose_bitrate",
        "repro.client.abr:HybridAbr.observe",
    ),
    "client.buffer": (
        "repro.client.buffer:PlaybackBuffer.on_chunk_ready",
        "repro.client.buffer:PlaybackBuffer.level_at",
    ),
    "client.downloadstack": ("repro.client.downloadstack:DownloadStackModel.sample",),
    "client.render": ("repro.client.rendering:RenderingModel.render_chunk",),
    "faults.query": (
        "repro.faults.injector:FaultInjector.server_state",
        "repro.faults.injector:FaultInjector.path_state",
        "repro.faults.injector:FaultInjector.render_state",
    ),
    "telemetry.emit": (
        "repro.telemetry.collector:TelemetryCollector.add_player_chunk",
        "repro.telemetry.collector:TelemetryCollector.add_cdn_chunk",
        "repro.telemetry.collector:TelemetryCollector.add_tcp_snapshot",
        "repro.telemetry.collector:TelemetryCollector.add_tcp_snapshots",
        "repro.telemetry.collector:TelemetryCollector.add_player_session",
        "repro.telemetry.collector:TelemetryCollector.add_cdn_session",
        "repro.telemetry.collector:TelemetryCollector.add_ground_truth",
    ),
    "telemetry.finalize": ("repro.telemetry.collector:TelemetryCollector.dataset",),
    "telemetry.join": (
        "repro.telemetry.dataset:Dataset.iter_sessions",
        "repro.telemetry.dataset:iter_joined_sessions",
    ),
    "telemetry.to_columns": ("repro.core.columnar_analysis:records_to_array",),
    "telemetry.spill_read": ("repro.telemetry.spill:SpilledDataset.run_arrays",),
    "core.filter_proxies": ("repro.core.proxy_filter:filter_proxies",),
    "core.qoe": ("repro.core.qoe:summarize",),
    "core.localization": ("repro.core.localization:diagnose_dataset",),
    "core.faultscore": ("repro.core.faultscore:score_fault_localization",),
    "serve.step": ("repro.serve.service:LiveService.step",),
    "serve.diagnose": ("repro.serve.service:diagnose_session",),
    "serve.windows": (
        "repro.serve.windows:RollingWindows.fold",
        "repro.serve.windows:RollingWindows.seal_through",
    ),
    "serve.accumulate": (
        "repro.serve.service:LocalizationAccumulator.update",
        "repro.serve.service:FaultScoreAccumulator.update",
    ),
    "serve.detect": (
        "repro.serve.online:IncidentDetector.observe",
        "repro.serve.online:FaultScoreboard.observe",
    ),
    "serve.health": ("repro.serve.service:LiveService.health_document",),
}


def _tcp_counts(result, counts: Dict[str, float]) -> None:
    for field in ("rounds", "segments_sent", "segments_retx"):
        value = getattr(result, field, None)
        if value is not None:
            counts["net.tcp_" + field] = counts.get("net.tcp_" + field, 0) + value


def _cdn_counts(result, counts: Dict[str, float]) -> None:
    status = getattr(getattr(result, "status", None), "value", None)
    if status is not None:
        counts["cdn.served"] = counts.get("cdn.served", 0) + 1
        if status == "miss":
            counts["cdn.misses"] = counts.get("cdn.misses", 0) + 1


#: target -> function folding the wrapped call's return value into exact
#: counts (the ratios of :func:`layer_metrics` are measured where the work
#: happens, not re-derived from telemetry)
RESULT_COUNTERS: Dict[str, Callable] = {
    "repro.net.tcp:TcpConnection.transfer": _tcp_counts,
    "repro.cdn.server:CdnServer.serve": _cdn_counts,
}


def resolve(target: str):
    """``"module:Qual.name"`` -> ``(owner, attribute name, current value)``.

    Raises ``LookupError`` when the module, an owner on the path, or the
    attribute does not exist.
    """
    module_name, _, qualname = target.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError as exc:
        raise LookupError(f"{module_name}: {exc}") from None
    *path, attr = qualname.split(".")
    for part in path:
        if not hasattr(owner, part):
            raise LookupError(f"{module_name} has no {'.'.join(path)}")
        owner = getattr(owner, part)
    if inspect.isclass(owner):
        if attr not in vars(owner):  # inherited: patching would shadow it
            raise LookupError(f"{target} is not defined on {owner.__name__}")
        value = vars(owner)[attr]
    elif hasattr(owner, attr):
        value = getattr(owner, attr)
    else:
        raise LookupError(f"{module_name} has no {qualname}")
    if not callable(value):
        raise LookupError(f"{target} is not a plain function")
    return owner, attr, value


class _ThreadState:
    __slots__ = ("stack", "spans", "counts")

    def __init__(self) -> None:
        #: open frames, innermost last: [layer, time of nested wrapped calls]
        self.stack: List[list] = []
        #: (layer, parent layer or None) -> [calls, busy_s, self_s]
        self.spans: Dict[Tuple[str, Optional[str]], list] = {}
        self.counts: Dict[str, float] = {}


class Tracer:
    """Installs the layer wrappers and aggregates their spans.

    ``clock`` is injectable so tests can check the self-time arithmetic
    exactly.  Each thread keeps its own stack, so a span opened by an HTTP
    handler thread never nests under the workload's main thread.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self._clock = clock
        self._threads: Dict[int, _ThreadState] = {}
        self._main = threading.get_ident()
        self._patches: List[Tuple[object, str, object]] = []
        #: layer -> targets that could not be resolved
        self.absent: Dict[str, List[str]] = {}
        self._started: Optional[float] = None
        self._stopped: Optional[float] = None

    # -- installation --------------------------------------------------------

    def install(self, layers: Optional[Dict[str, Tuple[str, ...]]] = None) -> None:
        """Wrap every resolvable target; record the rest as absent."""
        for layer, targets in (LAYERS if layers is None else layers).items():
            for target in targets:
                try:
                    owner, attr, original = resolve(target)
                except LookupError as exc:
                    self.absent.setdefault(layer, []).append(f"{target} ({exc})")
                    continue
                wrapper = self._wrap(original, layer, RESULT_COUNTERS.get(target))
                setattr(owner, attr, wrapper)
                self._patches.append((owner, attr, original))
        self._started = self._clock()

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        self._stopped = self._clock()
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _state(self) -> _ThreadState:
        return self._threads.setdefault(threading.get_ident(), _ThreadState())

    def _wrap(self, fn, layer: str, count_result: Optional[Callable]):
        if not inspect.isgeneratorfunction(fn):
            return functools.wraps(fn)(self._timed(fn, layer, count_result))
        # the work of a generator happens in each resumption, so every
        # next() is one span; the consumer's loop body is not inside it
        timed_next = self._timed(next, layer, None)

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                try:
                    item = timed_next(gen)
                except StopIteration:
                    return
                yield item

        return gen_wrapper

    def _timed(self, fn, layer: str, count_result: Optional[Callable]):
        """*fn* inside one span of *layer*; runs up to a million times per run."""
        clock = self._clock
        threads = self._threads
        get_ident = threading.get_ident
        new_state = self._state
        root_key = (layer, None)

        def wrapper(*args, **kwargs):
            state = threads.get(get_ident()) or new_state()
            stack = state.stack
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    parent = stack[-1]
                    parent[1] += elapsed
                    key = (layer, parent[0])
                else:
                    key = root_key
                acc = state.spans.get(key)
                if acc is None:
                    acc = state.spans[key] = [0, 0.0, 0.0]
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += elapsed - frame[1]
            if count_result is not None:
                count_result(result, state.counts)
            return result

        return wrapper

    # -- read-out ------------------------------------------------------------

    def spans(self, main_only: bool = False) -> Dict[Tuple[str, Optional[str]], list]:
        """Aggregated ``(layer, parent) -> [calls, busy_s, self_s]``."""
        merged: Dict[Tuple[str, Optional[str]], list] = {}
        for ident, state in list(self._threads.items()):
            if main_only and ident != self._main:
                continue
            for key, (calls, busy, self_s) in state.spans.items():
                acc = merged.setdefault(key, [0, 0.0, 0.0])
                acc[0] += calls
                acc[1] += busy
                acc[2] += self_s
        return merged

    def counts(self) -> Dict[str, float]:
        merged: Dict[str, float] = {}
        for state in list(self._threads.values()):
            for name, value in state.counts.items():
                merged[name] = merged.get(name, 0) + value
        return merged

    def wall_s(self) -> float:
        end = self._stopped if self._stopped is not None else self._clock()
        return end - self._started

    def accounting(self) -> Dict[str, float]:
        """The main thread's wall-time identity.

        Self times of a properly nested stack sum to the busy time of the
        outermost spans; ``other_s`` is the wall time no wrapped call
        covered (benchmark glue and unwrapped top-level code).
        """
        spans = self.spans(main_only=True)
        self_total = sum(acc[2] for acc in spans.values())
        root_busy = sum(acc[1] for (_, parent), acc in spans.items() if parent is None)
        wall = self.wall_s()
        return {
            "wall_s": wall,
            "self_total_s": self_total,
            "root_busy_s": root_busy,
            "other_s": wall - root_busy,
        }


def layer_metrics(tracer: Tracer) -> Dict[str, float]:
    """Per-layer calls, busy and self time, plus the exact-count ratios.

    ``busy_s`` counts each layer's outermost calls only, so a layer that
    calls itself is not double counted.  Absent layers report zeros.
    """
    out: Dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = 0
        out[f"{layer}.busy_s"] = 0.0
        out[f"{layer}.self_s"] = 0.0
    for (layer, parent), (calls, busy, self_s) in tracer.spans().items():
        out[f"{layer}.calls"] = out.get(f"{layer}.calls", 0) + calls
        out[f"{layer}.self_s"] = out.get(f"{layer}.self_s", 0.0) + self_s
        if parent != layer:
            out[f"{layer}.busy_s"] = out.get(f"{layer}.busy_s", 0.0) + busy
    counts = tracer.counts()
    transfers = out["net.tcp_transfer.calls"]
    out["net.tcp_rounds_per_transfer"] = (
        counts.get("net.tcp_rounds", 0) / transfers if transfers else 0.0
    )
    sent = counts.get("net.tcp_segments_sent", 0)
    out["net.tcp_retx_ratio"] = counts.get("net.tcp_segments_retx", 0) / sent if sent else 0.0
    served = counts.get("cdn.served", 0)
    out["cdn.miss_ratio"] = counts.get("cdn.misses", 0) / served if served else 0.0
    out["trace.other_s"] = tracer.accounting()["other_s"]
    return out

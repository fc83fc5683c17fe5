"""The scenario-matrix DSL: declarative scenarios and factorial sweeps.

The paper characterizes streaming performance by slicing telemetry across
many conditions at once — CDN server state, network path, client stack.
This module turns the repo's building blocks (workload knobs,
:class:`~repro.faults.FaultSpec` schedules, multi-period
:class:`~repro.simulation.parallel.PeriodSpec` lists) into *values* that
compose:

* a **workload shape** is a named period structure (diurnal cycle,
  live-event spike, skewed short sessions in the style of Grammenos et
  al.'s adult-portal workload study, a regional ISP outage);
* a :class:`ScenarioSpec` binds a shape to base-config overrides and an
  optional fault schedule — fully JSON-loadable, so a scenario is a file,
  not a function;
* a :class:`SweepSpec` crosses axes of scenario patches (mapping strategy
  × fault spec × seed × …) into a factorial grid of named cells, each of
  which resolves to a plain period list that
  :func:`repro.api.run` executes.

Everything here is pure data: no RNG, no wall clock, no execution.  The
grammar (field names, transform keywords, shape names) is a written
contract documented in docs/SCENARIOS.md and kept in sync both directions
by tests/test_docs_contract.py.

Override grammar: an override value is either a literal (replaces the
field) or a one-key transform dict applied to the base value —
``{"scale": x}`` multiplies, ``{"offset": x}`` adds.  Integer fields
round back to int; execution knobs (``workers`` …) are not overridable,
they belong to the runner (docs/OBSERVABILITY.md's execution/workload
split).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from ..faults.spec import FaultSpec
from ..obs.manifest import EXECUTION_FIELDS
from ..simulation.config import SimulationConfig
from ..simulation.parallel import PeriodSpec

__all__ = [
    "AXIS_FIELDS",
    "AXIS_VALUE_FIELDS",
    "PERIOD_FIELDS",
    "SCENARIO_FIELDS",
    "SWEEP_FIELDS",
    "TRANSFORM_KEYS",
    "WORKLOAD_SHAPES",
    "CANNED_SCENARIOS",
    "DEFAULT_SCENARIO_SEED",
    "PeriodDef",
    "ScenarioSpec",
    "ShapeResult",
    "AxisValue",
    "SweepAxis",
    "SweepCell",
    "SweepSpec",
]

#: seed used when neither the spec nor the caller provides one (also the
#: ``repro scenario --seed`` default).
DEFAULT_SCENARIO_SEED = 29

#: override-transform keywords (the only legal keys of a transform dict)
TRANSFORM_KEYS: Tuple[str, ...] = ("scale", "offset")

#: JSON field names of each grammar production — the documented contract.
SCENARIO_FIELDS: Tuple[str, ...] = (
    "name", "description", "workload", "workload_params", "base",
    "periods", "faults", "seed",
)
PERIOD_FIELDS: Tuple[str, ...] = ("label", "overrides", "mutation", "mutation_args")
SWEEP_FIELDS: Tuple[str, ...] = ("name", "description", "scenario", "axes")
AXIS_FIELDS: Tuple[str, ...] = ("axis", "values")
AXIS_VALUE_FIELDS: Tuple[str, ...] = (
    "name", "overrides", "faults", "workload", "workload_params", "seed",
)

#: config fields that are structured sub-objects, not DSL-overridable
#: scalars (tune them in code, not in a JSON spec)
_STRUCTURED_FIELDS = frozenset({"population", "server", "faults"})

_CONFIG_FIELDS = {f.name: f for f in dataclasses.fields(SimulationConfig)}


def _check_name(name: str, what: str) -> str:
    """Names become directory components and cell keys: keep them safe."""
    if not name:
        raise ValueError(f"{what} name must be non-empty")
    ok = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")
    bad = sorted(set(name) - ok)
    if bad:
        raise ValueError(
            f"{what} name {name!r} contains unsafe characters {bad}; "
            "use letters, digits, '.', '_' and '-'"
        )
    return name


def _apply_overrides(
    config: SimulationConfig, overrides: Mapping[str, Any]
) -> SimulationConfig:
    """Apply DSL overrides (literals or transforms) to *config*."""
    updates: Dict[str, Any] = {}
    for key in sorted(overrides):
        value = overrides[key]
        if key not in _CONFIG_FIELDS:
            raise ValueError(
                f"unknown config field {key!r} in overrides; valid fields: "
                f"{sorted(set(_CONFIG_FIELDS) - _STRUCTURED_FIELDS - EXECUTION_FIELDS)}"
            )
        if key in EXECUTION_FIELDS:
            raise ValueError(
                f"config field {key!r} is an execution knob; it belongs to "
                "the runner (--workers …), not to a scenario spec"
            )
        if key in _STRUCTURED_FIELDS:
            raise ValueError(
                f"config field {key!r} is a structured object and cannot be "
                "overridden from the DSL"
            )
        current = getattr(config, key)
        if isinstance(value, Mapping):
            extra = sorted(set(value) - set(TRANSFORM_KEYS))
            if extra or len(value) != 1:
                raise ValueError(
                    f"override for {key!r} must be a literal or a one-key "
                    f"transform dict {TRANSFORM_KEYS}, got {dict(value)!r}"
                )
            if not isinstance(current, (int, float)) or isinstance(current, bool):
                raise ValueError(
                    f"transform override for {key!r} needs a numeric base "
                    f"value, found {type(current).__name__}"
                )
            if "scale" in value:
                result: Any = current * float(value["scale"])
            else:
                result = current + float(value["offset"])
            if isinstance(current, int):
                result = max(0, int(round(result)))
            updates[key] = result
        elif key == "bitrate_ladder_kbps":
            updates[key] = tuple(value)
        else:
            updates[key] = value
    return config.with_overrides(**updates) if updates else config


def _merge_faults(
    *specs: Optional[FaultSpec], name: str = "composed"
) -> Optional[FaultSpec]:
    """Concatenate the events of several fault specs (unique fault_ids)."""
    present = [spec for spec in specs if spec]
    if not present:
        return None
    if len(present) == 1:
        return present[0]
    events = tuple(
        itertools.chain.from_iterable(spec.events for spec in present)
    )
    return FaultSpec(  # FaultSpec.__post_init__ rejects duplicate ids
        name=name,
        description="; ".join(s.description for s in present if s.description),
        events=events,
    )


def _resolve_faults_field(
    raw: Union[None, str, Mapping[str, Any], FaultSpec], base_dir: Optional[Path]
) -> Optional[FaultSpec]:
    """A spec's ``faults`` field: inline dict, file path, or object."""
    if raw is None or isinstance(raw, FaultSpec):
        return raw
    if isinstance(raw, str):
        path = Path(raw)
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        return FaultSpec.load(path)
    return FaultSpec.from_dict(dict(raw))


def _check_fields(payload: Mapping[str, Any], legal: Tuple[str, ...], what: str) -> None:
    unknown = sorted(set(payload) - set(legal))
    if unknown:
        raise ValueError(f"unknown {what} field(s) {unknown}; valid: {list(legal)}")


# -- periods -----------------------------------------------------------------


@dataclass(frozen=True)
class PeriodDef:
    """One period of a scenario, relative to the scenario's base config.

    ``overrides`` follow the DSL override grammar and are applied to the
    resolved base config; ``mutation`` names a module-level callable as
    ``"pkg.module:function"`` invoked on the simulator before the period
    runs (exactly :class:`~repro.simulation.parallel.PeriodSpec` semantics).
    """

    label: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    mutation: Optional[str] = None
    mutation_args: Tuple[Any, ...] = ()

    def __post_init__(self) -> None:
        _check_name(self.label, "period")
        if not isinstance(self.overrides, dict):
            object.__setattr__(self, "overrides", dict(self.overrides))
        if not isinstance(self.mutation_args, tuple):
            object.__setattr__(self, "mutation_args", tuple(self.mutation_args))

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "PeriodDef":
        _check_fields(payload, PERIOD_FIELDS, "period")
        return cls(
            label=payload.get("label", "measure"),
            overrides=dict(payload.get("overrides", {})),
            mutation=payload.get("mutation"),
            mutation_args=tuple(payload.get("mutation_args", ())),
        )

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"label": self.label}
        if self.overrides:
            entry["overrides"] = dict(self.overrides)
        if self.mutation is not None:
            entry["mutation"] = self.mutation
        if self.mutation_args:
            entry["mutation_args"] = list(self.mutation_args)
        return entry


# -- workload shapes ---------------------------------------------------------


@dataclass(frozen=True)
class ShapeResult:
    """What a workload shape contributes to a scenario."""

    periods: Tuple[PeriodDef, ...]
    faults: Optional[FaultSpec] = None


def _shape_params(params: Mapping[str, Any], defaults: Dict[str, Any], shape: str):
    unknown = sorted(set(params) - set(defaults))
    if unknown:
        raise ValueError(
            f"unknown workload_params {unknown} for shape {shape!r}; "
            f"valid: {sorted(defaults)}"
        )
    merged = dict(defaults)
    merged.update(params)
    return merged


def _shape_steady(params: Mapping[str, Any]) -> ShapeResult:
    """One uniform collection period — the classic ``repro simulate``."""
    _shape_params(params, {}, "steady")
    return ShapeResult(periods=(PeriodDef(label="measure"),))


def _shape_diurnal(params: Mapping[str, Any]) -> ShapeResult:
    """A daily demand cycle: arrival rate sweeps through named phases.

    Each phase runs ``1/len(phases)`` of the base session count at the
    base arrival rate times the phase multiplier, on a shifted session
    stream (seed offset), carrying cache state and the clock phase to
    phase.
    """
    p = _shape_params(
        params,
        {"phases": [["night", 0.4], ["morning", 0.9], ["peak", 1.6], ["evening", 0.8]]},
        "diurnal",
    )
    phases = [(str(label), float(scale)) for label, scale in p["phases"]]
    if not phases:
        raise ValueError("diurnal shape needs at least one phase")
    fraction = 1.0 / len(phases)
    periods = []
    for index, (label, scale) in enumerate(phases):
        overrides: Dict[str, Any] = {
            "arrival_rate_per_s": {"scale": scale},
            "n_sessions": {"scale": fraction},
        }
        if index > 0:
            overrides["warmup_sessions"] = 0
            overrides["seed"] = {"offset": index}
        periods.append(PeriodDef(label=label, overrides=overrides))
    return ShapeResult(periods=tuple(periods))


def _shape_live_event_spike(params: Mapping[str, Any]) -> ShapeResult:
    """Baseline, then a breaking-news spike onto a narrow hot set.

    The historical ``flash-crowd`` scenario: arrivals multiply, interest
    collapses onto ``hot_titles`` with Zipf ``spike_zipf``, the warmed
    fleet carries over.
    """
    p = _shape_params(
        params,
        {"arrival_scale": 3.0, "hot_titles": 10, "spike_zipf": 1.6},
        "live-event-spike",
    )
    return ShapeResult(
        periods=(
            PeriodDef(label="baseline"),
            PeriodDef(
                label="incident",
                overrides={
                    "arrival_rate_per_s": {"scale": float(p["arrival_scale"])},
                    "zipf_alpha": float(p["spike_zipf"]),
                    "n_videos": int(p["hot_titles"]),
                    "warmup_sessions": 0,
                    "seed": {"offset": 1},
                },
            ),
        )
    )


def _shape_short_session_skew(params: Mapping[str, Any]) -> ShapeResult:
    """Skewed, short-session traffic (Grammenos et al., PAPERS.md).

    The adult-portal workload: popularity far more head-heavy than the
    news catalog, sessions abandoning after a couple of chunks, arrivals
    denser — cache-friendly bytes but a request mix dominated by session
    startup costs.
    """
    p = _shape_params(
        params,
        {
            "zipf": 1.5,
            "watch_median": 2.0,
            "watch_sigma": 1.2,
            "arrival_scale": 2.0,
        },
        "short-session-skew",
    )
    return ShapeResult(
        periods=(
            PeriodDef(
                label="measure",
                overrides={
                    "zipf_alpha": float(p["zipf"]),
                    "watch_median_chunks": float(p["watch_median"]),
                    "watch_sigma_chunks": float(p["watch_sigma"]),
                    "arrival_rate_per_s": {"scale": float(p["arrival_scale"])},
                },
            ),
        )
    )


def _shape_regional_isp_outage(params: Mapping[str, Any]) -> ShapeResult:
    """A regional ISP melts down: its paths gain latency and loss.

    Contributes a fault schedule (network-latency + network-loss on the
    named orgs) rather than config overrides — the workload is unchanged,
    the network under it degrades.
    """
    p = _shape_params(
        params,
        {"orgs": ["Comcast"], "latency_scale": 6.0, "loss": 0.05},
        "regional-isp-outage",
    )
    orgs = tuple(str(org) for org in p["orgs"])
    faults = FaultSpec(
        name="regional-isp-outage",
        description=f"regional outage on {', '.join(orgs)}",
        events=(
            _fault_event(
                "isp-outage-latency", "network-latency",
                float(p["latency_scale"]), orgs,
            ),
            _fault_event("isp-outage-loss", "network-loss", float(p["loss"]), orgs),
        ),
    )
    return ShapeResult(periods=(PeriodDef(label="measure"),), faults=faults)


def _fault_event(fault_id: str, fault_class: str, magnitude: float, orgs):
    from ..faults.spec import FaultEvent

    return FaultEvent(
        fault_id=fault_id,
        fault_class=fault_class,
        start_ms=0.0,
        end_ms=1e12,
        magnitude=magnitude,
        orgs=orgs,
    )


#: The workload-shape registry — the DSL's ``workload`` axis.  Each shape
#: maps its params to a period structure (and possibly a fault schedule).
#: Adding a shape REQUIRES a row in docs/SCENARIOS.md (the docs-sync lint
#: checks both directions).
WORKLOAD_SHAPES: Dict[str, Callable[[Mapping[str, Any]], ShapeResult]] = {
    "steady": _shape_steady,
    "diurnal": _shape_diurnal,
    "live-event-spike": _shape_live_event_spike,
    "short-session-skew": _shape_short_session_skew,
    "regional-isp-outage": _shape_regional_isp_outage,
}


# -- scenarios ---------------------------------------------------------------


@dataclass(frozen=True)
class ScenarioSpec:
    """A declarative scenario: workload shape × config overrides × faults.

    ``base`` overrides the stock :class:`SimulationConfig` defaults;
    ``periods`` (optional) replaces the shape's period structure with an
    explicit one (how the cache-flush/backend-brownout scenarios attach
    their mutations); ``faults`` composes with whatever the shape
    contributes.  :meth:`resolve` turns the spec into the plain
    :class:`~repro.simulation.parallel.PeriodSpec` list that
    ``repro.api.run(periods=...)`` executes.
    """

    name: str
    description: str = ""
    workload: str = "steady"
    workload_params: Mapping[str, Any] = field(default_factory=dict)
    base: Mapping[str, Any] = field(default_factory=dict)
    periods: Tuple[PeriodDef, ...] = ()
    faults: Optional[FaultSpec] = None
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _check_name(self.name, "scenario")
        if self.workload not in WORKLOAD_SHAPES:
            raise ValueError(
                f"unknown workload shape {self.workload!r}; choose from "
                f"{sorted(WORKLOAD_SHAPES)}"
            )
        if not isinstance(self.workload_params, dict):
            object.__setattr__(self, "workload_params", dict(self.workload_params))
        if not isinstance(self.base, dict):
            object.__setattr__(self, "base", dict(self.base))
        if not isinstance(self.periods, tuple):
            object.__setattr__(self, "periods", tuple(self.periods))

    # -- resolution ----------------------------------------------------------

    def resolve(
        self, seed: Optional[int] = None, **execution: Any
    ) -> List[PeriodSpec]:
        """The concrete period list this scenario runs.

        *seed* overrides the spec's seed (default
        :data:`DEFAULT_SCENARIO_SEED`); ``execution`` keyword overrides
        (``workers=4`` …) are applied to every period's config — they are
        run-time knobs, never part of the spec (the metrics document of a
        resolved scenario is byte-identical for any worker count).
        """
        if seed is None:
            seed = self.seed if self.seed is not None else DEFAULT_SCENARIO_SEED
        shape = WORKLOAD_SHAPES[self.workload](self.workload_params)
        period_defs = self.periods if self.periods else shape.periods
        faults = _merge_faults(shape.faults, self.faults, name=f"{self.name}-faults")
        base = _apply_overrides(SimulationConfig(), self.base)
        base = base.with_overrides(seed=seed)
        execution = {k: v for k, v in execution.items() if v is not None}
        unknown = sorted(set(execution) - EXECUTION_FIELDS)
        if unknown:
            raise ValueError(
                f"resolve() keyword(s) {unknown} are not execution knobs "
                f"{sorted(EXECUTION_FIELDS)}"
            )
        specs: List[PeriodSpec] = []
        for period in period_defs:
            config = _apply_overrides(base, period.overrides)
            if faults is not None:
                config = config.with_overrides(faults=faults)
            if execution:
                config = config.with_overrides(**execution)
            specs.append(
                PeriodSpec(
                    config=config,
                    label=period.label,
                    mutation=period.mutation,
                    mutation_args=period.mutation_args,
                )
            )
        return specs

    # -- (de)serialization ---------------------------------------------------

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], base_dir: Optional[Path] = None
    ) -> "ScenarioSpec":
        _check_fields(payload, SCENARIO_FIELDS, "scenario")
        return cls(
            name=payload.get("name", "scenario"),
            description=payload.get("description", ""),
            workload=payload.get("workload", "steady"),
            workload_params=dict(payload.get("workload_params", {})),
            base=dict(payload.get("base", {})),
            periods=tuple(
                PeriodDef.from_dict(entry) for entry in payload.get("periods", ())
            ),
            faults=_resolve_faults_field(payload.get("faults"), base_dir),
            seed=payload.get("seed"),
        )

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"name": self.name}
        if self.description:
            entry["description"] = self.description
        if self.workload != "steady":
            entry["workload"] = self.workload
        if self.workload_params:
            entry["workload_params"] = dict(self.workload_params)
        if self.base:
            entry["base"] = dict(self.base)
        if self.periods:
            entry["periods"] = [period.to_dict() for period in self.periods]
        if self.faults is not None:
            entry["faults"] = self.faults.to_dict()
        if self.seed is not None:
            entry["seed"] = self.seed
        return entry

    @classmethod
    def load(cls, path: Union[str, Path]) -> "ScenarioSpec":
        path = Path(path)
        payload = _load_json(path)
        return cls.from_dict(payload, base_dir=path.parent)

    def save(self, path: Union[str, Path]) -> Path:
        return _save_json(self.to_dict(), path)


#: The three scenarios of ``repro scenario``, expressed in the DSL.  Their
#: period mutations live in ``repro.simulation.scenarios``.
CANNED_SCENARIOS: Dict[str, ScenarioSpec] = {
    "flash-crowd": ScenarioSpec(
        name="flash-crowd",
        description=(
            "A traffic spike onto a narrow slice of hot titles (breaking "
            "news): arrival rate multiplies, catalog interest narrows."
        ),
        workload="live-event-spike",
        base={"n_sessions": 800, "warmup_sessions": 1600},
    ),
    "cache-flush": ScenarioSpec(
        name="cache-flush",
        description=(
            "The fleet's caches restart cold (deploy/restart): every chunk "
            "pays the miss path until re-warmed."
        ),
        base={"n_sessions": 800, "warmup_sessions": 1600},
        periods=(
            PeriodDef(label="baseline"),
            PeriodDef(
                label="incident",
                mutation="repro.simulation.scenarios:_flush_caches",
            ),
        ),
    ),
    "backend-brownout": ScenarioSpec(
        name="backend-brownout",
        description=(
            "The origin slows down (storage degradation): misses get much "
            "more expensive."
        ),
        base={"n_sessions": 800, "warmup_sessions": 1600},
        periods=(
            PeriodDef(label="baseline"),
            PeriodDef(
                label="incident",
                mutation="repro.simulation.scenarios:_slow_backend",
                mutation_args=(8.0,),
            ),
        ),
    ),
}


# -- sweeps ------------------------------------------------------------------


@dataclass(frozen=True)
class AxisValue:
    """One point on a sweep axis: a named patch onto the base scenario.

    A value may override config fields, merge in a fault schedule, switch
    the workload shape (with params), or pin the seed — the same verbs a
    scenario itself has, so axes compose freely.
    """

    name: str
    overrides: Mapping[str, Any] = field(default_factory=dict)
    faults: Optional[FaultSpec] = None
    workload: Optional[str] = None
    workload_params: Mapping[str, Any] = field(default_factory=dict)
    seed: Optional[int] = None

    def __post_init__(self) -> None:
        _check_name(self.name, "axis value")
        if not isinstance(self.overrides, dict):
            object.__setattr__(self, "overrides", dict(self.overrides))
        if not isinstance(self.workload_params, dict):
            object.__setattr__(self, "workload_params", dict(self.workload_params))
        if self.workload is not None and self.workload not in WORKLOAD_SHAPES:
            raise ValueError(
                f"axis value {self.name!r}: unknown workload shape "
                f"{self.workload!r}; choose from {sorted(WORKLOAD_SHAPES)}"
            )

    def apply_to(self, spec: ScenarioSpec) -> ScenarioSpec:
        """Patch *spec* with this value's fields (later axes win per key)."""
        return replace(
            spec,
            base={**spec.base, **self.overrides},
            faults=_merge_faults(spec.faults, self.faults, name=f"{spec.name}-faults"),
            workload=self.workload if self.workload is not None else spec.workload,
            workload_params={**spec.workload_params, **self.workload_params},
            seed=self.seed if self.seed is not None else spec.seed,
        )

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], base_dir: Optional[Path] = None
    ) -> "AxisValue":
        _check_fields(payload, AXIS_VALUE_FIELDS, "axis value")
        return cls(
            name=str(payload["name"]),
            overrides=dict(payload.get("overrides", {})),
            faults=_resolve_faults_field(payload.get("faults"), base_dir),
            workload=payload.get("workload"),
            workload_params=dict(payload.get("workload_params", {})),
            seed=payload.get("seed"),
        )

    def to_dict(self) -> Dict[str, Any]:
        entry: Dict[str, Any] = {"name": self.name}
        if self.overrides:
            entry["overrides"] = dict(self.overrides)
        if self.faults is not None:
            entry["faults"] = self.faults.to_dict()
        if self.workload is not None:
            entry["workload"] = self.workload
        if self.workload_params:
            entry["workload_params"] = dict(self.workload_params)
        if self.seed is not None:
            entry["seed"] = self.seed
        return entry


@dataclass(frozen=True)
class SweepAxis:
    """One factor of the factorial design: a name and its levels."""

    axis: str
    values: Tuple[AxisValue, ...]

    def __post_init__(self) -> None:
        _check_name(self.axis, "axis")
        if not isinstance(self.values, tuple):
            object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError(f"axis {self.axis!r} has no values")
        seen = set()
        for value in self.values:
            if value.name in seen:
                raise ValueError(
                    f"axis {self.axis!r}: duplicate value name {value.name!r}"
                )
            seen.add(value.name)

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], base_dir: Optional[Path] = None
    ) -> "SweepAxis":
        _check_fields(payload, AXIS_FIELDS, "axis")
        return cls(
            axis=str(payload["axis"]),
            values=tuple(
                AxisValue.from_dict(entry, base_dir)
                for entry in payload.get("values", ())
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "axis": self.axis,
            "values": [value.to_dict() for value in self.values],
        }


@dataclass(frozen=True)
class SweepCell:
    """One fully-resolved cell of the factorial grid.

    The cell ``name`` is the canonical ``axis=value+axis=value`` join in
    declared axis order — stable across runs, safe as a directory name,
    and the key ``repro sweep run --cell`` selects by.
    """

    name: str
    #: (axis, value-name) pairs in declared axis order
    coordinates: Tuple[Tuple[str, str], ...]
    scenario: ScenarioSpec

    def resolve(self, **execution: Any) -> List[PeriodSpec]:
        return self.scenario.resolve(**execution)


@dataclass(frozen=True)
class SweepSpec:
    """A factorial experiment: a base scenario crossed by sweep axes.

    :meth:`cells` enumerates the full grid in deterministic order — axes
    in declared order, values in declared order, the last axis varying
    fastest (``itertools.product`` order).  Cell count is the product of
    the axis sizes; every cell is an independent scenario run.
    """

    name: str
    description: str = ""
    scenario: ScenarioSpec = field(
        default_factory=lambda: ScenarioSpec(name="base")
    )
    axes: Tuple[SweepAxis, ...] = ()

    def __post_init__(self) -> None:
        _check_name(self.name, "sweep")
        if not isinstance(self.axes, tuple):
            object.__setattr__(self, "axes", tuple(self.axes))
        seen = set()
        for axis in self.axes:
            if axis.axis in seen:
                raise ValueError(f"duplicate axis {axis.axis!r}")
            seen.add(axis.axis)

    @property
    def n_cells(self) -> int:
        count = 1
        for axis in self.axes:
            count *= len(axis.values)
        return count

    def cells(self) -> List[SweepCell]:
        """Every cell of the grid, in canonical (deterministic) order."""
        cells: List[SweepCell] = []
        for combo in itertools.product(*(axis.values for axis in self.axes)):
            spec = self.scenario
            parts: List[Tuple[str, str]] = []
            for axis, value in zip(self.axes, combo):
                spec = value.apply_to(spec)
                parts.append((axis.axis, value.name))
            name = "+".join(f"{axis}={value}" for axis, value in parts) or "all"
            cells.append(
                SweepCell(name=name, coordinates=tuple(parts), scenario=spec)
            )
        return cells

    def cell(self, name: str) -> SweepCell:
        """Look one cell up by its canonical name."""
        for cell in self.cells():
            if cell.name == name:
                return cell
        raise KeyError(
            f"no cell named {name!r} in sweep {self.name!r}; "
            f"see `repro sweep list` for the grid"
        )

    # -- (de)serialization ---------------------------------------------------

    @classmethod
    def from_dict(
        cls, payload: Mapping[str, Any], base_dir: Optional[Path] = None
    ) -> "SweepSpec":
        _check_fields(payload, SWEEP_FIELDS, "sweep")
        raw_scenario = payload.get("scenario", {})
        if isinstance(raw_scenario, str):
            try:
                scenario = CANNED_SCENARIOS[raw_scenario]
            except KeyError:
                raise ValueError(
                    f"unknown canned scenario {raw_scenario!r}; choose from "
                    f"{sorted(CANNED_SCENARIOS)}"
                ) from None
        else:
            scenario = ScenarioSpec.from_dict(raw_scenario, base_dir)
        return cls(
            name=payload.get("name", "sweep"),
            description=payload.get("description", ""),
            scenario=scenario,
            axes=tuple(
                SweepAxis.from_dict(entry, base_dir)
                for entry in payload.get("axes", ())
            ),
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "scenario": self.scenario.to_dict(),
            "axes": [axis.to_dict() for axis in self.axes],
        }

    @classmethod
    def load(cls, path: Union[str, Path]) -> "SweepSpec":
        path = Path(path)
        payload = _load_json(path)
        return cls.from_dict(payload, base_dir=path.parent)

    def save(self, path: Union[str, Path]) -> Path:
        return _save_json(self.to_dict(), path)


# -- shared JSON helpers ------------------------------------------------------


def _load_json(path: Path) -> Dict[str, Any]:
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError:
        raise FileNotFoundError(f"spec not found: {path}") from None
    except json.JSONDecodeError as error:
        raise ValueError(f"{path}: invalid JSON: {error}") from error


def _save_json(payload: Dict[str, Any], path: Union[str, Path]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return path

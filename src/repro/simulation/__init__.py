"""Discrete-event simulation of the full video delivery path."""

from .config import SimulationConfig
from .controlled import ControlledRenderingResult, run_controlled_rendering_experiment
from .driver import SimulationResult, Simulator, World, build_world, simulate
from .parallel import (
    ParallelSimulator,
    PeriodSpec,
    ShardFailedError,
    ShardReport,
    execute_periods,
)
from .scenarios import SCENARIOS, ScenarioOutcome, run_scenario
from .session import SessionActor
from .shard import ShardSpec, shard_of_server

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "World",
    "build_world",
    "simulate",
    "SessionActor",
    "ParallelSimulator",
    "PeriodSpec",
    "ShardFailedError",
    "ShardReport",
    "execute_periods",
    "ShardSpec",
    "shard_of_server",
    "ControlledRenderingResult",
    "run_controlled_rendering_experiment",
    "SCENARIOS",
    "ScenarioOutcome",
    "run_scenario",
]

"""Discrete-event simulation of the full video delivery path."""

from .config import SimulationConfig
from .controlled import ControlledRenderingResult, run_controlled_rendering_experiment
from .driver import SimulationResult, Simulator, World, build_world
from .parallel import (
    ParallelSimulator,
    PeriodSpec,
    ShardFailedError,
    ShardReport,
    execute_periods,
)
from .session import SessionActor
from .shard import ShardSpec, shard_of_server

__all__ = [
    "SimulationConfig",
    "SimulationResult",
    "Simulator",
    "World",
    "build_world",
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
]

"""Workload generators for examples and benchmarks."""

from .tracking import TargetTrackingWorkload, signal_strength
from .trajectories import (
    TRAJECTORY_PROGRAM,
    TrajectoryWorkload,
    close_reports,
    parallel_paths,
    trajectory_registry,
)
from .vehicles import BattlefieldWorkload, Vehicle

__all__ = [
    "TargetTrackingWorkload",
    "signal_strength", "TRAJECTORY_PROGRAM",
    "TrajectoryWorkload", "close_reports", "parallel_paths",
    "trajectory_registry", "BattlefieldWorkload", "Vehicle",
]

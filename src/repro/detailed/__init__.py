"""The detailed (cycle-level) timing simulator and its result types."""

from .results import Deviation, Metrics, SimulationResult, WeightedMetrics
from .timing import MachineState, TimingSimulator

__all__ = [
    "Deviation",
    "MachineState",
    "Metrics",
    "SimulationResult",
    "TimingSimulator",
    "WeightedMetrics",
]

"""repro — Multi-level phase analysis for sampling simulation.

A from-scratch reproduction of *"Multi-level Phase Analysis for Sampling
Simulation"* (Li, Zhang, Chen & Zang, DATE 2013): the COASTS coarse-grained
sampler, the multi-level sampling framework, the SimPoint / EarlySP
baselines, and every substrate they need — a synthetic SPEC2000-like
workload suite, a functional simulator with BBV profiling, and a detailed
timing simulator with cache-occupancy and branch-predictor models.

Quickstart::

    from repro import (
        load_workload, build_trace, FunctionalSimulator, TimingSimulator,
        SimPoint, Coasts, MultiLevelSampler, CONFIG_A, DEFAULT_SAMPLING,
        estimate_plan, speedup,
    )

    trace = build_trace(load_workload("gzip"))
    profile = FunctionalSimulator(trace).profile_fixed_intervals(
        DEFAULT_SAMPLING.fine_interval_size)
    simpoint_plan = SimPoint().sample(profile, benchmark="gzip")
    multilevel_plan = MultiLevelSampler().sample(trace)
    print(speedup(multilevel_plan, simpoint_plan))

See DESIGN.md for the system inventory and EXPERIMENTS.md for paper-vs-
measured results of every table and figure.
"""

from .config import (
    CONFIG_A,
    CONFIG_B,
    DEFAULT_COST_MODEL,
    DEFAULT_SAMPLING,
    FINE_INTERVAL_SIZE,
    RESAMPLE_THRESHOLD,
    SCALE,
    BranchPredictorConfig,
    CacheConfig,
    CostModel,
    FunctionalUnits,
    MachineConfig,
    SamplingConfig,
    make_config_a,
    make_config_b,
)
from .detailed import (
    Deviation,
    Metrics,
    SimulationResult,
    TimingSimulator,
)
from .engine import (
    FunctionalSimulator,
    Trace,
    build_trace,
)
from .errors import (
    ClusteringError,
    ConfigError,
    HarnessError,
    ProgramError,
    ReproError,
    SamplingError,
    SimulationError,
    TraceError,
)
from .harness import BenchmarkRun, ExperimentRunner
from .sampling import (
    Coasts,
    EarlySimPoint,
    MultiLevelSampler,
    SamplingPlan,
    SimPoint,
    SimulationPoint,
    estimate_plan,
    evaluate_plan,
    plan_cost,
    speedup,
    speedup_over_full,
)
from .workloads import (
    BenchmarkSpec,
    benchmark_names,
    get_spec,
    load_workload,
)

__version__ = "1.0.0"

__all__ = [
    "BenchmarkRun",
    "BenchmarkSpec",
    "BranchPredictorConfig",
    "CONFIG_A",
    "CONFIG_B",
    "CacheConfig",
    "ClusteringError",
    "Coasts",
    "ConfigError",
    "CostModel",
    "DEFAULT_COST_MODEL",
    "DEFAULT_SAMPLING",
    "Deviation",
    "EarlySimPoint",
    "ExperimentRunner",
    "FINE_INTERVAL_SIZE",
    "FunctionalSimulator",
    "FunctionalUnits",
    "HarnessError",
    "MachineConfig",
    "Metrics",
    "MultiLevelSampler",
    "ProgramError",
    "RESAMPLE_THRESHOLD",
    "ReproError",
    "SCALE",
    "SamplingConfig",
    "SamplingError",
    "SamplingPlan",
    "SimPoint",
    "SimulationError",
    "SimulationPoint",
    "SimulationResult",
    "TimingSimulator",
    "Trace",
    "TraceError",
    "benchmark_names",
    "build_trace",
    "estimate_plan",
    "evaluate_plan",
    "get_spec",
    "load_workload",
    "make_config_a",
    "make_config_b",
    "plan_cost",
    "speedup",
    "speedup_over_full",
]

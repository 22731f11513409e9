"""Workload and metric declarations of the benchmark.

Each workload loads a different layer of the pipeline, so a change to
one layer moves one workload and leaves the others alone (see
``README.md`` for the layer -> metric -> workload table).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

#: The seed a workload runs with unless ``--seed`` says otherwise; the
#: committed expected outputs (``expected.json``) are for this seed.
DEFAULT_SEED = 42

#: The suite the two suite workloads run (``repro.workloads.suite``'s
#: canonical order, spelled out so a suite change shows as a diff here).
SUITE = (
    "gzip", "vpr", "gcc", "mcf", "crafty", "parser", "vortex", "bzip2",
    "twolf", "swim", "applu", "mesa", "art", "equake", "lucas", "fma3d",
)


@dataclass(frozen=True)
class Workload:
    """One named set of pipeline inputs and how to run them."""

    name: str
    why: str
    benchmarks: Tuple[str, ...]
    scale: float
    #: Sampling methods to evaluate; ``None`` means every registered one.
    methods: Optional[Tuple[str, ...]]
    #: ``ExperimentRunner`` worker count (1 runs serially in-process).
    jobs: int
    #: Fill the result cache during set-up, so every pass is all hits.
    warm: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="fine-plan",
            why="four benchmarks, all six samplers, serial: plan "
                "construction (fine BBV k-means + BIC sweeps) is over 90% "
                "of stage time",
            benchmarks=("mcf", "bzip2", "swim", "art"),
            scale=0.07,
            methods=None,
            jobs=1,
        ),
        Workload(
            name="coarse-suite",
            why="16 benchmarks, the paper's two methods, 2-process pool: "
                "detailed simulation, trace build and the pool dominate",
            benchmarks=SUITE,
            scale=0.5,
            methods=("coasts", "multilevel"),
            jobs=2,
        ),
        Workload(
            name="warm-suite",
            why="coarse-suite with the result cache filled in set-up: every "
                "run is a cache hit, so pool start-up and cache reads "
                "dominate",
            benchmarks=SUITE,
            scale=0.5,
            methods=("coasts", "multilevel"),
            jobs=2,
            warm=True,
        ),
    )
}

#: End-to-end metrics (``--trace 0``): name -> unit.
END_TO_END = {
    "wall_s": "s",
    "minst_per_s": "Minst/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics of the traced run (``--trace 1``): name -> unit.
PER_LAYER = {
    "analysis.cluster_with_bic_s": "s",
    "analysis.cluster_with_bic_calls": "count",
    "analysis.cluster_rows": "count",
    "stage.plan_construction_s": "s",
    "samplers.simpoint_s": "s",
    "samplers.early_sp_s": "s",
    "samplers.coasts_s": "s",
    "samplers.multilevel_s": "s",
    "samplers.stratified_s": "s",
    "samplers.ranked_set_s": "s",
    "detailed.simulate_full_s": "s",
    "detailed.simulate_point_set_s": "s",
    "detailed.simulate_tagged_ranges_s": "s",
    "detailed.minst": "Minst",
    "detailed.calls": "count",
    "detailed.minst_per_s": "Minst/s",
    "stage.baseline_s": "s",
    "stage.point_simulation_s": "s",
    "stage.diagnostics_s": "s",
    "workloads.load_workload_s": "s",
    "engine.build_trace_s": "s",
    "engine.profile_s": "s",
    "engine.functional_minst": "Minst",
    "stage.trace_build_s": "s",
    "stage.profiling_s": "s",
    "harness.pool_efficiency": "ratio",
    "harness.overhead_s": "s",
    "harness.cache_get_s": "s",
    "harness.cache_put_s": "s",
    "harness.cache_hit_ratio": "ratio",
    "harness.retries": "count",
    "harness.worker_peak_rss_mb": "MB",
    "obs.tracing_overhead_s": "s",
    "quality.cpi_dev_pct": "%",
    "quality.sim_speedup": "x",
}

"""The declarative microbenchmark suite.

Each :class:`BenchCase` names a setup (run once, outside timing), a
payload-consuming kernel, and the layer it measures.  Every case times
the production kernel only; the numbers are wall-clock trend data,
compared on request between runs on the same host.

Kernel-shaped cases (k-means sweep, signature build) use fixed synthetic
inputs modelled on SimPoint's real shapes — projected 15-dim BBVs, 4
temporal sub-chunks per signature — so their cost is independent of
``--scale``; pipeline-shaped cases (two-level planning, detailed timing)
run on the real gzip trace at the requested scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fnmatch import fnmatchcase
from functools import lru_cache
from typing import Any, Callable, List, Optional, Tuple

import numpy as np

from ..analysis import cluster_with_bic, concat_signatures, project_bbvs
from ..config import CONFIG_A, DEFAULT_SAMPLING, SamplingConfig
from ..detailed.timing import TimingSimulator
from ..engine.functional import FunctionalSimulator
from ..engine.trace import Trace, TraceBuilder
from ..errors import HarnessError
from ..sampling.coasts import Coasts
from ..sampling.multilevel import MultiLevelSampler
from ..sampling.ranked_set import RankedSetSampler
from ..sampling.stratified import StratifiedSampler
from ..workloads.registry import load_trace, load_workload

#: Default workload scale for the trace-backed cases (``repro bench
#: --scale``); small enough for CI, large enough to dominate overheads.
DEFAULT_BENCH_SCALE = 0.25

#: Default benchmark the trace-backed cases profile.
BENCH_WORKLOAD = "gzip"

_workload = BENCH_WORKLOAD


def bench_workload() -> str:
    """The benchmark the trace-backed cases currently profile."""
    return _workload


def set_bench_workload(name: str) -> None:
    """Point the trace-backed cases at *name* (``repro bench --benchmark``).

    Accepts any registry-resolvable name — a suite benchmark, a
    ``fam:<family>[i]`` member or an ``import:<path>`` trace.  Traces are
    cached per (name, scale), so switching back and forth is cheap.
    """
    global _workload
    _workload = name


@dataclass(frozen=True)
class BenchCase:
    """One microbenchmark: setup once, run repeatedly."""

    name: str
    description: str
    setup: Callable[[float], Any]
    run: Callable[[Any], Any]
    #: The layer the case measures ("analysis", "detailed" or
    #: "engine") — reported by ``--list`` and selectable by ``--filter``.
    layer: str = "analysis"


@lru_cache(maxsize=4)
def _cached_trace(name: str, scale: float) -> Trace:
    return load_trace(name, scale=scale)


def _bench_trace(scale: float) -> Trace:
    return _cached_trace(_workload, scale)


def _bench_sampling(trace: Trace) -> SamplingConfig:
    """The default sampling knobs, with the fine grid capped for speed.

    At small bench scales the paper-default fine interval can produce a
    huge interval count; cap the grid at ~2000 intervals so the bench
    measures kernel throughput, not an unrepresentative input size.
    """
    fine = max(
        DEFAULT_SAMPLING.fine_interval_size,
        trace.total_instructions // 2000,
    )
    return SamplingConfig(
        fine_interval_size=fine,
        resample_threshold=fine * DEFAULT_SAMPLING.fine_kmax,
        kmeans_seeds=2,
    )


# ----------------------------------------------------------------------
# kmeans sweep: the BIC model-selection sweep over projected signatures,
# SimPoint's clustering hot loop.

def _setup_kmeans(scale: float) -> np.ndarray:
    rng = np.random.default_rng(1234)
    raw = rng.random((300, 256))
    return project_bbvs(raw, DEFAULT_SAMPLING.projection_dim, seed=0)


def _run_kmeans(payload: np.ndarray) -> None:
    cluster_with_bic(payload, kmax=8, seed=0, n_seeds=2)


# ----------------------------------------------------------------------
# signature build: COASTS's normalise-project-concatenate pipeline.

def _setup_signatures(scale: float) -> np.ndarray:
    rng = np.random.default_rng(99)
    return rng.random((64, DEFAULT_SAMPLING.signature_segments, 256))


def _run_signatures(payload: np.ndarray) -> None:
    concat_signatures(payload, dim=DEFAULT_SAMPLING.projection_dim, seed=0)


# ----------------------------------------------------------------------
# two-level plan: COASTS coarse clustering plus the multi-level
# re-sampling pass — the paper's Section IV pipeline end to end.

def _setup_two_level(scale: float) -> Trace:
    return _bench_trace(scale)


def _run_two_level(trace: Trace) -> None:
    sampling = _bench_sampling(trace)
    coarse = Coasts(sampling).sample(trace, benchmark=_workload)
    MultiLevelSampler(sampling).sample(
        trace, benchmark=_workload, coarse_plan=coarse
    )


# ----------------------------------------------------------------------
# registry samplers: the stratified allocation pipeline and the
# ranked-set repeated-subsampling pipeline, from an already-built fine
# profile (profiling cost is the engine cases' business, not these).
# The BIC sweep is capped at kmax 8 — kmeans_sweep already measures the
# full-width sweep; these cases target the allocation/ranking stages.

def _setup_fine_plan(scale: float):
    trace = _bench_trace(scale)
    sampling = replace(_bench_sampling(trace), fine_kmax=8)
    profile = FunctionalSimulator(trace).profile_fixed_intervals(
        sampling.fine_interval_size
    )
    return sampling, profile


def _run_stratified(payload) -> None:
    sampling, profile = payload
    StratifiedSampler(sampling).sample(profile, benchmark=_workload)


def _run_ranked_set(payload) -> None:
    sampling, profile = payload
    RankedSetSampler(sampling).sample(profile, benchmark=_workload)


# ----------------------------------------------------------------------
# detailed timing: the block-level OoO segment loop over the whole
# trace (the "original sim-outorder" cost every speedup is quoted
# against).

def _setup_detailed(scale: float) -> Trace:
    return _bench_trace(scale)


def _run_detailed(trace: Trace) -> None:
    TimingSimulator(trace, CONFIG_A).simulate_full()


# ----------------------------------------------------------------------
# engine cases: the trace unroll and the functional profiling passes,
# measured per call.

def _setup_trace_build(scale: float):
    return load_workload(_workload, scale=scale)


def _run_trace_build(workload) -> None:
    TraceBuilder(workload).build()


def _setup_functional(scale: float) -> FunctionalSimulator:
    return FunctionalSimulator(_bench_trace(scale))


def _run_coarse(sim: FunctionalSimulator) -> None:
    sim.profile_coarse_intervals()


def _run_structures(sim: FunctionalSimulator) -> None:
    sim.profile_structures()


def _run_functional(sim: FunctionalSimulator) -> None:
    sim.run()


#: The suite, in reporting order.
BENCH_SUITE: Tuple[BenchCase, ...] = (
    BenchCase(
        name="kmeans_sweep",
        description="BIC k-sweep over 300x15 projected BBVs (kmax 8)",
        setup=_setup_kmeans,
        run=_run_kmeans,
    ),
    BenchCase(
        name="signature_build",
        description="COASTS signature build, 64 instances x 4 chunks x 256 blocks",
        setup=_setup_signatures,
        run=_run_signatures,
    ),
    BenchCase(
        name="two_level_plan",
        description="coarse + fine two-level sampling plan on gzip",
        setup=_setup_two_level,
        run=_run_two_level,
    ),
    BenchCase(
        name="plan_stratified",
        description="stratified plan (cluster + Neyman allocation) on gzip",
        setup=_setup_fine_plan,
        run=_run_stratified,
    ),
    BenchCase(
        name="plan_ranked_set",
        description="ranked-set plan (proxy rank + repeated subsampling) "
                    "on gzip",
        setup=_setup_fine_plan,
        run=_run_ranked_set,
    ),
    BenchCase(
        name="detailed_timing",
        description="detailed timing segment loop, full gzip trace",
        setup=_setup_detailed,
        run=_run_detailed,
        layer="detailed",
    ),
    BenchCase(
        name="trace_build",
        description="trace unroll from workload schedule (gzip)",
        setup=_setup_trace_build,
        run=_run_trace_build,
        layer="engine",
    ),
    BenchCase(
        name="coarse_profile",
        description="per-outer-iteration coarse BBV profile (gzip)",
        setup=_setup_functional,
        run=_run_coarse,
        layer="engine",
    ),
    BenchCase(
        name="structure_profile",
        description="per-loop dynamic coverage profile (gzip)",
        setup=_setup_functional,
        run=_run_structures,
        layer="engine",
    ),
    BenchCase(
        name="functional_run",
        description="whole-trace functional block counts (gzip)",
        setup=_setup_functional,
        run=_run_functional,
        layer="engine",
    ),
)


def _case_matches(case: BenchCase, pattern: str) -> bool:
    """A pattern selects by layer name (exact), glob, or substring."""
    if pattern == case.layer:
        return True
    if any(ch in pattern for ch in "*?["):
        return fnmatchcase(case.name, pattern)
    return pattern in case.name


def select_cases(
    pattern: Optional[str] = None,
    suite: Tuple[BenchCase, ...] = BENCH_SUITE,
) -> List[BenchCase]:
    """Cases matching *pattern* (all of them when None).

    A plain pattern matches as a substring of the case name; one with
    glob metacharacters (``trace_*``) matches the whole name via
    :func:`fnmatch.fnmatchcase`; a layer name (``engine``,
    ``analysis``) selects that layer's cases.
    """
    if pattern is None:
        return list(suite)
    chosen = [case for case in suite if _case_matches(case, pattern)]
    if not chosen:
        raise HarnessError(
            f"no bench case matches {pattern!r} (have "
            f"{', '.join(case.name for case in suite)})"
        )
    return chosen

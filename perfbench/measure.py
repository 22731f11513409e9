"""Timed passes, output checks and metric extraction.

A *pass* runs one workload once through a fresh
:class:`~repro.harness.ExperimentRunner` and ``run_suite``.  Cold
workloads start every pass with an empty result cache and empty
in-process workload memos, which a user's cold ``repro run`` pays too;
the warm workload reads a cache filled during set-up.  The benchmark
times each pass itself (the runner's own ``timing.wall_seconds`` is not
read).
"""

from __future__ import annotations

import gc
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass
from multiprocessing import get_context
from pathlib import Path
from typing import Dict, List, Optional

from repro import CONFIG_A, ExperimentRunner, SamplingConfig
from repro.harness.cache import ResultCache
from repro.obs import (
    CACHE_HITS,
    CACHE_MISSES,
    DETAILED_CALLS,
    DETAILED_INSTRUCTIONS,
    FUNCTIONAL_INSTRUCTIONS,
    RUN_RETRIES,
    host_fingerprint,
)
from repro.workloads import registry

from . import layers
from .spec import DEFAULT_SEED, Workload

#: Committed outputs of every workload at :data:`DEFAULT_SEED`.
EXPECTED_PATH = Path(__file__).with_name("expected.json")

#: Relative tolerance against the committed outputs: the one the repo's
#: golden accuracy pins use for libm/BLAS rounding across hosts.  Passes
#: of one run are compared exactly.
EXPECTED_RTOL = 1e-9

#: Fresh interpreters started to measure ``setup_s``, spread evenly over
#: the timed passes; the median is kept.
SETUP_SAMPLES = 7

#: Timed passes made even when one pass outlasts ``--seconds``.
MIN_TIMED_PASSES = 3

_SETUP_SNIPPET = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "from repro import ExperimentRunner; ExperimentRunner(); "
    "print(repr(time.monotonic()))"
)


# ----------------------------------------------------------------------
# outputs and their check
# ----------------------------------------------------------------------
def expected_key(benchmark: str, scale: float) -> str:
    """Key of one benchmark's outputs in ``expected.json``."""
    return f"{benchmark}@{scale:g}"


def run_outputs(run) -> dict:
    """The checked outputs of one ``BenchmarkRun``: instruction count,
    baseline, and each method's plan stats, estimate and deviation."""
    payload = run.to_dict()
    payload.pop("diagnostics")
    return payload


def same(actual, expected, rel_tol: float) -> bool:
    """Structural equality; floats within *rel_tol* (0 means exact)."""
    if isinstance(expected, dict):
        return (
            isinstance(actual, dict)
            and actual.keys() == expected.keys()
            and all(same(actual[k], expected[k], rel_tol) for k in expected)
        )
    if isinstance(expected, float) or isinstance(actual, float):
        return (
            isinstance(actual, (int, float))
            and isinstance(expected, (int, float))
            and math.isclose(actual, expected, rel_tol=rel_tol, abs_tol=0.0)
        )
    return actual == expected


def load_expected(workload: Workload, path: Path) -> dict:
    """The committed outputs of *workload*'s benchmarks."""
    with open(path) as handle:
        table = json.load(handle)
    return {
        b: table.get(expected_key(b, workload.scale))
        for b in workload.benchmarks
    }


class Checker:
    """Counts attempted and mismatching runs across a run's passes.

    At the default seed every pass is compared with the committed
    outputs; at any other seed with the first pass checked (or, for the
    warm workload, with the results that filled the cache).
    """

    def __init__(self, workload: Workload, seed: int,
                 expected_path: Optional[Path] = None) -> None:
        self.workload = workload
        self.reference: Optional[dict] = None
        self.rel_tol = 0.0
        if seed == DEFAULT_SEED:
            self.reference = load_expected(
                workload, expected_path or EXPECTED_PATH
            )
            self.rel_tol = EXPECTED_RTOL
        self.attempted = 0
        self.failed = 0
        self.mismatches: List[str] = []

    def check(self, outputs: Dict[str, dict], label: str) -> None:
        """Check one pass's ``{benchmark: outputs}`` (failed runs absent)."""
        if self.reference is None:
            self.reference = outputs
        for benchmark in self.workload.benchmarks:
            self.attempted += 1
            actual = outputs.get(benchmark)
            if actual is None or not same(
                actual, self.reference.get(benchmark), self.rel_tol
            ):
                self.failed += 1
                self.mismatches.append(f"{label}:{benchmark}")


# ----------------------------------------------------------------------
# passes
# ----------------------------------------------------------------------
@dataclass
class Pass:
    """One pass: its wall time, its runs and, if traced, its layers.

    The runner is not kept: it holds every trace it built, so keeping
    it would grow the process with the number of passes.
    """

    wall_s: float
    runs: list
    layers: Optional[Dict[str, float]] = None

    @property
    def outputs(self) -> Dict[str, dict]:
        return {run.benchmark: run_outputs(run) for run in self.runs}

    @property
    def instructions(self) -> int:
        return sum(run.total_instructions for run in self.runs)


def make_runner(workload: Workload, seed: int, cache_dir: Path
                ) -> ExperimentRunner:
    """A fresh runner for *workload*, the seed as the sampling seed."""
    return ExperimentRunner(
        sampling=SamplingConfig(random_seed=seed),
        cache=ResultCache(cache_dir),
        workload_scale=workload.scale,
        methods=workload.methods,
        jobs=workload.jobs,
    )


def run_pass(workload: Workload, seed: int, work_dir: Path,
             cache_dir: Optional[Path] = None, traced: bool = False) -> Pass:
    """Run *workload* once; cold unless *cache_dir* holds a filled cache.

    *traced* wraps the layers' entry points (:class:`layers.LayerTracer`)
    for this pass and returns their figures with it.
    """
    cold = cache_dir is None
    if cold:
        registry.clear_cache()
        cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=work_dir))
    # The previous pass's garbage is not this pass's cost.
    gc.collect()
    tracer = layers.LayerTracer() if traced else nullcontext()
    try:
        with tracer:
            began = time.perf_counter()
            runner = make_runner(workload, seed, cache_dir)
            outcome = runner.run_suite(
                CONFIG_A, names=list(workload.benchmarks)
            )
            wall = time.perf_counter() - began
    finally:
        if cold:
            shutil.rmtree(cache_dir, ignore_errors=True)
    p = Pass(wall, list(outcome.runs))
    if traced:
        p.layers = layer_metrics(p, runner, tracer, workload.jobs)
    return p


def fill_cache(workload: Workload, seed: int, cache_dir: str) -> dict:
    """Compute *workload* into *cache_dir*; returns the outputs.

    Runs in a child process, so the benchmark process's peak memory is
    that of the warm passes alone.
    """
    cache = Path(cache_dir)
    return run_pass(workload, seed, cache.parent, cache).outputs


def fill_cache_in_child(workload: Workload, seed: int,
                        cache_dir: Path) -> dict:
    """:func:`fill_cache` in a spawned child, waited for."""
    with ProcessPoolExecutor(
        max_workers=1, mp_context=get_context("spawn")
    ) as pool:
        return pool.submit(fill_cache, workload, seed, str(cache_dir)).result()


def setup_seconds(src_dir: Path) -> float:
    """Seconds from starting a fresh interpreter to a constructed runner."""
    began = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-c", _SETUP_SNIPPET, str(src_dir)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(done.stdout.strip()) - began


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set of this process (or its largest child), MB."""
    return resource.getrusage(who).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def quality(p: Pass) -> Dict[str, float]:
    """Exact accuracy figures of one pass.

    ``cpi_dev_pct``: mean |CPI deviation| from the full detailed
    baseline over every (benchmark, method) pair.  ``sim_speedup``:
    geomean over benchmarks of multilevel's simulated speed-up over full
    detailed simulation.
    """
    devs = [
        100.0 * result.deviation.cpi
        for run in p.runs for result in run.methods.values()
    ]
    speedups = [
        run.speedup_over_full("multilevel")
        for run in p.runs if "multilevel" in run.methods
    ]
    return {
        "quality.cpi_dev_pct": statistics.fmean(devs),
        "quality.sim_speedup": math.exp(
            statistics.fmean(math.log(s) for s in speedups)
        ),
    }


def layer_metrics(p: Pass, runner: ExperimentRunner,
                  tracer: layers.LayerTracer, jobs: int) -> Dict[str, float]:
    """Per-layer figures of one traced pass (see ``spec.PER_LAYER``)."""
    metrics = runner.obs.metrics
    busy = layers.busy([metrics, tracer.own])

    def seconds(layer: str) -> float:
        return busy.get(layer, {}).get("s", 0.0)

    stages = runner.timing.stage_totals()
    run_span_s = sum(r.total_seconds for r in runner.timing.runs)
    detailed_s = sum(
        seconds(f"detailed.{name}")
        for name in ("simulate_full", "simulate_point_set",
                     "simulate_tagged_ranges")
    )
    detailed_minst = metrics.value(DETAILED_INSTRUCTIONS) / 1e6
    hits, misses = metrics.value(CACHE_HITS), metrics.value(CACHE_MISSES)
    bic = busy.get("analysis.cluster_with_bic", {})
    out = {
        "analysis.cluster_with_bic_s": seconds("analysis.cluster_with_bic"),
        "analysis.cluster_with_bic_calls": bic.get("calls", 0.0),
        "analysis.cluster_rows": bic.get("rows", 0.0),
        "detailed.simulate_full_s": seconds("detailed.simulate_full"),
        "detailed.simulate_point_set_s":
            seconds("detailed.simulate_point_set"),
        "detailed.simulate_tagged_ranges_s":
            seconds("detailed.simulate_tagged_ranges"),
        "detailed.minst": detailed_minst,
        "detailed.calls": metrics.value(DETAILED_CALLS),
        "detailed.minst_per_s":
            detailed_minst / detailed_s if detailed_s else 0.0,
        "workloads.load_workload_s": seconds("workloads.load_workload"),
        "engine.build_trace_s": seconds("engine.build_trace"),
        "engine.profile_s": seconds("engine.profile"),
        "engine.functional_minst":
            metrics.value(FUNCTIONAL_INSTRUCTIONS) / 1e6,
        "harness.pool_efficiency": run_span_s / (jobs * p.wall_s),
        "harness.overhead_s": p.wall_s - run_span_s / jobs,
        "harness.cache_get_s": seconds("harness.cache_get"),
        "harness.cache_put_s": seconds("harness.cache_put"),
        "harness.cache_hit_ratio":
            hits / (hits + misses) if hits + misses else 0.0,
        "harness.retries": metrics.value(RUN_RETRIES),
    }
    for stage in ("trace_build", "profiling", "plan_construction",
                  "baseline", "point_simulation", "diagnostics"):
        out[f"stage.{stage}_s"] = stages.get(stage, 0.0)
    for method in ("simpoint", "early_sp", "coasts", "multilevel",
                   "stratified", "ranked_set"):
        out[f"samplers.{method}_s"] = seconds(f"samplers.{method}")
    return out


def environment(workload: Workload) -> dict:
    """Host and pinning facts recorded with every result (the
    fingerprint carries the Python and numpy versions)."""
    return {
        **host_fingerprint(),
        "nproc": os.cpu_count(),
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                        "MKL_NUM_THREADS")
        },
        "jobs": workload.jobs,
    }


# ----------------------------------------------------------------------
# one benchmark invocation
# ----------------------------------------------------------------------
def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            work_root: Path, src_dir: Path) -> dict:
    """Set up, warm up, then time passes of *workload* for *seconds*.

    Returns the full record: environment, every pass time, the first
    (discarded) pass, the check counts and the metrics for the mode.
    """
    checker = Checker(workload, seed)
    work_root.mkdir(parents=True, exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_root))
    try:
        warm_cache = None
        if workload.warm:
            warm_cache = work_dir / "warm-cache"
            # Off the default seed, the fill's results become the
            # reference every cache hit must equal.
            checker.check(fill_cache_in_child(workload, seed, warm_cache),
                          "fill")

        def one_pass(label: str, traced: bool = False) -> Pass:
            p = run_pass(workload, seed, work_dir, warm_cache, traced)
            checker.check(p.outputs, label)
            return p

        first = one_pass("first")
        walls: List[float] = []
        setup: List[float] = []
        traced: List[Pass] = []
        # A traced run alternates untraced and traced passes.
        passes_per_round = 2 if trace else 1
        min_rounds = 1 if trace else MIN_TIMED_PASSES
        began = time.monotonic()
        while len(walls) < min_rounds or (
            time.monotonic() - began
            + passes_per_round * statistics.median(walls) <= seconds
        ):
            walls.append(one_pass(f"pass{len(walls)}").wall_s)
            if trace:
                traced.append(one_pass(f"traced{len(traced)}", traced=True))
            elif len(setup) * seconds < SETUP_SAMPLES * (
                time.monotonic() - began
            ):
                setup.append(setup_seconds(src_dir))
        # Only a traced run reports this: it starts no set-up interpreters,
        # so its waited-for children are the pool workers (and the
        # warm-suite cache fill).
        children_rss = peak_rss_mb(resource.RUSAGE_CHILDREN)
        wall = statistics.median(walls)
        record = {
            "workload": workload.name,
            "seed": seed,
            "env": environment(workload),
            "first_pass_s": first.wall_s,
            "pass_s": walls,
            "quality": quality(first),
        }
        if trace:
            metrics = {
                name: statistics.median(p.layers[name] for p in traced)
                for name in traced[0].layers
            }
            metrics["obs.tracing_overhead_s"] = (
                statistics.median(p.wall_s for p in traced) - wall
            )
            metrics["harness.worker_peak_rss_mb"] = children_rss
            metrics.update(record["quality"])
            record["traced_pass_s"] = [p.wall_s for p in traced]
        else:
            while len(setup) < SETUP_SAMPLES:
                setup.append(setup_seconds(src_dir))
            metrics = {
                "wall_s": wall,
                "minst_per_s": first.instructions / 1e6 / wall,
                "setup_s": statistics.median(setup),
                "peak_rss_mb": peak_rss_mb(),
            }
            record["setup_s"] = setup
        record.update(
            attempted=checker.attempted,
            failed=checker.failed,
            mismatches=checker.mismatches,
            metrics=metrics,
        )
        return record
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

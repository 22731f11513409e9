"""Per-kernel microbenchmarks for the analysis, engine and detailed layers.

The paper's claim is *speed at preserved accuracy*; this package times
the hot kernels one by one.  Three pieces:

* :mod:`repro.bench.suite` — the declarative benchmark suite: k-means
  sweep, signature build, coarse+fine two-level planning, the sampler
  plans, the detailed-timing segment loop and the engine's trace build
  and profiling passes, each naming the layer it measures;
* :mod:`repro.bench.runner` — warm-up + measured repetitions, timed via
  the observability span tracer, yielding per-case best/mean seconds;
* :mod:`repro.bench.report` — the schema-versioned
  ``BENCH_phase_analysis.json`` artefact (host fingerprint included) and
  the baseline comparison used by CI: every baseline case must still
  run; wall-clock is compared only on request, between same-host runs.

Driven by the ``repro bench`` CLI subcommand; see the README's
"Benchmarking" section for the baseline-update workflow.
"""

from .report import (
    BENCH_SCHEMA_VERSION,
    DEFAULT_REPORT_NAME,
    BenchReport,
    compare_reports,
    load_report,
)
from .runner import CaseResult, run_bench
from .suite import (
    BENCH_SUITE,
    BENCH_WORKLOAD,
    DEFAULT_BENCH_SCALE,
    BenchCase,
    bench_workload,
    select_cases,
    set_bench_workload,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "BENCH_SUITE",
    "BENCH_WORKLOAD",
    "BenchCase",
    "BenchReport",
    "CaseResult",
    "DEFAULT_BENCH_SCALE",
    "DEFAULT_REPORT_NAME",
    "bench_workload",
    "compare_reports",
    "load_report",
    "run_bench",
    "select_cases",
    "set_bench_workload",
]

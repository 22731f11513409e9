"""Benchmark execution: warm-up + measured repetitions over obs spans.

Every measured repetition is one ``bench_rep`` span under a per-case
``bench_case`` span, so a ``--trace-out`` of a bench run renders in
``repro obs report`` exactly like any other harness trace, and the
per-rep durations in the report are the span durations themselves
(monotonic ``perf_counter``, immune to wall-clock steps).
"""

from __future__ import annotations

import logging
import statistics
from dataclasses import dataclass
from typing import List, Optional, Sequence

from ..errors import HarnessError
from ..obs import ObsContext, register_help
from .suite import BenchCase

logger = logging.getLogger(__name__)

#: Counter: measured bench repetitions, labelled by case.
BENCH_REPS = "repro_bench_reps"
register_help(BENCH_REPS, "Measured bench repetitions per case.")


@dataclass(frozen=True)
class CaseResult:
    """One case's measured repetitions."""

    name: str
    description: str
    reps: int
    warmup: int
    seconds: Sequence[float]

    @property
    def best(self) -> float:
        """Fastest rep — the conventional microbenchmark statistic."""
        return min(self.seconds)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.seconds)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "reps": self.reps,
            "warmup": self.warmup,
            "best_seconds": self.best,
            "mean_seconds": self.mean,
            "seconds": list(self.seconds),
        }


def run_bench(
    cases: Sequence[BenchCase],
    scale: float,
    reps: int = 5,
    warmup: int = 1,
    obs: Optional[ObsContext] = None,
) -> List[CaseResult]:
    """Run *cases*: one setup, *warmup* unmeasured + *reps* measured runs.

    Each measured run is timed by a ``bench_rep`` span; the returned
    :class:`CaseResult` carries the span durations.  *obs* collects the
    spans and the :data:`BENCH_REPS` counter (a private context is used
    when omitted).
    """
    if reps < 1:
        raise HarnessError(f"reps must be >= 1, got {reps}")
    if warmup < 0:
        raise HarnessError(f"warmup must be >= 0, got {warmup}")
    obs = obs if obs is not None else ObsContext()

    results: List[CaseResult] = []
    for case in cases:
        with obs.tracer.span("bench_case", case=case.name, scale=scale):
            with obs.tracer.span("bench_setup", case=case.name):
                payload = case.setup(scale)
            for _ in range(warmup):
                case.run(payload)
            seconds: List[float] = []
            for rep in range(reps):
                with obs.tracer.span(
                    "bench_rep", case=case.name, rep=rep
                ) as span:
                    case.run(payload)
                seconds.append(float(span.duration))
                obs.metrics.counter(BENCH_REPS, case=case.name).inc()
        result = CaseResult(
            name=case.name,
            description=case.description,
            reps=reps,
            warmup=warmup,
            seconds=tuple(seconds),
        )
        logger.info(
            "bench %s: best %.6fs over %d reps", case.name, result.best, reps
        )
        results.append(result)
    return results

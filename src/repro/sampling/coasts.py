"""COASTS: COarse-grained Accurately Sampling Technique for Simulators.

The paper's first-level sampler (Section IV-A).  Three steps:

1. **Boundary collection** — pick top-level cyclic program structures from
   dynamic profiling and discard those covering less than 1% of executed
   instructions; the iteration instances of the survivors become the
   (variable-length, coarse-grained) intervals.
2. **Metrics collection** — per iteration instance, collect the BBVs of its
   temporal sub-chunks, randomly project each to 15 dimensions, concatenate
   into a signature vector and normalise.
3. **Coarse-grained sampling** — k-means (``Kmax = 3`` by default) with BIC
   model selection classifies the instances into phases; the **earliest
   instance** of each phase becomes its coarse simulation point, weighted by
   the phase's share of instructions.

Selecting earliest instances (rather than centroid-nearest) is what puts the
last simulation point at a very early program position and collapses the
functional-simulation cost.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.bbv import concat_signatures
from ..analysis.bic import cluster_with_bic
from ..analysis.distance import earliest_member
from ..analysis.kmeans import cluster_quality
from ..config import DEFAULT_SAMPLING, SamplingConfig
from ..engine.functional import FunctionalSimulator
from ..engine.profiles import CoarseIntervalProfile
from ..engine.trace import Trace
from ..errors import SamplingError
from ..obs import CLUSTER_SWEEPS, ObsContext
from ..obs.diag import MethodDiag, build_method_diag
from .points import SamplingPlan, SimulationPoint


@dataclass(frozen=True)
class BoundaryInfo:
    """Outcome of boundary collection: which structures form intervals."""

    kept_loops: Tuple[int, ...]
    discarded_loops: Tuple[int, ...]
    bounds: np.ndarray  # (n_intervals, 2)
    #: Instruction coverage lost to the <1% rule (sum of the discarded
    #: structures' coverages) — a direct contributor to sampling error,
    #: surfaced by the accuracy diagnostics.
    discarded_coverage: float = 0.0

    @property
    def n_intervals(self) -> int:
        """Number of coarse intervals."""
        return len(self.bounds)


class Coasts:
    """The coarse-grained first-level sampler."""

    method_name = "coasts"

    def __init__(
        self,
        config: SamplingConfig = DEFAULT_SAMPLING,
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.config = config
        #: Observability context: when present, sampling runs inside a
        #: ``sampling`` span and the clustering-quality diagnostics are
        #: attached to it as attributes.
        self.obs = obs
        #: Clustering-quality diagnostics of the most recent
        #: :meth:`sample`/:meth:`sample_profile` call (the harness fills
        #: in the error attribution after detail simulation).
        self.last_diagnostics: Optional[MethodDiag] = None
        self._functional: Optional[FunctionalSimulator] = None

    def _simulator(self, trace: Trace) -> FunctionalSimulator:
        """One functional simulator per trace, counting its passes into
        the obs registry (when there is one)."""
        if self._functional is None or self._functional.trace is not trace:
            metrics = self.obs.metrics if self.obs is not None else None
            self._functional = FunctionalSimulator(trace, metrics=metrics)
        return self._functional

    # ------------------------------------------------------------------
    def collect_boundaries(self, trace: Trace) -> BoundaryInfo:
        """Step 1: choose top-level cyclic structures, filter by coverage."""
        structures = self._simulator(trace).profile_structures()
        nest = trace.program.loops
        kept: List[int] = []
        discarded: List[int] = []
        for loop in nest.top_level:
            profile = structures[loop.loop_id]
            if profile.coverage >= self.config.min_structure_coverage:
                kept.append(loop.loop_id)
            else:
                discarded.append(loop.loop_id)
        if not kept:
            raise SamplingError(
                "no cyclic structure passes the coverage floor; cannot form "
                "coarse intervals"
            )
        bounds_list: List[np.ndarray] = []
        outer_id = trace.workload.outer_loop_id
        for loop_id in kept:
            if loop_id == outer_id:
                bounds_list.append(trace.outer_bounds())
            else:
                bounds_list.append(self._loop_instance_bounds(trace, loop_id))
        bounds = np.concatenate(bounds_list, axis=0)
        bounds = bounds[np.argsort(bounds[:, 0])]
        return BoundaryInfo(
            kept_loops=tuple(kept),
            discarded_loops=tuple(discarded),
            bounds=bounds,
            discarded_coverage=float(
                sum(structures[loop_id].coverage for loop_id in discarded)
            ),
        )

    @staticmethod
    def _loop_instance_bounds(trace: Trace, loop_id: int) -> np.ndarray:
        """Instance bounds of a non-outer top-level loop: each contiguous
        run of its segments is one instance."""
        spans: List[Tuple[int, int]] = []
        current: Tuple[int, int] | None = None
        loop_ids = trace.loop_id
        for index in range(trace.n_segments):
            if int(loop_ids[index]) == loop_id:
                start, end = trace.segment_span(index)
                if current is not None and start == current[1]:
                    current = (current[0], end)
                else:
                    if current is not None:
                        spans.append(current)
                    current = (start, end)
            elif current is not None:
                spans.append(current)
                current = None
        if current is not None:
            spans.append(current)
        if not spans:
            raise SamplingError(f"loop {loop_id} never executes")
        return np.array(spans, dtype=np.int64)

    # ------------------------------------------------------------------
    def profile(
        self, trace: Trace, boundaries: BoundaryInfo | None = None
    ) -> CoarseIntervalProfile:
        """Step 2: per-instance sub-chunk BBVs for the kept intervals."""
        boundaries = boundaries or self.collect_boundaries(trace)
        return self._simulator(trace).profile_coarse_intervals(
            n_segments=self.config.signature_segments,
            bounds=boundaries.bounds,
        )

    def signatures(self, profile: CoarseIntervalProfile) -> np.ndarray:
        """Concatenated, normalised signature vectors of each instance."""
        return concat_signatures(
            profile.segment_bbvs,
            dim=self.config.projection_dim,
            seed=self.config.random_seed,
        )

    # ------------------------------------------------------------------
    def sample(self, trace: Trace, benchmark: str = "") -> SamplingPlan:
        """Run all three steps and return the coarse sampling plan."""
        boundaries = self.collect_boundaries(trace)
        profile = self.profile(trace, boundaries)
        return self.sample_profile(
            profile,
            benchmark=benchmark or trace.spec.name,
            total_instructions=trace.total_instructions,
            discarded_coverage=boundaries.discarded_coverage,
        )

    def sample_profile(
        self,
        profile: CoarseIntervalProfile,
        benchmark: str,
        total_instructions: int,
        discarded_coverage: float = 0.0,
    ) -> SamplingPlan:
        """Step 3 on an existing coarse profile."""
        span_ctx = (
            self.obs.tracer.span(
                "sampling", method=self.method_name, benchmark=benchmark
            )
            if self.obs is not None else nullcontext()
        )
        with span_ctx as span:
            signatures = self.signatures(profile)
            result, _ = cluster_with_bic(
                signatures,
                kmax=self.config.coarse_kmax,
                seed=self.config.random_seed,
                n_seeds=self.config.kmeans_seeds,
                threshold=self.config.bic_threshold,
            )
            if self.obs is not None:
                self.obs.metrics.counter(CLUSTER_SWEEPS, level="coarse").inc()
            labels = result.labels
            k = result.k
            picks = earliest_member(labels, k)

            insts = profile.instructions.astype(np.float64)
            covered = insts.sum()
            if covered <= 0:
                raise SamplingError("coarse profile covers no instructions")

            weights = np.array([
                float(insts[labels == phase].sum() / covered)
                for phase in range(k)
            ])
            points: List[SimulationPoint] = []
            for phase in range(k):
                pick = int(picks[phase])
                if pick < 0:
                    continue
                points.append(
                    SimulationPoint(
                        start=int(profile.starts[pick]),
                        end=profile.end_of(pick),
                        weight=float(weights[phase]),
                        phase=phase,
                        interval_index=pick,
                    )
                )
            points.sort(key=lambda p: p.start)

            quality = cluster_quality(signatures, result)
            interval_bounds = [
                (int(profile.starts[i]), profile.end_of(i))
                for i in range(profile.n_instances)
            ]
            self.last_diagnostics = build_method_diag(
                method=self.method_name,
                benchmark=benchmark,
                labels=labels,
                picks=picks,
                weights=weights,
                bounds=interval_bounds,
                instructions=profile.instructions,
                quality=quality,
                resample_threshold=self.config.resample_threshold,
                coverage_discarded=discarded_coverage,
            )
            if span is not None:
                span.set(
                    n_intervals=profile.n_instances,
                    n_clusters=k,
                    coverage_discarded=round(discarded_coverage, 6),
                    oversized_points=self.last_diagnostics.n_oversized,
                    mean_silhouette=round(quality.mean_silhouette, 4),
                )
            return SamplingPlan(
                method=self.method_name,
                benchmark=benchmark,
                points=tuple(points),
                total_instructions=total_instructions,
                n_clusters=k,
            )

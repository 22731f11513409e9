"""Fixed-length SimPoint (Sherwood et al., ASPLOS 2002) — the baseline.

Pipeline, faithful to the SimPoint release the paper compares against:

1. split execution into fixed-length intervals (10M instructions at paper
   scale) and collect per-interval BBVs;
2. normalise each BBV and randomly project it to 15 dimensions;
3. run k-means for k = 1..Kmax (default 30), several seeds each, score with
   BIC and keep the smallest k reaching 90% of the BIC range;
4. pick, per cluster, the interval nearest the centroid as its simulation
   point, weighted by the cluster's share of executed instructions.

Like the SimPoint tool, clustering optionally runs on a random sub-sample of
intervals (all intervals are then assigned to the nearest centroid), which
bounds clustering cost on long programs.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..analysis.bbv import normalize_rows
from ..analysis.bic import cluster_with_bic
from ..analysis.distance import assign_points, nearest_to_centroid
from ..analysis.kmeans import ClusterQuality, KMeansResult, cluster_quality
from ..analysis.metrics import metric_matrix
from ..analysis.projection import RandomProjection
from ..config import DEFAULT_SAMPLING, SamplingConfig
from ..engine.profiles import FixedIntervalProfile
from ..errors import SamplingError
from ..isa.program import Program
from ..obs import ObsContext
from ..obs.diag import MethodDiag, build_method_diag
from .points import SamplingPlan, SimulationPoint

#: Clustering runs on at most this many intervals (SimPoint-style sampling).
DEFAULT_MAX_CLUSTER_SAMPLES = 4000


@dataclass(frozen=True)
class FineClustering:
    """One fine-level phase clustering of a fixed-interval profile.

    Everything a SimPoint-family selection rule reads: the projected
    features, every interval's phase label, the phase centroids and the
    :func:`~repro.analysis.kmeans.cluster_quality` view of the
    assignment.  Built by :meth:`SimPoint.cluster`.
    """

    features: np.ndarray   # (n_intervals, dims) projected BBVs
    labels: np.ndarray     # (n_intervals,) phase of each interval
    centroids: np.ndarray  # (k, dims)
    quality: ClusterQuality

    @property
    def k(self) -> int:
        """Number of phases."""
        return len(self.centroids)


class SimPoint:
    """The fixed-length SimPoint baseline sampler."""

    method_name = "simpoint"

    def __init__(
        self,
        config: SamplingConfig = DEFAULT_SAMPLING,
        interval_size: Optional[int] = None,
        kmax: Optional[int] = None,
        max_cluster_samples: int = DEFAULT_MAX_CLUSTER_SAMPLES,
        metric: str = "bbv",
        obs: Optional[ObsContext] = None,
    ) -> None:
        self.config = config
        self.interval_size = interval_size or config.fine_interval_size
        self.kmax = kmax or config.fine_kmax
        if max_cluster_samples < 2:
            raise SamplingError("max_cluster_samples must be >= 2")
        self.max_cluster_samples = max_cluster_samples
        #: Phase metric: "bbv" (default), "loop_frequency" or "working_set"
        #: (the Section II alternatives; non-BBV metrics need `program`).
        self.metric = metric
        #: Observability context: when present, sampling runs inside a
        #: ``sampling`` span carrying clustering-quality attributes.
        self.obs = obs
        #: Clustering-quality diagnostics of the most recent
        #: :meth:`sample` call (EarlySP inherits this — only the
        #: representative-selection rule differs).
        self.last_diagnostics: Optional[MethodDiag] = None

    # ------------------------------------------------------------------
    def cluster(
        self,
        profile: FixedIntervalProfile,
        program: Optional[Program] = None,
    ) -> FineClustering:
        """Steps 2-3: project the profile and run the k-means/BIC sweep.

        This is the expensive part of every SimPoint-family sampler and
        does not depend on the selection rule, so one result can feed
        several samplers (:meth:`sample`'s *clustering* argument).
        """
        self._check_profile(profile)
        features = self._project(profile, program)
        labels, centroids = self._cluster(features)
        # Quality statistics over the full assignment (clustering may
        # have fitted a sub-sample; labels cover every interval).  The
        # inertia slot is unused by cluster_quality, so a zero keeps
        # this a view rather than a re-clustering.
        quality = cluster_quality(
            features,
            KMeansResult(centroids=centroids, labels=labels, inertia=0.0),
        )
        return FineClustering(
            features=features, labels=labels, centroids=centroids,
            quality=quality,
        )

    def sample(
        self,
        profile: FixedIntervalProfile,
        benchmark: str = "",
        program: Optional[Program] = None,
        clustering: Optional[FineClustering] = None,
    ) -> SamplingPlan:
        """Select simulation points from a fixed-interval profile.

        *program* is required for the non-BBV metrics, which need the loop
        nest / region table to fold the profile.  An existing
        *clustering* of *profile* (from :meth:`cluster`) skips the sweep,
        so samplers that differ only in their selection rule can share
        one; without it the sampler clusters for itself.
        """
        self._check_profile(profile)
        if clustering is not None and len(clustering.labels) != \
                profile.n_intervals:
            raise SamplingError(
                f"clustering covers {len(clustering.labels)} intervals, "
                f"profile has {profile.n_intervals}"
            )
        span_ctx = (
            self.obs.tracer.span(
                "sampling", method=self.method_name, benchmark=benchmark
            )
            if self.obs is not None else nullcontext()
        )
        with span_ctx as span:
            if clustering is None:
                clustering = self.cluster(profile, program)
            k = clustering.k
            weights = self._weights(profile, clustering.labels, k)
            points, picks = self._points(profile, clustering, weights)
            points.sort(key=lambda p: p.start)

            interval_bounds = [
                (int(profile.starts[i]), profile.end_of(i))
                for i in range(profile.n_intervals)
            ]
            self.last_diagnostics = build_method_diag(
                method=self.method_name,
                benchmark=benchmark,
                labels=clustering.labels,
                picks=picks,
                weights=weights,
                bounds=interval_bounds,
                instructions=profile.instructions,
                quality=clustering.quality,
                resample_threshold=self.config.resample_threshold,
            )
            if span is not None:
                span.set(
                    n_intervals=profile.n_intervals,
                    n_clusters=k,
                    **self._span_attributes(points),
                    mean_silhouette=round(
                        clustering.quality.mean_silhouette, 4
                    ),
                )
            return SamplingPlan(
                method=self.method_name,
                benchmark=benchmark,
                points=tuple(points),
                total_instructions=profile.total_instructions,
                n_clusters=k,
                origin=int(profile.starts[0]),
            )

    # ------------------------------------------------------------------
    def _check_profile(self, profile: FixedIntervalProfile) -> None:
        if profile.interval_size != self.interval_size:
            raise SamplingError(
                f"profile interval size {profile.interval_size} != sampler's "
                f"{self.interval_size}"
            )

    def _points(
        self,
        profile: FixedIntervalProfile,
        clustering: FineClustering,
        weights: np.ndarray,
    ) -> Tuple[List[SimulationPoint], np.ndarray]:
        """Point selection: one representative per phase (:meth:`_select`)
        carrying the phase's instruction share.

        Returns the points and the per-phase reporting representatives
        (-1 for an empty phase).
        """
        picks = self._select(
            clustering.features, clustering.labels, clustering.centroids
        )
        points: List[SimulationPoint] = []
        for phase in range(clustering.k):
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
        return points, picks

    def _span_attributes(self, points: List[SimulationPoint]) -> dict:
        """Method-specific attributes of the ``sampling`` span."""
        return {"oversized_points": self.last_diagnostics.n_oversized}

    # ------------------------------------------------------------------
    def _project(
        self,
        profile: FixedIntervalProfile,
        program: Optional[Program] = None,
    ) -> np.ndarray:
        if self.metric == "bbv":
            data = profile.bbv
        else:
            if program is None:
                raise SamplingError(
                    f"metric {self.metric!r} requires the program"
                )
            data = metric_matrix(self.metric, profile, program)
        normalized = normalize_rows(data)
        projection = RandomProjection(
            data.shape[1],
            min(self.config.projection_dim, data.shape[1]),
            seed=self.config.random_seed,
        )
        return projection.project(normalized)

    def _cluster(self, features: np.ndarray):
        n = len(features)
        rng = np.random.default_rng(self.config.random_seed)
        if n > self.max_cluster_samples:
            chosen = np.sort(
                rng.choice(n, size=self.max_cluster_samples, replace=False)
            )
            fit_data = features[chosen]
        else:
            fit_data = features
        result, _ = cluster_with_bic(
            fit_data,
            kmax=self.kmax,
            seed=self.config.random_seed,
            n_seeds=self.config.kmeans_seeds,
            threshold=self.config.bic_threshold,
        )
        centroids = result.centroids
        labels, _ = assign_points(features, centroids)
        return labels, centroids

    @staticmethod
    def _weights(
        profile: FixedIntervalProfile, labels: np.ndarray, k: int
    ) -> np.ndarray:
        weights = np.zeros(k, dtype=np.float64)
        insts = profile.instructions.astype(np.float64)
        for phase in range(k):
            weights[phase] = insts[labels == phase].sum()
        total = weights.sum()
        if total <= 0:
            raise SamplingError("no instructions in profile")
        return weights / total

    def _select(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        centroids: np.ndarray,
    ) -> np.ndarray:
        """Representative choice: interval nearest each centroid."""
        return nearest_to_centroid(features, labels, centroids)

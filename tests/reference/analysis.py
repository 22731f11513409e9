"""Reference analysis kernels: the per-point / per-cluster Python loops.

Each function here is the loop the production kernel in
:mod:`repro.analysis` replaced, with the same signature, the same
validation and the same random draws, so a test can call both on one
input and compare the results bit for bit, or swap a reference in for
the production kernel across a whole pipeline run.

The production kernels are bit-identical to these by construction: they
use only numpy operations whose per-element rounding matches the loops
(elementwise arithmetic, innermost-axis pairwise sums, index-order
``np.add.at`` / ``np.bincount`` accumulation), and the one BLAS product
in :func:`repro.analysis.distance.assign_points` only shortlists
candidates under a proven rounding bound.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.analysis.bic import _VARIANCE_FLOOR, select_k
from repro.analysis.distance import _check_pair
from repro.analysis.kmeans import KMeansResult
from repro.analysis.projection import RandomProjection
from repro.errors import ClusteringError


# ----------------------------------------------------------------------
# distance kernels

def squared_distances(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, one ``np.sum`` per pair."""
    data = np.asarray(data, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    _check_pair(data, centers)
    n, k = len(data), len(centers)
    out = np.empty((n, k), dtype=np.float64)
    for i in range(n):
        for j in range(k):
            out[i, j] = np.sum((data[i] - centers[j]) ** 2)
    return out


def assign_points(
    data: np.ndarray, centers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Nearest center per point (first on ties) and its squared distance."""
    data = np.asarray(data, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    _check_pair(data, centers)
    n, k = len(data), len(centers)
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    row = np.empty(k, dtype=np.float64)
    for i in range(n):
        for j in range(k):
            row[j] = np.sum((data[i] - centers[j]) ** 2)
        label = int(np.argmin(row))
        labels[i] = label
        best[i] = row[label]
    return labels, best


def nearest_to_centroid(
    data: np.ndarray, labels: np.ndarray, centroids: np.ndarray
) -> np.ndarray:
    """Index of the member closest to each centroid (-1 when empty)."""
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels)
    k = len(centroids)
    picks = np.full(k, -1, dtype=np.int64)
    distances = squared_distances(data, centroids)
    for j in range(k):
        members = np.flatnonzero(labels == j)
        if len(members):
            picks[j] = members[np.argmin(distances[members, j])]
    return picks


def earliest_member(labels: np.ndarray, k: int) -> np.ndarray:
    """Index of the earliest member of each cluster (-1 when empty)."""
    labels = np.asarray(labels)
    picks = np.full(k, -1, dtype=np.int64)
    for j in range(k):
        members = np.flatnonzero(labels == j)
        if len(members):
            picks[j] = members[0]
    return picks


# ----------------------------------------------------------------------
# k-means

def _point_distances(data: np.ndarray, center: np.ndarray) -> np.ndarray:
    return np.array(
        [np.sum((data[i] - center) ** 2) for i in range(len(data))],
        dtype=np.float64,
    )


def _kmeanspp_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    n = len(data)
    centroids = np.empty((k, data.shape[1]), dtype=np.float64)
    first = int(rng.integers(n))
    centroids[0] = data[first]
    closest = _point_distances(data, centroids[0])
    for i in range(1, k):
        total = float(np.sum(closest))
        if total <= 0:
            centroids[i:] = data[int(rng.integers(n))]
            break
        probabilities = closest / total
        choice = int(rng.choice(n, p=probabilities))
        centroids[i] = data[choice]
        distance = _point_distances(data, centroids[i])
        for point in range(n):
            if distance[point] < closest[point]:
                closest[point] = distance[point]
    return centroids


def _update_centroids(
    data: np.ndarray, labels: np.ndarray, centroids: np.ndarray
) -> Tuple[np.ndarray, float]:
    k, d = centroids.shape
    new_centroids = centroids.copy()
    sums = np.zeros((k, d), dtype=np.float64)
    counts = np.zeros(k, dtype=np.int64)
    for i in range(len(data)):
        sums[labels[i]] += data[i]
        counts[labels[i]] += 1
    shift = 0.0
    for j in range(k):
        if counts[j]:
            candidate = sums[j] / counts[j]
            shift = max(shift, float(np.sum((candidate - centroids[j]) ** 2)))
            new_centroids[j] = candidate
    return new_centroids, shift


def _lloyd(
    data: np.ndarray,
    centroids: np.ndarray,
    max_iterations: int,
    tolerance: float,
) -> KMeansResult:
    labels = np.zeros(len(data), dtype=np.int64)
    history = []
    for _ in range(max_iterations):
        new_labels, distances = assign_points(data, centroids)
        history.append(float(np.sum(distances)))
        moved = not np.array_equal(new_labels, labels)
        labels = new_labels
        centroids, shift = _update_centroids(data, labels, centroids)
        if not moved and shift <= tolerance:
            break
    labels, distances = assign_points(data, centroids)
    inertia = float(np.sum(distances))
    history.append(inertia)
    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        inertia_history=tuple(history),
    )


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int = 0,
    n_seeds: int = 5,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> KMeansResult:
    """Best-of-*n_seeds* k-means++ / Lloyd clustering, looped."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or len(data) == 0:
        raise ClusteringError("kmeans expects a non-empty 2-D array")
    if k <= 0:
        raise ClusteringError("k must be positive")
    if n_seeds <= 0:
        raise ClusteringError("n_seeds must be positive")
    k = min(k, len(data))

    best: KMeansResult | None = None
    for attempt in range(n_seeds):
        rng = np.random.default_rng(seed + attempt * 7919)
        centroids = _kmeanspp_init(data, k, rng)
        result = _lloyd(data, centroids, max_iterations, tolerance)
        if best is None or result.inertia < best.inertia:
            best = result
    assert best is not None
    return best


# ----------------------------------------------------------------------
# BIC

def bic_score(data: np.ndarray, result: KMeansResult) -> float:
    """BIC of *result*, one log-likelihood term per non-empty cluster."""
    data = np.asarray(data, dtype=np.float64)
    n, d = data.shape
    k = result.k
    if n == 0:
        raise ClusteringError("BIC of an empty data set")
    if n <= k:
        return -math.inf

    variance = max(result.inertia / (d * (n - k)), _VARIANCE_FLOOR)
    log_norm = np.log(2.0 * np.pi * variance)
    sizes = result.cluster_sizes()
    terms = []
    for size in sizes:
        if size <= 0:
            continue
        n_j = np.float64(size)
        terms.append(
            n_j * np.log(n_j / n) - n_j * d / 2.0 * log_norm
            - (n_j - 1.0) * d / 2.0
        )
    log_likelihood = float(np.sum(np.array(terms, dtype=np.float64)))
    n_parameters = k * (d + 1)
    return log_likelihood - n_parameters / 2.0 * math.log(n)


def cluster_with_bic(
    data: np.ndarray,
    kmax: int,
    seed: int = 0,
    n_seeds: int = 5,
    threshold: float = 0.9,
    ks: Sequence[int] | None = None,
) -> Tuple[KMeansResult, Dict[int, float]]:
    """The BIC k-sweep over the reference :func:`kmeans`."""
    data = np.asarray(data, dtype=np.float64)
    if kmax <= 0:
        raise ClusteringError("kmax must be positive")
    candidates = list(ks) if ks is not None else list(range(1, kmax + 1))
    candidates = sorted({min(k, len(data)) for k in candidates if k >= 1})
    if not candidates:
        raise ClusteringError("no candidate k values")

    results: Dict[int, KMeansResult] = {}
    scores: Dict[int, float] = {}
    for k in candidates:
        result = kmeans(data, k, seed=seed, n_seeds=n_seeds)
        results[k] = result
        scores[k] = bic_score(data, result)
    chosen = select_k(scores, threshold=threshold)
    return results[chosen], scores


# ----------------------------------------------------------------------
# BBVs and projection

def normalize_rows(data: np.ndarray) -> np.ndarray:
    """Scale each row to sum to 1 (rows of zeros stay zero), row by row."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ClusteringError("expected a 2-D array of BBVs")
    out = np.empty_like(data)
    for i in range(len(data)):
        total = np.sum(data[i])
        out[i] = data[i] / (total if total != 0.0 else 1.0)
    return out


def project(projection: RandomProjection, data: np.ndarray) -> np.ndarray:
    """:meth:`RandomProjection.project`, one ``np.sum`` per output cell.

    Takes the projection first, so it also serves as a drop-in method.
    """
    data = np.asarray(data, dtype=np.float64)
    squeeze = data.ndim == 1
    if squeeze:
        data = data[None, :]
    if data.shape[1] != projection.n_features:
        raise ClusteringError(
            f"projection expects {projection.n_features} features, got "
            f"{data.shape[1]}"
        )
    out = np.empty((len(data), projection.dim), dtype=np.float64)
    for i in range(len(data)):
        for j in range(projection.dim):
            out[i, j] = np.sum(data[i] * projection.matrix[:, j])
    return out[0] if squeeze else out


def project_bbvs(bbvs: np.ndarray, dim: int, seed: int = 0) -> np.ndarray:
    """Normalise then randomly project raw BBVs to *dim* dimensions."""
    bbvs = normalize_rows(bbvs)
    return project(RandomProjection(bbvs.shape[1], dim, seed=seed), bbvs)


def concat_signatures(
    segment_bbvs: np.ndarray, dim: int, seed: int = 0
) -> np.ndarray:
    """COASTS signature vectors from per-sub-chunk BBVs."""
    segment_bbvs = np.asarray(segment_bbvs, dtype=np.float64)
    if segment_bbvs.ndim != 3:
        raise ClusteringError("segment_bbvs must be (instances, segments, blocks)")
    n_instances, n_segments, n_blocks = segment_bbvs.shape
    projection = RandomProjection(n_blocks, dim, seed=seed)
    flat = segment_bbvs.reshape(n_instances * n_segments, n_blocks)
    flat = normalize_rows(flat)
    projected = project(projection, flat)
    signatures = projected.reshape(n_instances, n_segments * dim)
    return normalize_rows(signatures)


# ----------------------------------------------------------------------
#: The production kernels :func:`install` replaces, by name.
KERNELS = (
    "assign_points",
    "bic_score",
    "cluster_with_bic",
    "concat_signatures",
    "earliest_member",
    "kmeans",
    "nearest_to_centroid",
    "normalize_rows",
    "project_bbvs",
    "squared_distances",
)


def install(swap) -> None:
    """Swap every production analysis kernel for its reference loop.

    *swap* is a :class:`tests.reference.Swap`; the calls it counts are
    keyed by kernel name, plus ``RandomProjection.project``.
    """
    import repro.analysis as production

    for name in KERNELS:
        swap.function(getattr(production, name), globals()[name])
    swap.method(RandomProjection, "project", project)

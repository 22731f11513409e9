"""k-means clustering (k-means++ initialisation, Lloyd iterations).

A from-scratch implementation so the library has no dependency beyond numpy;
SimPoint's phase classification is plain Euclidean k-means over projected
BBVs, run for several random seeds per k with the best inertia kept.

The unit of work is the BIC sweep (:func:`kmeans_sweep`): each seed's
random stream is drawn once, seeding ``max(ks)`` centres, and every k
starts Lloyd from the first k of them.  k-means++ is sequential and draws
the same stream whatever k is, so those k centres are bit for bit the
ones a k-only seeding picks, and the sweep equals running
:func:`kmeans` per k — which is the sweep's one-k case.

Both hot kernels — the k-means++ seeding and the Lloyd iteration — are
batched, and bit-identical on labels, centroids and inertia to the
per-point loops in ``tests/reference/analysis.py``, drawing the same
random stream: they only use reductions whose rounding matches the loops
(innermost-axis pairwise sums, index-order ``np.bincount``
accumulation).  The assignment step's BLAS product only shortlists
candidate centres under a proven rounding bound; near ties are re-decided
and every distance recomputed exactly
(:func:`~repro.analysis.distance.assign_points`), so BLAS never changes a
bit.  ``tests/test_vectorized.py`` pins this across a seed x shape matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Tuple

import numpy as np

from ..errors import ClusteringError
from .distance import assign_points


@dataclass(frozen=True)
class KMeansResult:
    """One clustering: centroids, per-point labels, and total inertia."""

    centroids: np.ndarray  # (k, d)
    labels: np.ndarray     # (n,)
    inertia: float
    #: Assignment-step inertia per Lloyd iteration (final refresh last).
    #: Exactly non-increasing step-to-step up to centroid-update rounding;
    #: the property tests pin this.
    inertia_history: Tuple[float, ...] = field(default=(), compare=False)

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.centroids)

    @property
    def n_iterations(self) -> int:
        """Lloyd iterations executed (0 for an empty history)."""
        return max(0, len(self.inertia_history) - 1)

    def cluster_sizes(self) -> np.ndarray:
        """Points per cluster."""
        return np.bincount(self.labels, minlength=self.k)


@dataclass(frozen=True)
class ClusterQuality:
    """Per-cluster quality statistics of one clustering.

    The SimPoint-style predictors of sampling error: how tight each
    cluster is (intra-cluster variance), how well separated it is from
    the others (simplified, centroid-based silhouette — distances to
    centroids instead of all-pairs member distances, so it stays O(n·k)),
    and how far each member sits from its own centroid (used to flag
    representatives that are poor stand-ins for their phase).
    """

    sizes: np.ndarray              # (k,) members per cluster
    variances: np.ndarray          # (k,) mean squared member->centroid dist
    silhouettes: np.ndarray        # (k,) mean member silhouette (0 if k == 1)
    member_distances: np.ndarray   # (n,) Euclidean dist to own centroid
    member_silhouettes: np.ndarray  # (n,) simplified silhouette per member

    @property
    def k(self) -> int:
        """Number of clusters."""
        return len(self.sizes)

    @property
    def mean_silhouette(self) -> float:
        """Whole-clustering mean silhouette."""
        return float(self.member_silhouettes.mean())


def cluster_quality(data: np.ndarray, result: KMeansResult) -> ClusterQuality:
    """Quality statistics of *result* on *data*.

    *data* must be the points the labels refer to (``result.labels``
    indexes its rows).  The simplified silhouette of point ``i`` is
    ``(b_i - a_i) / max(a_i, b_i)`` with ``a_i`` the distance to its own
    centroid and ``b_i`` the distance to the nearest other centroid;
    with a single cluster every silhouette is 0 by convention.
    """
    from .distance import squared_distances

    data = np.asarray(data, dtype=np.float64)
    labels = result.labels
    if len(data) != len(labels):
        raise ClusteringError(
            f"data rows ({len(data)}) do not match labels ({len(labels)})"
        )
    k = result.k
    squared = squared_distances(data, result.centroids)
    own_sq = squared[np.arange(len(data)), labels]
    member_distances = np.sqrt(own_sq)

    sizes = np.bincount(labels, minlength=k)
    variances = np.zeros(k, dtype=np.float64)
    np.add.at(variances, labels, own_sq)
    occupied = sizes > 0
    variances[occupied] /= sizes[occupied]

    if k == 1:
        member_silhouettes = np.zeros(len(data), dtype=np.float64)
    else:
        others = np.sqrt(squared)
        others[np.arange(len(data)), labels] = np.inf
        nearest_other = others.min(axis=1)
        denominator = np.maximum(member_distances, nearest_other)
        member_silhouettes = np.where(
            denominator > 0,
            (nearest_other - member_distances)
            / np.where(denominator > 0, denominator, 1.0),
            0.0,
        )
    silhouettes = np.zeros(k, dtype=np.float64)
    np.add.at(silhouettes, labels, member_silhouettes)
    silhouettes[occupied] /= sizes[occupied]
    return ClusterQuality(
        sizes=sizes,
        variances=variances,
        silhouettes=silhouettes,
        member_distances=member_distances,
        member_silhouettes=member_silhouettes,
    )


def _point_distances(data: np.ndarray, center: np.ndarray) -> np.ndarray:
    """Squared distance of every row of *data* to one *center*."""
    return ((data - center) ** 2).sum(axis=1)


def _kmeanspp_init(
    data: np.ndarray, k: int, rng: np.random.Generator
) -> np.ndarray:
    """k-means++ seeding of *k* centres.

    The seeding probabilities are bit-identical to a per-point loop's,
    so the draws from *rng*, and hence the chosen seeds, match it too.
    Each centre depends only on the ones before it and the draws so
    far, so the first j rows of a k-centre seeding are exactly a
    j-centre seeding from the same stream (j <= k); when every point
    already coincides with a centre (``total <= 0``) one draw fills all
    remaining rows, which keeps that prefix property too.
    """
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
        np.minimum(closest, distance, out=closest)
    return centroids


def _update_centroids(
    data: np.ndarray, labels: np.ndarray, centroids: np.ndarray
) -> Tuple[np.ndarray, float]:
    """One Lloyd update: member means (empty clusters keep their centroid).

    Returns ``(new_centroids, shift)`` with *shift* the largest squared
    centroid movement.  Member sums come from one weighted
    ``np.bincount`` over the flattened ``(label, dim)`` cells; bincount
    adds each cell's entries in index order, which is point order,
    exactly as a per-point loop adds them, so the means — and
    everything downstream — are bit-identical to it.
    """
    k, d = centroids.shape
    new_centroids = centroids.copy()
    cells = (labels[:, None] * d + np.arange(d)).ravel()
    sums = np.bincount(
        cells, weights=data.ravel(), minlength=k * d
    ).reshape(k, d)
    counts = np.bincount(labels, minlength=k)
    occupied = counts > 0
    new_centroids[occupied] = sums[occupied] / counts[occupied, None]
    moves = ((new_centroids - centroids) ** 2).sum(axis=1)
    return new_centroids, float(moves.max(initial=0.0))


def _lloyd(
    data: np.ndarray,
    centroids: np.ndarray,
    max_iterations: int,
    tolerance: float,
) -> KMeansResult:
    """Lloyd iterations from the given initial centroids."""
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
    # Final refresh against the converged centroids, so the reported
    # labels/inertia are consistent with the reported centroids even
    # when the loop stopped at max_iterations.
    labels, distances = assign_points(data, centroids)
    inertia = float(np.sum(distances))
    history.append(inertia)
    return KMeansResult(
        centroids=centroids,
        labels=labels,
        inertia=inertia,
        inertia_history=tuple(history),
    )


def kmeans_sweep(
    data: np.ndarray,
    ks: Iterable[int],
    seed: int = 0,
    n_seeds: int = 5,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> Dict[int, KMeansResult]:
    """Cluster *data* for every k in *ks*, best of *n_seeds* runs each.

    Returns the kept clustering per k, keyed by k after clamping to the
    number of points.  Seed ``attempt`` draws from
    ``default_rng(seed + attempt * 7919)`` once, seeding ``max(ks)``
    centres; each k runs Lloyd from the first k of them, which are the
    centres a k-only seeding of that stream would pick.
    """
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2 or len(data) == 0:
        raise ClusteringError("kmeans expects a non-empty 2-D array")
    ks = list(ks)
    if not ks:
        raise ClusteringError("no k values to cluster for")
    if min(ks) <= 0:
        raise ClusteringError("k must be positive")
    if n_seeds <= 0:
        raise ClusteringError("n_seeds must be positive")
    ks = sorted({min(k, len(data)) for k in ks})

    best: Dict[int, KMeansResult] = {}
    for attempt in range(n_seeds):
        rng = np.random.default_rng(seed + attempt * 7919)
        seeding = _kmeanspp_init(data, ks[-1], rng)
        for k in ks:
            result = _lloyd(data, seeding[:k], max_iterations, tolerance)
            kept = best.get(k)
            if kept is None or result.inertia < kept.inertia:
                best[k] = result
    return best


def kmeans(
    data: np.ndarray,
    k: int,
    seed: int = 0,
    n_seeds: int = 5,
    max_iterations: int = 100,
    tolerance: float = 1e-10,
) -> KMeansResult:
    """Cluster *data* into *k* clusters, keeping the best of *n_seeds* runs.

    ``k`` is clamped to the number of points available.  This is the
    one-k case of :func:`kmeans_sweep`.
    """
    (result,) = kmeans_sweep(
        data, [k], seed=seed, n_seeds=n_seeds,
        max_iterations=max_iterations, tolerance=tolerance,
    ).values()
    return result

"""Distance kernels shared by clustering and representative selection.

Every kernel is batched and bit-identical to the per-point loop it
replaced, which ``tests/reference/analysis.py`` keeps as the oracle for
the differential tests in ``tests/test_vectorized.py`` and
``tests/test_assign_near_ties.py``.

Every distance a kernel *returns* comes from
``((x - c) ** 2).sum(axis=-1)`` — an innermost-axis pairwise reduction
that rounds exactly like a per-pair ``np.sum``.  The classic
``||x||^2 - 2 x.c + ||c||^2`` expansion is not reproducible that way
(its ``x @ c.T`` term rounds in whatever order the BLAS call chooses),
so :func:`assign_points` uses it only to *shortlist* centres: its
rounding error has a proven bound, every centre that could be a row's
exact nearest survives the shortlist, and rows left with more than one
candidate are decided by the exact kernel.  Large batches are processed
in row blocks to bound the broadcast temporary; blocking never changes a
per-row reduction, so results are independent of the block size.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..errors import ClusteringError

#: Upper bound on the (rows x centers x dims) broadcast temporary, in
#: float64 elements (~32 MiB).  Purely a memory knob: results are
#: identical for any positive value.
_BLOCK_ELEMENTS = 4 * 1024 * 1024


def _check_pair(data: np.ndarray, centers: np.ndarray) -> None:
    if data.ndim != 2 or centers.ndim != 2 or data.shape[1] != centers.shape[1]:
        raise ClusteringError("dimension mismatch in distance kernel")


def _row_block(n_centers: int, n_dims: int) -> int:
    return max(1, _BLOCK_ELEMENTS // max(1, n_centers * n_dims))


def squared_distances(data: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances: (n, d) x (k, d) -> (n, k)."""
    data = np.asarray(data, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    _check_pair(data, centers)
    n, k = len(data), len(centers)
    out = np.empty((n, k), dtype=np.float64)
    block = _row_block(k, data.shape[1])
    for lo in range(0, n, block):
        hi = min(lo + block, n)
        delta = data[lo:hi, None, :] - centers[None, :, :]
        out[lo:hi] = (delta ** 2).sum(axis=2)
    return out


def assign_points(
    data: np.ndarray, centers: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Fused distance/assignment: nearest center per point.

    Returns ``(labels, distances)`` where ``labels[i]`` is the index of
    the closest center (first on ties, like ``np.argmin``) and
    ``distances[i]`` the squared distance to it.  This is the inner
    kernel of every Lloyd iteration.

    The kernel shortlists each row's candidate centres with the
    BLAS expansion (:func:`_expansion_margin`): a centre whose lower
    bound exceeds the row's smallest upper bound cannot be nearest.  A
    row with one candidate takes it; the few near-tie rows with several
    are decided by the exact kernel over their candidates only, and
    every returned distance is recomputed exactly — so labels (ties
    included) and distances are bit-identical to a per-pair loop.
    """
    data = np.asarray(data, dtype=np.float64)
    centers = np.asarray(centers, dtype=np.float64)
    _check_pair(data, centers)
    n, k = len(data), len(centers)
    labels = np.empty(n, dtype=np.int64)
    best = np.empty(n, dtype=np.float64)
    if n == 0:
        return labels, best
    margin = _expansion_margin(data, centers)
    if margin is None:
        # Non-finite or huge inputs: the bound does not apply, so every
        # row takes the exact broadcast kernel.
        shortlist = np.ones((n, k), dtype=bool)
    else:
        expansion, bound = margin
        upper = (expansion + bound).min(axis=1)
        shortlist = expansion - bound <= upper[:, None]
    # A row with one candidate has a strict unique minimum; argmax finds
    # the first True, which is that candidate.
    labels[:] = shortlist.argmax(axis=1)
    recheck = np.flatnonzero(shortlist.sum(axis=1) > 1)
    if len(recheck):
        labels[recheck] = _recheck(data, centers, recheck, shortlist)
    best[:] = ((data - centers[labels]) ** 2).sum(axis=1)
    return labels, best


#: Unit roundoff of float64 (2**-53).
_UNIT_ROUNDOFF = np.finfo(np.float64).eps / 2


def _expansion_margin(
    data: np.ndarray, centers: np.ndarray
) -> Optional[Tuple[np.ndarray, np.ndarray]]:
    """The BLAS expansion of the squared distances and its error margin.

    Returns ``(E, B)`` with ``E[i, j] = ||x_i||^2 - 2 x_i.c_j + ||c_j||^2``
    evaluated in float64 and ``B[i, j]`` a bound on ``|E[i, j] - D[i, j]|``,
    where ``D`` is what the exact kernel (``np.sum((x - c) ** 2)``)
    returns.  ``None`` when the inputs are not finite or so large that
    the bound itself overflows.

    The bound, with ``u = 2**-53``, ``gamma_m = m u / (1 - m u)``,
    ``T = ||x - c||^2`` and ``S = (||x|| + ||c||)^2 >= T`` (Higham,
    *Accuracy and Stability of Numerical Algorithms*, ch. 3):

    * ``D = T (1 + t)`` with ``|t| <= gamma_{d+2}``: one rounding in the
      difference, one in the square, and a sum of ``d`` non-negative
      terms, whose relative error is ``gamma_{d-1}`` in *any* order;
    * ``fl(x.c)`` is within ``gamma_d sum|x_t c_t| <= gamma_d ||x|| ||c||``
      of ``x.c`` in any summation order, with or without FMA — so for
      any BLAS blocking and thread count; each squared norm is within
      ``gamma_d`` relative; the two final additions add at most
      ``2 u (1 + u)(1 + gamma_d) S``; altogether ``|E - T| <=
      gamma_{d+2} S``;
    * hence ``|E - D| <= gamma_{d+2} (S + T) <= 4 gamma_{d+2}
      (||x||^2 + ||c||^2)``.

    ``B = 16 (d + 2) u (nx + nc + tiny)``, with ``nx``, ``nc`` the
    computed squared norms, is at least twice that: the slack covers the
    computed norms' own error, the roundings in forming ``B`` and
    ``E +/- B``, and (through ``tiny``, the smallest normal float)
    absolute errors from gradual underflow.
    """
    d = data.shape[1]
    data_norms = (data * data).sum(axis=1)
    center_norms = (centers * centers).sum(axis=1)
    bound = data_norms[:, None] + center_norms[None, :]
    bound += np.finfo(np.float64).tiny
    bound *= 16.0 * (d + 2) * _UNIT_ROUNDOFF
    if not np.isfinite(bound).all():
        return None
    expansion = data_norms[:, None] - 2.0 * (data @ centers.T)
    expansion += center_norms[None, :]
    return expansion, bound


def _recheck(
    data: np.ndarray,
    centers: np.ndarray,
    rows: np.ndarray,
    shortlist: np.ndarray,
) -> np.ndarray:
    """Exact first-on-ties nearest centre of each of *rows*.

    Only the shortlisted (row, centre) pairs are evaluated, with the
    exact kernel; the others cannot hold a row's minimum, so masking
    them to ``inf`` leaves ``np.argmin``'s first-minimum tie-break — and
    hence the per-pair loop's label — intact.
    """
    labels = np.empty(len(rows), dtype=np.int64)
    block = _row_block(centers.shape[0], data.shape[1])
    for lo in range(0, len(rows), block):
        chunk = shortlist[rows[lo:lo + block]]
        pair_rows, pair_centers = np.nonzero(chunk)
        exact = np.full(chunk.shape, np.inf)
        delta = data[rows[lo:lo + block]][pair_rows] - centers[pair_centers]
        exact[pair_rows, pair_centers] = (delta ** 2).sum(axis=1)
        labels[lo:lo + block] = np.argmin(exact, axis=1)
    return labels


def nearest_to_centroid(
    data: np.ndarray,
    labels: np.ndarray,
    centroids: np.ndarray,
) -> np.ndarray:
    """Index of the member closest to each centroid (SimPoint's pick).

    Returns an array of length k; entries for empty clusters are -1.
    """
    data = np.asarray(data, dtype=np.float64)
    labels = np.asarray(labels)
    k = len(centroids)
    picks = np.full(k, -1, dtype=np.int64)
    distances = squared_distances(data, centroids)
    # Mask out non-members, then one argmin per column.  np.argmin takes
    # the first minimum, i.e. the lowest member index — the same
    # tie-break as a per-member scan.
    member = labels[:, None] == np.arange(k)[None, :]
    masked = np.where(member, distances, np.inf)
    candidates = np.argmin(masked, axis=0)
    occupied = member.any(axis=0)
    picks[occupied] = candidates[occupied]
    return picks


def earliest_member(labels: np.ndarray, k: int) -> np.ndarray:
    """Index of the earliest member of each cluster (COASTS's pick)."""
    labels = np.asarray(labels)
    picks = np.full(k, -1, dtype=np.int64)
    if len(labels):
        valid = (labels >= 0) & (labels < k)
        first = np.full(k, len(labels), dtype=np.int64)
        np.minimum.at(first, labels[valid], np.flatnonzero(valid))
        found = first < len(labels)
        picks[found] = first[found]
    return picks

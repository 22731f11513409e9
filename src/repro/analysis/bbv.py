"""Basic-block-vector utilities.

A BBV is the per-interval histogram of instructions executed in each static
basic block.  Before clustering, BBVs are normalised so each row sums to one
(the paper: "normalized by having each element divided by the sum of all
elements in the vector").  COASTS builds each coarse interval's *signature*
by projecting the BBVs of its temporal sub-chunks and concatenating them.

Every function is batched and bit-identical to the row loops in
``tests/reference/analysis.py``, so a whole signature build can be
differentially tested end-to-end.
"""

from __future__ import annotations

import numpy as np

from ..errors import ClusteringError
from .projection import RandomProjection


def normalize_rows(data: np.ndarray) -> np.ndarray:
    """Scale each row of *data* to sum to 1 (rows of zeros stay zero)."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim != 2:
        raise ClusteringError("expected a 2-D array of BBVs")
    sums = data.sum(axis=1, keepdims=True)
    safe = np.where(sums == 0.0, 1.0, sums)
    return data / safe


def project_bbvs(bbvs: np.ndarray, dim: int, seed: int = 0) -> np.ndarray:
    """Normalise then randomly project raw BBVs to *dim* dimensions."""
    bbvs = normalize_rows(bbvs)
    projection = RandomProjection(bbvs.shape[1], dim, seed=seed)
    return projection.project(bbvs)


def concat_signatures(
    segment_bbvs: np.ndarray,
    dim: int,
    seed: int = 0,
) -> np.ndarray:
    """Build COASTS signature vectors from per-sub-chunk BBVs.

    *segment_bbvs* has shape ``(n_instances, n_segments, n_blocks)``.  Each
    sub-chunk BBV is projected to *dim* dimensions; an instance's signature
    is the concatenation of its sub-chunk projections, normalised to sum 1.
    Result shape: ``(n_instances, n_segments * dim)``.
    """
    segment_bbvs = np.asarray(segment_bbvs, dtype=np.float64)
    if segment_bbvs.ndim != 3:
        raise ClusteringError("segment_bbvs must be (instances, segments, blocks)")
    n_instances, n_segments, n_blocks = segment_bbvs.shape
    projection = RandomProjection(n_blocks, dim, seed=seed)
    flat = segment_bbvs.reshape(n_instances * n_segments, n_blocks)
    flat = normalize_rows(flat)
    projected = projection.project(flat)
    signatures = projected.reshape(n_instances, n_segments * dim)
    return normalize_rows(signatures)

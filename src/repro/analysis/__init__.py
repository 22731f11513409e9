"""Phase-analysis primitives: BBVs, projection, PCA, k-means, BIC.

The hot kernels are batched numpy and bit-identical to the per-point
loops kept in ``tests/reference/analysis.py``: they use only operations
whose per-element rounding matches a loop (elementwise arithmetic,
innermost-axis pairwise sums, index-order ``np.add.at`` /
``np.bincount`` accumulation), and the one BLAS product, in
:func:`~repro.analysis.distance.assign_points`, only shortlists
candidates under a proven rounding bound.
"""

from .bbv import concat_signatures, normalize_rows, project_bbvs
from .bic import bic_score, cluster_with_bic, select_k
from .distance import (
    assign_points,
    earliest_member,
    nearest_to_centroid,
    squared_distances,
)
from .kmeans import KMeansResult, kmeans
from .metrics import (
    METRIC_KINDS,
    loop_frequency_matrix,
    metric_matrix,
    working_set_matrix,
)
from .pca import PCA, first_component
from .projection import RandomProjection

__all__ = [
    "KMeansResult",
    "METRIC_KINDS",
    "PCA",
    "RandomProjection",
    "assign_points",
    "bic_score",
    "cluster_with_bic",
    "concat_signatures",
    "earliest_member",
    "first_component",
    "kmeans",
    "loop_frequency_matrix",
    "metric_matrix",
    "nearest_to_centroid",
    "normalize_rows",
    "project_bbvs",
    "select_k",
    "squared_distances",
    "working_set_matrix",
]

"""Kernel backend selection for the analysis layer.

Every hot analysis kernel — k-means++ seeding, Lloyd iteration, fused
distance/assignment, representative picking, BBV normalisation, random
projection and the BIC log-likelihood — exists in two implementations:

* ``vectorized`` (the default): batched numpy kernels, the production
  path;
* ``scalar``: straightforward per-point / per-cluster Python loops, the
  reference the vectorized kernels are differentially tested against.

The two are **bit-identical** by construction, not by luck: the
vectorized kernels only use numpy operations whose per-element rounding
provably matches the scalar loop —

* elementwise arithmetic (identical by definition);
* reductions over the innermost contiguous axis (``(...).sum(axis=-1)``),
  which apply numpy's pairwise summation per output element exactly as
  ``np.sum`` does on the equivalent 1-D slice;
* sequential indexed accumulation (``np.add.at`` / ``np.bincount``),
  which add entries in index order exactly as a Python loop does.

A BLAS-backed matrix product never yields a returned value: ``A @ B``
blocks and fuses its dot products (differently per thread count), so its
elements do not bit-match per-row ``np.dot``.  The one kernel that
calls BLAS, :func:`~repro.analysis.distance.assign_points`, uses it only
to *shortlist* candidate centres: the expansion's rounding error has a
proven bound valid for any summation order, near-tie rows are re-decided
by the exact broadcast kernel, and every returned distance is recomputed
exactly — so the labels still match the scalar loop bit for bit.  The
pairwise-compatible formulations are orders of magnitude faster than the
scalar loops (see ``repro bench``).

The active backend is process-global.  Select it with
:func:`set_backend`, temporarily with :func:`use_backend`, or for a
whole process via ``$REPRO_ANALYSIS_BACKEND``.
"""

from __future__ import annotations

from typing import Iterator, Optional

from ..backend import BACKENDS, BackendControl
from ..errors import ClusteringError

#: Environment variable overriding the default backend at import time.
BACKEND_ENV = "REPRO_ANALYSIS_BACKEND"

#: The analysis layer's process-global switch (module functions below
#: are the public API; the control object is shared with tests).
CONTROL = BackendControl(BACKEND_ENV, ClusteringError)


def get_backend() -> str:
    """The active kernel backend name."""
    return CONTROL.get()


def set_backend(name: str) -> str:
    """Select the kernel backend; returns the previously active one."""
    return CONTROL.set(name)


def resolve_backend(name: Optional[str]) -> str:
    """*name* itself if given (validated), else the active backend.

    The kernels call this on their ``backend=`` keyword so an explicit
    argument always wins over the process-global selection.
    """
    return CONTROL.resolve(name)


def use_backend(name: str) -> Iterator[str]:
    """Context manager: run a block under *name*, then restore."""
    return CONTROL.use(name)

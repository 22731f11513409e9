"""Adversarial near-tie differential tests for ``assign_points``.

The vectorized kernel shortlists centres with the BLAS expansion
``||x||^2 - 2 x.c + ||c||^2`` and re-checks near-tie rows with the exact
kernel.  The cases below are built so that the expansion alone gets
labels wrong — exact mirror-symmetric ties, duplicate and one-ulp-apart
centres, a large common offset that cancels catastrophically — and the
kernel must still match the reference loop in
``tests/reference/analysis.py`` byte for byte.

CI re-runs this file with a multithreaded BLAS, which sums the dot
products in a different order: the rounding bound must hold for both.
"""

import numpy as np
import pytest

from repro.analysis import assign_points, squared_distances
from repro.analysis import distance as distance_mod

from .reference import analysis as reference


def _mirror(d, offset=0.0, n=64, seed=0):
    """Points on the bisector of two mirror-image centres.

    The centres differ only in coordinate 0 (``m0 -/+ v``) and every
    point has ``x0 == m0``, so both exact distances are sums of the same
    squares: a bitwise tie the reference loop resolves to the first centre.
    """
    rng = np.random.default_rng(seed)
    middle = rng.random(d) + offset
    centers = np.stack([middle, middle])
    centers[0, 0] -= 0.25
    centers[1, 0] += 0.25
    data = rng.random((n, d)) + offset
    data[:, 0] = middle[0]
    return data, centers


def _duplicates(d, seed=1):
    """Centres 1 and 3 identical, centre 2 one ulp above centre 1."""
    rng = np.random.default_rng(seed)
    centers = rng.random((5, d))
    centers[3] = centers[1]
    centers[2] = np.nextafter(centers[1], np.inf)
    # Points at and around the duplicated centre.
    data = np.concatenate([
        np.repeat(centers[1:2], 4, axis=0),
        centers[1] + rng.normal(scale=1e-9, size=(40, d)),
        rng.random((20, d)),
    ])
    return data, centers


def _offset_cloud(d, offset=1e6, seed=2):
    """Well-separated clusters riding on a huge common offset."""
    rng = np.random.default_rng(seed)
    centers = rng.random((8, d)) + offset
    data = centers[rng.integers(0, 8, size=120)] \
        + rng.normal(scale=0.3, size=(120, d))
    return data, centers


CASES = {
    "mirror-d15": _mirror(15),
    "mirror-d60": _mirror(60),
    "mirror-offset-d15": _mirror(15, offset=1e6),
    "mirror-offset-d60": _mirror(60, offset=1e6),
    "duplicates-d15": _duplicates(15),
    "duplicates-d60": _duplicates(60),
    "offset-d15": _offset_cloud(15),
    "offset-d60": _offset_cloud(60),
    "k1": (np.random.default_rng(3).random((30, 15)),
           np.random.default_rng(4).random((1, 15))),
    "n1": (np.random.default_rng(5).random((1, 60)),
           np.random.default_rng(6).random((7, 60))),
    "n1-tie": _mirror(15, offset=1e6, n=1),
    # Large enough that a multithreaded BLAS splits the product.
    "large-offset-d60": (
        np.random.default_rng(7).random((3000, 60)) + 1e3,
        np.random.default_rng(8).random((30, 60)) + 1e3,
    ),
}


def _naive_labels(data, centers):
    expansion = (data * data).sum(axis=1)[:, None] \
        - 2.0 * (data @ centers.T) + (centers * centers).sum(axis=1)
    return np.argmin(expansion, axis=1)


@pytest.mark.parametrize("case", sorted(CASES))
def test_matches_scalar_bit_for_bit(case):
    data, centers = CASES[case]
    fast_labels, fast_best = assign_points(data, centers)
    slow_labels, slow_best = reference.assign_points(data, centers)
    assert np.array_equal(fast_labels, slow_labels)
    assert fast_best.tobytes() == slow_best.tobytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_expansion_within_proven_bound(case):
    data, centers = CASES[case]
    expansion, bound = distance_mod._expansion_margin(data, centers)
    exact = squared_distances(data, centers)
    assert np.all(np.abs(expansion - exact) <= bound)


def test_recheck_path_is_exercised(monkeypatch):
    rechecked = []
    recheck = distance_mod._recheck

    def spy(data, centers, rows, shortlist):
        rechecked.append(len(rows))
        return recheck(data, centers, rows, shortlist)

    monkeypatch.setattr(distance_mod, "_recheck", spy)
    for case in ("mirror-offset-d15", "duplicates-d60", "offset-d60"):
        data, centers = CASES[case]
        assign_points(data, centers)
    assert len(rechecked) == 3 and all(rows > 0 for rows in rechecked)


def test_ties_resolve_to_first_center():
    data, centers = CASES["mirror-d15"]
    labels, _ = assign_points(data, centers)
    assert np.all(labels == 0)
    data, centers = CASES["duplicates-d15"]
    labels, _ = assign_points(data[:4], centers)
    assert np.all(labels == 1)


def test_naive_expansion_would_fail():
    """The cases can catch a kernel that drops the exact re-check."""
    wrong = [
        case for case, (data, centers) in sorted(CASES.items())
        if not np.array_equal(
            _naive_labels(data, centers),
            reference.assign_points(data, centers)[0],
        )
    ]
    assert wrong


def test_non_finite_inputs_fall_back_to_exact():
    data = np.array([[0.0, 1.0], [np.nan, 0.0], [np.inf, 2.0]])
    centers = np.array([[0.0, 0.0], [1.0, 1.0]])
    fast = assign_points(data, centers)
    slow = reference.assign_points(data, centers)
    assert np.array_equal(fast[0], slow[0])
    assert fast[1].tobytes() == slow[1].tobytes()

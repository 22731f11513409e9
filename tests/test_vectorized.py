"""Differential tests: the analysis kernels against the reference loops.

The contract is **bit-identity**, not approximate equality: every
assertion here uses ``np.array_equal`` / ``==`` on floats.  The
production kernels are built exclusively from numpy operations whose
per-element rounding matches the loops in ``tests/reference/analysis.py``
(see :mod:`repro.analysis`), so any drift is a real kernel bug, not
tolerable noise.
"""

import numpy as np
import pytest

from repro.analysis import (
    assign_points,
    bic_score,
    cluster_with_bic,
    concat_signatures,
    earliest_member,
    kmeans,
    kmeans_sweep,
    nearest_to_centroid,
    normalize_rows,
    project_bbvs,
    squared_distances,
)
from repro.config import SamplingConfig
from repro.errors import ClusteringError
from repro.sampling.coasts import Coasts
from repro.sampling.multilevel import MultiLevelSampler

from .reference import Swap
from .reference import analysis as reference

#: (n points, dims, k) shapes covering the awkward corners: k > n,
#: a single point, a single cluster, and production-like sizes.
SHAPES = [
    (30, 5, 4),
    (100, 15, 8),
    (3, 2, 7),    # more clusters requested than points
    (1, 3, 1),    # single point
    (50, 4, 1),   # single cluster
]

SEEDS = [0, 1, 2]


def _dataset(n, d, seed):
    return np.random.default_rng(seed).random((n, d))


def _dataset_with_duplicates(n, d, seed):
    """Half the rows duplicated — exercises zero-distance seeding."""
    rng = np.random.default_rng(seed)
    base = rng.random((max(1, n // 2), d))
    data = np.concatenate([base, base])[:n]
    return data


class TestDistanceKernels:
    @pytest.mark.parametrize("n,d,k", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_squared_distances_bit_identical(self, n, d, k, seed):
        data = _dataset(n, d, seed)
        centers = _dataset(k, d, seed + 100)
        fast = squared_distances(data, centers)
        slow = reference.squared_distances(data, centers)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("n,d,k", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_assign_points_bit_identical(self, n, d, k, seed):
        data = _dataset(n, d, seed)
        centers = _dataset(k, d, seed + 100)
        fast_labels, fast_best = assign_points(data, centers)
        slow_labels, slow_best = reference.assign_points(data, centers)
        assert np.array_equal(fast_labels, slow_labels)
        assert np.array_equal(fast_best, slow_best)

    def test_assign_points_tie_break_matches_argmin(self):
        # Two identical centers: kernel and reference must pick the first.
        data = np.array([[0.5, 0.5], [1.0, 0.0]])
        centers = np.array([[0.5, 0.5], [0.5, 0.5]])
        for assign in (assign_points, reference.assign_points):
            labels, _ = assign(data, centers)
            assert np.array_equal(labels, [0, 0])

    @pytest.mark.parametrize("seed", SEEDS)
    def test_nearest_to_centroid_bit_identical(self, seed):
        data = _dataset(40, 6, seed)
        centroids = _dataset(5, 6, seed + 7)
        # Labels leave cluster 3 empty so the -1 branch is exercised.
        labels = np.random.default_rng(seed).integers(0, 3, size=40)
        fast = nearest_to_centroid(data, labels, centroids)
        slow = reference.nearest_to_centroid(data, labels, centroids)
        assert np.array_equal(fast, slow)
        assert fast[3] == -1 and fast[4] == -1

    @pytest.mark.parametrize("seed", SEEDS)
    def test_earliest_member_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        labels = rng.integers(-1, 6, size=50)  # includes invalid -1 labels
        fast = earliest_member(labels, 6)
        slow = reference.earliest_member(labels, 6)
        assert np.array_equal(fast, slow)

    def test_earliest_member_empty_labels(self):
        for earliest in (earliest_member, reference.earliest_member):
            picks = earliest(np.array([], dtype=np.int64), 3)
            assert np.array_equal(picks, [-1, -1, -1])

    def test_blocking_does_not_change_results(self, monkeypatch):
        # The row-block size is a pure memory knob; shrinking it to force
        # many blocks must not change a single bit.
        from repro.analysis import distance as distance_mod

        data = _dataset(64, 7, 3)
        centers = _dataset(5, 7, 4)
        whole = squared_distances(data, centers)
        monkeypatch.setattr(distance_mod, "_BLOCK_ELEMENTS", 16)
        blocked = squared_distances(data, centers)
        labels, best = assign_points(data, centers)
        assert np.array_equal(whole, blocked)
        assert np.array_equal(best, whole[np.arange(64), labels])

    def test_dimension_mismatch_rejected(self):
        for distances in (squared_distances, reference.squared_distances):
            with pytest.raises(ClusteringError):
                distances(np.zeros((3, 2)), np.zeros((2, 5)))


class TestKMeansDifferential:
    @pytest.mark.parametrize("n,d,k", SHAPES)
    @pytest.mark.parametrize("seed", SEEDS)
    def test_kmeans_bit_identical(self, n, d, k, seed):
        data = _dataset(n, d, seed)
        fast = kmeans(data, k, seed=seed, n_seeds=2)
        slow = reference.kmeans(data, k, seed=seed, n_seeds=2)
        assert np.array_equal(fast.labels, slow.labels)
        assert np.array_equal(fast.centroids, slow.centroids)
        assert fast.inertia == slow.inertia
        assert fast.inertia_history == slow.inertia_history

    @pytest.mark.parametrize("seed", SEEDS)
    def test_kmeans_on_duplicates_bit_identical(self, seed):
        data = _dataset_with_duplicates(24, 4, seed)
        fast = kmeans(data, 5, seed=seed, n_seeds=2)
        slow = reference.kmeans(data, 5, seed=seed, n_seeds=2)
        assert np.array_equal(fast.labels, slow.labels)
        assert np.array_equal(fast.centroids, slow.centroids)
        assert fast.inertia == slow.inertia

    def test_kmeans_all_identical_points(self):
        data = np.full((10, 3), 0.25)
        for cluster in (kmeans, reference.kmeans):
            result = cluster(data, 4, seed=0, n_seeds=1)
            assert result.inertia == 0.0
            assert not np.isnan(result.centroids).any()

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bic_scores_bit_identical(self, seed):
        data = _dataset(60, 5, seed)
        result = kmeans(data, 4, seed=seed, n_seeds=1)
        assert bic_score(data, result) == reference.bic_score(data, result)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_cluster_with_bic_bit_identical(self, seed):
        data = _dataset(50, 6, seed)
        fast, fast_scores = cluster_with_bic(data, kmax=5, seed=seed, n_seeds=2)
        slow, slow_scores = reference.cluster_with_bic(
            data, kmax=5, seed=seed, n_seeds=2
        )
        assert fast_scores == slow_scores
        assert fast.k == slow.k
        assert np.array_equal(fast.labels, slow.labels)
        assert np.array_equal(fast.centroids, slow.centroids)


def _few_distinct_rows(n, d, distinct, seed):
    """*n* rows repeating *distinct* different rows: a seeding of more
    than *distinct* centres runs out of positive-distance points and
    takes k-means++'s ``total <= 0`` branch."""
    rng = np.random.default_rng(seed)
    base = rng.random((distinct, d))
    return base[rng.integers(distinct, size=n)]


#: Sweeps whose k values share one seeding per stream:
#: (data, kmax, ks override, n_seeds).
SWEEP_CASES = {
    "gapped_ks": (_dataset(60, 5, 11), 30, [3, 17, 30], 2),
    "duplicate_rows": (_few_distinct_rows(40, 4, 6, 12), 12, None, 3),
    "n_below_kmax": (_dataset(7, 3, 13), 12, None, 2),
    "one_seed": (_dataset(45, 6, 14), 10, None, 1),
}


class TestSharedSeedingDifferential:
    """One k-means++ seeding per stream, shared by every k of a sweep,
    against the reference's fresh per-k seeding."""

    @staticmethod
    def _assert_same(fast, slow):
        assert np.array_equal(fast.labels, slow.labels)
        assert np.array_equal(fast.centroids, slow.centroids)
        assert fast.inertia == slow.inertia
        assert fast.inertia_history == slow.inertia_history

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_cluster_with_bic_bit_identical(self, case):
        data, kmax, ks, n_seeds = SWEEP_CASES[case]
        fast, fast_scores = cluster_with_bic(
            data, kmax=kmax, seed=5, n_seeds=n_seeds, ks=ks
        )
        slow, slow_scores = reference.cluster_with_bic(
            data, kmax=kmax, seed=5, n_seeds=n_seeds, ks=ks
        )
        assert fast_scores == slow_scores
        self._assert_same(fast, slow)

    @pytest.mark.parametrize("case", sorted(SWEEP_CASES))
    def test_every_k_matches_per_k_kmeans(self, case):
        data, kmax, ks, n_seeds = SWEEP_CASES[case]
        ks = ks or range(1, kmax + 1)
        sweep = kmeans_sweep(data, ks, seed=5, n_seeds=n_seeds)
        assert sorted(sweep) == sorted({min(k, len(data)) for k in ks})
        for k, fast in sweep.items():
            self._assert_same(
                fast, reference.kmeans(data, k, seed=5, n_seeds=n_seeds)
            )

    def test_duplicate_case_reaches_zero_total_branch(self):
        data, kmax, _, _ = SWEEP_CASES["duplicate_rows"]
        assert len(np.unique(data, axis=0)) < kmax


class TestSignatureDifferential:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_normalize_rows_bit_identical(self, seed):
        data = _dataset(20, 8, seed)
        data[3] = 0.0  # a zero row must stay zero on both paths
        fast = normalize_rows(data)
        slow = reference.normalize_rows(data)
        assert np.array_equal(fast, slow)
        assert np.array_equal(fast[3], np.zeros(8))

    @pytest.mark.parametrize("seed", SEEDS)
    def test_project_bbvs_bit_identical(self, seed):
        raw = _dataset(30, 64, seed)
        fast = project_bbvs(raw, 10, seed=seed)
        slow = reference.project_bbvs(raw, 10, seed=seed)
        assert np.array_equal(fast, slow)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_concat_signatures_bit_identical(self, seed):
        segments = _dataset(12, 4 * 32, seed).reshape(12, 4, 32)
        fast = concat_signatures(segments, dim=6, seed=seed)
        slow = reference.concat_signatures(segments, dim=6, seed=seed)
        assert fast.shape == (12, 24)
        assert np.array_equal(fast, slow)


class TestEndToEndPlanIdentity:
    """Whole sampling plans must not change when every analysis kernel
    is swapped for its reference loop."""

    @pytest.fixture(scope="class")
    def plan_sampling(self):
        return SamplingConfig(
            fine_interval_size=1000,
            fine_kmax=10,
            coarse_kmax=3,
            resample_threshold=3000,
            kmeans_seeds=2,
            warmup_instructions=2000,
        )

    def _plans(self, trace, sampling):
        coarse = Coasts(sampling).sample(trace, benchmark="gzip")
        multi = MultiLevelSampler(sampling).sample(
            trace, benchmark="gzip", coarse_plan=coarse
        )
        return coarse, multi

    def test_two_level_plans_identical(self, small_trace, plan_sampling,
                                       monkeypatch):
        fast_coarse, fast_multi = self._plans(small_trace, plan_sampling)
        swap = Swap(monkeypatch)
        reference.install(swap)
        slow_coarse, slow_multi = self._plans(small_trace, plan_sampling)
        # The references really ran: the COASTS signature build, its
        # BIC sweep (and the k-means and distance loops under it) and
        # the earliest-member pick all went through the oracle.
        for name in ("concat_signatures", "cluster_with_bic",
                     "earliest_member"):
            assert swap.calls[name] > 0, name
        assert fast_coarse.points == slow_coarse.points
        assert fast_multi.points == slow_multi.points
        assert fast_multi.n_clusters == slow_multi.n_clusters

"""Tests for k-means clustering and BIC model selection."""

import math

import numpy as np
import pytest

from repro.analysis import (
    bic_score,
    cluster_with_bic,
    kmeans,
    kmeans_sweep,
    select_k,
)
from repro.errors import ClusteringError


def blobs(centers, n_per, sigma=0.05, seed=0, dims=2):
    rng = np.random.default_rng(seed)
    data, labels = [], []
    for i, center in enumerate(centers):
        data.append(rng.normal(center, sigma, size=(n_per, dims)))
        labels.extend([i] * n_per)
    return np.vstack(data), np.array(labels)


class TestKMeans:
    def test_recovers_well_separated_clusters(self):
        data, truth = blobs([0.0, 5.0, 10.0], 40)
        result = kmeans(data, 3, seed=0)
        # same-partition check up to label permutation
        for cluster in range(3):
            members = result.labels[truth == cluster]
            assert len(set(members.tolist())) == 1

    def test_inertia_decreases_with_k(self):
        data, _ = blobs([0.0, 5.0], 50)
        inertia = [kmeans(data, k, seed=1).inertia for k in (1, 2, 4)]
        assert inertia[0] > inertia[1] >= inertia[2]

    def test_k_clamped_to_n(self):
        data = np.array([[0.0, 0.0], [1.0, 1.0]])
        result = kmeans(data, 10)
        assert result.k == 2

    def test_deterministic_for_seed(self):
        data, _ = blobs([0.0, 3.0], 30)
        a = kmeans(data, 2, seed=5)
        b = kmeans(data, 2, seed=5)
        assert np.array_equal(a.labels, b.labels)

    def test_cluster_sizes_sum_to_n(self):
        data, _ = blobs([0.0, 2.0, 8.0], 21)
        result = kmeans(data, 3, seed=2)
        assert result.cluster_sizes().sum() == len(data)

    def test_rejects_empty_data(self):
        with pytest.raises(ClusteringError):
            kmeans(np.zeros((0, 3)), 2)

    def test_rejects_bad_k(self):
        with pytest.raises(ClusteringError):
            kmeans(np.zeros((5, 2)), 0)

    @pytest.mark.parametrize("ks", [[], [3, 0, 2]])
    def test_sweep_rejects_bad_ks(self, ks):
        with pytest.raises(ClusteringError):
            kmeans_sweep(np.zeros((5, 2)), ks)


class TestBic:
    def test_bic_prefers_true_k(self):
        data, _ = blobs([0.0, 6.0, 12.0], 60, seed=4)
        scores = {}
        for k in range(1, 7):
            scores[k] = bic_score(data, kmeans(data, k, seed=0))
        best = max(scores, key=scores.get)
        assert best == 3

    def test_select_k_prefers_small_k_at_threshold(self):
        scores = {1: 0.0, 2: 89.0, 3: 100.0, 4: 100.5}
        # 90% of range = 90; smallest k above: 3
        assert select_k(scores, threshold=0.9) == 3
        # low threshold picks 2
        assert select_k(scores, threshold=0.5) == 2

    def test_select_k_all_infinite(self):
        assert select_k({1: -math.inf, 2: -math.inf}) == 1

    def test_cluster_with_bic_finds_structure(self):
        data, _ = blobs([0.0, 7.0], 50, seed=9)
        result, scores = cluster_with_bic(data, kmax=6, seed=0, n_seeds=2)
        assert result.k == 2
        assert set(scores) == {1, 2, 3, 4, 5, 6}

    def test_cluster_with_bic_single_blob(self):
        data, _ = blobs([1.0], 80, seed=3)
        result, _ = cluster_with_bic(data, kmax=5, seed=0, n_seeds=2)
        assert result.k <= 2

    def test_kmax_respected(self):
        data, _ = blobs([0.0, 3.0, 6.0, 9.0, 12.0, 15.0], 20, seed=1)
        result, scores = cluster_with_bic(data, kmax=3, seed=0, n_seeds=2)
        assert result.k <= 3
        assert max(scores) == 3

    def test_custom_candidate_list(self):
        data, _ = blobs([0.0, 5.0], 30)
        _, scores = cluster_with_bic(data, kmax=10, ks=[1, 2, 5])
        assert set(scores) == {1, 2, 5}

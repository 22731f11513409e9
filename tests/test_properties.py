"""Property-based tests (hypothesis) for core invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import kmeans, normalize_rows, select_k
from repro.analysis.bic import bic_score
from repro.config import CacheConfig
from repro.sampling.points import SamplingPlan, SimulationPoint
from repro.uarch import (
    Cache,
    OccupancyCache,
    advance_loop_branch,
    exit_loop_branch,
    stationary_mispredict_rate,
)
from repro.uarch.occupancy import visit_hit_rate


class TestBranchProperties:
    @given(state=st.integers(0, 3), takens=st.integers(0, 1000))
    def test_loop_branch_counter_stays_in_range(self, state, takens):
        new_state, mispredicts = advance_loop_branch(state, takens)
        assert 0 <= new_state <= 3
        assert 0 <= mispredicts <= min(takens, 2)

    @given(state=st.integers(0, 3))
    def test_exit_keeps_counter_in_range(self, state):
        new_state, mispredict = exit_loop_branch(state)
        assert 0 <= new_state <= 3
        assert mispredict in (0, 1)

    @given(p=st.floats(0.0, 1.0))
    def test_stationary_rate_bounded(self, p):
        rate = stationary_mispredict_rate(p)
        assert 0.0 <= rate <= 0.5 + 1e-9

    @given(p=st.floats(0.0, 0.5))
    def test_stationary_rate_symmetric(self, p):
        assert stationary_mispredict_rate(p) == pytest.approx(
            stationary_mispredict_rate(1.0 - p)
        )


class TestCacheProperties:
    @given(lines=st.lists(st.integers(0, 500), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_hits_plus_misses_equals_accesses(self, lines):
        cache = Cache(CacheConfig("t", 1024, 2, 32, 1))
        for line in lines:
            cache.access(line)
        assert cache.hits + cache.misses == cache.accesses == len(lines)

    @given(lines=st.lists(st.integers(0, 500), min_size=1, max_size=200))
    @settings(max_examples=50)
    def test_occupancy_never_exceeds_capacity(self, lines):
        cache = Cache(CacheConfig("t", 256, 2, 32, 1))
        for line in lines:
            cache.access(line)
        assert cache.resident_lines() <= cache.capacity_lines

    @given(
        installs=st.lists(
            st.tuples(st.integers(0, 5), st.floats(0.0, 500.0)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=50)
    def test_occupancy_model_capacity_invariant(self, installs):
        cache = OccupancyCache(CacheConfig("t", 64 * 32, 1, 32, 1))
        for region, lines in installs:
            cache.install(region, lines)
            assert cache.occupancy <= cache.capacity + 1e-6
            assert all(
                cache.residency(r) >= 0 for r, _ in installs
            )

    @given(
        resident=st.floats(0, 1000),
        footprint=st.floats(1, 1000),
        touches=st.floats(0, 5000),
        capacity=st.floats(1, 2000),
    )
    @settings(max_examples=200)
    def test_visit_hit_rate_is_probability(self, resident, footprint,
                                           touches, capacity):
        rate = visit_hit_rate(resident, footprint, touches, capacity)
        assert 0.0 <= rate <= 1.0


class TestClusteringProperties:
    @given(
        n=st.integers(3, 40),
        k=st.integers(1, 6),
        seed=st.integers(0, 5),
    )
    @settings(max_examples=25, deadline=None)
    def test_kmeans_partitions_data(self, n, k, seed):
        rng = np.random.default_rng(seed)
        data = rng.random((n, 3))
        result = kmeans(data, k, seed=seed, n_seeds=1)
        assert len(result.labels) == n
        assert result.cluster_sizes().sum() == n
        assert result.inertia >= 0
        assert result.k <= min(k, n)

    @given(
        rows=st.integers(1, 20),
        cols=st.integers(1, 10),
        seed=st.integers(0, 100),
    )
    @settings(max_examples=50)
    def test_normalize_rows_unit_mass(self, rows, cols, seed):
        data = np.random.default_rng(seed).random((rows, cols))
        normalized = normalize_rows(data)
        assert np.allclose(normalized.sum(axis=1), 1.0)

    @given(
        scores=st.dictionaries(
            st.integers(1, 20), st.floats(-1e6, 1e6), min_size=1, max_size=10
        ),
        threshold=st.floats(0.01, 1.0),
    )
    @settings(max_examples=100)
    def test_select_k_returns_candidate(self, scores, threshold):
        chosen = select_k(scores, threshold=threshold)
        assert chosen in scores

    def test_bic_decreases_with_overfit_k(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=(60, 3))
        score_small = bic_score(data, kmeans(data, 1, seed=0))
        score_large = bic_score(data, kmeans(data, 20, seed=0))
        assert score_small > score_large


class TestKMeansInvariants:
    """Lloyd-iteration invariants of the k-means kernels."""

    @given(
        n=st.integers(2, 50),
        d=st.integers(1, 8),
        k=st.integers(1, 8),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_labels_within_cluster_range(self, n, d, k, seed):
        data = np.random.default_rng(seed).random((n, d))
        result = kmeans(data, k, seed=seed, n_seeds=1)
        assert result.labels.min() >= 0
        assert result.labels.max() < result.k

    @given(
        n=st.integers(3, 60),
        d=st.integers(1, 6),
        k=st.integers(1, 6),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_inertia_monotone_non_increasing(self, n, d, k, seed):
        data = np.random.default_rng(seed).random((n, d))
        result = kmeans(data, k, seed=seed, n_seeds=1)
        history = result.inertia_history
        assert len(history) == result.n_iterations + 1
        assert history[-1] == result.inertia
        # Each assignment + update step can only lower the objective;
        # allow a whisker of slack for centroid-update rounding.
        for earlier, later in zip(history, history[1:]):
            assert later <= earlier * (1.0 + 1e-9) + 1e-12

    @given(
        n=st.integers(1, 60),
        k=st.integers(1, 10),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_cluster_sizes_partition_points(self, n, k, seed):
        data = np.random.default_rng(seed).random((n, 3))
        result = kmeans(data, k, seed=seed, n_seeds=1)
        sizes = result.cluster_sizes()
        assert sizes.sum() == n
        assert len(sizes) == result.k

    @given(
        n=st.integers(2, 30),
        distinct=st.integers(1, 3),
        k=st.integers(1, 8),
        seed=st.integers(0, 20),
    )
    @settings(max_examples=40, deadline=None)
    def test_degenerate_inputs_yield_finite_centroids(
            self, n, distinct, k, seed):
        # Fewer distinct points than clusters: k-means++ runs out of
        # positive-distance candidates and must still seed cleanly.
        rng = np.random.default_rng(seed)
        base = rng.random((distinct, 4))
        data = base[rng.integers(0, distinct, size=n)]
        result = kmeans(data, k, seed=seed, n_seeds=1)
        assert np.isfinite(result.centroids).all()
        assert np.isfinite(result.inertia)
        assert result.inertia >= 0.0

    def test_identical_points_zero_inertia(self):
        data = np.full((12, 5), 3.5)
        result = kmeans(data, 4, seed=0)
        assert result.inertia == 0.0
        assert not np.isnan(result.centroids).any()


class TestPlanProperties:
    @given(
        starts=st.lists(st.integers(0, 900), min_size=1, max_size=8,
                        unique=True),
        seed=st.integers(0, 10),
    )
    @settings(max_examples=50)
    def test_plan_accounting_invariants(self, starts, seed):
        rng = np.random.default_rng(seed)
        starts = sorted(starts)
        points = []
        raw = rng.random(len(starts)) + 0.05
        weights = raw / raw.sum()
        for i, s in enumerate(starts):
            points.append(
                SimulationPoint(
                    start=s * 100, end=s * 100 + 50,
                    weight=float(weights[i]), phase=i, interval_index=i,
                )
            )
        plan = SamplingPlan(
            method="prop", benchmark="b", points=tuple(points),
            total_instructions=100_000, n_clusters=len(points),
        )
        assert plan.detail_instructions == 50 * len(points)
        assert 0 <= plan.functional_fraction <= 1
        assert plan.functional_instructions + plan.detail_instructions == \
            plan.last_end
        assert 0 < plan.last_point_position <= 1

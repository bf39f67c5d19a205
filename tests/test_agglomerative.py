"""Tests for the agglomerative clustering used by the Golden Dictionary."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import agglomerative
from repro.core.agglomerative import (
    _heap_cluster_1d,
    agglomerative_cluster_1d,
    pairwise_agglomerative,
)

LINKAGES = st.sampled_from(["ward", "average"])


def _assert_same_as_heap(values, num_clusters, linkage):
    fast = agglomerative_cluster_1d(values, num_clusters, linkage)
    heap = _heap_cluster_1d(values, num_clusters, linkage)
    assert np.array_equal(fast.centroids, heap.centroids)
    assert np.array_equal(fast.sizes, heap.sizes)
    assert np.array_equal(fast.assignments, heap.assignments)


class TestValidation:
    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            agglomerative_cluster_1d([], 2)

    def test_too_many_clusters_rejected(self):
        with pytest.raises(ValueError):
            agglomerative_cluster_1d([1.0, 2.0], 3)

    def test_zero_clusters_rejected(self):
        with pytest.raises(ValueError):
            agglomerative_cluster_1d([1.0, 2.0], 0)

    def test_unknown_linkage_rejected(self):
        with pytest.raises(ValueError):
            agglomerative_cluster_1d([1.0, 2.0, 3.0], 2, linkage="single")

    def test_pairwise_large_input_rejected(self):
        with pytest.raises(ValueError):
            pairwise_agglomerative(np.zeros(3000), 2)


class TestBasicBehaviour:
    def test_single_cluster_is_mean(self):
        values = [1.0, 2.0, 3.0, 10.0]
        result = agglomerative_cluster_1d(values, 1)
        assert result.num_clusters == 1
        assert result.centroids[0] == pytest.approx(np.mean(values))
        assert result.sizes[0] == 4

    def test_n_clusters_equals_n_values(self):
        values = [3.0, 1.0, 2.0]
        result = agglomerative_cluster_1d(values, 3)
        assert np.allclose(result.centroids, [1.0, 2.0, 3.0])
        assert np.all(result.sizes == 1)

    def test_well_separated_groups_are_found(self):
        rng = np.random.default_rng(0)
        values = np.concatenate(
            [rng.normal(0, 0.05, 50), rng.normal(5, 0.05, 50), rng.normal(10, 0.05, 50)]
        )
        result = agglomerative_cluster_1d(values, 3)
        assert np.allclose(np.sort(result.centroids), [0, 5, 10], atol=0.2)
        assert np.all(result.sizes == 50)

    def test_centroids_sorted_ascending(self):
        rng = np.random.default_rng(1)
        result = agglomerative_cluster_1d(rng.normal(0, 1, 500), 8)
        assert np.all(np.diff(result.centroids) > 0)

    def test_sizes_sum_to_input_size(self):
        rng = np.random.default_rng(2)
        values = rng.normal(0, 1, 300)
        result = agglomerative_cluster_1d(values, 7)
        assert result.sizes.sum() == values.size

    def test_assignments_consistent_with_centroids(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0, 1, 200)
        result = agglomerative_cluster_1d(values, 5)
        for cluster in range(result.num_clusters):
            members = values[result.assignments == cluster]
            assert members.size == result.sizes[cluster]
            assert members.mean() == pytest.approx(result.centroids[cluster])

    def test_average_linkage_supported(self):
        rng = np.random.default_rng(4)
        values = rng.normal(0, 1, 400)
        result = agglomerative_cluster_1d(values, 6, linkage="average")
        assert result.num_clusters == 6
        assert np.all(np.diff(result.centroids) > 0)


class TestAgainstExactReference:
    def test_matches_pairwise_on_separated_data(self):
        rng = np.random.default_rng(5)
        values = np.concatenate([rng.normal(c, 0.1, 20) for c in (0.0, 3.0, 6.0, 9.0)])
        fast = agglomerative_cluster_1d(values, 4)
        exact = pairwise_agglomerative(values, 4)
        assert np.allclose(np.sort(fast.centroids), np.sort(exact.centroids), atol=1e-9)

    def test_ward_prefers_fine_clusters_in_dense_region(self):
        """Ward keeps the dense centre finely clustered and lumps the sparse tail."""
        rng = np.random.default_rng(6)
        values = np.abs(rng.normal(0, 1, 20000))
        result = agglomerative_cluster_1d(values, 8, linkage="ward")
        # The innermost centroid sits close to zero and the outermost absorbs
        # the tail (centroid around 2-3 sigma), mirroring the paper's Fig. 2.
        assert result.centroids[0] < 0.3
        assert 1.8 < result.centroids[-1] < 3.5
        # Cluster sizes shrink monotonically-ish towards the tail: the last
        # cluster is far smaller than the first.
        assert result.sizes[-1] < result.sizes[0]


class TestRoundsEqualHeap:
    """The vectorised rounds return exactly the greedy heap's clustering:
    equal centroids (bit for bit), sizes and assignments."""

    @settings(max_examples=150, deadline=None)
    @given(
        values=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
            min_size=1,
            max_size=120,
        ),
        linkage=LINKAGES,
        data=st.data(),
    )
    def test_arbitrary_floats(self, values, linkage, data):
        k = data.draw(st.integers(1, len(values)), label="num_clusters")
        _assert_same_as_heap(values, k, linkage)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 600),
        linkage=LINKAGES,
        data=st.data(),
    )
    def test_random_draws(self, seed, n, linkage, data):
        values = np.random.default_rng(seed).normal(0.0, 1.0, n)
        k = data.draw(st.integers(1, n), label="num_clusters")
        _assert_same_as_heap(values, k, linkage)

    @settings(max_examples=100, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(1, 400),
        decimals=st.integers(0, 2),
        linkage=LINKAGES,
        data=st.data(),
    )
    def test_duplicate_heavy_inputs(self, seed, n, decimals, linkage, data):
        values = np.round(np.random.default_rng(seed).normal(0.0, 1.0, n), decimals)
        k = data.draw(st.integers(1, n), label="num_clusters")
        _assert_same_as_heap(values, k, linkage)

    @settings(max_examples=100, deadline=None)
    @given(
        start=st.floats(-10, 10, allow_nan=False),
        step=st.sampled_from([1.0, 0.5, 0.1, 0.01, 3.0]),
        n=st.integers(1, 150),
        linkage=LINKAGES,
        data=st.data(),
    )
    def test_evenly_spaced_inputs(self, start, step, n, linkage, data):
        values = start + step * np.arange(n)
        k = data.draw(st.integers(1, n), label="num_clusters")
        _assert_same_as_heap(values, k, linkage)


class TestHeapFallback:
    """Inputs the rounds cannot certify go to the heap, whole."""

    @pytest.fixture
    def heap_calls(self, monkeypatch):
        calls = []

        def spy(values, num_clusters, linkage="ward"):
            calls.append(num_clusters)
            return _heap_cluster_1d(values, num_clusters, linkage)

        monkeypatch.setattr(agglomerative, "_heap_cluster_1d", spy)
        return calls

    def test_random_draw_stays_in_the_rounds(self, heap_calls):
        values = np.abs(np.random.default_rng(0).normal(0.0, 1.0, 5000))
        agglomerative_cluster_1d(values, 8)
        assert heap_calls == []

    def test_tie_at_the_cut_goes_to_the_heap(self, heap_calls):
        # Eight evenly spaced values: the four pairs merge at equal cost,
        # so a 6-cluster cut would have to pick two of four tied gaps.
        values = np.arange(8.0)
        result = agglomerative_cluster_1d(values, 6)
        assert heap_calls == [6]
        assert list(result.sizes) == [2, 2, 1, 1, 1, 1]

    def test_merged_mean_rounding_outside_its_parts_goes_to_the_heap(self, heap_calls):
        # (0.1 + 0.1 + 0.1) / 3 rounds above 0.1.
        agglomerative_cluster_1d([0.1, 0.1, 0.1, 5.0], 2)
        assert heap_calls == [2]

    def test_steadily_falling_costs_exhaust_the_round_budget(self, heap_calls):
        # Geometric spacing: each round merges only the leftmost pair.
        values = 1.01 ** np.arange(400)
        agglomerative_cluster_1d(values, 4)
        assert heap_calls == [4]

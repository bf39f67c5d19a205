"""Agglomerative clustering used to generate the Golden Dictionary.

The paper chooses agglomerative clustering (AC) over k-means because AC is
not sensitive to initial cluster selection (Section II-B), but notes that
running AC directly on million-value tensors is impractical because of its
O(n^2) memory and O(n^3) runtime.  Mokey therefore only runs AC once, on a
synthetic 50,000-sample N(0,1) distribution.  The paper generates its
Golden Dictionary with SciKit-Learn's agglomerative clustering, whose
default criterion is Ward linkage; Ward keeps the densely populated region
near the mean finely clustered and absorbs the sparse tail into wide
clusters, which is what gives the Golden Dictionary its shape (innermost
centroid near zero, outermost around 2.2 sigma).

Three implementations are provided:

* :func:`pairwise_agglomerative` — the textbook O(n^3) bottom-up algorithm
  supporting Ward and average linkage.  Small inputs only; a test oracle.
* :func:`_heap_cluster_1d` — the greedy one-merge-at-a-time algorithm for
  1-D data.  Clusters are contiguous ranges of the sorted input, so only
  adjacent pairs compete; a lazy heap always merges the cheapest one,
  breaking cost ties towards the leftmost pair.  Its output *defines* the
  1-D result.  It is the fallback described below and a test oracle, but
  it does one Python iteration per merge (~0.8 s for 50,000 values).
* :func:`agglomerative_cluster_1d` — the production path.  It reproduces
  the heap's output exactly, in NumPy rounds over the sorted values.

Each round computes the cost of every adjacent cluster pair at once, with
the heap's arithmetic (:func:`_linkage_distance`), and merges every pair
that is a local minimum of ``(cost, position)``: ``c[i] < c[i-1]`` and
``c[i] <= c[i+1]``, the heap's leftmost-first tie-break.  Rounds run until
one cluster is left, recording the cost at which each of the ``n - 1``
gaps between sorted values closes (its height).  The ``k``-cluster cut
keeps the ``k - 1`` highest gaps open, and each centroid is the mean of
its slice of the sorted values, as in the heap's result.

Why this is the heap's partition, bit for bit:

* Ward and average linkage are reducible (Müllner, "Modern hierarchical,
  agglomerative clustering algorithms", https://arxiv.org/abs/1109.2378).
  In 1-D this means a pair's cost never falls when one of its clusters
  grows outward: the gap between the means widens and Ward's weight
  ``nA*nB/(nA+nB)`` grows.  A local-minimum pair therefore stays the
  cheapest pair around it until the heap merges it, so rounds build the
  heap's merge tree.
* A cluster's sum is fixed by the tree, not by the order of merges, so
  every cost the rounds compute is the float the heap computes.
* Rounding must not break the monotonicity above.  IEEE arithmetic rounds
  monotonically, so it is enough that each merged mean rounds between the
  means of its two parts; every round checks this.
* Costs then never fall from a merge to its parent, so the heap's first
  ``n - k`` merges are exactly the ``n - k`` lowest gaps, unless gap
  heights tie at the cut.

The rounds hand the whole input to the heap when a merged mean rounds
outside its parts (it happens with many duplicate values), when heights
tie at the cut, on a NaN cost, or when the rounds exceed
:data:`_ROUND_BUDGET` cluster visits per value (costs that fall steadily
along the input, such as evenly spaced values, merge one pair per round).
Random draws and real tensors take 30-35 rounds and 3.5 visits per
value: the 50,000-sample Golden Dictionary draw clusters in ~15 ms instead
of the heap's ~0.8 s (2-vCPU x86 host).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Any, List, Optional, Sequence, Tuple

import numpy as np

__all__ = ["ClusteringResult", "pairwise_agglomerative", "agglomerative_cluster_1d"]

_LINKAGES = ("ward", "average")

#: Cluster visits the rounds may make, per input value, before handing the
#: input to the heap.  Random draws and real tensors need about 3.5.
_ROUND_BUDGET = 32


@dataclass
class ClusteringResult:
    """Result of an agglomerative clustering run.

    Attributes:
        centroids: Cluster means, sorted ascending.
        sizes: Number of input values assigned to each centroid.
        assignments: For each input value (in the original order), the index
            of the centroid it belongs to.
    """

    centroids: np.ndarray
    sizes: np.ndarray
    assignments: np.ndarray

    @property
    def num_clusters(self) -> int:
        return len(self.centroids)


def _validate(values: np.ndarray, num_clusters: int, linkage: str) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot cluster an empty array")
    if num_clusters < 1:
        raise ValueError("num_clusters must be >= 1")
    if num_clusters > values.size:
        raise ValueError(
            f"num_clusters ({num_clusters}) exceeds number of values ({values.size})"
        )
    if linkage not in _LINKAGES:
        raise ValueError(f"linkage must be one of {_LINKAGES}, got {linkage!r}")
    return values


def _linkage_distance(linkage: str, mean_a: Any, count_a: Any, mean_b: Any, count_b: Any) -> Any:
    """Merge cost between two disjoint 1-D clusters given their summaries.

    Scalars for the heap, arrays (elementwise, same operations) for the
    rounds.

    For contiguous 1-D clusters the average pairwise distance (average
    linkage) reduces to the distance between the cluster means, and Ward's
    criterion is the usual ``nA*nB/(nA+nB) * ||meanA-meanB||^2``.
    """
    gap = abs(mean_b - mean_a)
    if linkage == "average":
        return gap
    return (count_a * count_b) / (count_a + count_b) * gap * gap


def pairwise_agglomerative(
    values: Sequence[float], num_clusters: int, linkage: str = "ward"
) -> ClusteringResult:
    """Exact bottom-up agglomerative clustering (small inputs only).

    Every value starts as its own cluster; at each step the pair of
    clusters with the smallest linkage cost is merged, until
    ``num_clusters`` remain.
    """
    values = _validate(np.asarray(values), num_clusters, linkage)
    n = values.size
    if n > 2000:
        raise ValueError(
            "pairwise_agglomerative is O(n^3); use agglomerative_cluster_1d for large inputs"
        )

    clusters: List[List[int]] = [[i] for i in range(n)]
    while len(clusters) > num_clusters:
        best = (float("inf"), -1, -1)
        for i in range(len(clusters)):
            vi = values[clusters[i]]
            for j in range(i + 1, len(clusters)):
                vj = values[clusters[j]]
                if linkage == "average":
                    dist = float(np.abs(vi[:, None] - vj[None, :]).mean())
                else:
                    dist = _linkage_distance(
                        "ward", float(vi.mean()), vi.size, float(vj.mean()), vj.size
                    )
                if dist < best[0]:
                    best = (dist, i, j)
        _, i, j = best
        clusters[i] = clusters[i] + clusters[j]
        del clusters[j]

    return _build_result(values, clusters)


def agglomerative_cluster_1d(
    values: Sequence[float], num_clusters: int, linkage: str = "ward"
) -> ClusteringResult:
    """Agglomerative clustering for 1-D data, in vectorised rounds.

    Returns exactly what the greedy heap (:func:`_heap_cluster_1d`) returns:
    the same partition, bit-identical centroids, the same sizes and
    assignments.  The module docstring explains why.
    """
    values = _validate(np.asarray(values), num_clusters, linkage)
    n = values.size
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]

    heights = _merge_heights(sorted_values, linkage)
    open_gaps = None if heights is None else _open_gaps(heights, n - num_clusters)
    if open_gaps is None:
        return _heap_cluster_1d(values, num_clusters, linkage)

    bounds = np.concatenate(([0], open_gaps + 1, [n]))
    centroids = np.array([sorted_values[s:e].mean() for s, e in zip(bounds[:-1], bounds[1:])])
    sizes = np.diff(bounds)
    sort = np.argsort(centroids)
    rank = np.empty(num_clusters, dtype=np.int64)
    rank[sort] = np.arange(num_clusters)
    assignments = np.empty(n, dtype=np.int64)
    assignments[order] = np.repeat(rank, sizes)
    return ClusteringResult(
        centroids=centroids[sort], sizes=sizes[sort], assignments=assignments
    )


def _merge_heights(sorted_values: np.ndarray, linkage: str) -> Optional[np.ndarray]:
    """Build the whole merge tree in rounds; return the height of every gap.

    Gap ``g`` lies between ``sorted_values[g]`` and ``sorted_values[g + 1]``
    and is closed by exactly one merge, whose cost is the gap's height.
    Returns ``None`` when the tree is not certified to be the heap's: a NaN
    cost, a merged mean that rounds outside its two parts' means, or more
    than :data:`_ROUND_BUDGET` cluster visits per value (steadily falling
    costs, as in evenly spaced input, merge one pair per round).
    """
    n = sorted_values.size
    sums = sorted_values.copy()
    counts = np.ones(n, dtype=np.int64)
    ends = np.arange(n)  # last sorted position of each cluster
    heights = np.empty(n - 1)
    budget = _ROUND_BUDGET * n
    while sums.size > 1:
        budget -= sums.size
        means = sums / counts
        cost = _linkage_distance(linkage, means[:-1], counts[:-1], means[1:], counts[1:])
        if budget < 0 or np.isnan(cost).any():
            return None
        # Local minima of (cost, position): the heap's lowest-left-id tie-break.
        merge = np.ones(cost.size, dtype=bool)
        merge[1:] &= cost[1:] < cost[:-1]
        merge[:-1] &= cost[:-1] <= cost[1:]
        left = np.flatnonzero(merge)
        right = left + 1
        heights[ends[left]] = cost[left]
        sums[left] += sums[right]
        counts[left] += counts[right]
        merged = sums[left] / counts[left]
        if not np.all((means[left] <= merged) & (merged <= means[right])):
            return None
        ends[left] = ends[right]
        keep = np.ones(sums.size, dtype=bool)
        keep[right] = False
        sums, counts, ends = sums[keep], counts[keep], ends[keep]
    return heights


def _open_gaps(heights: np.ndarray, merges: int) -> Optional[np.ndarray]:
    """Gaps the heap leaves open after its first ``merges`` merges, ascending.

    In a certified tree no merge sits below one of its children, so the
    heap's first ``merges`` merges are the ``merges`` lowest gaps, unless
    another gap ties with the highest of them (then ``None``).
    """
    if merges == 0:
        return np.arange(heights.size)
    ranked = np.sort(heights)
    threshold = ranked[merges - 1]
    if merges < heights.size and ranked[merges] == threshold:
        return None
    return np.flatnonzero(heights > threshold)


def _heap_cluster_1d(
    values: Sequence[float], num_clusters: int, linkage: str = "ward"
) -> ClusteringResult:
    """Greedy 1-D agglomerative clustering, one merge at a time.

    A lazy heap over adjacent-pair merge costs always merges the cheapest
    pair, breaking cost ties towards the lowest (leftmost) cluster id.  This
    is the definition :func:`agglomerative_cluster_1d` reproduces; it runs
    here only when the rounds cannot decide the cut, and in tests.
    """
    values = _validate(np.asarray(values), num_clusters, linkage)
    n = values.size
    order = np.argsort(values, kind="mergesort")
    sorted_values = values[order]

    # Cluster state, indexed by cluster id (initially one per value).
    sums = sorted_values.astype(np.float64).copy()
    counts = np.ones(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    left = np.arange(n) - 1  # neighbour ids; -1 / n mean "none"
    right = np.arange(n) + 1
    version = np.zeros(n, dtype=np.int64)

    def mean(cid: int) -> float:
        return sums[cid] / counts[cid]

    def cost(cid_a: int, cid_b: int) -> float:
        return _linkage_distance(
            linkage, mean(cid_a), int(counts[cid_a]), mean(cid_b), int(counts[cid_b])
        )

    heap: List[Tuple[float, int, int, int, int]] = []
    for cid in range(n - 1):
        heapq.heappush(heap, (cost(cid, cid + 1), cid, cid + 1, 0, 0))

    remaining = n
    while remaining > num_clusters:
        _, a, b, va, vb = heapq.heappop(heap)
        if not (alive[a] and alive[b]) or version[a] != va or version[b] != vb:
            continue
        if right[a] != b:
            continue
        # Merge b into a.
        sums[a] += sums[b]
        counts[a] += counts[b]
        alive[b] = False
        version[a] += 1
        right[a] = right[b]
        if right[b] < n:
            left[right[b]] = a
        remaining -= 1

        if left[a] >= 0:
            la = left[a]
            heapq.heappush(heap, (cost(la, a), la, a, int(version[la]), int(version[a])))
        if right[a] < n:
            ra = right[a]
            heapq.heappush(heap, (cost(a, ra), a, ra, int(version[a]), int(version[ra])))

    # Collect surviving clusters in sorted (left to right) order.
    cluster_ids = [cid for cid in range(n) if alive[cid]]
    start = 0
    clusters: List[List[int]] = []
    for cid in cluster_ids:
        size = int(counts[cid])
        clusters.append(list(order[start:start + size]))
        start += size

    return _build_result(values, clusters)


def _build_result(values: np.ndarray, clusters: List[List[int]]) -> ClusteringResult:
    centroids = np.array([values[c].mean() for c in clusters])
    sizes = np.array([len(c) for c in clusters], dtype=np.int64)
    sort = np.argsort(centroids)
    centroids = centroids[sort]
    sizes = sizes[sort]
    assignments = np.empty(values.size, dtype=np.int64)
    for new_index, old_index in enumerate(sort):
        for value_index in clusters[old_index]:
            assignments[value_index] = new_index
    return ClusteringResult(centroids=centroids, sizes=sizes, assignments=assignments)

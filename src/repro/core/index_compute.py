"""Index-domain computation (paper Section II-D, Fig. 4, Eq. 3-6).

Because every Gaussian-encoded value has the form
``theta * (a**int + b) * s + m``, the dot product of an activation vector
with a weight vector decomposes into four families of terms:

* ``SoI``  — sum of ``a**(int_A + int_W)`` signed by ``theta_A * theta_W``,
  accumulated as a 15-entry signed histogram of exponent sums;
* ``SoA1`` / ``SoA2`` — sums of activation exponentials signed by the
  product sign / the activation sign alone (Eq. 4);
* ``SoW1`` / ``SoW2`` — the symmetric weight-side terms (Eq. 5);
* ``PoM1..4`` — the sign-count and constant terms (Eq. 6).

Pairs in which either operand is an outlier are excluded from the
histograms and handled by a direct multiply-accumulate on their 16-bit
centroids, exactly like the hardware's OPP unit.

Two engines implement the arithmetic:

* :class:`IndexDomainEngine` — the faithful scalar engine: one Python
  ``dot`` per output activation, histograms accumulated with
  ``np.add.at`` exactly as the GPE's counter register files do.  It is the
  Eq. 3-6 oracle for the hardware model and for the vectorized engine,
  but a Python loop per output element makes it unusable at model scale
  (a single BERT-base GEMM holds ~10^5 outputs).
* :class:`VectorizedIndexDomainEngine` — computes whole GEMMs as one
  dense product of decoded operands, ~100-1000x faster at layer shapes.

**Why decode-then-contract equals Eq. 3-6.**  The histogram terms exist
so that 3-bit adders can replace multipliers in hardware; they are an
exact regrouping of ``sum_k A_k * W_k``.  Expanding the product of two
Gaussian values ``(theta_A (a**i + b) s_A + m_A) (theta_W (a**j + b) s_W
+ m_W)`` gives exactly the SoI + SoA1 + SoW1 + PoM1 term
``s_A s_W theta_A theta_W (a**i + b)(a**j + b)``, the SoA2/PoM2 and
SoW2/PoM3 terms, and the constant PoM4 ``m_A m_W``; outlier pairs
contribute their centroid product directly.  Summed over ``k``, Eq. 3-6
plus the OPP therefore equal ``decode(A) @ decode(W)`` — *provided* the
decoded Gaussian magnitudes are the curve ``a**i + b`` that the
histograms count.  The engine checks that at construction (it refuses
any dictionary whose ``gaussian_half`` is not the Golden Dictionary fit's
``a**i + b``), so the vectorized engine computes every GEMM as a single
BLAS call on the decoded 16-bit centroids
(``dictionary.decode(encoded, apply_fixed_point=False)``), and values
agree with the scalar histograms to floating-point round-off.

**Why the operation counts stay exact.**  Every count of
:class:`IndexComputeStats` is a function of how many pairs of each
output are Gaussian pairs.  That count is ``(G_A @ G_W)[m, n]`` for the
Gaussian masks ``G = ~is_outlier``; summing over ``n`` first gives the
per-row count ``G_A @ gauss_per_k`` with ``gauss_per_k`` the weight's
per-``k`` Gaussian count.  Both are integer NumPy arithmetic, so every
backend reports *identical* statistics to the scalar engine (a
property-test-locked guarantee).
"""

from __future__ import annotations

import threading
import weakref
from contextlib import contextmanager
from dataclasses import dataclass, fields, replace
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.core.quantizer import QuantizedTensor
from repro.core.tensor_dictionary import EncodedValues, TensorDictionary

__all__ = [
    "IndexComputeStats",
    "IndexComputeResult",
    "IndexMatmulResult",
    "PlaneSet",
    "PlaneCache",
    "PlaneCacheStats",
    "get_plane_cache",
    "use_plane_cache",
    "IndexDomainEngine",
    "VectorizedIndexDomainEngine",
    "TorchIndexDomainEngine",
    "ENGINE_BACKENDS",
    "ENGINE_DESCRIPTIONS",
    "available_engines",
    "resolve_engine",
    "make_engine",
    "index_domain_dot",
    "index_domain_matmul",
    "index_domain_matmul_many",
    "vectorized_index_domain_matmul",
]


@dataclass
class IndexComputeStats:
    """Operation counts of one index-domain dot product.

    These counts drive the accelerator energy model: the bulk of the work
    is narrow additions (index sums and counter updates) and the rare
    outlier pairs cost a full 16-bit MAC each.
    """

    gaussian_pairs: int = 0
    outlier_pairs: int = 0
    index_additions: int = 0
    counter_updates: int = 0
    post_processing_macs: int = 0

    @property
    def total_pairs(self) -> int:
        return self.gaussian_pairs + self.outlier_pairs

    @property
    def outlier_pair_fraction(self) -> float:
        total = self.total_pairs
        return self.outlier_pairs / total if total else 0.0

    def merge(self, other: "IndexComputeStats") -> "IndexComputeStats":
        """Accumulate another dot product's counts into this one."""
        self.gaussian_pairs += other.gaussian_pairs
        self.outlier_pairs += other.outlier_pairs
        self.index_additions += other.index_additions
        self.counter_updates += other.counter_updates
        self.post_processing_macs += other.post_processing_macs
        return self

    def scaled(self, factor: int) -> "IndexComputeStats":
        """The counts of ``factor`` identically-shaped repetitions.

        Exact for every count that depends on shape alone; models the
        repetitions' outlier pairs as matching this instance.  (The layer
        executor measures every head/batch instance directly; this is the
        cheap alternative for callers that extrapolate instead.)
        """
        return IndexComputeStats(
            gaussian_pairs=self.gaussian_pairs * factor,
            outlier_pairs=self.outlier_pairs * factor,
            index_additions=self.index_additions * factor,
            counter_updates=self.counter_updates * factor,
            post_processing_macs=self.post_processing_macs * factor,
        )

    def copy(self) -> "IndexComputeStats":
        return replace(self)


@dataclass
class IndexComputeResult:
    """Value and term breakdown of one index-domain dot product."""

    value: float
    soi: float
    soa1: float
    soa2: float
    sow1: float
    sow2: float
    pom: float
    outlier_contribution: float
    stats: IndexComputeStats

    def terms(self) -> Dict[str, float]:
        return {
            "SoI": self.soi,
            "SoA1": self.soa1,
            "SoA2": self.soa2,
            "SoW1": self.sow1,
            "SoW2": self.sow2,
            "PoM": self.pom,
            "outliers": self.outlier_contribution,
        }


@dataclass
class IndexMatmulResult:
    """Outcome of one vectorized index-domain matrix multiply.

    Attributes:
        values: The ``(M, N)`` numeric result.
        stats: Exact aggregate operation counts, identical to merging the
            scalar engine's per-output statistics.
        row_stats: Per-output-row statistics (requested via
            ``per_row_stats=True``); ``None`` otherwise.
    """

    values: np.ndarray
    stats: IndexComputeStats
    row_stats: Optional[List[IndexComputeStats]] = None


# --------------------------------------------------------------------------- #
# Decoded operands and their counters
# --------------------------------------------------------------------------- #

@dataclass
class PlaneCacheStats:
    """Counters of decoded-operand reuse, a sibling of :class:`IndexComputeStats`.

    Attributes:
        hits: Decoded operands reused instead of decoded: memoised on the
            tensor by an earlier GEMM, or attached by a KV slab.
        misses: Operands decoded while caching was on (each is then
            memoised on its tensor).
        evictions: Always 0: a memoised operand is freed with its tensor,
            never evicted.  Kept because ``perfbench`` reports it.
        device_uploads: Decoded operands uploaded by a device backend
            (the torch engine's one-time residency cost).
        device_reuses: Device-resident decoded operands reused without a
            conversion or transfer.
        entries: Memoised plane sets currently alive.
        bytes_cached: Host bytes of the memoised plane sets currently alive.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    device_uploads: int = 0
    device_reuses: int = 0
    entries: int = 0
    bytes_cached: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of operand requests served without decoding again."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def minus(self, other: "PlaneCacheStats") -> "PlaneCacheStats":
        """The delta of the monotonic counters since ``other`` was taken.

        ``entries`` / ``bytes_cached`` are point-in-time gauges and keep
        this instance's (later) values.
        """
        return PlaneCacheStats(
            hits=self.hits - other.hits,
            misses=self.misses - other.misses,
            evictions=self.evictions - other.evictions,
            device_uploads=self.device_uploads - other.device_uploads,
            device_reuses=self.device_reuses - other.device_reuses,
            entries=self.entries,
            bytes_cached=self.bytes_cached,
        )

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {f.name: int(getattr(self, f.name)) for f in fields(self)}
        data["hit_rate"] = float(self.hit_rate)
        return data


class PlaneSet:
    """The decoded operand of one tensor in one GEMM role.

    :attr:`dec` holds the tensor's decoded 16-bit centroids as a
    C-contiguous float64 array in the GEMM orientation: ``(M, K)`` for
    the activation (``role="lhs"``) side, ``(K, N)`` for the weight
    (``role="rhs"``) side.  The exact statistics need only the Gaussian
    masks, so the activation side keeps its ``(M, K)`` outlier mask
    :attr:`out` and the weight side only its per-``k`` Gaussian count
    :attr:`gauss_per_k` — about 8 bytes per weight parameter in all.
    :attr:`device_tensors` is scratch space for device backends to pin
    an uploaded copy of :attr:`dec` (keyed by device).
    """

    __slots__ = (
        "role", "fit_key", "plane_shape", "dec", "out", "gauss_per_k", "device_tensors",
        "__weakref__",
    )

    def __init__(
        self,
        dec: np.ndarray,
        out: np.ndarray,
        role: str,
        fit_key: Tuple[float, float, int],
    ) -> None:
        if role not in ("lhs", "rhs"):
            raise ValueError(f"role must be 'lhs' or 'rhs', got {role!r}")
        self.role = role
        self.fit_key = fit_key
        # C-contiguous everywhere: transposed/sliced sources may arrive
        # F-ordered, and a fixed layout keeps every BLAS call bitwise
        # reproducible regardless of how the operand was assembled.
        self.dec = np.ascontiguousarray(dec, dtype=np.float64)
        self.plane_shape = tuple(self.dec.shape)
        if role == "lhs":
            self.out: Optional[np.ndarray] = out
            self.gauss_per_k: Optional[np.ndarray] = None
        else:
            self.out = None
            self.gauss_per_k = (~out).sum(axis=1, dtype=np.int64)
        self.device_tensors: Dict[str, Any] = {}

    @property
    def nbytes(self) -> int:
        """Host bytes held (decoded centroids plus the mask or its counts)."""
        total = int(self.dec.nbytes)
        for array in (self.out, self.gauss_per_k):
            if array is not None:
                total += int(array.nbytes)
        return total


class PlaneCache:
    """The counters of the decoded operands memoised on their tensors.

    It holds no operand: the engine memoises each decoded
    :class:`PlaneSet` on the :class:`QuantizedTensor` it came from (see
    :meth:`VectorizedIndexDomainEngine._plane_set`), so the set lives
    exactly as long as the tensor.  :meth:`track` adds the set's bytes to
    the ``bytes_cached`` gauge until a finalizer takes them off again
    when the set is freed.  Thread-safe; :meth:`stats` takes a snapshot.
    """

    def __init__(self) -> None:
        # Re-entrant: a finalizer may run on this thread inside a locked
        # section, when the garbage collector frees a tensor there.
        self._lock = threading.RLock()
        self.hits = 0
        self.misses = 0
        self.device_uploads = 0
        self.device_reuses = 0
        self._entries = 0
        self._bytes = 0

    def track(self, plane_set: PlaneSet) -> None:
        """Count a decoded, memoised ``plane_set``: a miss, and its bytes while alive."""
        nbytes = plane_set.nbytes
        with self._lock:
            self.misses += 1
            self._entries += 1
            self._bytes += nbytes
        weakref.finalize(plane_set, self._release, nbytes).atexit = False

    def _release(self, nbytes: int) -> None:
        with self._lock:
            self._entries -= 1
            self._bytes -= nbytes

    def note_hit(self) -> None:
        with self._lock:
            self.hits += 1

    def note_device_upload(self) -> None:
        with self._lock:
            self.device_uploads += 1

    def note_device_reuse(self) -> None:
        with self._lock:
            self.device_reuses += 1

    def stats(self) -> PlaneCacheStats:
        """A snapshot of every counter (see :meth:`PlaneCacheStats.minus`)."""
        with self._lock:
            return PlaneCacheStats(
                hits=self.hits,
                misses=self.misses,
                device_uploads=self.device_uploads,
                device_reuses=self.device_reuses,
                entries=self._entries,
                bytes_cached=self._bytes,
            )

    def clear(self) -> None:
        """Do nothing: a memoised operand is freed with its tensor.

        Kept because ``perfbench`` calls it between set-ups.
        """


_plane_cache: Optional[PlaneCache] = PlaneCache()


def get_plane_cache() -> Optional[PlaneCache]:
    """The process-wide operand counters; ``None`` while caching is disabled."""
    return _plane_cache


@contextmanager
def use_plane_cache(cache: Optional[PlaneCache]) -> Iterator[Optional[PlaneCache]]:
    """Scoped counter override; ``None`` disables operand memoisation in the scope."""
    global _plane_cache
    previous, _plane_cache = _plane_cache, cache
    try:
        yield cache
    finally:
        _plane_cache = previous


class IndexDomainEngine:
    """Computes dot products directly on dictionary indexes (scalar reference).

    Args:
        activation_dictionary: Dictionary of the activation tensor.
        weight_dictionary: Dictionary of the weight tensor.

    Both dictionaries must be derived from the same Golden Dictionary so
    that they share the exponential base ``a`` and offset ``b``, and their
    Gaussian centroids must be that curve's ``a**i + b``: Eq. 3-6 count
    exponent sums, so other centroids would come back silently wrong.
    """

    def __init__(
        self,
        activation_dictionary: TensorDictionary,
        weight_dictionary: TensorDictionary,
    ) -> None:
        fit_a = activation_dictionary.golden.fit
        fit_w = weight_dictionary.golden.fit
        if fit_a is not fit_w and (
            not np.isclose(fit_a.a, fit_w.a) or not np.isclose(fit_a.b, fit_w.b)
        ):
            raise ValueError(
                "activation and weight dictionaries must share the same Golden Dictionary"
            )
        for dictionary in (activation_dictionary, weight_dictionary):
            if not dictionary.has_exponential_centroids:
                raise ValueError(
                    f"tensor {dictionary.name!r}: index-domain compute needs the exponential "
                    "Gaussian centroids a**i + b (quantize with use_exponential=True)"
                )
        self.act_dict = activation_dictionary
        self.weight_dict = weight_dictionary
        self.a = fit_a.a
        self.b = fit_a.b
        self.num_entries = fit_a.num_entries
        # Pre-computed bases a**k for every possible exponent sum (the values
        # the OPP multiplies the SoI histogram with during post-processing).
        self.soi_bases = self.a ** np.arange(2 * self.num_entries - 1, dtype=np.float64)
        self.half_bases = self.a ** np.arange(self.num_entries, dtype=np.float64)
        #: Golden-fit identity of the operands this engine builds; plane
        #: sets attached to tensors are only accepted when their fit matches.
        self._fit_key = (float(self.a), float(self.b), int(self.num_entries))

    @property
    def post_processing_macs_per_output(self) -> int:
        """Fixed post-processing MACs per output: one per SoI bin, one per
        SoA1/SoW1 bin, one for the PoM constants (outlier MACs add on top)."""
        return (2 * self.num_entries - 1) + 2 * self.num_entries + 1

    # ------------------------------------------------------------------ #
    # Scalar (per output activation) engine
    # ------------------------------------------------------------------ #
    def dot(
        self,
        activation: EncodedValues,
        weight: EncodedValues,
    ) -> IndexComputeResult:
        """Compute one output activation from encoded input vectors."""
        if activation.shape != weight.shape:
            raise ValueError("activation and weight vectors must have the same length")

        a, b = self.a, self.b
        s_a, m_a = self.act_dict.std, self.act_dict.mean
        s_w, m_w = self.weight_dict.std, self.weight_dict.mean

        theta_a = activation.sign.astype(np.float64).ravel()
        theta_w = weight.sign.astype(np.float64).ravel()
        idx_a = activation.gaussian_index.astype(np.int64).ravel()
        idx_w = weight.gaussian_index.astype(np.int64).ravel()
        outlier_pair = (activation.is_outlier | weight.is_outlier).ravel()
        gaussian_pair = ~outlier_pair

        n_gauss = int(gaussian_pair.sum())
        n_outlier = int(outlier_pair.sum())

        # --- Histogram accumulation (what the GPE's CRFs do) -------------- #
        product_sign = (theta_a * theta_w)[gaussian_pair]
        exp_sum = (idx_a + idx_w)[gaussian_pair]
        soi_hist = np.zeros(2 * self.num_entries - 1, dtype=np.float64)
        np.add.at(soi_hist, exp_sum, product_sign)

        soa1_hist = np.zeros(self.num_entries, dtype=np.float64)
        np.add.at(soa1_hist, idx_a[gaussian_pair], product_sign)
        sow1_hist = np.zeros(self.num_entries, dtype=np.float64)
        np.add.at(sow1_hist, idx_w[gaussian_pair], product_sign)
        pom1_count = float(product_sign.sum())

        # --- Post-processing: weighted reductions (Eq. 3-6) --------------- #
        soi = s_a * s_w * float(soi_hist @ self.soi_bases)
        soa1 = s_a * s_w * b * float(soa1_hist @ self.half_bases)
        sow1 = s_w * s_a * b * float(sow1_hist @ self.half_bases)

        # Activation-only and weight-only sums over the Gaussian pairs.
        sum_theta_a_exp = float((theta_a[gaussian_pair] * self.half_bases[idx_a[gaussian_pair]]).sum())
        sum_theta_w_exp = float((theta_w[gaussian_pair] * self.half_bases[idx_w[gaussian_pair]]).sum())
        sum_theta_a = float(theta_a[gaussian_pair].sum())
        sum_theta_w = float(theta_w[gaussian_pair].sum())

        soa2 = s_a * m_w * sum_theta_a_exp
        sow2 = s_w * m_a * sum_theta_w_exp
        pom = (
            s_a * s_w * b * b * pom1_count
            + s_a * m_w * b * sum_theta_a
            + s_w * m_a * b * sum_theta_w
            + n_gauss * m_a * m_w
        )

        # --- Outlier pairs: direct MAC on decoded 16-bit centroids -------- #
        outlier_contribution = 0.0
        if n_outlier:
            decoded_a = self.act_dict.decode(activation, apply_fixed_point=False).ravel()
            decoded_w = self.weight_dict.decode(weight, apply_fixed_point=False).ravel()
            outlier_contribution = float(
                (decoded_a[outlier_pair] * decoded_w[outlier_pair]).sum()
            )

        value = soi + soa1 + soa2 + sow1 + sow2 + pom + outlier_contribution

        stats = IndexComputeStats(
            gaussian_pairs=n_gauss,
            outlier_pairs=n_outlier,
            index_additions=n_gauss,
            # Each Gaussian pair updates the SoI, SoA1, SoW1 and PoM1 counters.
            counter_updates=4 * n_gauss,
            # Post-processing: one MAC per SoI bin + per SoA1/SoW1 bin + PoM,
            # plus one MAC per outlier pair in the OPP.
            post_processing_macs=self.post_processing_macs_per_output + n_outlier,
        )
        return IndexComputeResult(
            value=value,
            soi=soi,
            soa1=soa1,
            soa2=soa2,
            sow1=sow1,
            sow2=sow2,
            pom=pom,
            outlier_contribution=outlier_contribution,
            stats=stats,
        )

    # ------------------------------------------------------------------ #
    # Batched reference
    # ------------------------------------------------------------------ #
    def matmul(
        self,
        activations: QuantizedTensor,
        weights: QuantizedTensor,
    ) -> Tuple[np.ndarray, IndexComputeStats]:
        """Index-domain matrix multiply ``activations @ weights``.

        One scalar :meth:`dot` per output element; the row and column
        slices of both encodings are precomputed once (not per output), so
        the reference stays usable in larger equivalence tests.

        Args:
            activations: Quantized ``(M, K)`` activation matrix.
            weights: Quantized ``(K, N)`` weight matrix.

        Returns:
            The ``(M, N)`` result and the merged operation statistics.
        """
        m_rows, n_cols = _check_matmul_shapes(activations, weights)

        act_rows = _split_encoded(activations.encoded, activations.shape, axis=0)
        w_cols = _split_encoded(weights.encoded, weights.shape, axis=1)
        result = np.zeros((m_rows, n_cols), dtype=np.float64)
        stats = IndexComputeStats()
        for row, a_row in enumerate(act_rows):
            for col, w_col in enumerate(w_cols):
                out = self.dot(a_row, w_col)
                result[row, col] = out.value
                stats.merge(out.stats)
        return result, stats


class VectorizedIndexDomainEngine(IndexDomainEngine):
    """Whole-GEMM index-domain compute: one dense product of decoded operands.

    Implements the decode-then-contract identity of the module docstring:
    each GEMM is one ``decode(A) @ decode(W)`` product on the 16-bit
    centroids, which equals the Eq. 3-6 histograms plus the outlier MACs
    up to floating-point round-off, and the operation statistics come
    from the Gaussian masks alone, bit-identical to the scalar engine.

    The computation is staged so backends can swap the dense products
    without touching the formulation: :meth:`_build_planes` (NumPy
    decode), :meth:`_product` / :meth:`_batched_product` (the backend
    seam — the only floating-point GEMMs in the engine), then
    :meth:`_stats_from_planes` (NumPy integer arithmetic).  Any backend
    therefore reports *identical* :class:`IndexComputeStats` to this
    oracle by construction.
    """

    # ------------------------------------------------------------------ #
    # Backend seam: the only dense floating-point products in the engine
    # ------------------------------------------------------------------ #
    def _product(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """One dense ``(R, K) @ (K, C)`` product on this backend."""
        return lhs @ rhs

    def _batched_product(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        """One batched ``(B, R, K) @ (B, K, C)`` product on this backend."""
        return np.matmul(lhs, rhs)

    def _weight_operand(self, plane_set: PlaneSet) -> Any:
        """Backend hook: may return a device-resident handle for ``plane_set.dec``.

        The NumPy oracle returns the host array unchanged; the torch
        backend pins cached decoded weights on its device (uploaded once,
        reused every GEMM that touches the plane set).
        """
        return plane_set.dec

    # ------------------------------------------------------------------ #
    # Operand resolution
    # ------------------------------------------------------------------ #
    def _build_plane_set(
        self,
        tensor: QuantizedTensor,
        role: str,
        shape: Tuple[int, int],
        dictionary: TensorDictionary,
    ) -> PlaneSet:
        """Decode one operand to its 16-bit centroids (always NumPy)."""
        encoded = tensor.encoded
        return PlaneSet(
            dec=dictionary.decode(encoded, apply_fixed_point=False).reshape(shape),
            out=encoded.is_outlier.reshape(shape),
            role=role,
            fit_key=self._fit_key,
        )

    def _plane_set(
        self, tensor: QuantizedTensor, role: str, shape: Tuple[int, int]
    ) -> PlaneSet:
        """One decoded operand, memoised on the tensor that owns it.

        While caching is on, a plane set in ``tensor._plane_sets[role]``
        whose fit and shape match is reused, whether an earlier GEMM
        memoised it or a KV slab attached it.  Otherwise the operand is
        decoded and memoised there for the next GEMM.  A weight therefore
        decodes once for as long as its tensor lives (the executor's
        weight cache decides that), and an activation feeding several
        GEMMs (the Q/K/V input) once.  Under ``use_plane_cache(None)`` the
        memo is neither read nor written: the uncached oracle.
        """
        cache = get_plane_cache()
        dictionary = self.act_dict if role == "lhs" else self.weight_dict
        if cache is None:
            return self._build_plane_set(tensor, role, shape, dictionary)
        memoised = tensor._plane_sets.get(role)
        if (
            memoised is not None
            and memoised.fit_key == self._fit_key
            and memoised.plane_shape == tuple(shape)
        ):
            cache.note_hit()
            return memoised
        built = self._build_plane_set(tensor, role, shape, dictionary)
        tensor._plane_sets[role] = built
        cache.track(built)
        return built

    def _build_planes(
        self, activations: QuantizedTensor, weights: QuantizedTensor
    ) -> Tuple[PlaneSet, PlaneSet]:
        """The decoded ``(lhs, rhs)`` operands of one GEMM, via the cache."""
        m_rows, n_cols = _check_matmul_shapes(activations, weights)
        k_len = activations.shape[1]
        return (
            self._plane_set(activations, "lhs", (m_rows, k_len)),
            self._plane_set(weights, "rhs", (k_len, n_cols)),
        )

    def _stats_from_planes(
        self, act: PlaneSet, wgt: PlaneSet, per_row_stats: bool = False
    ) -> Tuple[IndexComputeStats, Optional[List[IndexComputeStats]]]:
        """Exact integer statistics from the Gaussian masks alone.

        The Gaussian pair count of output ``(m, n)`` is
        ``(G_A @ G_W)[m, n]``; summing over ``n`` first (the weight's
        cached ``gauss_per_k``) keeps the count computation
        ``O(MK + KN)``.  Always NumPy integer arithmetic, so every
        backend reports identical counts.
        """
        m_rows, k_len = act.plane_shape
        n_cols = wgt.plane_shape[1]
        gaussian_per_row = (~act.out).astype(np.int64) @ wgt.gauss_per_k  # (M,)
        pairs_per_row = n_cols * k_len
        gaussian_total = int(gaussian_per_row.sum())
        outlier_total = m_rows * pairs_per_row - gaussian_total

        fixed_macs = self.post_processing_macs_per_output
        stats = IndexComputeStats(
            gaussian_pairs=gaussian_total,
            outlier_pairs=outlier_total,
            index_additions=gaussian_total,
            counter_updates=4 * gaussian_total,
            post_processing_macs=m_rows * n_cols * fixed_macs + outlier_total,
        )

        row_stats: Optional[List[IndexComputeStats]] = None
        if per_row_stats:
            row_stats = []
            for row in range(m_rows):
                gauss = int(gaussian_per_row[row])
                outlier = pairs_per_row - gauss
                row_stats.append(
                    IndexComputeStats(
                        gaussian_pairs=gauss,
                        outlier_pairs=outlier,
                        index_additions=gauss,
                        counter_updates=4 * gauss,
                        post_processing_macs=n_cols * fixed_macs + outlier,
                    )
                )
        return stats, row_stats

    def matmul(  # type: ignore[override]
        self,
        activations: QuantizedTensor,
        weights: QuantizedTensor,
        per_row_stats: bool = False,
    ) -> "IndexMatmulResult":
        """Vectorized index-domain matrix multiply ``activations @ weights``.

        Args:
            activations: Quantized ``(M, K)`` activation matrix.
            weights: Quantized ``(K, N)`` weight matrix.
            per_row_stats: Also return one :class:`IndexComputeStats` per
                output row (the accelerator's per-output-tile view).

        Returns:
            An :class:`IndexMatmulResult` with the ``(M, N)`` values and
            exact aggregate (and optionally per-row) statistics.
        """
        act, wgt = self._build_planes(activations, weights)
        values = self._product(act.dec, self._weight_operand(wgt))
        stats, row_stats = self._stats_from_planes(act, wgt, per_row_stats)
        return IndexMatmulResult(values=values, stats=stats, row_stats=row_stats)


def _import_torch():
    """Import torch lazily, with an actionable error when absent."""
    try:
        import torch
    except ImportError as exc:  # pragma: no cover - exercised via mock in tests
        raise ImportError(
            "the 'torch' index-domain engine requires the optional torch "
            "dependency, which is not installed; install torch (CPU wheels "
            "suffice) or use engine='vectorized', the NumPy oracle"
        ) from exc
    return torch


class TorchIndexDomainEngine(VectorizedIndexDomainEngine):
    """Decoded-operand engine with the dense products on ``torch.einsum``.

    Decoding and the integer statistics stay on NumPy — so this backend
    reports :class:`IndexComputeStats` *identical* to the vectorized
    oracle by construction — while every dense product (the per-GEMM
    product of decoded operands and the batched group GEMMs) runs
    through ``torch.einsum`` in float64 on ``device``.  A cached decoded
    weight is uploaded once (one ``"dec"`` slot per operand) and reused.
    Values agree with the oracle to floating-point round-off.

    Args:
        activation_dictionary: Dictionary of the activation tensor.
        weight_dictionary: Dictionary of the weight tensor.
        device: Torch device string (``"cpu"``, ``"cuda"``, ...).
            Defaults to CUDA when available, else CPU.

    Raises:
        ImportError: When torch is not installed (the import is deferred
            to construction so environments without torch can still use
            every NumPy engine).
    """

    @staticmethod
    def ensure_available() -> None:
        """Raise the actionable ImportError now if torch is missing.

        Executors call this once at construction so a missing backend
        fails fast instead of at the first GEMM.
        """
        _import_torch()

    def __init__(
        self,
        activation_dictionary: TensorDictionary,
        weight_dictionary: TensorDictionary,
        device: Optional[str] = None,
    ) -> None:
        super().__init__(activation_dictionary, weight_dictionary)
        self._torch = _import_torch()
        if device is None:
            device = "cuda" if self._torch.cuda.is_available() else "cpu"
        self.device = str(device)

    def _tensor(self, array: np.ndarray):
        return self._torch.as_tensor(
            np.ascontiguousarray(array), dtype=self._torch.float64
        ).to(self.device)

    def _as_device(self, value: Any):
        """Accept either a host ndarray or an already-resident tensor."""
        if isinstance(value, np.ndarray):
            return self._tensor(value)
        return value

    def _weight_operand(self, plane_set: PlaneSet) -> Any:
        """Pin the decoded weight on the device, uploaded once.

        The handle lives on the :class:`PlaneSet`, so any engine instance
        targeting the same device reuses it — engines are constructed
        fresh per GEMM, the plane sets are what persist.
        """
        resident = plane_set.device_tensors.get(self.device)
        cache = get_plane_cache()
        if resident is None:
            resident = self._tensor(plane_set.dec)
            plane_set.device_tensors[self.device] = resident
            if cache is not None:
                cache.note_device_upload()
        elif cache is not None:
            cache.note_device_reuse()
        return resident

    def _product(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        out = self._torch.einsum("mk,kn->mn", self._as_device(lhs), self._as_device(rhs))
        return out.cpu().numpy()

    def _batched_product(self, lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
        out = self._torch.einsum(
            "bmk,bkn->bmn", self._as_device(lhs), self._as_device(rhs)
        )
        return out.cpu().numpy()


# --------------------------------------------------------------------------- #
# Engine dispatch
# --------------------------------------------------------------------------- #

#: Backing mapping of the ``"engines"`` registry (:mod:`repro.registry`):
#: engine name → engine class.  A live view — backends registered through
#: the registry are immediately selectable by every ``engine=`` switch.
ENGINE_BACKENDS: Dict[str, type] = {
    "scalar": IndexDomainEngine,
    "vectorized": VectorizedIndexDomainEngine,
    "torch": TorchIndexDomainEngine,
}

#: One-line descriptions for ``repro registry list``.  Static strings on
#: purpose: describing the torch backend must not import torch.
ENGINE_DESCRIPTIONS: Dict[str, str] = {
    "scalar": "faithful per-output reference engine (np.add.at histograms; tests only)",
    "vectorized": "whole-GEMM NumPy engine: one BLAS product of decoded operands — the oracle",
    "torch": "optional torch einsum backend (CPU/GPU) — identical stats to the oracle",
}


def available_engines() -> Tuple[str, ...]:
    """All registered engine names, sorted."""
    return tuple(sorted(ENGINE_BACKENDS))


def resolve_engine(engine: str) -> type:
    """Engine name → engine class, with registry did-you-mean errors.

    Raises:
        RegistryError: (a ``ValueError``) when the name is unknown, naming
            the nearest registered engine when one is close.
    """
    # Lazy import: repro.registry imports this module at load time to wrap
    # ENGINE_BACKENDS; reaching back only inside the function keeps the
    # modules acyclic.
    from repro.registry import ENGINES

    return ENGINES.get(engine)


def make_engine(
    engine,
    activation_dictionary: TensorDictionary,
    weight_dictionary: TensorDictionary,
    device: Optional[str] = None,
) -> IndexDomainEngine:
    """Instantiate an engine by name (or class) for one dictionary pair.

    Args:
        engine: Registered engine name (``"vectorized"``, ``"scalar"``,
            ``"torch"``) or an engine class.
        activation_dictionary: Dictionary of the activation tensor.
        weight_dictionary: Dictionary of the weight tensor.
        device: Optional device for backends that take one (the torch
            engine); passing a device to a backend that does not accept
            it raises ``TypeError``.
    """
    cls = resolve_engine(engine) if isinstance(engine, str) else engine
    if device is not None:
        return cls(activation_dictionary, weight_dictionary, device=device)
    return cls(activation_dictionary, weight_dictionary)


def _check_matmul_shapes(
    activations: QuantizedTensor, weights: QuantizedTensor
) -> Tuple[int, int]:
    """Validate ``(M, K) @ (K, N)`` operands, returning ``(M, N)``."""
    if len(activations.shape) != 2 or len(weights.shape) != 2:
        raise ValueError("matmul expects 2-D quantized tensors")
    m_rows, k_a = activations.shape
    k_w, n_cols = weights.shape
    if k_a != k_w:
        raise ValueError("inner dimensions do not match")
    return m_rows, n_cols


def _split_encoded(
    encoded: EncodedValues, shape: Tuple[int, ...], axis: int
) -> List[EncodedValues]:
    """All rows (axis=0) or columns (axis=1) of a 2-D encoding.

    Reshapes each field exactly once and returns views, so slicing is
    O(M + N) instead of re-reshaping the full encoding per output element.
    """
    fields = (
        encoded.is_outlier.reshape(shape),
        encoded.sign.reshape(shape),
        encoded.gaussian_index.reshape(shape),
        encoded.outlier_index.reshape(shape),
    )
    count = shape[0] if axis == 0 else shape[1]
    return [
        EncodedValues(
            *(
                (matrix[index, :] if axis == 0 else matrix[:, index])
                for matrix in fields
            )
        )
        for index in range(count)
    ]


def _slice_encoded(
    encoded: EncodedValues, shape: Tuple[int, ...], index: int, axis: int
) -> EncodedValues:
    """Extract one row (axis=0) or column (axis=1) of a 2-D encoding."""

    def pick(array: np.ndarray) -> np.ndarray:
        matrix = array.reshape(shape)
        return matrix[index, :] if axis == 0 else matrix[:, index]

    return EncodedValues(
        is_outlier=pick(encoded.is_outlier),
        sign=pick(encoded.sign),
        gaussian_index=pick(encoded.gaussian_index),
        outlier_index=pick(encoded.outlier_index),
    )


def index_domain_dot(
    activations: QuantizedTensor, weights: QuantizedTensor
) -> IndexComputeResult:
    """Dot product of two 1-D quantized tensors in the index domain."""
    engine = IndexDomainEngine(activations.dictionary, weights.dictionary)
    return engine.dot(activations.encoded, weights.encoded)


def index_domain_matmul(
    activations: QuantizedTensor,
    weights: QuantizedTensor,
    engine: str = "vectorized",
    device: Optional[str] = None,
) -> Tuple[np.ndarray, IndexComputeStats]:
    """Matrix multiply of quantized tensors in the index domain.

    Args:
        activations: Quantized ``(M, K)`` activation matrix.
        weights: Quantized ``(K, N)`` weight matrix.
        engine: Registered engine name — ``"vectorized"`` (default;
            whole-GEMM NumPy array ops), ``"torch"`` (optional einsum
            backend) or ``"scalar"`` (the faithful per-output reference).
            Unknown names raise a registry error with a did-you-mean
            suggestion.
        device: Optional device for backends that take one.
    """
    resolved = make_engine(engine, activations.dictionary, weights.dictionary, device=device)
    out = resolved.matmul(activations, weights)
    if isinstance(out, IndexMatmulResult):
        return out.values, out.stats
    return out


def index_domain_matmul_many(
    pairs,
    engine: str = "vectorized",
    device: Optional[str] = None,
) -> List[IndexMatmulResult]:
    """Run many index-domain GEMMs, batching same-shape products.

    The per-head attention GEMMs of a layer — and the same projection
    GEMMs across a model's layers — share one ``(M, K, N)`` shape, so
    their decoded-operand products can be evaluated by a single batched
    BLAS (or torch ``bmm``) call, ``np.stack(dec_A) @ np.stack(dec_W)``,
    instead of one call per GEMM.  Pairs of one shape that share a
    weight tensor *object* (per-head decode GEMMs across serving
    streams) collapse further, to one GEMM of the row-concatenated
    decoded activations against that weight.  The exact integer
    statistics are computed per pair as in a single GEMM, so every
    returned :class:`IndexMatmulResult` carries statistics *identical*
    to a per-GEMM :func:`index_domain_matmul` run (values agree to
    floating-point round-off).

    Args:
        pairs: Sequence of ``(activations, weights)`` quantized 2-D
            tensor pairs.  Per-pair dictionaries may differ (each tensor
            decodes with its own std/mean scales), but all must derive
            from the same Golden Dictionary fit.
        engine: Registered engine name; the scalar reference has no
            batched path and falls back to per-pair execution.
        device: Optional device for backends that take one.

    Returns:
        One :class:`IndexMatmulResult` per input pair, in input order.
    """
    pairs = list(pairs)
    if not pairs:
        return []
    engines = [
        make_engine(engine, act.dictionary, weights.dictionary, device=device)
        for act, weights in pairs
    ]
    base = engines[0]
    for other in engines[1:]:
        if other._fit_key != base._fit_key and (
            not np.isclose(other.a, base.a)
            or not np.isclose(other.b, base.b)
            or other.num_entries != base.num_entries
        ):
            raise ValueError(
                "index_domain_matmul_many requires every pair to share the "
                "same Golden Dictionary fit (a, b, num_entries)"
            )

    results: List[Optional[IndexMatmulResult]] = [None] * len(pairs)
    if not isinstance(base, VectorizedIndexDomainEngine):
        for index, (resolved, (act, weights)) in enumerate(zip(engines, pairs)):
            values, stats = resolved.matmul(act, weights)
            results[index] = IndexMatmulResult(values=values, stats=stats)
        return results

    groups: Dict[Tuple[int, int, int], List[int]] = {}
    for index, (act, weights) in enumerate(pairs):
        _check_matmul_shapes(act, weights)
        groups.setdefault((act.shape[0], act.shape[1], weights.shape[1]), []).append(index)

    def finish(index: int, act: PlaneSet, wgt: PlaneSet, values: np.ndarray) -> None:
        stats, _ = engines[index]._stats_from_planes(act, wgt)
        results[index] = IndexMatmulResult(values=values, stats=stats)

    for shape_indices in groups.values():
        # Partition by weight object identity.  The partition depends only
        # on the input pairs — never on cache state — so cached and
        # uncached runs take identical code paths.
        shared: Dict[int, List[int]] = {}
        for i in shape_indices:
            shared.setdefault(id(pairs[i][1]), []).append(i)
        singles: List[int] = []
        for sub in shared.values():
            if len(sub) == 1:
                singles.extend(sub)
                continue
            # One GEMM for every pair against the shared decoded weight;
            # row-slicing the product is exact (output rows are independent).
            operands = [engines[i]._build_planes(*pairs[i]) for i in sub]
            first = engines[sub[0]]
            values = first._product(
                np.concatenate([act.dec for act, _ in operands], axis=0),
                first._weight_operand(operands[0][1]),
            )
            row = 0
            for index, (act, wgt) in zip(sub, operands):
                rows = act.plane_shape[0]
                finish(index, act, wgt, values[row : row + rows])
                row += rows
        if len(singles) == 1:
            only = singles[0]
            results[only] = engines[only].matmul(*pairs[only])
        elif singles:
            operands = [engines[i]._build_planes(*pairs[i]) for i in singles]
            products = engines[singles[0]]._batched_product(
                np.stack([act.dec for act, _ in operands]),
                np.stack([wgt.dec for _, wgt in operands]),
            )
            for index, (act, wgt), values in zip(singles, operands, products):
                finish(index, act, wgt, values)
    return results


def vectorized_index_domain_matmul(
    activations: QuantizedTensor,
    weights: QuantizedTensor,
    per_row_stats: bool = False,
) -> IndexMatmulResult:
    """Vectorized index-domain matrix multiply (values + exact statistics)."""
    engine = VectorizedIndexDomainEngine(activations.dictionary, weights.dictionary)
    return engine.matmul(activations, weights, per_row_stats=per_row_stats)

"""The decoded-operand plane cache and KV slabs — bit-identity locks.

The plane cache and the KV-cache plane slabs are *pure execution
strategies*: they may only move wall time, never values, outlier masks
or operation counts.  This file locks that contract three ways:

1. hypothesis property tests that an incrementally-extended
   :class:`~repro.transformer.index_model._PlaneSlab` yields decoded
   rows and Gaussian counts byte-identical to a full rebuild over the
   concatenated cache, for any chunking of appends, any head slice, and
   either orientation;
2. hypothesis property tests that a plane-cached decode run equals the
   uncached oracle exactly — outputs ``array_equal``, stats ``==`` —
   across prompt lengths, decode depths, stream counts and dictionary
   fits, plus fixed parametrised cases across the scalar / vectorized /
   torch engines;
3. unit tests of the operand memo — a tensor's plane set is decoded
   once per role and freed with the tensor, the
   :class:`~repro.core.index_compute.PlaneCache` counters and live-byte
   gauge, the scoped override, and slab attachments.
"""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.index_compute import (
    PlaneCache,
    VectorizedIndexDomainEngine,
    get_plane_cache,
    index_domain_matmul,
    use_plane_cache,
)
from repro.transformer.config import TransformerConfig
from repro.transformer.index_model import (
    IndexDomainModelExecutor,
    MultiStreamDecoder,
    _concat_quantized,
    _PlaneSlab,
    _slice_quantized,
    execute_decoder,
)

MICRO_DECODER = TransformerConfig(
    name="gpt-micro-planes",
    num_layers=1,
    hidden_size=32,
    num_heads=4,
    intermediate_size=64,
    vocab_size=128,
    max_position_embeddings=64,
)


def _kv_rows(rng, rows, width):
    values = rng.normal(0.1, 1.2, (rows, width))
    flat = values.ravel()
    picks = rng.choice(flat.size, max(1, flat.size // 25), replace=False)
    flat[picks] = rng.choice([-1.0, 1.0], picks.size) * 30.0
    return values


def _slab_and_tensor(quantizer, rng, chunks, width):
    """Grow a KV-style tensor chunk by chunk, extending a slab each time."""
    tensor = quantizer.quantize(_kv_rows(rng, chunks[0], width), "kv.prop")
    slab = _PlaneSlab(tensor.dictionary, width)
    slab.extend(tensor)
    for rows in chunks[1:]:
        appended = quantizer.quantize(
            _kv_rows(rng, rows, width), tensor.name, dictionary=tensor.dictionary
        )
        tensor = _concat_quantized(tensor, appended)
        slab.extend(tensor)
    return slab, tensor


class TestSlabEqualsRebuild:
    """Incremental plane append == full plane rebuild, byte for byte."""

    @given(
        chunks=st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5),
        seed=st.integers(min_value=0, max_value=2**16),
        transpose=st.booleans(),
    )
    @settings(max_examples=25, deadline=None)
    def test_plane_arrays_bit_identical(self, quantizer, chunks, seed, transpose):
        width = 8
        rng = np.random.default_rng(seed)
        slab, tensor = _slab_and_tensor(quantizer, rng, chunks, width)
        columns = slice(2, 6)  # one "head" of the hidden width
        sliced = _slice_quantized(tensor, columns, transpose=transpose)
        engine = VectorizedIndexDomainEngine(tensor.dictionary, tensor.dictionary)
        rebuilt = engine._build_plane_set(
            sliced, "rhs", sliced.shape, sliced.dictionary
        )
        incremental = slab.plane_set(columns, transpose=transpose)
        for name in ("dec", "gauss_per_k"):
            ours, oracle = getattr(incremental, name), getattr(rebuilt, name)
            assert ours.dtype == oracle.dtype
            assert ours.shape == oracle.shape
            assert ours.tobytes() == oracle.tobytes(), f"{name} diverged"
        assert incremental.dec.flags.c_contiguous

    @given(
        chunks=st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=15, deadline=None)
    def test_attached_planes_gemm_bit_identical(self, quantizer, chunks, seed):
        """A GEMM against slab planes == the same GEMM against a rebuild."""
        width = 8
        rng = np.random.default_rng(seed)
        slab, tensor = _slab_and_tensor(quantizer, rng, chunks, width)
        columns = slice(0, 4)
        act = quantizer.quantize(rng.normal(0.2, 1.0, (3, 4)), "q.prop")

        with use_plane_cache(None):
            plain = _slice_quantized(tensor, columns, transpose=True)
            oracle_values, oracle_stats = index_domain_matmul(act, plain)
        cache = PlaneCache()
        with use_plane_cache(cache):
            attached = _slice_quantized(tensor, columns, transpose=True)
            slab_planes = slab.plane_set(columns, transpose=True)
            attached._plane_sets["rhs"] = slab_planes
            cached_values, cached_stats = index_domain_matmul(act, attached)
        assert attached._plane_sets["rhs"] is slab_planes  # used, not rebuilt
        assert (cache.hits, cache.misses) == (1, 1)  # the slab; the activation
        assert np.array_equal(cached_values, oracle_values)
        assert cached_stats == oracle_stats

    def test_slab_rejects_shrunken_tensor(self, quantizer):
        rng = np.random.default_rng(3)
        slab, tensor = _slab_and_tensor(quantizer, rng, [4], 8)
        shorter = _slice_quantized(tensor, slice(0, 8))  # columns, same rows
        slab.extend(shorter)  # same row count: no-op
        with pytest.raises(ValueError):
            smaller = quantizer.quantize(_kv_rows(rng, 2, 8), "kv.small")
            slab.extend(smaller)


class TestDecodeBitIdentity:
    """Plane-cached decode == uncached decode, across fits and engines."""

    @given(
        prompt_length=st.integers(min_value=1, max_value=5),
        decode_tokens=st.integers(min_value=0, max_value=3),
        seed=st.integers(min_value=0, max_value=50),
        num_streams=st.integers(min_value=1, max_value=3),
    )
    @settings(max_examples=10, deadline=None)
    def test_cached_decode_equals_uncached(
        self, quantizer, prompt_length, decode_tokens, seed, num_streams
    ):
        kwargs = dict(
            prompt_length=prompt_length,
            decode_tokens=decode_tokens,
            quantizer=quantizer,
            seed=seed,
        )
        cached = execute_decoder(MICRO_DECODER, **kwargs)
        uncached = execute_decoder(MICRO_DECODER, plane_caching=False, **kwargs)
        assert np.array_equal(cached.outputs, uncached.outputs)
        assert cached.stats == uncached.stats
        assert cached.output_rms_error == uncached.output_rms_error
        assert uncached.plane_cache is None

        cached, uncached = (
            MultiStreamDecoder(
                MICRO_DECODER,
                num_streams=num_streams,
                quantizer=quantizer,
                seed=seed,
                plane_caching=plane_caching,
            ).run(prompt_length, decode_tokens)
            for plane_caching in (True, False)
        )
        assert len(cached.outputs) == len(uncached.outputs) == num_streams
        for ours, oracle in zip(cached.outputs, uncached.outputs):
            assert np.array_equal(ours, oracle)
        assert cached.stats == uncached.stats

    @pytest.mark.parametrize("engine", ["scalar", "vectorized", "torch"])
    def test_cached_decode_equals_uncached_per_engine(self, quantizer, engine):
        if engine == "torch":
            pytest.importorskip("torch")
        kwargs = dict(
            prompt_length=3,
            decode_tokens=2,
            quantizer=quantizer,
            engine=engine,
            device="cpu" if engine == "torch" else None,
        )
        cached = execute_decoder(MICRO_DECODER, **kwargs)
        uncached = execute_decoder(MICRO_DECODER, plane_caching=False, **kwargs)
        assert np.array_equal(cached.outputs, uncached.outputs)
        assert cached.stats == uncached.stats

    @pytest.mark.parametrize("num_streams", [1, 3])
    def test_multi_stream_stream0_matches_solo_decoder(self, quantizer, num_streams):
        solo = execute_decoder(
            MICRO_DECODER, prompt_length=4, decode_tokens=2, quantizer=quantizer
        )
        multi = MultiStreamDecoder(
            MICRO_DECODER, num_streams=num_streams, quantizer=quantizer
        ).run(prompt_length=4, decode_tokens=2)
        assert multi.outputs is not None and len(multi.outputs) == num_streams
        if num_streams == 1:
            # One stream is the solo decoder: same GEMM grouping, exact.
            assert np.array_equal(multi.outputs[0], solo.outputs)
            assert multi.stats == solo.stats
        else:
            # Shared-weight projections become row-concatenated GEMMs.
            assert np.allclose(multi.outputs[0], solo.outputs, rtol=1e-9, atol=1e-9)
        assert multi.tokens_per_second > 0
        assert multi.output_rms_error < 0.5


def _record_decodes(monkeypatch):
    """A list that collects ``(tensor name, role)`` for every decode."""
    built = []
    real = VectorizedIndexDomainEngine._build_plane_set

    def spy(engine, tensor, role, shape, dictionary):
        built.append((tensor.name, role))
        return real(engine, tensor, role, shape, dictionary)

    monkeypatch.setattr(VectorizedIndexDomainEngine, "_build_plane_set", spy)
    return built


class TestPlaneCacheUnit:
    def _operands(self, quantizer, seed=0, m=3, k=5, n=4):
        rng = np.random.default_rng(seed)
        act = quantizer.quantize(rng.normal(0, 1.0, (m, k)), f"a.{seed}")
        wgt = quantizer.quantize(rng.normal(0, 0.3, (k, n)), f"w.{seed}")
        return act, wgt

    def test_counters_and_hit_rate(self, quantizer):
        act, wgt = self._operands(quantizer)
        cache = PlaneCache()
        with use_plane_cache(cache):
            first, _ = index_domain_matmul(act, wgt)  # decodes both: 2 misses
            stats = cache.stats()
            second, _ = index_domain_matmul(act, wgt)  # reuses both: 2 hits
        assert np.array_equal(first, second)
        final = cache.stats()
        assert (final.hits, final.misses, final.evictions) == (2, 2, 0)
        assert final.hit_rate == pytest.approx(0.5)
        delta = final.minus(stats)
        assert (delta.hits, delta.misses) == (2, 0)
        assert delta.entries == final.entries == 2
        assert delta.bytes_cached == final.bytes_cached > 0

    def test_plane_set_built_once_per_role(self, quantizer, monkeypatch):
        rng = np.random.default_rng(5)
        square = quantizer.quantize(rng.normal(0, 0.5, (4, 4)), "sq")
        built = _record_decodes(monkeypatch)
        with use_plane_cache(PlaneCache()):
            for _ in range(3):
                index_domain_matmul(square, square)
        assert sorted(built) == [("sq", "lhs"), ("sq", "rhs")]
        assert set(square._plane_sets) == {"lhs", "rhs"}

    def test_bytes_cached_returns_when_tensor_dropped(self, quantizer):
        cache = PlaneCache()
        before = cache.stats()
        act, wgt = self._operands(quantizer, seed=1)
        with use_plane_cache(cache):
            index_domain_matmul(act, wgt)
        held = cache.stats()
        assert held.entries == 2
        assert held.bytes_cached == sum(p.nbytes for p in (
            act._plane_sets["lhs"], wgt._plane_sets["rhs"]
        ))
        del act, wgt
        gc.collect()
        after = cache.stats()
        assert (after.entries, after.bytes_cached) == (before.entries, before.bytes_cached)

    def test_memo_ignored_without_caching(self, quantizer):
        """Under ``use_plane_cache(None)`` the memo is neither read nor written."""
        act, wgt = self._operands(quantizer, seed=2)
        with use_plane_cache(None):
            oracle_values, oracle_stats = index_domain_matmul(act, wgt)
        assert act._plane_sets == {} and wgt._plane_sets == {}

        engine = VectorizedIndexDomainEngine(act.dictionary, wgt.dictionary)
        good = engine._build_plane_set(wgt, "rhs", wgt.shape, wgt.dictionary)
        # A matching fit and shape: caching would trust it, the oracle must not.
        wgt._plane_sets["rhs"] = type(good)(
            dec=good.dec * 3.0, out=np.ones(wgt.shape, dtype=bool),
            role="rhs", fit_key=good.fit_key,
        )
        with use_plane_cache(None):
            values, stats = index_domain_matmul(act, wgt)
        assert np.array_equal(values, oracle_values)
        assert stats == oracle_stats

    def test_model_forwards_keep_bytes_flat(self, quantizer, monkeypatch):
        """Two forwards: weights decode once, the Q/K/V input once per forward."""
        executor = IndexDomainModelExecutor(MICRO_DECODER, quantizer=quantizer, seed=4)
        states = np.random.default_rng(4).normal(0, 1, (1, 6, 32)).astype(np.float32)
        built = _record_decodes(monkeypatch)
        cache = PlaneCache()
        with use_plane_cache(cache):
            first = executor.forward(states)
            qkv_first = built.count(("attention.query.in", "lhs"))
            second = executor.forward(states)
        assert first.plane_cache.bytes_cached == second.plane_cache.bytes_cached > 0
        assert qkv_first == 1
        assert built.count(("attention.query.in", "lhs")) == 2  # once per forward
        # The 6 weights are decoded only on the first forward.
        weights = {f"attention.{p}.weight" for p in ("query", "key", "value", "output")}
        weights |= {"ffn.intermediate.weight", "ffn.output.weight"}
        assert sum(name in weights for name, _role in built) == 6
        # Second forward: 6 weight reuses plus the Q/K/V input's 2 reuses;
        # the first forward reused only that input.
        assert (first.plane_cache.hits, second.plane_cache.hits) == (2, 8)
        assert second.plane_cache.misses == first.plane_cache.misses - 6
        assert second.stats == first.stats

    def test_use_plane_cache_restores_previous(self):
        original = get_plane_cache()
        inner = PlaneCache()
        with use_plane_cache(None):
            assert get_plane_cache() is None
            with use_plane_cache(inner):
                assert get_plane_cache() is inner
            assert get_plane_cache() is None
        assert get_plane_cache() is original

    def test_attached_planes_with_wrong_fit_are_rebuilt(self, quantizer):
        """A stale attachment (mismatched fit key) must not be trusted."""
        rng = np.random.default_rng(13)
        act = quantizer.quantize(rng.normal(0, 1.0, (2, 4)), "a")
        wgt = quantizer.quantize(rng.normal(0, 0.3, (4, 3)), "w")
        engine = VectorizedIndexDomainEngine(act.dictionary, wgt.dictionary)
        good = engine._build_plane_set(wgt, "rhs", wgt.shape, wgt.dictionary)
        with use_plane_cache(None):
            oracle_values, oracle_stats = index_domain_matmul(act, wgt)
        bogus = type(good)(
            dec=good.dec * 3.0,  # would change every value if trusted
            out=np.ones(wgt.shape, dtype=bool),  # and every count
            role="rhs",
            fit_key=(-1.0, -1.0, 1),  # no real fit looks like this
        )
        wgt._plane_sets["rhs"] = bogus
        with use_plane_cache(PlaneCache()):
            values, stats = index_domain_matmul(act, wgt)
        assert wgt._plane_sets["rhs"] is not bogus  # rebuilt and replaced
        assert np.array_equal(values, oracle_values)
        assert stats == oracle_stats

"""Perf benchmarks of the quantization and index-domain compute hot paths.

Unlike the figure/table benchmarks (which regenerate the paper's
*results*), the ``bench_perf_*`` files measure this reproduction's own
*throughput* and write it to ``BENCH_PERF.json`` so the perf trajectory
is visible PR-over-PR:

* ``quantization`` — tensor fit+encode throughput (values/s), and the
  encode alone against the ``searchsorted`` oracle it replaced, with the
  speedup **asserted** (>=4x at 768x768, >=2x on the tiny CI grid);
* ``index_matmul`` — the scalar reference engine vs the vectorized
  engine on a layer-scale GEMM, cold GEMM against cold GEMM, with the
  speedup **asserted** against a conservative floor so vectorization can
  never silently regress back to the Python loop (>=100x at the full
  128x768 @ 768x768 shape, >=20x on the tiny CI grid), and the bytes
  per weight parameter of the decoded operand memoised on the weight
  **asserted** <= 8.5 (one float64 decoded centroid plus its per-``k``
  Gaussian count);
* ``encoder_layer`` — an end-to-end index-domain encoder-layer forward
  at realistic shape (BERT-Base, seq 128), which the scalar engine could
  only finish in hours;
* ``full_model`` — the whole encoder stack (BERT-Base, all 12 layers,
  seq 128) end to end in the index domain, per-GEMM versus
  batched+weight-cached execution, with the speedup **asserted** so GEMM
  batching and the weight cache can never silently stop paying off;
* ``decoder_kv_cache`` — a GPT-style decoder (prefill + autoregressive
  steps) attending against the encoded index-domain KV cache, with the
  incremental plane cache on (and a plane-rebuild ablation next to it),
  its tokens/s **asserted** against a floor 5x the seed measurement;
* ``decoder_multi_stream`` — several concurrent serving streams decoded
  in lockstep through ``replay_decode_streams``, their independent
  GEMMs batched across streams.

Cold-vs-warm pairs (encoder layer, full model) measure the weight cache
directly: the warm leg reruns the identical workload through the same
executor, so every weight's encoding and the decoded operand memoised on
it are reused.  Tiny mode
(``REPRO_BENCH_TINY=1``) shrinks the shapes; the assertions stay.
"""

import gc
import time

import numpy as np
import pytest

from conftest import TINY_MODE, record_perf
from tests.test_tensor_dictionary import searchsorted_encode

from repro.core.index_compute import (
    IndexDomainEngine,
    VectorizedIndexDomainEngine,
    use_plane_cache,
)
from repro.serving import replay_decode_streams
from repro.transformer.config import TransformerConfig
from repro.transformer.index_execution import (
    IndexDomainEncoderExecutor,
    execute_encoder_layer,
)
from repro.transformer.index_model import (
    GPT_DECODER_CONFIG,
    IndexDomainModelExecutor,
    execute_decoder,
    execute_model,
)

# Layer-scale GEMM: the acceptance shape in full mode, a CI-sized grid in
# tiny mode.  The speedup floor is deliberately conservative (measured
# speedups are several times higher) so the assertion only fires when the
# vectorized path has actually degenerated.
if TINY_MODE:
    GEMM_M, GEMM_K, GEMM_N = 32, 128, 64
    SPEEDUP_FLOOR = 20.0
    ENCODE_SPEEDUP_FLOOR = 2.0
else:
    GEMM_M, GEMM_K, GEMM_N = 128, 768, 768
    SPEEDUP_FLOOR = 100.0
    ENCODE_SPEEDUP_FLOOR = 4.0
# A weight's memoised decoded operand holds its float64 decoded centroids
# (8 B/parameter) plus one int64 Gaussian count per row of K.
CACHE_BYTES_PER_WEIGHT_FLOOR = 8.5


def _best_of(fn, repeats: int = 3) -> float:
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - started)
    return best


def _gemm_operands(mokey_quantizer, m, k, n, seed=0):
    rng = np.random.default_rng(seed)
    activations = rng.normal(0.3, 1.8, (m, k))
    flat = activations.ravel()
    picks = rng.choice(flat.size, max(1, int(0.045 * flat.size)), replace=False)
    flat[picks] = rng.choice([-1, 1], picks.size) * 40.0
    weights = rng.normal(0, 0.02, (k, n))
    flat = weights.ravel()
    picks = rng.choice(flat.size, max(1, int(0.015 * flat.size)), replace=False)
    flat[picks] = rng.choice([-1, 1], picks.size) * 0.25
    return (
        mokey_quantizer.quantize(activations, "activation"),
        mokey_quantizer.quantize(weights, "weight"),
    )


def test_perf_quantization(mokey_quantizer):
    """Tensor fit+encode throughput, and encode alone against the
    ``searchsorted`` oracle it replaced (speedup asserted)."""
    rng = np.random.default_rng(7)
    values = rng.normal(0, 0.02, (GEMM_K, GEMM_N))
    seconds = _best_of(lambda: mokey_quantizer.quantize(values, "weight"))
    dictionary = mokey_quantizer.fit_dictionary("weight", values)
    # Ten encodes per timed run keep the tiny grid's ~0.1 ms encode above
    # timer and scheduler noise; the ratio is what the floor asserts.
    encode_seconds = _best_of(lambda: [dictionary.encode(values) for _ in range(10)]) / 10
    oracle_seconds = (
        _best_of(lambda: [searchsorted_encode(dictionary, values) for _ in range(10)]) / 10
    )
    throughput = values.size / seconds
    encode_speedup = oracle_seconds / encode_seconds
    print(
        f"\nquantization: {values.size} values, fit+encode {seconds * 1e3:.1f} ms "
        f"({throughput / 1e6:.1f} Mvalues/s); encode {encode_seconds * 1e3:.2f} ms "
        f"vs searchsorted {oracle_seconds * 1e3:.2f} ms ({encode_speedup:.1f}x, "
        f"floor {ENCODE_SPEEDUP_FLOOR:.0f}x)"
    )
    record_perf(
        "quantization",
        {
            "values": int(values.size),
            "seconds": seconds,
            "values_per_second": throughput,
            "encode_seconds": encode_seconds,
            "searchsorted_encode_seconds": oracle_seconds,
            "encode_speedup": encode_speedup,
            "encode_speedup_floor": ENCODE_SPEEDUP_FLOOR,
        },
    )
    assert throughput > 1e5  # fit+encode must stay far from pathological
    assert encode_speedup >= ENCODE_SPEEDUP_FLOOR


def test_perf_index_matmul_scalar_vs_vectorized(mokey_quantizer):
    """The tentpole guarantee: vectorized >= {100x, 20x tiny} over scalar.

    Both sides are timed best-of-3 with no plane cache, so the ratio
    compares a cold GEMM with a cold GEMM.  A separate cached GEMM then
    measures the footprint of the decoded operand it memoises on the
    weight, per weight parameter.
    """
    aq, wq = _gemm_operands(mokey_quantizer, GEMM_M, GEMM_K, GEMM_N)
    scalar_engine = IndexDomainEngine(aq.dictionary, wq.dictionary)
    vector_engine = VectorizedIndexDomainEngine(aq.dictionary, wq.dictionary)

    scalar_runs = []
    scalar_seconds = _best_of(lambda: scalar_runs.append(scalar_engine.matmul(aq, wq)))
    scalar_values, scalar_stats = scalar_runs[-1]
    with use_plane_cache(None):
        vector_seconds = _best_of(lambda: vector_engine.matmul(aq, wq))
    result = vector_engine.matmul(aq, wq)  # caching on: memoises the planes
    bytes_per_weight = wq._plane_sets["rhs"].nbytes / (GEMM_K * GEMM_N)

    speedup = scalar_seconds / vector_seconds
    macs = GEMM_M * GEMM_K * GEMM_N
    print(
        f"\nindex matmul {GEMM_M}x{GEMM_K} @ {GEMM_K}x{GEMM_N}: "
        f"scalar {scalar_seconds:.2f}s, vectorized {vector_seconds * 1e3:.1f} ms "
        f"({speedup:.0f}x, {macs / vector_seconds / 1e9:.2f} Gpairs/s vectorized), "
        f"decoded weight {bytes_per_weight:.2f} B/weight parameter "
        f"(floor {CACHE_BYTES_PER_WEIGHT_FLOOR})"
    )
    record_perf(
        "index_matmul",
        {
            "shape": [GEMM_M, GEMM_K, GEMM_N],
            "scalar_seconds": scalar_seconds,
            "vectorized_seconds": vector_seconds,
            "speedup": speedup,
            "speedup_floor": SPEEDUP_FLOOR,
            "vectorized_pairs_per_second": macs / vector_seconds,
            "plane_cache_bytes_per_weight": bytes_per_weight,
            "plane_cache_bytes_per_weight_floor": CACHE_BYTES_PER_WEIGHT_FLOOR,
        },
    )
    # Equivalence: same values (fp tolerance), identical statistics.
    assert np.allclose(scalar_values, result.values, rtol=1e-9, atol=1e-8)
    assert result.stats == scalar_stats
    assert bytes_per_weight <= CACHE_BYTES_PER_WEIGHT_FLOOR, (
        f"a decoded weight holds {bytes_per_weight:.2f} B per weight parameter "
        f"(floor {CACHE_BYTES_PER_WEIGHT_FLOOR}) — did the memo start keeping "
        f"more than the decoded operand?"
    )
    assert speedup >= SPEEDUP_FLOOR, (
        f"vectorized engine only {speedup:.1f}x over scalar "
        f"(floor {SPEEDUP_FLOOR}x) — did a code path fall back to Python loops?"
    )


def test_perf_encoder_layer_index_domain(mokey_quantizer):
    """End-to-end index-domain encoder layer at realistic shape."""
    if TINY_MODE:
        model = TransformerConfig(
            name="bert-base-tiny",
            num_layers=1,
            hidden_size=96,
            num_heads=4,
            intermediate_size=384,
            vocab_size=512,
        )
        sequence_length = 32
    else:
        model = "bert-base"
        sequence_length = 128
    executor = IndexDomainEncoderExecutor(quantizer=mokey_quantizer, cache_weights=True)
    measurement = execute_encoder_layer(
        model, sequence_length=sequence_length, executor=executor
    )
    # Warm forward through the same executor: identical weights, so every
    # weight GEMM reuses the cached encoding and its memoised decoded
    # operand — the "warm model forward" the weight cache exists for.
    warm = execute_encoder_layer(
        model, sequence_length=sequence_length, executor=executor
    )
    pairs = measurement.stats.total_pairs
    warm_cache = warm.plane_cache.to_dict() if warm.plane_cache else {}
    print(
        f"\nencoder layer ({measurement.model}, seq {sequence_length}): "
        f"{measurement.total_seconds:.2f}s total "
        f"(quantize {measurement.quantize_seconds:.2f}s, "
        f"engine {measurement.engine_seconds:.2f}s), warm "
        f"{warm.total_seconds:.2f}s (quantize {warm.quantize_seconds:.2f}s, "
        f"plane hit rate {warm_cache.get('hit_rate', 0.0):.2f}), "
        f"{pairs / 1e6:.0f} Mpairs, outlier {100 * measurement.outlier_pair_fraction:.2f}%, "
        f"output RMS err {measurement.output_rms_error:.4f}"
    )
    record_perf(
        "encoder_layer",
        {
            "model": measurement.model,
            "sequence_length": sequence_length,
            "total_seconds": measurement.total_seconds,
            "quantize_seconds": measurement.quantize_seconds,
            "engine_seconds": measurement.engine_seconds,
            "warm_total_seconds": warm.total_seconds,
            "warm_quantize_seconds": warm.quantize_seconds,
            "warm_plane_cache": warm_cache,
            "warm_weight_cache_hits": executor.weight_cache_hits,
            "pairs": pairs,
            "pairs_per_second": pairs / max(measurement.engine_seconds, 1e-9),
            "outlier_pair_fraction": measurement.outlier_pair_fraction,
            "output_rms_error": measurement.output_rms_error,
        },
    )
    # "Completes in seconds": a full BERT-Base layer at seq 128 must stay
    # far below a minute (the scalar engine would need hours).
    assert measurement.total_seconds < 60.0
    assert measurement.output_rms_error < 0.5
    assert 0.0 < measurement.outlier_pair_fraction < 0.2
    # Caching is a pure execution strategy: the warm forward replays the
    # identical arithmetic (bit-identical op counts), and every one of its
    # six weight GEMMs hits the weight cache.
    assert warm.stats == measurement.stats
    assert executor.weight_cache_hits == 6


# Full-model shapes: all of BERT-Base in full mode, a two-layer nano
# stack in tiny mode.  The speedup floor compares a warmed batched+cached
# executor against cold per-GEMM execution; it is deliberately
# conservative (the weight cache alone removes the majority of quantize
# time) so the assertion only fires when batching or caching has actually
# stopped working.
if TINY_MODE:
    MODEL_SPEC = TransformerConfig(
        name="bert-nano",
        num_layers=2,
        hidden_size=96,
        num_heads=4,
        intermediate_size=384,
        vocab_size=512,
    )
    MODEL_SEQ = 32
    MODEL_SPEEDUP_FLOOR = 1.1
    DECODER_SPEC = TransformerConfig(
        name="gpt-nano",
        num_layers=2,
        hidden_size=96,
        num_heads=4,
        intermediate_size=384,
        vocab_size=512,
    )
    PROMPT_LENGTH, DECODE_TOKENS = 16, 4
    # Plane-cached decode floor: conservative (measured is several times
    # higher) so CI only fires when the incremental cache stops working.
    DECODER_TPS_FLOOR = 2.0
    STREAMS, STREAM_PROMPT, STREAM_DECODE = 2, 8, 4
else:
    MODEL_SPEC = "bert-base"
    MODEL_SEQ = 128
    MODEL_SPEEDUP_FLOOR = 1.5
    DECODER_SPEC = GPT_DECODER_CONFIG
    PROMPT_LENGTH, DECODE_TOKENS = 32, 8
    # The ISSUE 9 acceptance floor: >= 5x the seed BENCH_PERF measurement
    # of 0.325 tokens/s (measured with the plane cache: ~2x the floor).
    DECODER_TPS_FLOOR = 1.6
    STREAMS, STREAM_PROMPT, STREAM_DECODE = 4, 16, 8


def test_perf_full_model_index_domain(mokey_quantizer):
    """End-to-end encoder stack: per-GEMM baseline vs batched+cached."""
    # The baseline must measure the truly uncached cost: no weight cache
    # and no decoded-operand memo — otherwise reused operands would speed
    # up the "per-GEMM" leg and understate the real speedup.
    with use_plane_cache(None):
        baseline = execute_model(
            MODEL_SPEC,
            sequence_length=MODEL_SEQ,
            quantizer=mokey_quantizer,
            cache_weights=False,
            gemm_batching=False,
        )
    executor = IndexDomainModelExecutor(
        MODEL_SPEC, quantizer=mokey_quantizer, cache_weights=True, gemm_batching=True
    )
    cold = execute_model(MODEL_SPEC, sequence_length=MODEL_SEQ, executor=executor)
    warm = execute_model(MODEL_SPEC, sequence_length=MODEL_SEQ, executor=executor)

    speedup = baseline.total_seconds / warm.total_seconds
    pairs = warm.stats.total_pairs
    warm_cache = warm.plane_cache.to_dict() if warm.plane_cache else {}
    print(
        f"\nfull model ({baseline.model}, {baseline.num_layers} layers, "
        f"seq {MODEL_SEQ}): per-GEMM {baseline.total_seconds:.2f}s, "
        f"batched+cached cold {cold.total_seconds:.2f}s / warm "
        f"{warm.total_seconds:.2f}s ({speedup:.2f}x, "
        f"{pairs / warm.engine_seconds / 1e9:.2f} Gpairs/s engine), "
        f"{warm.weight_cache_hits} cache hits, plane hit rate "
        f"{warm_cache.get('hit_rate', 0.0):.2f}, "
        f"output RMS err {warm.output_rms_error:.4f}"
    )
    record_perf(
        "full_model",
        {
            "model": baseline.model,
            "num_layers": baseline.num_layers,
            "sequence_length": MODEL_SEQ,
            "per_gemm_seconds": baseline.total_seconds,
            "batched_cold_seconds": cold.total_seconds,
            "batched_warm_seconds": warm.total_seconds,
            "batched_vs_per_gemm_speedup": speedup,
            "speedup_floor": MODEL_SPEEDUP_FLOOR,
            "pairs": pairs,
            "pairs_per_second": pairs / max(warm.engine_seconds, 1e-9),
            "quantize_seconds_warm": warm.quantize_seconds,
            "engine_seconds_warm": warm.engine_seconds,
            "weight_cache_hits_warm": warm.weight_cache_hits,
            "warm_plane_cache": warm_cache,
            "outlier_pair_fraction": warm.outlier_pair_fraction,
            "output_rms_error": warm.output_rms_error,
        },
    )
    # Equivalence: batching + caching are pure execution strategies — the
    # operation counts and the numerical trajectory must not move.
    assert warm.stats == baseline.stats
    assert np.isclose(warm.output_rms_error, baseline.output_rms_error)
    # One hit per weight GEMM per layer on the warm forward.
    assert warm.weight_cache_hits == 6 * warm.num_layers
    assert cold.weight_cache_hits == 0
    # A full BERT-Base forward must stay interactive (the scalar engine
    # would need days), and the optimisations must keep paying off.
    assert warm.total_seconds < 120.0
    assert speedup >= MODEL_SPEEDUP_FLOOR, (
        f"batched+cached full-model forward only {speedup:.2f}x over per-GEMM "
        f"(floor {MODEL_SPEEDUP_FLOOR}x) — did GEMM batching or the weight "
        f"cache stop being used?"
    )


def test_perf_decoder_kv_cache(mokey_quantizer):
    """GPT-style decode throughput against the encoded KV cache.

    The cached leg runs first (cold planes) so its tokens/s is an honest
    cold-process number for the floor.  The uncached leg then replays the
    identical workload with plane caching off, so the comparison isolates
    the plane rebuild cost the incremental cache removes — and its
    outputs/stats double as the bit-identity oracle.

    Collecting what earlier bench tests left behind first keeps this a
    reproducible cold measurement instead of one coloured by suite order
    and allocator pressure.
    """
    gc.collect()
    measurement = execute_decoder(
        DECODER_SPEC,
        prompt_length=PROMPT_LENGTH,
        decode_tokens=DECODE_TOKENS,
        quantizer=mokey_quantizer,
    )
    uncached = execute_decoder(
        DECODER_SPEC,
        prompt_length=PROMPT_LENGTH,
        decode_tokens=DECODE_TOKENS,
        quantizer=mokey_quantizer,
        plane_caching=False,
    )
    cache = measurement.plane_cache.to_dict() if measurement.plane_cache else {}
    print(
        f"\ndecoder ({measurement.model}, {measurement.num_layers} layers, "
        f"prompt {PROMPT_LENGTH} + {DECODE_TOKENS} steps): "
        f"prefill {measurement.prefill_seconds:.2f}s, decode "
        f"{measurement.decode_seconds:.2f}s "
        f"({measurement.tokens_per_second:.2f} tokens/s, floor "
        f"{DECODER_TPS_FLOOR}), plane-rebuild ablation "
        f"{uncached.tokens_per_second:.2f} tokens/s, plane hit rate "
        f"{cache.get('hit_rate', 0.0):.2f}, "
        f"{measurement.stats.total_pairs / 1e6:.1f} Mpairs, "
        f"output RMS err {measurement.output_rms_error:.4f}"
    )
    record_perf(
        "decoder_kv_cache",
        {
            "model": measurement.model,
            "num_layers": measurement.num_layers,
            "prompt_length": PROMPT_LENGTH,
            "decode_tokens": DECODE_TOKENS,
            "prefill_seconds": measurement.prefill_seconds,
            "decode_seconds": measurement.decode_seconds,
            "tokens_per_second": measurement.tokens_per_second,
            "tokens_per_second_floor": DECODER_TPS_FLOOR,
            "tokens_per_second_plane_rebuild": uncached.tokens_per_second,
            "plane_cache": cache,
            "pairs": measurement.stats.total_pairs,
            "cached_tokens": measurement.cached_tokens,
            "outlier_pair_fraction": measurement.outlier_pair_fraction,
            "output_rms_error": measurement.output_rms_error,
        },
    )
    # The cache must hold exactly one K/V row per processed token, and
    # decoding against encoded K/V must stay interactive and accurate.
    assert measurement.cached_tokens == PROMPT_LENGTH + DECODE_TOKENS
    assert measurement.output_rms_error < 0.5
    # Bit-identity: the incremental plane cache is a pure execution
    # strategy — outputs and op counts match the uncached oracle exactly.
    assert np.array_equal(measurement.outputs, uncached.outputs)
    assert measurement.stats == uncached.stats
    # The ISSUE 9 floor: plane-cached decode must stay >= 5x the seed.
    assert measurement.tokens_per_second >= DECODER_TPS_FLOOR, (
        f"plane-cached decode only {measurement.tokens_per_second:.2f} "
        f"tokens/s (floor {DECODER_TPS_FLOOR}) — did the incremental "
        f"plane cache stop being used?"
    )


def test_perf_decoder_multi_stream(mokey_quantizer):
    """Lockstep multi-stream decode through the serving entry point."""
    result = replay_decode_streams(
        model=DECODER_SPEC,
        num_streams=STREAMS,
        prompt_length=STREAM_PROMPT,
        decode_tokens=STREAM_DECODE,
    )
    print(
        f"\nmulti-stream decode ({STREAMS} streams, prompt {STREAM_PROMPT} "
        f"+ {STREAM_DECODE} steps): prefill {result.prefill_seconds:.2f}s, "
        f"decode {result.decode_seconds:.2f}s "
        f"({result.tokens_per_second:.2f} aggregate tokens/s, "
        f"{result.per_stream_tokens_per_second:.2f} per stream), "
        f"worst RMS err {result.output_rms_error:.4f}"
    )
    record_perf("decoder_multi_stream", result.to_dict())
    assert result.output_rms_error < 0.5
    # Batching S streams into shared GEMMs must beat S serial decodes:
    # aggregate throughput clears the solo floor with streams to spare.
    assert result.tokens_per_second >= DECODER_TPS_FLOOR

"""Tests for the tensor-level MokeyQuantizer and QuantizedTensor."""

import numpy as np
import pytest

from repro.core.quantizer import MokeyQuantizer, QuantizedTensor


class TestQuantizeTensor:
    def test_quantize_returns_quantized_tensor(self, quantizer, rng):
        values = rng.normal(0, 0.02, (64, 32))
        q = quantizer.quantize(values, name="w")
        assert isinstance(q, QuantizedTensor)
        assert q.shape == (64, 32)
        assert q.size == 64 * 32
        assert q.name == "w"

    def test_dequantize_shape_and_dtype(self, quantizer, rng):
        values = rng.normal(0, 1, (8, 8))
        q = quantizer.quantize(values)
        recon = q.dequantize()
        assert recon.shape == values.shape
        assert recon.dtype == np.float32

    def test_reconstruction_close_for_weight_like_tensor(self, quantizer, rng):
        values = rng.normal(0, 0.02, 4096)
        q = quantizer.quantize(values)
        err = q.quantization_error(values)
        assert err["relative_mae"] < 0.3
        assert err["mae"] < 0.01

    def test_reuse_of_prefit_dictionary(self, quantizer, rng):
        values = rng.normal(0, 1, 1000)
        dictionary = quantizer.fit_dictionary("act", values)
        q1 = quantizer.quantize(values, dictionary=dictionary)
        q2 = quantizer.quantize(values, name="act")
        assert np.allclose(q1.dequantize(), q2.dequantize())

    def test_quantize_dequantize_convenience(self, quantizer, rng):
        values = rng.normal(0, 1, 256)
        direct = quantizer.quantize_dequantize(values)
        via_object = quantizer.quantize(values).dequantize()
        assert np.allclose(direct, via_object)

    def test_fit_dictionary_from_stats(self, quantizer, rng):
        samples = rng.normal(3.0, 2.0, 5000)
        dictionary = quantizer.fit_dictionary_from_stats(
            "act", mean=3.0, std=2.0, minimum=float(samples.min()),
            maximum=float(samples.max()), samples=samples,
        )
        recon = dictionary.quantize_dequantize(samples)
        assert np.abs(recon - samples).mean() / np.abs(samples).mean() < 0.35


class TestFootprintAccounting:
    def test_value_bits_is_four_per_value(self, quantizer, rng):
        q = quantizer.quantize(rng.normal(0, 1, 128))
        assert q.value_bits() == 128 * 4

    def test_memory_bits_includes_pointers_and_metadata(self, quantizer, rng):
        q = quantizer.quantize(rng.normal(0, 1, 128))
        assert q.memory_bits() > q.value_bits()
        # Metadata is bounded: dictionaries + constants + group pointers.
        assert q.memory_bits() < q.value_bits() + 2000

    def test_compression_ratio_against_fp32(self, quantizer, rng):
        # Large tensors amortise the dictionary metadata: ratio approaches 8x
        # against FP32 (32b -> ~4.1b effective).
        q = quantizer.quantize(rng.normal(0, 0.02, 100_000))
        assert 6.0 < q.compression_ratio(32) < 8.1

    def test_compression_ratio_against_fp16(self, quantizer, rng):
        q = quantizer.quantize(rng.normal(0, 0.02, 100_000))
        assert 3.0 < q.compression_ratio(16) < 4.1

    def test_outlier_fraction_matches_encoding(self, quantizer, rng):
        values = rng.normal(0, 1, 10_000)
        values[:200] = 40.0  # forced outliers
        q = quantizer.quantize(values)
        assert q.outlier_count >= 200
        assert q.outlier_fraction == pytest.approx(q.outlier_count / 10_000)


class TestConfiguration:
    def test_default_golden_generated_lazily(self):
        # Constructing without a golden dictionary must still work (slow path
        # exercised once here with reduced parameters via explicit argument).
        from repro.core.golden_dictionary import generate_golden_dictionary

        golden = generate_golden_dictionary(num_samples=2000, num_repeats=1)
        q = MokeyQuantizer(golden)
        assert q.golden is golden

    def test_non_exponential_mode(self, golden, rng):
        q = MokeyQuantizer(golden, use_exponential=False)
        values = rng.normal(0, 1, 1000)
        recon = q.quantize_dequantize(values)
        assert np.abs(recon - values).mean() / np.abs(values).mean() < 0.35


class TestFitMemoAndDigest:
    """Fit counting (the fit memo is gone; ``fit_memo_hits``/``misses`` stay
    as plain counters), the content digest, and the engines' once-per-
    dictionary exponential-centroid check."""

    def test_every_fit_counts_a_miss(self, golden, rng):
        q = MokeyQuantizer(golden)
        values = rng.normal(0, 0.5, 512)
        first = q.quantize(values, "w")
        second = q.quantize(values, "w")
        q.quantize(values, "w", dictionary=first.dictionary)  # no fit, no count
        assert (q.fit_memo_hits, q.fit_memo_misses) == (0, 2)
        assert second.dictionary is not first.dictionary  # a refit, not a lookup
        for field in ("is_outlier", "sign", "gaussian_index", "outlier_index"):
            assert np.array_equal(getattr(first.encoded, field), getattr(second.encoded, field))
        assert first.content_digest() == second.content_digest()

    def test_quantizer_pickles(self, golden, rng):
        import pickle

        q = MokeyQuantizer(golden)
        values = rng.normal(0, 0.5, 128)
        original = q.quantize(values, "w")
        clone = pickle.loads(pickle.dumps(q))
        assert clone.fit_memo_misses == 1
        assert clone.quantize(values, "w").content_digest() == original.content_digest()

    def test_engines_check_each_dictionary_once(self, quantizer, rng, monkeypatch):
        from repro.core.exponential_fit import ExponentialFit
        from repro.core.index_compute import VectorizedIndexDomainEngine

        aq = quantizer.quantize(rng.normal(0, 1, (4, 8)), "a")
        wq = quantizer.quantize(rng.normal(0, 0.02, (8, 3)), "w")
        calls = []
        real = ExponentialFit.magnitudes
        monkeypatch.setattr(
            ExponentialFit, "magnitudes", lambda fit: calls.append(fit) or real(fit)
        )
        for _ in range(20):
            VectorizedIndexDomainEngine(aq.dictionary, wq.dictionary)
        assert len(calls) <= 2  # at most once per dictionary

    def test_non_exponential_dictionary_still_refused(self, golden, rng):
        from repro.core.index_compute import VectorizedIndexDomainEngine

        exact = MokeyQuantizer(golden).quantize(rng.normal(0, 1, (2, 8)), "a")
        plain = MokeyQuantizer(golden, use_exponential=False)
        wq = plain.quantize(rng.normal(0, 0.02, (8, 3)), "w")
        for _ in range(2):  # the cached verdict refuses again
            with pytest.raises(ValueError, match="use_exponential=True"):
                VectorizedIndexDomainEngine(exact.dictionary, wq.dictionary)

    def test_content_digest_distinguishes_values_and_shape(self, quantizer, rng):
        values = rng.normal(0, 0.5, (8, 8))
        base = quantizer.quantize(values, "w")
        same = quantizer.quantize(values.copy(), "w")
        other = quantizer.quantize(values + 1e-3, "w")
        reshaped = quantizer.quantize(values.reshape(4, 16), "w")
        assert base.content_digest() == same.content_digest()
        assert base.content_digest() != other.content_digest()
        assert base.content_digest() != reshaped.content_digest()

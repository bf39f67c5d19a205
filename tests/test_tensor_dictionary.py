"""Tests for per-tensor dictionary fitting, encoding and decoding."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.fixed_point import FixedPointFormat
from repro.core.quantizer import MokeyQuantizer, QuantizedTensor
from repro.core.tensor_dictionary import ENCODE_BLOCK, EncodedValues, TensorDictionary


def searchsorted_encode(dictionary: TensorDictionary, values) -> EncodedValues:
    """The straightforward ``np.searchsorted`` encode: the oracle that
    :meth:`TensorDictionary.encode` must match bit for bit on finite input."""
    values = np.asarray(values, dtype=np.float64)
    centred = values - dictionary.mean
    is_outlier = np.abs(centred) > dictionary.threshold
    if not dictionary.has_outliers:
        is_outlier = np.zeros_like(is_outlier)
    sign = np.where(centred >= 0, 1, -1).astype(np.int8)
    half = dictionary.gaussian_half
    gaussian_index = np.searchsorted((half[:-1] + half[1:]) / 2.0, np.abs(centred) / dictionary.std)
    outlier_index = np.zeros(values.shape, dtype=np.int8)
    if dictionary.has_outliers:
        ot = dictionary.outlier_centroids
        outlier_index = np.searchsorted((ot[:-1] + ot[1:]) / 2.0, values).astype(np.int8)
    return EncodedValues(is_outlier, sign, gaussian_index.astype(np.int8), outlier_index)


def _gaussian_with_outliers(rng, n=4000, mean=0.5, std=2.0, outlier_fraction=0.02):
    values = rng.normal(mean, std, n)
    k = int(n * outlier_fraction)
    idx = rng.choice(n, k, replace=False)
    values[idx] = mean + rng.choice([-1, 1], k) * rng.uniform(6 * std, 12 * std, k)
    return values


class TestFitting:
    def test_fit_from_values_records_statistics(self, golden, rng):
        values = _gaussian_with_outliers(rng)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        assert dictionary.mean == pytest.approx(values.mean(), abs=0.05)
        assert dictionary.std == pytest.approx(values.std(), rel=0.05)
        assert dictionary.has_outliers

    def test_fit_from_stats_matches_fit_from_values(self, golden, rng):
        values = _gaussian_with_outliers(rng)
        from_values = TensorDictionary.fit("a", golden, values=values)
        from_stats = TensorDictionary.fit(
            "b",
            golden,
            mean=float(values.mean()),
            std=float(values.std()),
            minimum=float(values.min()),
            maximum=float(values.max()),
            outlier_samples=values,
        )
        assert from_stats.mean == pytest.approx(from_values.mean)
        assert from_stats.std == pytest.approx(from_values.std)
        assert np.allclose(from_stats.outlier_centroids, from_values.outlier_centroids)

    def test_fit_requires_values_or_stats(self, golden):
        with pytest.raises(ValueError):
            TensorDictionary.fit("t", golden)

    def test_empty_tensor_rejected(self, golden):
        with pytest.raises(ValueError):
            TensorDictionary.fit("t", golden, values=np.empty(0))

    def test_no_outliers_for_pure_gaussian_without_tail(self, golden, rng):
        values = np.clip(rng.normal(0, 1, 2000), -2, 2)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        assert not dictionary.has_outliers

    def test_outlier_centroid_count_bounded(self, golden, rng):
        values = _gaussian_with_outliers(rng, outlier_fraction=0.1)
        dictionary = TensorDictionary.fit("t", golden, values=values, max_outlier_entries=16)
        assert 0 < dictionary.outlier_centroids.size <= 16

    def test_threshold_scales_with_std(self, golden, rng):
        narrow = TensorDictionary.fit("n", golden, values=rng.normal(0, 0.1, 2000))
        wide = TensorDictionary.fit("w", golden, values=rng.normal(0, 10.0, 2000))
        assert wide.threshold > narrow.threshold * 50

    def test_metadata_bits_small(self, golden, rng):
        values = _gaussian_with_outliers(rng)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        # 8 Gaussian + <=16 outlier centroids + 4 constants at 16 bits each.
        assert dictionary.metadata_bits() <= (8 + 16 + 4) * 16


class TestEncodeDecode:
    def test_round_trip_error_small_for_gaussian_core(self, golden, rng):
        values = rng.normal(1.0, 2.0, 5000)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        recon = dictionary.quantize_dequantize(values)
        relative = np.abs(recon - values).mean() / np.abs(values).mean()
        assert relative < 0.35  # 4-bit quantization error envelope

    def test_outliers_reconstructed_closely(self, golden, rng):
        values = _gaussian_with_outliers(rng)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        recon = dictionary.decode(encoded)
        outlier_positions = encoded.is_outlier
        if outlier_positions.any():
            errors = np.abs(recon[outlier_positions] - values[outlier_positions])
            spans = np.abs(values[outlier_positions])
            assert np.median(errors / spans) < 0.35

    def test_encode_preserves_shape(self, golden, rng):
        values = rng.normal(0, 1, (13, 7))
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        assert encoded.shape == (13, 7)
        assert dictionary.decode(encoded).shape == (13, 7)

    def test_gaussian_index_within_range(self, golden, rng):
        values = rng.normal(0, 3, 1000)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        assert encoded.gaussian_index.min() >= 0
        assert encoded.gaussian_index.max() <= 7

    def test_sign_matches_centred_value(self, golden, rng):
        values = rng.normal(0, 1, 1000)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        centred = values - dictionary.mean
        assert np.all((encoded.sign >= 0) == (centred >= 0))

    def test_outlier_fraction_accounting(self, golden, rng):
        values = _gaussian_with_outliers(rng, outlier_fraction=0.03)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        assert encoded.outlier_fraction == pytest.approx(
            encoded.outlier_count / values.size
        )
        assert 0.005 < encoded.outlier_fraction < 0.08

    def test_decode_without_fixed_point_is_exact_dictionary_value(self, golden, rng):
        values = rng.normal(0, 1, 100)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        encoded = dictionary.encode(values)
        exact = dictionary.decode(encoded, apply_fixed_point=False)
        rounded = dictionary.decode(encoded, apply_fixed_point=True)
        assert np.max(np.abs(exact - rounded)) <= dictionary.fixed_point.scale / 2 + 1e-12

    def test_gaussian_centroids_sorted_and_symmetric_about_mean(self, golden, rng):
        values = rng.normal(2.0, 1.5, 2000)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        centroids = dictionary.gaussian_centroids()
        assert centroids.size == 16
        assert np.all(np.diff(centroids) > 0)
        mid = (centroids[:8][::-1] + centroids[8:]) / 2.0
        assert np.allclose(mid, dictionary.mean, atol=2 * dictionary.fixed_point.scale)

    def test_all_centroids_combines_both_dictionaries(self, golden, rng):
        values = _gaussian_with_outliers(rng)
        dictionary = TensorDictionary.fit("t", golden, values=values)
        combined = dictionary.all_centroids()
        assert combined.size == 16 + dictionary.outlier_centroids.size
        assert np.all(np.diff(combined) >= 0)


# Shapes around the encode block boundary, plus empty, single and 0-d.
_ENCODE_SHAPES = [(), (0,), (1,), (3, 5), (ENCODE_BLOCK - 1,), (ENCODE_BLOCK,), (ENCODE_BLOCK + 1,)]
_moderate = st.floats(-1e3, 1e3, allow_nan=False)


@st.composite
def _dictionaries(draw, golden):
    """Dictionaries with 0, 1, 2 or 16 outlier centroids; a coarse
    fixed-point grid makes duplicate centroids after rounding likely."""
    unit = draw(st.booleans())  # mean 0 / std 1 puts Gaussian midpoints exactly in input space
    mean = 0.0 if unit else draw(_moderate)
    std = 1.0 if unit else draw(st.floats(1e-6, 1e3))
    fixed_point = FixedPointFormat(total_bits=16, frac_bits=draw(st.sampled_from([-2, 0, 4, 10])))
    count = draw(st.sampled_from([0, 1, 2, 16]))
    raw = draw(st.lists(_moderate, min_size=count, max_size=count))
    return TensorDictionary(
        name="t",
        mean=mean,
        std=std,
        golden=golden,
        gaussian_half=golden.stored_half(),
        outlier_centroids=fixed_point.quantize(np.sort(np.asarray(raw, dtype=np.float64))),
        fixed_point=fixed_point,
        threshold=golden.gaussian_threshold() * std,
    )


def _midpoint_values(dictionary):
    """Values that land exactly on a Gaussian or outlier table midpoint."""
    half = dictionary.gaussian_half
    offsets = (half[:-1] + half[1:]) / 2.0 * dictionary.std
    ot = dictionary.outlier_centroids
    mean = dictionary.mean
    return np.concatenate([mean + offsets, mean - offsets, (ot[:-1] + ot[1:]) / 2.0, ot])


class TestEncodeMatchesSearchsorted:
    """The blocked midpoint-count encode is the searchsorted encode, bit for bit."""

    @given(data=st.data())
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    def test_all_fields_and_digest_identical(self, golden, data):
        dictionary = data.draw(_dictionaries(golden))
        shape = data.draw(st.sampled_from(_ENCODE_SHAPES))
        pool = data.draw(
            st.lists(
                st.floats(allow_nan=False, allow_infinity=False) | _moderate
                | st.sampled_from(list(_midpoint_values(dictionary))),
                min_size=1,
                max_size=40,
            )
        )
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        values = rng.choice(np.asarray(pool, dtype=np.float64), size=shape)

        with np.errstate(over="ignore"):  # huge finite |x - m| / s may round to inf
            ours, oracle = dictionary.encode(values), searchsorted_encode(dictionary, values)
        for field in ("is_outlier", "sign", "gaussian_index", "outlier_index"):
            got, want = np.asarray(getattr(ours, field)), np.asarray(getattr(oracle, field))
            assert got.dtype == want.dtype, field
            assert got.shape == want.shape == values.shape, field
            assert np.array_equal(got, want), field
        digest = QuantizedTensor("t", values.shape, ours, dictionary).content_digest()
        assert digest == QuantizedTensor("t", values.shape, oracle, dictionary).content_digest()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
class TestNonFiniteInputRefused:
    """NaN and inf fail fast with one line naming the tensor, at every entry point."""

    @staticmethod
    def _refused(call, name):
        with pytest.raises(ValueError, match=f"tensor '{name}'.*non-finite") as refused:
            call()
        assert "\n" not in str(refused.value)

    def test_encode(self, golden, rng, bad):
        dictionary = TensorDictionary.fit("kv.key", golden, values=_gaussian_with_outliers(rng))
        values = rng.normal(0, 1, ENCODE_BLOCK + 7)
        values[ENCODE_BLOCK + 3] = bad  # in the second block
        self._refused(lambda: dictionary.encode(values), "kv.key")

    def test_fit_values(self, golden, rng, bad):
        values = rng.normal(0, 1, 500)
        values[17] = bad
        self._refused(lambda: TensorDictionary.fit("w", golden, values=values), "w")

    def test_fit_stats(self, golden, bad):
        stats = dict(mean=0.0, std=1.0, minimum=-4.0, maximum=4.0)
        for key in stats:
            broken = {**stats, key: bad}
            self._refused(lambda: TensorDictionary.fit("act", golden, **broken), "act")

    def test_fit_outlier_samples(self, golden, rng, bad):
        samples = _gaussian_with_outliers(rng)
        samples[3] = bad
        self._refused(
            lambda: TensorDictionary.fit(
                "act", golden, mean=0.5, std=2.0, minimum=-30.0, maximum=30.0,
                outlier_samples=samples,
            ),
            "act",
        )

    def test_fit_dictionary_from_stats(self, golden, bad):
        quantizer = MokeyQuantizer(golden)
        self._refused(
            lambda: quantizer.fit_dictionary_from_stats("act", bad, 1.0, -4.0, 4.0), "act"
        )

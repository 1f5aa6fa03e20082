import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import INT64_MAX, MAX_SAMPLES, copying_noise, literal_bandlimited_noise
from upspec.generators import (
    bandlimited_noise,
    checkerboard_image,
    composite_image,
    cosine_mixture,
    cosine_signal,
    gaussian_blob_image,
    step_signal,
)


class TestCosine:
    def test_zero_frequency_is_constant(self):
        np.testing.assert_allclose(cosine_signal(8, 0, amplitude=2.5), np.full(8, 2.5))

    def test_single_cycle(self):
        out = cosine_signal(4, 1)
        np.testing.assert_allclose(out, [1, 0, -1, 0], atol=1e-12)

    def test_mixture_is_sum(self):
        comps = [(1, 1.0, 0.0), (2, 0.5, 0.3)]
        expected = cosine_signal(16, 1) + cosine_signal(16, 2, 0.5, 0.3)
        np.testing.assert_allclose(cosine_mixture(16, comps), expected)

    @pytest.mark.parametrize("amplitude, phase, message", [
        (np.inf, 0.0, "amplitude must be finite, got inf"),
        (np.nan, 0.0, "amplitude must be finite, got nan"),
        (1.0, -np.inf, "phase must be finite, got -inf"),
        (1.0, np.nan, "phase must be finite, got nan"),
    ])
    def test_non_finite_amplitude_or_phase_is_rejected(self, amplitude, phase, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            cosine_signal(8, 1, amplitude, phase)
        with pytest.raises(ValueError, match=f"^{message}$"):
            cosine_mixture(8, [(1, 1.0, 0.0), (2, amplitude, phase)])

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), frequency=st.integers(-200, 200) | st.integers()
           | st.sampled_from([10 ** 307, 10 ** 400, -(10 ** 400) - 3]),
           phase=st.floats(-4, 4))
    def test_frequency_is_taken_modulo_n(self, n, frequency, phase):
        # |frequency| < n keeps the formula's bytes; any other frequency gives
        # the bytes of frequency % n, with no numpy warning on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = cosine_signal(n, frequency, 1.5, phase)
        f = frequency if abs(frequency) < n else frequency % n
        expected = 1.5 * np.cos(2.0 * np.pi * f * np.arange(n) / n + phase)
        assert out.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("amplitude", [1e308, -1e308])
    def test_overflowing_mixture_is_rejected(self, amplitude):
        # each term is finite; their sum overflows at samples 0 and 4
        with pytest.raises(ValueError, match="^the cosine mixture's sum is not finite$"):
            cosine_mixture(8, [(1, amplitude, 0.0), (1, amplitude, 0.0)])


class TestBandlimitedNoise:
    def test_band_limit_respected(self):
        x = bandlimited_noise(64, cutoff=4, seed=7)
        f = np.fft.fftshift(np.fft.fft(x))
        kc = np.arange(64) - 32
        assert np.max(np.abs(f[np.abs(kc) > 4])) <= 1e-12 * np.max(np.abs(f))

    def test_same_seed_bit_identical(self):
        a = bandlimited_noise(128, 20, seed=42)
        b = bandlimited_noise(128, 20, seed=42)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, bandlimited_noise(128, 20, seed=43))

    def test_cutoff_must_stay_below_nyquist(self):
        with pytest.raises(ValueError):
            bandlimited_noise(64, cutoff=32, seed=1)
        bandlimited_noise(64, cutoff=31, seed=1)  # largest legal band

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
    def test_equals_bin_by_bin_draws(self, data, n, seed):
        cutoff = data.draw(st.integers(0, (n - 1) // 2))
        np.testing.assert_array_equal(bandlimited_noise(n, cutoff, seed),
                                      literal_bandlimited_noise(n, cutoff, seed))

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), n=st.integers(2, 300), seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_the_complex_temporary_recipe(self, data, n, seed):
        # the draws go through the spectrum's real and imaginary views
        cutoff = data.draw(st.integers(0, (n - 1) // 2))
        assert bandlimited_noise(n, cutoff, seed).tobytes() == \
            copying_noise(n, cutoff, seed).tobytes()


class TestOtherGenerators:
    # sizes of samples or pixels take at most 2**60 - 1, numpy's largest
    # float64 array; the period 2**63 - 1; the frequency any integer
    @pytest.mark.parametrize("make, name, bounds", [
        pytest.param(make, name, bounds, id=id_) for id_, make, name, bounds in [
            ("cosine_signal-n", lambda v: cosine_signal(v, 1), "n", (1, MAX_SAMPLES)),
            ("cosine_signal-frequency", lambda v: cosine_signal(16, v), "frequency",
             (-math.inf, math.inf)),
            ("cosine_mixture-n", lambda v: cosine_mixture(v, [(1, 1, 0)]), "n", (1, MAX_SAMPLES)),
            ("cosine_mixture-frequency", lambda v: cosine_mixture(16, [(v, 1, 0)]), "frequency",
             (-math.inf, math.inf)),
            ("bandlimited_noise-n", lambda v: bandlimited_noise(v, 0, 1), "n", (2, MAX_SAMPLES)),
            ("bandlimited_noise-cutoff", lambda v: bandlimited_noise(16, v, 1), "cutoff", (0, 7)),
            ("step_signal-n", step_signal, "n", (2, MAX_SAMPLES)),
            ("checkerboard_image-height", lambda v: checkerboard_image(v, 4, 2), "height",
             (1, MAX_SAMPLES)),
            ("checkerboard_image-width", lambda v: checkerboard_image(4, v, 2), "width",
             (1, MAX_SAMPLES)),
            ("checkerboard_image-period", lambda v: checkerboard_image(4, 4, v), "period",
             (1, INT64_MAX)),
            ("gaussian_blob_image-height", lambda v: gaussian_blob_image(v, 4), "height",
             (1, MAX_SAMPLES)),
            ("gaussian_blob_image-width", lambda v: gaussian_blob_image(4, v), "width",
             (1, MAX_SAMPLES)),
            ("composite_image-height", lambda v: composite_image(v, 4, 1), "height",
             (2, MAX_SAMPLES)),
            ("composite_image-width", lambda v: composite_image(4, v, 1), "width",
             (2, MAX_SAMPLES)),
        ]])
    def test_sizes_and_frequencies_must_be_integral(self, make, name, bounds):
        message = f"{name} must be an integer from {bounds[0]} to {bounds[1]}, got 2.5"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            make(2.5)
        np.testing.assert_array_equal(make(2.0), make(2))

    def test_step_edge(self):
        np.testing.assert_array_equal(step_signal(6), [0, 0, 0, 1, 1, 1])

    def test_checkerboard_alternates(self):
        img = checkerboard_image(4, 4, period=2)
        np.testing.assert_array_equal(img, [[0, 0, 1, 1], [0, 0, 1, 1],
                                            [1, 1, 0, 0], [1, 1, 0, 0]])

    def test_gaussian_peaked_at_center(self):
        img = gaussian_blob_image(9, 9, sigma=2.0)
        assert img[4, 4] == pytest.approx(1.0)
        assert img.max() == img[4, 4]

    @pytest.mark.parametrize("sigma", [np.nan, 0.0, -1.0, 1e-200, -1e-200])
    def test_gaussian_sigma_must_be_positive(self, sigma):
        # 2 * 1e-200**2 underflows to 0, and 0/0 would be the blob's peak
        message = f"sigma must be positive, with 2*sigma^2 > 0, got {sigma:g}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            gaussian_blob_image(4, 4, sigma)

    @pytest.mark.parametrize("size", [5, 6])
    def test_gaussian_narrower_than_a_pixel_is_its_peak(self, size):
        # the exponent overflows to inf off the center, a sample of 0, quietly
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            img = gaussian_blob_image(size, size, 1e-160)
        expected = np.zeros((size, size))
        expected[size // 2, size // 2] = size % 2  # an even size has no center pixel
        np.testing.assert_array_equal(img, expected)

    def test_composite_shape_and_determinism(self):
        a = composite_image(16, 16, seed=3)
        b = composite_image(16, 16, seed=3)
        assert a.shape == (16, 16, 3)
        np.testing.assert_array_equal(a, b)


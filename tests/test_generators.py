import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import literal_bandlimited_noise
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


class TestOtherGenerators:
    @pytest.mark.parametrize("make, name", [
        pytest.param(make, name, id=id_) for id_, make, name in [
            ("cosine_signal-n", lambda v: cosine_signal(v, 1), "n"),
            ("cosine_signal-frequency", lambda v: cosine_signal(16, v), "frequency"),
            ("cosine_mixture-n", lambda v: cosine_mixture(v, [(1, 1, 0)]), "n"),
            ("cosine_mixture-frequency", lambda v: cosine_mixture(16, [(v, 1, 0)]), "frequency"),
            ("bandlimited_noise-n", lambda v: bandlimited_noise(v, 0, 1), "n"),
            ("bandlimited_noise-cutoff", lambda v: bandlimited_noise(16, v, 1), "cutoff"),
            ("step_signal-n", step_signal, "n"),
            ("checkerboard_image-height", lambda v: checkerboard_image(v, 4, 2), "height"),
            ("checkerboard_image-width", lambda v: checkerboard_image(4, v, 2), "width"),
            ("checkerboard_image-period", lambda v: checkerboard_image(4, 4, v), "period"),
            ("gaussian_blob_image-height", lambda v: gaussian_blob_image(v, 4), "height"),
            ("gaussian_blob_image-width", lambda v: gaussian_blob_image(4, v), "width"),
            ("composite_image-height", lambda v: composite_image(v, 4, 1), "height"),
            ("composite_image-width", lambda v: composite_image(4, v, 1), "width"),
        ]])
    def test_sizes_and_frequencies_must_be_integral(self, make, name):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
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

    def test_composite_shape_and_determinism(self):
        a = composite_image(16, 16, seed=3)
        b = composite_image(16, 16, seed=3)
        assert a.shape == (16, 16, 3)
        np.testing.assert_array_equal(a, b)


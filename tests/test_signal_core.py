import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import INT64_MAX, MAX_SAMPLES, brute_dft
from upspec import (
    FitProblem,
    KernelSpec,
    NonRealResultError,
    Spectrum,
    center_shift,
    dft,
    empirical_filter_response,
    filter_response,
    fit_gradient_descent,
    idft,
    log_magnitude,
    radial_average,
)
from upspec.alias_analysis import contribution_map
from upspec.generators import bandlimited_noise, checkerboard_image, composite_image, step_signal
from upspec.signal_core import _radial_bins
from upspec.upsamplers import bed_of_nails


class TestDft:
    def test_delta_has_flat_spectrum(self):
        np.testing.assert_allclose(dft([1, 0, 0, 0]).values, np.ones(4))

    def test_constant_is_pure_dc(self):
        np.testing.assert_allclose(dft([1, 1, 1, 1]).values, [4, 0, 0, 0], atol=1e-12)

    def test_matches_hand_sum(self):
        # brute_dft([1,0,2,0]) evaluates to [3, -1, 3, -1]
        expected = brute_dft([1, 0, 2, 0])
        np.testing.assert_allclose(expected, [3, -1, 3, -1], atol=1e-12)
        np.testing.assert_allclose(dft([1, 0, 2, 0]).values, expected, atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 12, 17, 33, 64])
    def test_matches_brute_force(self, n):
        rng = np.random.default_rng(n)
        x = rng.normal(size=n)
        np.testing.assert_allclose(dft(x).values, brute_dft(x), atol=1e-9)

    def test_rejects_empty_and_bad_input(self):
        with pytest.raises(ValueError):
            dft([])
        with pytest.raises(ValueError):
            dft([1.0, np.nan])
        with pytest.raises(ValueError):
            dft([[1.0, 2.0]])

    def test_unshifted_convention(self):
        assert dft([1, 2, 3]).centered is False

    def test_overflow_raises_non_real_result_error_without_a_warning(self):
        # a warning would fail the test: pytest runs with filterwarnings = error
        with pytest.raises(NonRealResultError, match="overflowed"):
            dft(1e308 * np.ones(16))


class TestIdft:
    def test_dc_only(self):
        np.testing.assert_allclose(idft([4, 0, 0, 0]), np.ones(4), atol=1e-12)

    def test_round_trip(self):
        x = np.array([0.3, -1.2, 5.0, 2.0])
        np.testing.assert_allclose(idft(dft(x)), x, atol=1e-10)

    def test_pure_cosine_spectrum(self):
        np.testing.assert_allclose(idft([0, 2, 0, 2]), [1, 0, -1, 0], atol=1e-12)

    def test_rejects_asymmetric_spectrum(self):
        with pytest.raises(NonRealResultError):
            idft([0, 1, 0, 0])

    def test_residue_bound_scales_with_the_signal(self):
        rng = np.random.default_rng(8)
        for scale in (1e-8, 1.0, 1e8, 1e14):
            x = scale * rng.normal(size=1000)
            np.testing.assert_allclose(idft(dft(x)), x, rtol=0, atol=1e-12 * scale)
            with pytest.raises(NonRealResultError):
                idft(scale * np.array([0, 1, 0, 0]))

    def test_rejects_centered_spectrum(self):
        with pytest.raises(ValueError):
            idft(center_shift(dft([1, 2, 3, 4])))


class TestCenterShift:
    def test_half_rotation(self):
        shifted = center_shift(Spectrum(np.array([1, 2, 3, 4], dtype=complex)))
        np.testing.assert_allclose(shifted.values, [3, 4, 1, 2])
        assert shifted.centered

    def test_length_one(self):
        shifted = center_shift(Spectrum(np.array([7.0 + 0j])))
        np.testing.assert_allclose(shifted.values, [7.0])

    def test_rotation_by_half_length(self):
        spec = Spectrum(np.arange(6, dtype=complex))
        np.testing.assert_allclose(center_shift(spec).values, [3, 4, 5, 0, 1, 2])

    def test_double_shift_rejected(self):
        spec = center_shift(dft([1, 2, 3]))
        with pytest.raises(ValueError):
            center_shift(spec)


class TestLogMagnitude:
    def test_zero_hits_floor(self):
        out = log_magnitude(Spectrum(np.array([0.0 + 0j])))
        np.testing.assert_allclose(out, [-12.0], atol=1e-9)

    def test_unit_magnitude(self):
        out = log_magnitude(Spectrum(np.array([1.0 + 0j])))
        assert abs(out[0]) < 1e-10

    def test_ten(self):
        out = log_magnitude(Spectrum(np.array([10.0 + 0j])))
        np.testing.assert_allclose(out, [1.0], atol=1e-10)

    def test_monotone_in_magnitude(self):
        mags = np.array([0.0, 0.5, 1.0, 2.0, 100.0])
        out = log_magnitude(Spectrum(mags.astype(complex)))
        assert np.all(np.diff(out) > 0)


class TestRadialAverage:
    def test_flat_spectrum(self):
        spec = Spectrum(np.full((5, 5), 2.5, dtype=complex), centered=True)
        profile = radial_average(spec, 3)
        for mag, empty in zip(profile.magnitude, profile.empty):
            if not empty:
                assert abs(mag - 2.5) < 1e-12

    def test_single_coefficient(self):
        spec = Spectrum(np.array([[3.0 + 4.0j]]), centered=True)
        profile = radial_average(spec, 1)
        np.testing.assert_allclose(profile.magnitude, [5.0])
        assert not profile.empty[0]

    def test_delta_image_spectrum_two_bins(self):
        # the 4x4 delta image has an all-ones magnitude spectrum, so every
        # radius bin averages to exactly 1 (radii enumerated independently)
        radii = sorted({np.hypot(i - 2, j - 2) for i in range(4) for j in range(4)})
        assert radii[0] == 0.0 and radii[-1] == pytest.approx(np.sqrt(8))
        spec = Spectrum(np.ones((4, 4), dtype=complex), centered=True)
        profile = radial_average(spec, 2)
        np.testing.assert_allclose(profile.magnitude, [1.0, 1.0])

    def test_empty_bins_flagged(self):
        spec = Spectrum(np.ones((2, 2), dtype=complex), centered=True)
        profile = radial_average(spec, 10)
        assert profile.empty.any()
        assert np.all(profile.magnitude[profile.empty] == 0.0)

    def test_requires_centered_2d(self):
        with pytest.raises(ValueError):
            radial_average(dft([1, 2, 3, 4]), 2)
        with pytest.raises(ValueError):
            radial_average(Spectrum(np.ones((3, 3), dtype=complex), centered=True), 0)
        for values in (np.ones((3, 3), dtype=complex), np.full((3, 3), np.inf)):
            with pytest.raises(ValueError, match="finite real magnitudes"):
                radial_average(values, 2)
        with pytest.raises(ValueError, match="2D"):
            radial_average(np.ones(3), 2)

    @pytest.mark.parametrize("n_bins", [2 ** 53 + 1, 2 ** 63 - 1, 10 ** 23])
    def test_bin_count_past_float64_integers_is_rejected(self, n_bins):
        # checked before the bin map casts n_bins-scaled radii to int, which
        # warns (invalid value in cast) from 2**63 - 2**9 on
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as raised:
                radial_average(np.ones((4, 4)), n_bins)
        assert str(raised.value) == f"n_bins must be an integer from 1 to {2 ** 53}, got {n_bins}"

    @settings(max_examples=100, deadline=None)
    @given(h=st.integers(1, 40), w=st.integers(1, 40), n_bins=st.integers(1, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_real_magnitudes_equal_the_centered_spectrum(self, h, w, n_bins, seed):
        mags = np.abs(np.random.default_rng(seed).normal(size=(h, w)))
        got = radial_average(mags, n_bins)
        want = radial_average(Spectrum(mags.astype(complex), centered=True), n_bins)
        for field, expected in zip(got, want):
            assert field.tobytes() == expected.tobytes()

    @settings(max_examples=100, deadline=None)
    @given(h=st.integers(1, 40), w=st.integers(1, 40), n_bins=st.integers(1, 300))
    def test_cached_bins_are_read_only_and_equal_the_formula(self, h, w, n_bins):
        idx, counts, r_max = _radial_bins(h, w, n_bins)
        assert _radial_bins(h, w, n_bins)[0] is idx
        assert not idx.flags.writeable and not counts.flags.writeable
        assert idx.dtype.itemsize <= 2
        radii = np.hypot(*np.meshgrid(np.arange(h) - h // 2, np.arange(w) - w // 2,
                                      indexing="ij"))
        want_max = float(radii.max())
        want = (np.zeros(radii.shape, dtype=int) if want_max == 0.0
                else np.minimum((radii / want_max * n_bins).astype(int), n_bins - 1))
        assert r_max == want_max
        assert idx.astype(int).tobytes() == want.ravel().tobytes()
        assert counts.tobytes() == np.bincount(want.ravel(), minlength=n_bins).tobytes()


class TestTransformInvariants:
    def test_parseval(self):
        rng = np.random.default_rng(11)
        for n in (8, 100, 513, 1024):
            x = rng.normal(size=n)
            f = dft(x).values
            lhs = np.sum(np.abs(x) ** 2)
            rhs = np.sum(np.abs(f) ** 2) / n
            assert abs(lhs - rhs) <= 1e-10 * max(lhs, 1.0)

    def test_linearity(self):
        rng = np.random.default_rng(12)
        x, y = rng.normal(size=32), rng.normal(size=32)
        a, b = 2.5, -1.25
        lhs = dft(a * x + b * y).values
        rhs = a * dft(x).values + b * dft(y).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-10)

    def test_conjugate_symmetry_for_real_input(self):
        rng = np.random.default_rng(13)
        for n in (9, 16):
            f = dft(rng.normal(size=n)).values
            mirrored = np.conj(f[(-np.arange(n)) % n])
            np.testing.assert_allclose(f, mirrored, atol=1e-10)


@pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan"), 2.5,
                                 "minimum-1", "maximum+1"],
                         ids=["inf", "-inf", "nan", "2.5", "minimum-1", "maximum+1"])
@pytest.mark.parametrize("name, minimum, maximum, build", [
    ("stride", 1, INT64_MAX, lambda v: KernelSpec(np.ones(3), v)),
    ("upsampling factor", 2, INT64_MAX, lambda v: bed_of_nails(np.ones(4), v)),
    ("input length", 1, INT64_MAX, lambda v: FitProblem(n=v, r=2, k=3)),
    ("kernel size", 1, MAX_SAMPLES, lambda v: FitProblem(n=16, r=2, k=v)),
    ("n", 2, MAX_SAMPLES, lambda v: bandlimited_noise(v, 2, 0)),
    ("out_len", 1, INT64_MAX, lambda v: contribution_map(KernelSpec(np.ones(3), 2), v)),
    ("n_bins", 1, 2 ** 53, lambda v: radial_average(np.ones((4, 4)), v)),
    ("n_points", 2, MAX_SAMPLES, lambda v: filter_response("linear", 2, v)),
    ("impulse length", 4, MAX_SAMPLES, lambda v: empirical_filter_response("linear", 2, v)),
    ("iteration cap", 0, INT64_MAX,
     lambda v: fit_gradient_descent(FitProblem(n=8, r=2, k=3), max_iter=v)),
    ("height", 1, MAX_SAMPLES, lambda v: checkerboard_image(v, 4, 2)),
    ("width", 1, MAX_SAMPLES, lambda v: checkerboard_image(4, v, 2)),
    ("period", 1, INT64_MAX, lambda v: checkerboard_image(4, 4, v)),
    ("cutoff", 0, 7, lambda v: bandlimited_noise(16, v, 0)),
    ("parallel kernel size", 1, 7, lambda v: FitProblem(n=16, r=2, k=7, parallel_small=v)),
    ("n", 2, MAX_SAMPLES, step_signal),
    ("height", 2, MAX_SAMPLES, lambda v: composite_image(v, 4, 0)),
], ids=["stride", "factor", "fit-n", "fit-k", "generator-n", "out_len", "n_bins", "n_points",
        "impulse-length", "max_iter", "height", "width", "period", "cutoff", "parallel-small",
        "step-n", "composite-height"])
def test_non_finite_size_raises_value_error_naming_it(bad, name, minimum, maximum, build):
    # one rule for every integer: a ValueError naming it and its range, before
    # any allocation, for a value that is not integral or is out of range
    value = {"minimum-1": minimum - 1, "maximum+1": maximum + 1}.get(bad, bad)
    message = f"{name} must be an integer from {minimum} to {maximum}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build(value)

import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import (
    INT64_MAX,
    brute_dft2,
    copying_fft_rows,
    copying_fourier_pad,
    copying_log_strips,
    copying_psnr_rows,
    copying_replica_gaps,
    enumerate_contributions,
    literal_alias_reports,
    literal_bands,
    literal_error_spectrum,
    literal_mirror,
    literal_replica_deviation,
    mirrored_half,
    random_bandlimited,
    traced_peak,
    truncated_sinc_square_replicas,
)
from upspec.alias_analysis import FILTER_METHODS, _alias_reports, _psnr_rows
from upspec.signal_core import Spectrum, _log_map, _rdft, dft, idft
from upspec.upsamplers import _pads, _phases
from upspec import (
    KernelSpec,
    NonRealResultError,
    alias_energy,
    bed_of_nails,
    contribution_map,
    empirical_filter_response,
    error_spectrum,
    filter_response,
    fourier_pad_upsample,
    linear,
    log_magnitude,
    nearest,
    psnr,
    replica_deviation,
    transposed_conv,
    transposed_conv2,
)


class TestAliasEnergy:
    def test_ideal_upsampler_is_alias_free(self):
        rng = np.random.default_rng(0)
        x = random_bandlimited(32, 15, rng)  # band excludes the Nyquist bin
        report = alias_energy(fourier_pad_upsample(x, 2), 2)
        assert report.alias_ratio <= 1e-12
        assert report.nyquist_energy <= 1e-15

    def test_zero_insertion_duplicates_cosine_bins(self):
        # input cos(2*pi*j/4): passband bins k_c = +-1 carry |F|^2 = 4 each,
        # and zero insertion mirrors them into the alias band -> ratio 1/2
        report = alias_energy(bed_of_nails([1.0, 0.0, -1.0, 0.0], 2), 2)
        assert report.passband_energy == pytest.approx(8.0, abs=1e-9)
        assert report.alias_energy == pytest.approx(8.0, abs=1e-9)
        assert report.nyquist_energy == pytest.approx(0.0, abs=1e-9)
        assert report.alias_ratio == pytest.approx(0.5, abs=1e-12)

    def test_constant_through_nearest_stays_dc(self):
        for r in (2, 3, 4):
            report = alias_energy(nearest([2.0, 2.0, 2.0], r), r)
            assert report.alias_ratio == pytest.approx(0.0, abs=1e-15)

    def test_ratio_consistent_with_energies(self):
        rng = np.random.default_rng(1)
        y = nearest(rng.normal(size=16), 2)
        report = alias_energy(y, 2)
        total = report.passband_energy + report.alias_energy + report.nyquist_energy
        assert report.alias_ratio == pytest.approx(
            (report.alias_energy + report.nyquist_energy) / total, abs=1e-12)
        assert 0.0 <= report.alias_ratio <= 1.0

    def test_reference_populates_replica_deviation(self):
        x = np.array([1.0, 2.0, 3.0])
        report = alias_energy(bed_of_nails(x, 2), 2, reference=x)
        assert report.replica_deviation == pytest.approx(0.0, abs=1e-10)
        assert alias_energy(bed_of_nails(x, 2), 2).replica_deviation is None

    def test_length_must_divide(self):
        with pytest.raises(ValueError):
            alias_energy(np.ones(7), 2)

    def test_unrelated_shuffled_channels_are_heavily_aliased(self):
        # interleaving statistically independent channels fills the band
        # edge, unlike smoothing the same channel
        from upspec import pixel_shuffle
        rng = np.random.default_rng(8)
        base = random_bandlimited(64, 10, rng)
        other = random_bandlimited(64, 10, rng)
        shuffled = pixel_shuffle([base, other], 2)
        ratio_shuffled = alias_energy(shuffled, 2).alias_ratio
        ratio_linear = alias_energy(np.asarray(
            [v for pair in zip(base, (base + np.roll(base, -1)) / 2) for v in pair]), 2
        ).alias_ratio
        assert ratio_shuffled > 0.1
        assert ratio_shuffled > ratio_linear


class TestReplicaDeviation:
    def test_zero_insertion_is_exact(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 257))
            x = rng.normal(size=n)
            assert replica_deviation(x, bed_of_nails(x, 2), 2) <= 1e-10

    def test_box_filter_modulates_replicas(self):
        # nearest([1,0], 2) = [1,1,0,0]; DFT = [2, 1-i, 0, 1+i] deviates
        # from the tiled [1,1,1,1] by exactly 1 in every bin
        dev = replica_deviation([1.0, 0.0], nearest([1.0, 0.0], 2), 2)
        assert dev == pytest.approx(1.0, abs=1e-12)

    def test_ideal_upsampler_removes_replicas(self):
        x = np.array([1.0, 0.0, -1.0, 0.0])
        assert replica_deviation(x, fourier_pad_upsample(x, 2), 2) > 0.1

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            replica_deviation(np.ones(4), np.ones(6), 2)


signal_pairs = st.fixed_dictionaries({
    "n": st.integers(1, 64), "r": st.integers(2, 4),
    "exponent": st.integers(-6, 6), "seed": st.integers(0, 2**32 - 1)})


def _draw_pair(case):
    """A low-rate x and an unrelated length-r*n y, at 10**exponent amplitude."""
    rng = np.random.default_rng(case["seed"])
    scale = 10.0 ** case["exponent"]
    return (rng.normal(size=case["n"]) * scale,
            rng.normal(size=case["r"] * case["n"]) * scale)


ENERGIES = ("passband_energy", "alias_energy", "nyquist_energy")


def _near(value, expected, scale) -> bool:
    """``value`` is within 1e-13 of ``scale`` of a finite ``expected``, or
    equals a non-finite one."""
    if not np.isfinite(expected):
        return value == expected
    return abs(value - expected) <= 1e-13 * scale


class TestOneSpectrum:
    @settings(max_examples=100, deadline=None)
    @given(case=signal_pairs)
    def test_report_reads_one_dft_of_y(self, case):
        # the magnitude is the mirrored |rfft(y)| bit for bit, and the full
        # complex transform's to round-off
        x, y = _draw_pair(case)
        report = alias_energy(y, case["r"], reference=x)
        assert report.replica_deviation == replica_deviation(x, y, case["r"])
        np.testing.assert_array_equal(report.magnitude,
                                      mirrored_half(np.abs(np.fft.rfft(y)), y.size))
        full = np.abs(np.fft.fftshift(np.fft.fft(y)))
        np.testing.assert_allclose(report.magnitude, full, rtol=0, atol=1e-13 * full.max())

    @settings(max_examples=100, deadline=None)
    @given(case=signal_pairs, c_exponent=st.integers(-6, 6), sign=st.sampled_from([-1, 1]))
    def test_metrics_follow_amplitude(self, case, c_exponent, sign):
        # y -> c*y leaves the ratio alone, scales energies by c^2 and the
        # replica deviation by |c|; round-off is relative to that scale
        x, y = _draw_pair(case)
        r, c = case["r"], sign * 10.0 ** c_exponent
        base = alias_energy(y, r, reference=x)
        scaled = alias_energy(c * y, r, reference=c * x)
        assert scaled.alias_ratio == pytest.approx(base.alias_ratio, rel=0, abs=1e-12)
        total = base.passband_energy + base.alias_energy + base.nyquist_energy
        for name in ("passband_energy", "alias_energy", "nyquist_energy"):
            assert abs(getattr(scaled, name) - c * c * getattr(base, name)) <= \
                1e-12 * c * c * total
        coefficient_bound = np.abs(x).sum() + np.abs(y).sum()
        assert abs(scaled.replica_deviation - abs(c) * base.replica_deviation) <= \
            1e-12 * abs(c) * coefficient_bound


    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), r=st.integers(2, 4), rows=st.integers(1, 4),
           log10_amplitude=st.floats(-300, 300), zero_rows=st.integers(0, 15),
           reference=st.booleans(), seed=st.integers(0, 2**32 - 1))
    @example(n=1, r=2, rows=1, log10_amplitude=0.0, zero_rows=0, reference=True, seed=0)
    @example(n=2, r=3, rows=2, log10_amplitude=300.0, zero_rows=0, reference=True, seed=1)
    @example(n=33, r=4, rows=4, log10_amplitude=-300.0, zero_rows=2, reference=True, seed=2)
    def test_stacked_rows_equal_literal_bands(self, n, r, rows, log10_amplitude, zero_rows,
                                              reference, seed):
        # the bands are slices of the centred spectrum, the alias tails joined
        # into one run: the band fields equal the mask-and-compress sums of the
        # report's own magnitude exactly, at odd and even n (no Nyquist bin /
        # two of them), and every field and the magnitude equal the complex
        # oracle's to 1e-13 of their scale
        rng = np.random.default_rng(seed)
        amplitude = 10.0 ** log10_amplitude
        ys = rng.normal(size=(rows, r * n)) * amplitude
        ys[[i for i in range(rows) if zero_rows >> i & 1]] = 0.0
        x = rng.normal(size=n) * amplitude if reference else None
        reports = _alias_reports(ys, r, None if x is None else _rdft(x))
        expected = literal_alias_reports(ys, r, x)
        assert len(reports) == len(expected) == rows
        for report, fields in zip(reports, expected):
            bands = literal_bands(report.magnitude, n)
            assert {name: getattr(report, name) for name in bands} == bands
            magnitude = fields.pop("magnitude")
            assert np.abs(report.magnitude - magnitude).max() <= 1e-13 * magnitude.max()
            energy = sum(fields[name] for name in ENERGIES)
            for name in ENERGIES:
                assert _near(getattr(report, name), fields[name], energy)
            assert _near(report.alias_ratio, fields["alias_ratio"], 1.0)
            if x is not None:
                assert _near(report.replica_deviation, fields["replica_deviation"],
                             np.abs(x).sum() + np.abs(ys).sum())


    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), r=st.integers(2, 4), rows=st.integers(1, 4),
           log10_amplitude=st.floats(-300, 300), seed=st.integers(0, 2**32 - 1))
    @example(n=1, r=3, rows=1, log10_amplitude=300.0, seed=0)
    @example(n=33, r=2, rows=4, log10_amplitude=-300.0, seed=1)
    def test_magnitudes_are_mirror_symmetric_about_dc(self, n, r, rows, log10_amplitude,
                                                      seed):
        # the centred column h - k is the reversed copy of column h + k, bit for
        # bit, in alias_energy's magnitude and in compare's stacked rows and
        # their log strips, at odd and even r*n
        m, h = r * n, r * n // 2
        ys = np.random.default_rng(seed).normal(size=(rows, m)) * 10.0 ** log10_amplitude
        magnitudes = [alias_energy(y, r).magnitude for y in ys]
        stacked = np.stack([report.magnitude for report in _alias_reports(ys, r, None)])
        k = np.arange(1, m - h)
        for row in [*magnitudes, *stacked, *_log_map(stacked)]:
            assert row[h - k].tobytes() == row[h + k].tobytes()


class TestOwnedArrays:
    """compare's 1D steps transform and score in arrays the call owns."""

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), r=st.integers(2, 4), rows=st.integers(1, 4),
           log10_amplitude=st.floats(-300, 300), seed=st.integers(0, 2**32 - 1))
    @example(n=64, r=4, rows=4, log10_amplitude=300.0, seed=0)
    @example(n=63, r=3, rows=1, log10_amplitude=-300.0, seed=1)
    def test_bytes_equal_the_copying_expressions(self, n, r, rows, log10_amplitude, seed):
        # bit for bit, signed zeros included, at odd and even n
        def same(a, b):
            return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()

        rng = np.random.default_rng(seed)
        amplitude = 10.0 ** log10_amplitude
        x = rng.normal(size=n) * amplitude
        ys = rng.normal(size=(rows, r * n)) * amplitude
        ys[0] = fourier_pad_upsample(x, r)
        assert same(ys[0], copying_fourier_pad(x, r))
        assert same(_rdft(x), copying_fft_rows(x))

        reports = _alias_reports(ys, r, _rdft(x))
        spectra = copying_fft_rows(ys)
        magnitudes = [report.magnitude for report in reports]
        assert same(np.stack(magnitudes), mirrored_half(np.abs(spectra), r * n))
        gaps = copying_replica_gaps(copying_fft_rows(x), spectra, n).tolist()
        assert [report.replica_deviation for report in reports] == gaps
        assert [replica_deviation(x, y, r) for y in ys] == gaps
        assert same(_log_map(np.stack(magnitudes)), copying_log_strips(magnitudes))
        assert same(_psnr_rows(ys, ys[0], 1.0), copying_psnr_rows(ys, ys[0], 1.0))

    @pytest.mark.parametrize("n", [32, 33])
    def test_read_only_inputs_are_left_as_they_were(self, n):
        rng = np.random.default_rng(n)
        x, y, other = rng.normal(size=n), rng.normal(size=3 * n), rng.normal(size=3 * n)
        spectrum = np.fft.fft(x)
        inputs = [x, y, other, spectrum]
        before = [a.tobytes() for a in inputs]
        for a in inputs:
            a.flags.writeable = False
        dft(x)
        idft(spectrum)
        idft(Spectrum(spectrum))
        fourier_pad_upsample(x, 3)
        alias_energy(y, 3, reference=x)
        replica_deviation(x, y, 3)
        psnr(y.reshape(3, n), other.reshape(3, n), 1.0)
        assert [a.tobytes() for a in inputs] == before

    # numpy reports its buffers to tracemalloc, so these peaks are byte counts
    # that repeat exactly; one more full-size temporary, or a full complex
    # spectrum in place of a half one, breaks either budget
    def test_alias_reports_of_a_long_row_stay_within_four_row_sizes(self):
        x = np.random.default_rng(0).normal(size=16384)
        ys = linear(x, 2)[np.newaxis]
        low_rate = _rdft(x)
        rows = traced_peak(_alias_reports, ys, 2, low_rate) / ys.nbytes
        assert rows <= 4.0, f"{rows:.2f} row sizes"

    def test_fourier_pad_upsample_stays_within_two_and_three_quarter_output_sizes(self):
        x = np.random.default_rng(0).normal(size=16384)
        outputs = traced_peak(fourier_pad_upsample, x, 2) / (2 * x.nbytes)
        assert outputs <= 2.75, f"{outputs:.2f} output sizes"


class TestAmplitudeInvariance:
    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), r=st.integers(2, 4), k=st.integers(-300, 300),
           seed=st.integers(0, 2**32 - 1))
    def test_ratio_and_psnr_ignore_amplitude(self, n, r, k, seed):
        # energies over- or underflow at such amplitudes; the ratio and
        # PSNR are taken from unit-peak quantities and do not
        rng = np.random.default_rng(seed)
        y, g = rng.normal(size=(2, 1, r * n))
        c = 10.0 ** k
        peak = float(np.ptp(g)) or 1.0
        assert alias_energy(c * y[0], r).alias_ratio == pytest.approx(
            alias_energy(y[0], r).alias_ratio, rel=1e-12)
        assert psnr(c * y, c * g, c * peak) == pytest.approx(psnr(y, g, peak), rel=1e-12)

    def test_bed_of_nails_ratio_at_tiny_amplitude(self):
        # zero insertion puts (r-1)/r of any signal's energy into replicas
        x = 1e-170 * np.cos(2 * np.pi * 3 * np.arange(16) / 16)
        report = alias_energy(bed_of_nails(x, 2), 2)
        assert report.alias_ratio == pytest.approx(0.5, rel=1e-12)

    def test_overflowing_transform_is_non_real_result(self):
        with pytest.raises(NonRealResultError, match="overflowed"):
            alias_energy(np.full(64, 1e307), 2)
        for y, x in ((np.ones(128), np.full(64, 1e307)), (np.full(128, 1e307), np.ones(64))):
            with pytest.raises(NonRealResultError, match="overflowed"):
                replica_deviation(x, y, 2)
        with pytest.raises(NonRealResultError, match="overflowed"):
            alias_energy(np.ones(128), 2, reference=np.full(64, 1e307))

    def test_one_overflowing_row_fails_the_stack(self):
        x = np.full(64, 2e306)  # its DFT, 1.28e308 at DC, is finite
        rows = np.stack([bed_of_nails(x, 2), np.ones(128), np.ones(128)])
        assert [report.replica_deviation for report in _alias_reports(rows, 2, np.fft.rfft(x))] \
            == [replica_deviation(x, y, 2) for y in rows]
        for row, y, what in ((1, np.full(128, 1e307), "transform of y"),
                             (2, -np.full(128, 1e306), "replica deviation")):
            # the transform of y overflows at DC; the replica gap 2.56e308 does
            stack = rows.copy()
            stack[row] = y
            with pytest.raises(NonRealResultError, match=f"{what} overflowed"):
                _alias_reports(stack, 2, np.fft.rfft(x))

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 64), r=st.integers(2, 4), rows=st.integers(1, 4),
           k=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1))
    def test_gaps_equal_literal_tiled_reference(self, n, r, rows, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=n) * 10.0 ** k
        ys = rng.normal(size=(rows, r * n)) * 10.0 ** k
        ys[0] = bed_of_nails(x, r) + ys[0] * 2.0 ** -60
        # the half spectra against the complex tiled reference, to 1e-13 of
        # the bound sum |x| + sum |y| on every coefficient
        expected = [literal_replica_deviation(x, y, r) for y in ys]
        scale = np.abs(x).sum() + np.abs(ys).sum(axis=1)
        gaps = [replica_deviation(x, y, r) for y in ys]
        assert [report.replica_deviation
                for report in _alias_reports(ys, r, np.fft.rfft(x))] == gaps
        assert all(map(_near, gaps, expected, scale))

    @pytest.mark.parametrize("x, y", [
        (np.full(64, 2e306), bed_of_nails(np.full(64, 2e306), 2)),
        (np.full(64, 2e306), np.ones(128)),
        (np.full(64, 2e306), -np.full(128, 1e306)),
        (np.full(64, 1e307), np.ones(128)),
    ], ids=["finite-replicas", "finite-gap", "gap-overflows", "x-overflows"])
    def test_overflow_cases_follow_the_literal_gap(self, x, y):
        expected = literal_replica_deviation(x, y, 2)
        if np.isfinite(expected):
            assert replica_deviation(x, y, 2) == expected
        else:
            with pytest.raises(NonRealResultError, match="replica deviation overflowed"):
                replica_deviation(x, y, 2)

    def test_psnr_of_overflowing_difference_is_finite(self):
        # the difference 2e308 overflows; half of it does not
        value = psnr(np.full((2, 2), 1e308), np.full((2, 2), -1e308), 1.0)
        assert value == pytest.approx(-20.0 * (np.log10(2.0) + 308.0), rel=1e-12)


class TestFilterResponse:
    def test_linear_dc_gain(self):
        _, mags = filter_response("linear", 2, 3)
        assert mags[0] == pytest.approx(1.0)

    def test_linear_null_at_one_cycle(self):
        ell, mags = filter_response("linear", 2, 3)
        assert ell[-1] == pytest.approx(1.0)
        assert mags[-1] == pytest.approx(0.0, abs=1e-15)

    def test_linear_half_cycle_value(self):
        # sinc(0.5)^2 evaluated literally: (sin(pi/2) / (pi/2))^2
        expected = (np.sin(np.pi / 2) / (np.pi / 2)) ** 2
        assert expected == pytest.approx(0.4053, abs=1e-4)
        ell, mags = filter_response("linear", 2, 5)
        assert ell[2] == pytest.approx(0.5)
        assert mags[2] == pytest.approx(expected, abs=1e-12)

    def test_bed_of_nails_flat(self):
        _, mags = filter_response("bed_of_nails", 2, 9)
        np.testing.assert_allclose(mags, 1.0)

    def test_nearest_is_abs_sinc(self):
        ell, mags = filter_response("nearest", 2, 9)
        np.testing.assert_allclose(mags, np.abs(np.sinc(ell)), atol=1e-12)

    def test_folded_equals_truncated_replica_sum(self):
        # the closed form must agree with literally summing sinc^2 replicas
        for r in (2, 3):
            ell, folded = filter_response("linear", r, 33, include_replicas=True)
            literal = truncated_sinc_square_replicas(ell, r, terms=200_000)
            np.testing.assert_allclose(folded, literal, atol=1e-6)

    def test_folded_dc_gain_is_r(self):
        for r in (2, 3, 4):
            _, mags = filter_response("linear", r, 5, include_replicas=True)
            assert mags[0] == pytest.approx(r)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            filter_response("bicubic", 2, 8)
        with pytest.raises(ValueError):
            filter_response("linear", 2, 1)


class TestEmpiricalFilterResponse:
    def test_zero_insertion_flat(self):
        _, mags = empirical_filter_response("bed_of_nails", 2, 32)
        np.testing.assert_allclose(mags, 1.0, atol=1e-12)

    def test_linear_null_at_output_nyquist(self):
        freqs, mags = empirical_filter_response("linear", 2, 64)
        assert freqs[-1] == pytest.approx(1.0)
        assert mags[-1] == pytest.approx(0.0, abs=1e-9)

    def test_nearest_dc_gain(self):
        _, mags = empirical_filter_response("nearest", 2, 32)
        assert mags[0] == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("method", ["bed_of_nails", "nearest", "linear"])
    @pytest.mark.parametrize("r", [2, 3])
    def test_matches_folded_analytic_response(self, method, r):
        for n in (64, 128):
            freqs, measured = empirical_filter_response(method, r, n)
            ell, analytic = filter_response(method, r, freqs.size, include_replicas=True)
            np.testing.assert_allclose(freqs, ell, atol=1e-12)
            np.testing.assert_allclose(measured, analytic, atol=1e-6)

    @pytest.mark.parametrize("response", [filter_response, empirical_filter_response])
    def test_unknown_method_lists_the_names(self, response):
        assert tuple(FILTER_METHODS) == ("bed_of_nails", "nearest", "linear")
        with pytest.raises(ValueError, match=r"\('bed_of_nails', 'nearest', 'linear'\)"):
            response("bicubic", 2, 8)


class TestContributionMap:
    def test_three_taps_stride_two(self):
        cmap = contribution_map(KernelSpec(weights=np.ones(3), stride=2), 8)
        np.testing.assert_array_equal(cmap.counts, [1, 2, 1, 2, 1, 2, 1, 2])
        assert not cmap.uniform
        assert cmap.variance > 0

    def test_four_taps_stride_two_uniform(self):
        cmap = contribution_map(KernelSpec(weights=np.ones(4), stride=2), 8)
        np.testing.assert_array_equal(cmap.counts, np.full(8, 2))
        assert cmap.uniform and cmap.variance == 0.0

    def test_stride_matched_kernel_tiles_exactly(self):
        cmap = contribution_map(KernelSpec(weights=np.ones(2), stride=2), 8)
        np.testing.assert_array_equal(cmap.counts, np.ones(8))
        assert cmap.uniform

    def test_uniform_iff_stride_divides_size(self):
        for k in range(1, 17):
            for s in range(1, 9):
                cmap = contribution_map(KernelSpec(weights=np.ones(k), stride=s), 8 * s)
                np.testing.assert_array_equal(cmap.counts,
                                              enumerate_contributions(k, s, 8 * s))
                assert cmap.uniform == (k % s == 0), (k, s)
                assert cmap.uniform == (cmap.variance == 0.0)

    def test_counts_repeat_with_stride_period(self):
        cmap = contribution_map(KernelSpec(weights=np.ones(5), stride=3), 12)
        assert cmap.period == 3
        np.testing.assert_array_equal(cmap.counts, np.tile(cmap.counts[:3], 4))

    def test_2d_counts_are_outer_product(self):
        cmap2 = contribution_map(KernelSpec(weights=np.ones((3, 3)), stride=2), 8)
        cmap1 = contribution_map(KernelSpec(weights=np.ones(3), stride=2), 8)
        np.testing.assert_array_equal(cmap2.counts,
                                      np.outer(cmap1.counts, cmap1.counts))
        assert not cmap2.uniform

    def test_out_len_must_be_multiple_of_stride(self):
        with pytest.raises(ValueError):
            contribution_map(KernelSpec(weights=np.ones(3), stride=2), 7)

    def test_out_len_must_be_integral(self):
        # 8.5 would otherwise count 8 positions; 7.0 counts 7
        for out_len, stride in ((7.5, 1), (8.5, 2)):
            with pytest.raises(ValueError, match=f"^out_len must be an integer from 1 to "
                                                 f"{INT64_MAX}, got {out_len}$"):
                contribution_map(KernelSpec(weights=np.ones(3), stride=stride), out_len)
        kernel = KernelSpec(weights=np.ones(3), stride=7)
        np.testing.assert_array_equal(contribution_map(kernel, 7.0).counts,
                                      contribution_map(kernel, 7).counts)
        assert contribution_map(kernel, 7.0).counts.shape == (7,)

    @settings(max_examples=200, deadline=None)
    @given(k=st.integers(1, 40), s=st.integers(1, 8) | st.integers(9, 44),
           periods=st.integers(1, 12))
    def test_counts_equal_literal_enumeration(self, k, s, periods):
        # includes out_len < k, s | k and s = k
        counts = contribution_map(KernelSpec(weights=np.ones(k), stride=s), s * periods).counts
        np.testing.assert_array_equal(counts, enumerate_contributions(k, s, s * periods))

    @settings(max_examples=300, deadline=None)
    @given(k=st.integers(1, 40), s=st.integers(1, 5), n=st.integers(1, 64),
           ka=st.integers(1, 12), kb=st.integers(1, 12), h=st.integers(1, 24),
           w=st.integers(1, 24))
    def test_counts_are_what_placement_places(self, k, s, n, ka, kb, h, w):
        # ones in, so every output sums its phase's taps exactly; the sizes
        # stay below the FFT threshold, and k > s*n wraps the kernel
        def counts(k, out_len):
            return contribution_map(KernelSpec(np.ones(k), s), out_len).counts

        np.testing.assert_array_equal(transposed_conv(np.ones(n), KernelSpec(np.ones(k), s)),
                                      counts(k, s * n))
        np.testing.assert_array_equal(
            transposed_conv2(np.ones((h, w)), KernelSpec(np.ones((ka, kb)), s)),
            np.outer(counts(ka, s * h), counts(kb, s * w)))
        phases = _phases(k, s)
        np.testing.assert_array_equal(np.sort(np.concatenate([t for t, _ in phases])),
                                      np.arange(k))
        ((lo, hi),) = _pads((k,), (s,))
        assert all(np.all((-hi <= u) & (u <= lo)) for _, u in phases)

    @settings(max_examples=150, deadline=None)
    @given(k=st.integers(1, 200), k2=st.none() | st.integers(1, 200), s=st.integers(1, 12),
           periods=st.integers(1, 2))
    @example(k=2, k2=None, s=5, periods=1)  # phases with no taps
    @example(k=200, k2=199, s=12, periods=2)
    def test_variance_is_the_exact_variance_rounded_once(self, k, k2, s, periods):
        # the mean square deviation over every cell of the map, in fractions
        weights = np.ones(k) if k2 is None else np.ones((k, k2))
        cmap = contribution_map(KernelSpec(weights, s), s * periods)
        counts = cmap.counts.ravel().tolist()
        mean = Fraction(sum(counts), len(counts))
        exact = sum((c - mean) ** 2 for c in counts) / len(counts)
        assert cmap.variance == float(exact)
        assert cmap.uniform == (exact == 0) == (cmap.variance == 0.0)

    @settings(max_examples=50, deadline=None)
    @given(ka=st.integers(1, 9), kb=st.integers(1, 9), s=st.integers(1, 4),
           periods=st.integers(1, 4))
    def test_2d_counts_equal_literal_enumeration(self, ka, kb, s, periods):
        out_len = s * periods
        counts = contribution_map(KernelSpec(weights=np.ones((ka, kb)), stride=s),
                                  out_len).counts
        np.testing.assert_array_equal(counts, np.outer(
            enumerate_contributions(ka, s, out_len), enumerate_contributions(kb, s, out_len)))


class TestErrorSpectrum:
    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(1, 12), w=st.integers(1, 12), channels=st.integers(1, 7),
           exponent=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1))
    def test_bytes_equal_numpy_channel_mean(self, h, w, channels, exponent, seed):
        # below 8 channels numpy's mean(axis=2) adds the channels in order
        rng = np.random.default_rng(seed)
        pred, gt = rng.normal(size=(2, h, w, channels)) * 10.0 ** exponent
        diff = pred - gt
        complex_mean = np.abs(np.fft.rfft2(np.mean(diff, axis=2)))
        magnitude_mean = np.mean(np.abs(np.fft.rfft2(diff, axes=(0, 1))), axis=2)
        for mode, mean in (("complex", complex_mean), ("magnitude", magnitude_mean)):
            got = error_spectrum(pred, gt, mode=mode, log=False)
            assert got.tobytes() == np.fft.fftshift(literal_mirror(mean, w)).tobytes()

    @settings(max_examples=100, deadline=None)
    @given(h=st.integers(1, 12), w=st.integers(1, 12), channels=st.integers(1, 4),
           exponent=st.integers(-6, 6), seed=st.integers(0, 2**32 - 1))
    def test_complex_mode_equals_mean_of_channel_spectra(self, h, w, channels, exponent,
                                                         seed):
        # and magnitude mode equals the mean of their magnitudes
        rng = np.random.default_rng(seed)
        pred, gt = rng.normal(size=(2, h, w, channels)) * 10.0 ** exponent
        spectra = np.fft.fft2(pred - gt, axes=(0, 1))
        for mode, mean in (("complex", np.abs(np.mean(spectra, axis=2))),
                           ("magnitude", np.mean(np.abs(spectra), axis=2))):
            mags = error_spectrum(pred, gt, mode=mode, log=False)
            np.testing.assert_allclose(mags, np.fft.fftshift(mean), rtol=0,
                                       atol=1e-12 * np.abs(spectra).max())

    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(1, 12), w=st.integers(1, 12), channels=st.integers(1, 7),
           exponent=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["complex", "magnitude"]), log=st.booleans())
    def test_exactly_point_symmetric_about_dc(self, h, w, channels, exponent, seed, mode,
                                              log):
        # the error is real, so |F[-k]| = |F[k]|: centred bin (i, j) and bin
        # (2*(h//2) - i, 2*(w//2) - j), both mod the shape, hold equal bytes
        rng = np.random.default_rng(seed)
        pred, gt = rng.normal(size=(2, h, w, channels)) * 10.0 ** exponent
        got = error_spectrum(pred, gt, mode=mode, log=log)
        mirrored = np.roll(got[::-1, ::-1], (1 - h % 2, 1 - w % 2), axis=(0, 1))
        assert mirrored.tobytes() == got.tobytes()

    @settings(max_examples=150, deadline=None)
    @given(h=st.integers(1, 40), w=st.integers(1, 40), channels=st.integers(1, 4),
           exponent=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["complex", "magnitude"]))
    def test_log_map_is_log_magnitude_of_magnitudes(self, h, w, channels, exponent, seed,
                                                    mode):
        # the library default and the CLI (log=False, then log_magnitude)
        # share one log map, byte for byte
        rng = np.random.default_rng(seed)
        pred, gt = rng.normal(size=(2, h, w, channels)) * 10.0 ** exponent
        mags = error_spectrum(pred, gt, mode=mode, log=False)
        assert error_spectrum(pred, gt, mode=mode).tobytes() == log_magnitude(mags).tobytes()

    def test_identical_inputs_hit_floor(self):
        img = np.random.default_rng(3).normal(size=(8, 8, 3))
        out = error_spectrum(img, img)
        np.testing.assert_allclose(out, -12.0, atol=1e-9)

    def test_single_pixel_delta_is_flat(self):
        pred = np.zeros((8, 8))
        pred[2, 5] = 1.0
        mags = error_spectrum(pred, np.zeros((8, 8)), log=False)
        np.testing.assert_allclose(mags, 1.0, atol=1e-12)

    def test_pure_cosine_lights_two_bins(self):
        h = w = 8
        k1, k2 = 2, 3
        jj, ii = np.meshgrid(np.arange(w), np.arange(h))
        diff = np.cos(2 * np.pi * (k1 * ii / h + k2 * jj / w))
        expected = np.abs(np.fft.fftshift(brute_dft2(diff)))
        mags = error_spectrum(diff, np.zeros((h, w)), log=False)
        np.testing.assert_allclose(mags, expected, atol=1e-9)
        hot = np.argwhere(mags > 1e-6)
        assert len(hot) == 2
        centered = {tuple(idx - 4) for idx in hot}
        assert centered == {(k1, k2), (-k1, -k2)}

    def test_symmetric_under_swap(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(6, 6, 2)), rng.normal(size=(6, 6, 2))
        np.testing.assert_allclose(error_spectrum(a, b), error_spectrum(b, a),
                                   atol=1e-12)

    def test_complex_mean_can_cancel_where_magnitude_mean_cannot(self):
        base = np.zeros((4, 4))
        delta = np.zeros((4, 4))
        delta[1, 1] = 1.0
        pred = np.stack([base + delta, base - delta], axis=2)
        gt = np.zeros((4, 4, 2))
        complex_mean = error_spectrum(pred, gt, mode="complex", log=False)
        magnitude_mean = error_spectrum(pred, gt, mode="magnitude", log=False)
        np.testing.assert_allclose(complex_mean, 0.0, atol=1e-12)
        np.testing.assert_allclose(magnitude_mean, 1.0, atol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_spectrum(np.zeros((4, 4)), np.zeros((4, 5)))


class TestErrorSpectrumTransforms:
    """The real 2D FFT is one ``np.fft.rfft2`` call per channel group, so the
    bytes are its bytes; the inputs are checked through the channel means."""

    @settings(max_examples=200, deadline=None)
    @given(h=st.integers(1, 70), w=st.integers(1, 70), channels=st.integers(1, 4),
           exponent=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1),
           mode=st.sampled_from(["complex", "magnitude"]), log=st.booleans())
    def test_bytes_equal_rfft2_oracle(self, h, w, channels, exponent, seed, mode, log):
        rng = np.random.default_rng(seed)
        pred, gt = rng.normal(size=(2, h, w, channels)) * 10.0 ** exponent
        expected = literal_error_spectrum(pred, gt, mode, log).tobytes()
        assert error_spectrum(pred, gt, mode=mode, log=log).tobytes() == expected

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("mode", ["complex", "magnitude"])
    def test_non_finite_input_is_rejected(self, bad, mode):
        # the finiteness check reads the channel means, which a non-finite
        # sample makes non-finite, inf - inf included; the first and the last
        # row, the first and the last channel
        for pixel, sides in (((8, 7, 2), "p"), ((0, 0, 0), "g"), ((4, 3, 1), "pg")):
            pred, gt = np.random.default_rng(25).normal(size=(2, 9, 8, 3))
            for side in sides:
                (pred if side == "p" else gt)[pixel] = bad
            with pytest.raises(ValueError, match="image samples must be finite"):
                error_spectrum(pred, gt, mode=mode)

    @pytest.mark.parametrize("mode", ["complex", "magnitude"])
    def test_overflowing_difference_of_finite_inputs_is_not_rejected(self, mode):
        # the difference of two finite samples can overflow: the spectrum is
        # then not finite, as the literal one is
        pred, gt = np.zeros((2, 9, 8, 3))
        pred[4, 3, 1], gt[4, 3, 1] = 1e308, -1e308
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)  # overflow in subtract
            expected = literal_error_spectrum(pred, gt, mode, False).tobytes()
            got = error_spectrum(pred, gt, mode=mode, log=False)
        assert got.tobytes() == expected and not np.all(np.isfinite(got))

    @pytest.mark.parametrize("mode", ["complex", "magnitude"])
    def test_transform_error_reaches_the_caller(self, mode):
        # the 2D transform (rfft2) fails on its first call
        pred, gt = np.random.default_rng(24).normal(size=(2, 64, 48, 3))
        calls = []

        def failing(*args, **kwargs):
            calls.append("rfft2")
            raise RuntimeError("rfft2 failed")

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.fft, "rfft2", failing)
            with pytest.raises(RuntimeError, match="rfft2 failed"):
                error_spectrum(pred, gt, mode=mode)
        assert calls == ["rfft2"]

    @pytest.mark.parametrize("mode, transforms", [("complex", 1), ("magnitude", 3)])
    def test_one_rfft2_per_channel_group(self, mode, transforms):
        pred, gt = np.random.default_rng(24).normal(size=(2, 9, 8, 3))
        calls = []

        def counted(name, original):
            def transform(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return transform

        with pytest.MonkeyPatch.context() as mp:
            for name in ("rfft2", "rfft", "fft"):
                mp.setattr(np.fft, name, counted(name, getattr(np.fft, name)))
            error_spectrum(pred, gt, mode=mode)
        assert calls == ["rfft2"] * transforms

    @pytest.mark.parametrize("mode", ["complex", "magnitude"])
    @pytest.mark.parametrize("shape", [(511, 513, 1), (512, 512, 1), (256, 256, 4),
                                       (301, 257, 3), (1, 1 << 18, 1)])
    def test_bytes_equal_rfft2_oracle_at_large_sizes(self, shape, mode):
        # odd and even sides, four channels, and a single row of 2^18 samples
        pred, gt = np.random.default_rng(23).normal(size=(2, *shape))
        assert error_spectrum(pred, gt, mode=mode).tobytes() == \
            literal_error_spectrum(pred, gt, mode, True).tobytes()

    @pytest.mark.parametrize("mode", ["complex", "magnitude"])
    @pytest.mark.parametrize("row", [10, 500])
    def test_callers_error_state_holds(self, row, mode):
        # the overflowing difference of finite inputs raises under the
        # caller's np.errstate(over="raise"), in any row and either mode
        pred, gt = np.zeros((2, 512, 512, 3))
        pred[row, 7, 1], gt[row, 7, 1] = 1e308, -1e308
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            error_spectrum(pred, gt, mode=mode)


class TestPsnr:
    def test_identical_inputs_are_infinite(self):
        img = np.ones((3, 3))
        assert psnr(img, img, peak=1.0) == float("inf")

    def test_formula_20db(self):
        pred = np.full((5, 5), 0.1)
        assert psnr(pred, np.zeros((5, 5)), peak=1.0) == pytest.approx(20.0)

    def test_formula_0db(self):
        pred = np.full((4, 4), 255.0)
        assert psnr(pred, np.zeros((4, 4)), peak=255.0) == pytest.approx(0.0)

    def test_invariant_under_common_offset(self):
        rng = np.random.default_rng(5)
        pred, gt = rng.normal(size=(6, 6)), rng.normal(size=(6, 6))
        assert psnr(pred, gt, 2.0) == pytest.approx(psnr(pred + 3.5, gt + 3.5, 2.0))

    def test_bad_inputs(self):
        with pytest.raises(ValueError):
            psnr(np.ones((2, 2)), np.ones((2, 3)), 1.0)
        with pytest.raises(ValueError):
            psnr(np.ones((2, 2)), np.ones((2, 2)), 0.0)
        for peak in (np.nan, np.inf):
            with pytest.raises(ValueError, match="peak"):
                psnr(np.ones((2, 2)), np.zeros((2, 2)), peak)


class TestAliasOrderingInvariant:
    def test_more_context_means_less_alias(self):
        rng = np.random.default_rng(6)
        for r in (2, 3):
            for _ in range(5):
                n = int(rng.integers(8, 129)) * 2  # even, well below 256
                x = random_bandlimited(n, (n - 1) // 2, rng)
                ratio_bon = alias_energy(bed_of_nails(x, r), r).alias_ratio
                ratio_lin = alias_energy(linear(x, r), r).alias_ratio
                ratio_ideal = alias_energy(fourier_pad_upsample(x, r), r).alias_ratio
                assert ratio_bon >= ratio_lin >= ratio_ideal
                assert ratio_ideal <= 1e-12

import itertools
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import (
    INT64_MAX,
    MAX_SAMPLES,
    brute_dft,
    dirichlet_matrix,
    literal_bed_of_nails,
    literal_fold,
    literal_fourier_pad,
    literal_fullest_phase_taps,
    literal_linear,
    literal_nearest,
    literal_transposed_conv,
    literal_transposed_conv2,
    operator_matrix,
    random_bandlimited,
)
from upspec import (
    KernelSpec,
    NonRealResultError,
    bed_of_nails,
    dft,
    fourier_pad_upsample,
    linear,
    nearest,
    pixel_shuffle,
    pixel_unshuffle,
    transposed_conv,
    transposed_conv2,
    upsamplers,
)
from upspec.cli import main as cli_main


class TestBedOfNails:
    def test_factor_two(self):
        np.testing.assert_array_equal(bed_of_nails([3.0, 7.0], 2), [3, 0, 7, 0])

    def test_factor_three(self):
        np.testing.assert_array_equal(
            bed_of_nails([1, 2, 3], 3), [1, 0, 0, 2, 0, 0, 3, 0, 0])

    def test_spectrum_replicates(self):
        # brute-force DFT of the zero-inserted signal equals the tiled
        # DFT of the input: dft([1,0,2,0]) = [3,-1,3,-1] = tile(dft([1,2]), 2)
        y = bed_of_nails([1.0, 2.0], 2)
        np.testing.assert_allclose(brute_dft(y), [3, -1, 3, -1], atol=1e-12)
        np.testing.assert_allclose(brute_dft(y), np.tile(brute_dft([1.0, 2.0]), 2),
                                   atol=1e-12)

    def test_rejects_factor_below_two(self):
        with pytest.raises(ValueError):
            bed_of_nails([1, 2], 1)

    @pytest.mark.parametrize("op", [bed_of_nails, nearest, linear, fourier_pad_upsample])
    def test_rejects_non_integral_factor(self, op):
        for r in (2.7, 3.5, np.float64(2.5)):
            with pytest.raises(ValueError, match="factor must be an integer"):
                op([1.0, 2.0], r)

    def test_integral_factor_of_any_type(self):
        for r in (2, np.int64(2), 2.0, np.float64(2.0)):
            np.testing.assert_array_equal(bed_of_nails([1.0, 2.0], r), [1, 0, 2, 0])
            assert upsamplers.validate_factor(r) == 2
            assert type(upsamplers.validate_factor(r)) is int


class TestNearest:
    def test_factor_two(self):
        np.testing.assert_array_equal(nearest([1.0, 2.0], 2), [1, 1, 2, 2])

    def test_single_sample(self):
        np.testing.assert_array_equal(nearest([5.0], 4), [5, 5, 5, 5])

    def test_equals_zero_insertion_plus_box(self):
        # box of r ones anchored at offset 0, evaluated by direct enumeration
        rng = np.random.default_rng(3)
        for r in (2, 3):
            x = rng.normal(size=6)
            z = bed_of_nails(x, r)
            expected = np.zeros_like(z)
            for p in range(z.size):
                expected[p] = sum(z[(p - j) % z.size] for j in range(r))
            np.testing.assert_allclose(nearest(x, r), expected, atol=1e-12)


class TestLinear:
    def test_midpoint_rule_periodic(self):
        np.testing.assert_allclose(linear([0.0, 4.0], 2), [0, 2, 4, 2])

    def test_constant_preserved(self):
        for r in (2, 3, 5):
            np.testing.assert_allclose(linear([2.5, 2.5, 2.5], r), np.full(3 * r, 2.5))

    def test_zero_pad_ghost_sample(self):
        # last inserted value averages with a zero ghost: (4 + 0)/2 = 2
        np.testing.assert_allclose(linear([0.0, 4.0], 2, boundary="zero-pad"),
                                   [0, 2, 4, 2])
        np.testing.assert_allclose(linear([1.0, 4.0], 2, boundary="zero-pad"),
                                   [1, 2.5, 4, 2])

    def test_factor_three_weights(self):
        np.testing.assert_allclose(linear([0.0, 3.0], 3), [0, 1, 2, 3, 2, 1])

    def test_unknown_boundary(self):
        with pytest.raises(ValueError):
            linear([1.0, 2.0], 2, boundary="reflect")


class TestPixelShuffle:
    def test_interleaves_1d(self):
        out = pixel_shuffle([[1.0, 2.0], [3.0, 4.0]], 2)
        np.testing.assert_array_equal(out, [1, 3, 2, 4])

    def test_identical_channels_collapse_to_nearest(self):
        x = np.array([1.0, -2.0, 0.5])
        np.testing.assert_array_equal(pixel_shuffle([x, x], 2), nearest(x, 2))

    def test_round_trip_2d(self):
        rng = np.random.default_rng(9)
        channels = [rng.normal(size=(3, 3)) for _ in range(4)]
        back = pixel_unshuffle(pixel_shuffle(channels, 2), 2)
        for original, restored in zip(channels, back):
            np.testing.assert_array_equal(original, restored)

    def test_wrong_channel_count(self):
        with pytest.raises(ValueError):
            pixel_shuffle([np.ones(4)], 2)
        with pytest.raises(ValueError):
            pixel_shuffle([np.ones((2, 2))] * 3, 2)

    def test_2d_subpixel_order_row_major(self):
        chans = [np.full((1, 1), float(i)) for i in range(4)]
        out = pixel_shuffle(chans, 2)
        np.testing.assert_array_equal(out, [[0, 1], [2, 3]])


class TestPixelUnshuffle:
    def test_inverse_of_shuffle(self):
        a, b = pixel_unshuffle(np.array([1.0, 3.0, 2.0, 4.0]), 2)
        np.testing.assert_array_equal(a, [1, 2])
        np.testing.assert_array_equal(b, [3, 4])

    def test_shape_contract(self):
        parts = pixel_unshuffle(np.arange(6, dtype=float), 2)
        assert len(parts) == 2 and all(p.size == 3 for p in parts)

    def test_factor_three_enumeration(self):
        parts = pixel_unshuffle(np.arange(9, dtype=float), 3)
        np.testing.assert_array_equal(parts[0], [0, 3, 6])
        np.testing.assert_array_equal(parts[1], [1, 4, 7])
        np.testing.assert_array_equal(parts[2], [2, 5, 8])

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            pixel_unshuffle(np.arange(5, dtype=float), 2)


class TestTransposedConv:
    def test_tap_placement(self):
        k = KernelSpec(weights=[1.0, 1.0, 1.0], stride=2)
        np.testing.assert_allclose(transposed_conv([1.0, 0.0], k), [1, 1, 0, 1])

    def test_delta_kernel_is_zero_insertion(self):
        rng = np.random.default_rng(4)
        for r in range(2, 7):
            k = KernelSpec(weights=[0.0, 1.0, 0.0], stride=r)
            x = rng.normal(size=5)
            for boundary in ("periodic", "zero-pad"):
                np.testing.assert_array_equal(transposed_conv(x, k, boundary),
                                              bed_of_nails(x, r))

    def test_triangular_kernel_equals_linear(self):
        k = KernelSpec(weights=[0.5, 1.0, 0.5], stride=2)
        np.testing.assert_array_equal(transposed_conv([0.0, 4.0], k), linear([0.0, 4.0], 2))
        rng = np.random.default_rng(5)
        for r in range(2, 7):
            # taps m/r and 1 - m/r, the weights of the interpolation formula
            k = KernelSpec(np.concatenate([np.arange(1, r) / r, 1 - np.arange(r) / r]), r)
            for _ in range(20):
                x = rng.normal(size=rng.integers(2, 40))
                for boundary in ("periodic", "zero-pad"):
                    np.testing.assert_array_equal(transposed_conv(x, k, boundary),
                                                  linear(x, r, boundary))

    def test_zero_pad_mode(self):
        k = KernelSpec(weights=[1.0, 1.0, 1.0], stride=2)
        out = transposed_conv([1.0, 0.0], k, boundary="zero-pad")
        np.testing.assert_allclose(out, [1, 1, 0, 0])

    def test_parallel_branch_sums(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=8)
        large = rng.normal(size=7)
        small = rng.normal(size=3)
        combined = KernelSpec(weights=large, stride=2, parallel_small=small)
        expected = (transposed_conv(x, KernelSpec(weights=large, stride=2))
                    + transposed_conv(x, KernelSpec(weights=small, stride=2)))
        np.testing.assert_allclose(transposed_conv(x, combined), expected, atol=1e-12)

    def test_factor_and_stride_must_be_integral(self):
        # one rule for both: 7.5 is rejected, 7.0 is the int 7
        with pytest.raises(ValueError, match=f"^upsampling factor must be an integer from 2 to "
                                             f"{INT64_MAX}, got 7.5$"):
            upsamplers.validate_factor(7.5)
        with pytest.raises(ValueError,
                           match=f"^stride must be an integer from 1 to {INT64_MAX}, got 7.5$"):
            KernelSpec(weights=[1.0], stride=7.5)
        assert type(upsamplers.validate_factor(7.0)) is int and upsamplers.validate_factor(7.0) == 7
        stride = KernelSpec(weights=[1.0], stride=7.0).stride
        assert type(stride) is int and stride == 7

    def test_invalid_kernel(self):
        with pytest.raises(ValueError):
            KernelSpec(weights=[1.0], stride=0)
        with pytest.raises(ValueError, match="stride must be an integer"):
            KernelSpec(weights=[1.0], stride=2.9)
        for stride in (2, np.int64(2), 2.0):
            assert type(KernelSpec(weights=[1.0], stride=stride).stride) is int
        with pytest.raises(ValueError):
            KernelSpec(weights=[], stride=2)
        with pytest.raises(ValueError):
            KernelSpec(weights=[1.0, 2.0], stride=2, parallel_small=[1.0, 2.0, 3.0])


class TestTransposedConv2:
    def test_delta_kernel_is_2d_zero_insertion(self):
        k = KernelSpec(weights=[[0, 0, 0], [0, 1, 0], [0, 0, 0]], stride=2)
        img = np.arange(4, dtype=float).reshape(2, 2)
        out = transposed_conv2(img, k)
        expected = np.zeros((4, 4))
        expected[::2, ::2] = img
        np.testing.assert_allclose(out, expected)

    def test_separable_on_outer_products(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=3)
        x, y = rng.normal(size=4), rng.normal(size=4)
        k2 = KernelSpec(weights=np.outer(w, w), stride=2)
        k1 = KernelSpec(weights=w, stride=2)
        out2d = transposed_conv2(np.outer(x, y), k2)
        expected = np.outer(transposed_conv(x, k1), transposed_conv(y, k1))
        np.testing.assert_allclose(out2d, expected, atol=1e-10)

    def test_all_ones_kernel_on_ones_image(self):
        k2 = KernelSpec(weights=np.ones((3, 3)), stride=2)
        k1 = KernelSpec(weights=np.ones(3), stride=2)
        out = transposed_conv2(np.ones((2, 2)), k2)
        line = transposed_conv(np.ones(2), k1)
        np.testing.assert_allclose(out, np.outer(line, line), atol=1e-12)

    def test_channels_processed_independently(self):
        rng = np.random.default_rng(8)
        img = rng.normal(size=(3, 3, 2))
        k = KernelSpec(weights=rng.normal(size=(3, 3)), stride=2)
        out = transposed_conv2(img, k)
        for c in range(2):
            np.testing.assert_allclose(out[:, :, c], transposed_conv2(img[:, :, c], k))

    @pytest.mark.parametrize("image, message", [
        (np.ones(4), "must be 2D or 3D"), (np.ones((2, 0)), "at least one sample"),
        (np.full((2, 2), np.nan), "must be finite")])
    def test_invalid_image_uses_the_image_checks(self, image, message):
        with pytest.raises(ValueError, match=message):
            transposed_conv2(image, KernelSpec(weights=np.ones((3, 3)), stride=2))

    def test_zero_pad_matches_direct_sum(self):
        rng = np.random.default_rng(9)
        img = rng.normal(size=(3, 3))
        w = rng.normal(size=(3, 3))
        k = KernelSpec(weights=w, stride=2)
        out = transposed_conv2(img, k, boundary="zero-pad")
        z = np.zeros((6, 6))
        z[::2, ::2] = img
        expected = np.zeros((6, 6))
        for p in range(6):
            for q in range(6):
                for a in range(3):
                    for b in range(3):
                        pi, qi = p - a + 1, q - b + 1
                        if 0 <= pi < 6 and 0 <= qi < 6:
                            expected[p, q] += w[a, b] * z[pi, qi]
        np.testing.assert_allclose(out, expected, atol=1e-12)


@st.composite
def placement_cases(draw, ndim, min_stride=1):
    """(input, kernel, scale): 1-9 samples per axis (1-4 channels in 2D),
    stride 1-4, kernel sizes per axis from 1 to past 2*s*N (so taps wrap
    around the output more than once), some taps zero, an optional
    parallel small kernel, and amplitudes over 12 decades. ``scale``
    bounds every output sample."""
    s = draw(st.integers(min_stride, 4))
    shape = tuple(draw(st.integers(1, 9)) for _ in range(ndim))
    ksize = tuple(draw(st.integers(1, 2 * s * n + 3)) for n in shape)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    channels = (draw(st.integers(1, 4)),) if ndim == 2 else ()
    x = rng.normal(size=shape + channels) * 10.0 ** draw(st.integers(-6, 6))
    w = np.where(rng.random(ksize) < 0.2, 0.0, rng.normal(size=ksize))
    small = None
    if draw(st.booleans()):
        small = rng.normal(size=tuple(draw(st.integers(1, k)) for k in ksize))
    kernel = KernelSpec(weights=w, stride=s, parallel_small=small)
    taps = np.abs(w).sum() + (0.0 if small is None else np.abs(small).sum())
    return x, kernel, float(np.abs(x).max() * taps)


def _phase_conv(x, w, s):
    """Output phases of a periodic stride-s transposed convolution, each
    the un-inserted input circularly convolved (by FFT) with its sub-kernel
    w[(p + c) mod s :: s] per axis, shifted by (p + c) // s."""
    anchors = [k // 2 for k in w.shape]
    phases = []
    for p in np.ndindex(*(s,) * w.ndim):
        sub = w[tuple(slice((q + c) % s, None, s) for q, c in zip(p, anchors))]
        g = np.zeros(x.shape)
        idx = np.meshgrid(*[(np.arange(m) - (q + c) // s) % n
                            for m, q, c, n in zip(sub.shape, p, anchors, x.shape)],
                          indexing="ij")
        np.add.at(g, tuple(idx), sub)
        phases.append(np.fft.ifftn(np.fft.fftn(x) * np.fft.fftn(g)).real)
    return phases


class TestFixedKernels:
    @settings(max_examples=300, deadline=None)
    @given(n=st.integers(1, 200), r=st.integers(2, 8), exponent=st.integers(-300, 300),
           seed=st.integers(0, 2**32 - 1), boundary=st.sampled_from(["periodic", "zero-pad"]))
    def test_byte_equal_to_literal_oracles(self, n, r, exponent, seed, boundary):
        # placement starts every phase at +0.0, so an input -0.0 would come
        # out as +0.0; the draws have +0.0 samples but no -0.0
        rng = np.random.default_rng(seed)
        x = np.where(rng.random(n) < 0.1, 0.0, rng.normal(size=n) * 10.0 ** exponent)
        assert bed_of_nails(x, r).tobytes() == literal_bed_of_nails(x, r).tobytes()
        assert nearest(x, r).tobytes() == literal_nearest(x, r).tobytes()
        assert linear(x, r, boundary).tobytes() == literal_linear(x, r, boundary).tobytes()

    def test_each_operator_is_one_placement(self, monkeypatch):
        calls = []
        place = upsamplers._place
        monkeypatch.setattr(upsamplers, "_place", lambda *a: calls.append(a[1]) or place(*a))
        bed_of_nails([1.0, 2.0], 3)
        nearest([1.0, 2.0], 3)
        linear([1.0, 2.0], 3, "zero-pad")
        np.testing.assert_array_equal(calls[0], [[1]])
        np.testing.assert_array_equal(calls[1], [[0, 0, 1, 1, 1]])
        np.testing.assert_array_equal(calls[2], [[1 / 3, 2 / 3, 1, 1 - 1 / 3, 1 - 2 / 3]])


class TestPolyphasePlacement:
    @settings(max_examples=200, deadline=None)
    @given(case=placement_cases(ndim=2), boundary=st.sampled_from(["periodic", "zero-pad"]))
    def test_2d_equals_literal_placement(self, case, boundary):
        x, kernel, _ = case
        np.testing.assert_array_equal(transposed_conv2(x, kernel, boundary),
                                      literal_transposed_conv2(x, literal_fold(kernel), boundary))

    @settings(max_examples=200, deadline=None)
    @given(case=placement_cases(ndim=1))
    def test_1d_periodic_equals_literal_placement(self, case):
        x, kernel, _ = case
        np.testing.assert_array_equal(transposed_conv(x, kernel),
                                      literal_transposed_conv(x, literal_fold(kernel)))

    @settings(max_examples=200, deadline=None)
    @given(case=placement_cases(ndim=1))
    def test_1d_zero_pad_matches_direct_convolution(self, case):
        # np.convolve sums in its own order, so agreement is to round-off
        x, kernel, scale = case
        np.testing.assert_allclose(transposed_conv(x, kernel, "zero-pad"),
                                   literal_transposed_conv(x, literal_fold(kernel), "zero-pad"),
                                   rtol=0, atol=1e-12 * scale)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), ndim=st.sampled_from([1, 2]),
           boundary=st.sampled_from(["periodic", "zero-pad"]))
    def test_folded_kernel_equals_sum_of_branches(self, data, ndim, boundary):
        # placement is linear: one placement of the folded kernel equals the
        # two branch placements summed, up to the order of the additions
        x, kernel, scale = data.draw(placement_cases(ndim=ndim))
        conv, literal = ((transposed_conv, literal_transposed_conv) if ndim == 1
                         else (transposed_conv2, literal_transposed_conv2))
        np.testing.assert_allclose(conv(x, kernel, boundary), literal(x, kernel, boundary),
                                   rtol=0, atol=1e-12 * scale)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), ndim=st.sampled_from([1, 2]))
    def test_effective_weights_equal_literal_fold(self, data, ndim):
        _, kernel, _ = data.draw(placement_cases(ndim=ndim))
        folded = kernel.effective_weights()
        np.testing.assert_array_equal(folded, literal_fold(kernel).weights)
        if kernel.parallel_small is None:
            assert folded is kernel.weights
        else:
            assert not np.shares_memory(folded, kernel.weights)

    def test_one_placement_per_call(self, monkeypatch):
        calls = []
        place = upsamplers._place
        monkeypatch.setattr(upsamplers, "_place", lambda *a: calls.append(1) or place(*a))
        rng = np.random.default_rng(16)
        for small in (None, rng.normal(size=3)):
            calls.clear()
            transposed_conv(rng.normal(size=6), KernelSpec(rng.normal(size=7), 2, small))
            assert len(calls) == 1
        for small in (None, rng.normal(size=(3, 1))):
            calls.clear()
            transposed_conv2(rng.normal(size=(4, 5, 2)),
                             KernelSpec(rng.normal(size=(5, 3)), 2, small), "zero-pad")
            assert len(calls) == 1

    @settings(max_examples=100, deadline=None)
    @given(case=placement_cases(ndim=1, min_stride=2))
    def test_1d_is_pixel_shuffle_of_phase_convolutions(self, case):
        x, kernel, scale = case
        kernel = KernelSpec(weights=kernel.weights, stride=kernel.stride)
        expected = pixel_shuffle(_phase_conv(x, kernel.weights, kernel.stride), kernel.stride)
        np.testing.assert_allclose(transposed_conv(x, kernel), expected,
                                   rtol=0, atol=1e-12 * scale)

    @settings(max_examples=100, deadline=None)
    @given(case=placement_cases(ndim=2, min_stride=2))
    def test_2d_is_pixel_shuffle_of_phase_convolutions(self, case):
        x, kernel, scale = case
        kernel = KernelSpec(weights=kernel.weights, stride=kernel.stride)
        for c in range(x.shape[2]):
            expected = pixel_shuffle(_phase_conv(x[:, :, c], kernel.weights, kernel.stride),
                                     kernel.stride)
            np.testing.assert_allclose(transposed_conv2(x[:, :, c], kernel), expected,
                                       rtol=0, atol=1e-12 * scale)

    @settings(max_examples=300, deadline=None)
    @given(shape=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 3)),
           pads=st.lists(st.integers(0, 40), min_size=4, max_size=4),
           boundary=st.sampled_from(["periodic", "zero-pad"]), seed=st.integers(0, 2**32 - 1))
    def test_padded_equals_np_pad_bitwise(self, shape, pads, boundary, seed):
        # np.pad is the oracle, pads longer than the axis and signed zeros
        # included; the comparison is of the bits
        rng = np.random.default_rng(seed)
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 301, size=shape)
        x[::2, ::3] = -0.0
        pads = [(pads[0], pads[1]), (pads[2], pads[3])]
        expected = np.pad(x, pads + [(0, 0)], mode="wrap" if boundary == "periodic" else "constant")
        got = upsamplers._padded(x, pads, boundary)
        assert got.shape == expected.shape
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))


def _place_by_fft(x, kernel, boundary):
    """The FFT placement of a kernel's effective weights, called directly."""
    w, s = kernel.effective_weights(), kernel.stride
    if w.ndim == 1:
        return upsamplers._place_fft(x[None, :, None], w[None, :], (1, s), boundary).ravel()
    return upsamplers._place_fft(x, w, (s, s), boundary)


class TestFftPlacement:
    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), ndim=st.sampled_from([1, 2]), exponent=st.integers(-300, 300),
           boundary=st.sampled_from(["periodic", "zero-pad"]))
    def test_equals_literal_placement(self, data, ndim, exponent, boundary):
        # unit-scale kernels and inputs peaking anywhere over 600 decades
        x, kernel, _ = data.draw(placement_cases(ndim=ndim))
        x = x / np.abs(x).max() * 10.0 ** exponent
        literal = literal_transposed_conv if ndim == 1 else literal_transposed_conv2
        small = kernel.parallel_small
        taps = np.abs(kernel.weights).sum() + (0.0 if small is None else np.abs(small).sum())
        np.testing.assert_allclose(_place_by_fft(x, kernel, boundary),
                                   literal(x, kernel, boundary),
                                   rtol=0, atol=1e-12 * np.abs(x).max() * taps)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), sb=st.integers(1, 4), boundary=st.sampled_from(["periodic", "zero-pad"]))
    def test_tall_input_is_the_wide_one_turned(self, data, sb, boundary):
        # a tall input is placed with its longer axis last, so its bytes
        # are those of the turned input, kernel and strides
        x, kernel, _ = data.draw(placement_cases(ndim=2))
        w, strides = kernel.effective_weights(), (kernel.stride, sb)
        if x.shape[0] < x.shape[1]:
            x, w, strides = x.transpose(1, 0, 2), w.T, strides[::-1]
        assume(x.shape[0] > x.shape[1])
        wide = upsamplers._place_fft(np.ascontiguousarray(x.transpose(1, 0, 2)),
                                     np.ascontiguousarray(w.T), strides[::-1], boundary)
        np.testing.assert_array_equal(upsamplers._place_fft(x, w, strides, boundary),
                                      wide.transpose(1, 0, 2))

    @pytest.mark.parametrize("boundary", ["periodic", "zero-pad"])
    @pytest.mark.parametrize("ksize", [(1, 1), (3, 1), (2, 3), (3, 3)])
    def test_2d_with_empty_phases(self, ksize, boundary):
        # at stride 4 a kernel of at most 3 taps an axis leaves the phases
        # p with (p + K//2) mod 4 >= K without a tap: they read exactly 0
        rng = np.random.default_rng(17)
        x = rng.normal(size=(6, 5, 2))
        kernel = KernelSpec(rng.normal(size=ksize), 4)
        got = _place_by_fft(x, kernel, boundary)
        np.testing.assert_allclose(got, literal_transposed_conv2(x, kernel, boundary),
                                   rtol=0, atol=1e-12 * np.abs(x).max()
                                   * np.abs(kernel.weights).sum())
        for axis, k in enumerate(ksize):
            for p in range(4):
                if (p + k // 2) % 4 >= k:
                    assert not np.take(got, np.arange(p, got.shape[axis], 4), axis).any()

    @pytest.mark.parametrize("boundary", ["periodic", "zero-pad"])
    def test_no_overflow_near_the_largest_float(self, boundary):
        # the input's DC term, 64 * 1e307, would overflow unscaled
        rng = np.random.default_rng(13)
        x = 1e307 * (1.0 + rng.random((8, 8, 1)))
        kernel = KernelSpec(0.01 * rng.random((3, 3)), 2)
        np.testing.assert_allclose(_place_by_fft(x, kernel, boundary),
                                   literal_transposed_conv2(x, kernel, boundary),
                                   rtol=0, atol=1e-12 * 2e307 * np.abs(kernel.weights).sum())

    def test_transform_error_reaches_the_caller(self):
        # 256 x 256 at stride 2 places by FFT; irfft fails on its second call
        rng = np.random.default_rng(21)
        image, kernel = rng.normal(size=(256, 256)), KernelSpec(rng.normal(size=(11, 11)), 2)
        irfft, calls = np.fft.irfft, itertools.count(1)

        def failing_irfft(*args, **kwargs):
            if next(calls) == 2:
                raise RuntimeError("irfft failed")
            return irfft(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.fft, "irfft", failing_irfft)
            with pytest.raises(RuntimeError, match="irfft failed"):
                transposed_conv2(image, kernel)
        assert next(calls) == 3

    @pytest.mark.parametrize("boundary", ["periodic", "zero-pad"])
    @pytest.mark.parametrize("shape, ksize, stride", [((256, 256, 3), (11, 11), 2),
                                                      ((131072,), (161,), 2),
                                                      ((300, 200, 2), (13, 13), 3)])
    def test_large_placements_equal_literal_placement(self, shape, ksize, stride, boundary):
        # the benchmark's image placement, a long 1D signal and a tall input,
        # which is placed turned
        rng = np.random.default_rng(22)
        x, kernel = rng.normal(size=shape), KernelSpec(rng.normal(size=ksize), stride)
        literal = literal_transposed_conv if len(shape) == 1 else literal_transposed_conv2
        np.testing.assert_allclose(_place_by_fft(x, kernel, boundary),
                                   literal(x, kernel, boundary),
                                   rtol=0, atol=1e-12 * np.abs(x).max()
                                   * np.abs(kernel.weights).sum())

    @pytest.mark.parametrize("boundary", ["periodic", "zero-pad"])
    @pytest.mark.parametrize("phase", [(0, 0), (0, 1), (1, 0), (1, 1)])
    def test_every_phase_keeps_the_callers_error_state(self, phase, boundary):
        # a 3 x 3 kernel at stride 2 puts tap 1 in phase 0 and taps 0, 2 in
        # phase 1 of each axis; the taps of one output phase are 4 and the
        # rest 1e-3, so that phase alone overflows when scaled back on write:
        # FloatingPointError under np.errstate(over="raise"), inf otherwise
        taps = [np.array([1]), np.array([0, 2])]
        w = np.full((3, 3), 1e-3)
        w[np.ix_(taps[phase[0]], taps[phase[1]])] = 4.0
        x, kernel = np.full((8, 8, 2), 1e308), KernelSpec(w, 2)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            _place_by_fft(x, kernel, boundary)
        with np.errstate(over="ignore"):
            got = _place_by_fft(x, kernel, boundary)
        for pa, pb in itertools.product(range(2), range(2)):
            assert (np.isinf(got[pa::2, pb::2]).all() if (pa, pb) == phase
                    else np.isfinite(got[pa::2, pb::2]).all())

    @pytest.mark.parametrize("low, high", [(0, 1), (1, 2), (2, 3), (1, 4), (0, 7)])
    def test_first_failing_transform_wins(self, low, high):
        # 4 phases x 2 channels make 8 inverse transforms, in order; the
        # lower call fails with one error and the higher with another: the
        # lower one's is raised and no transform runs after it
        rng = np.random.default_rng(21)
        x, kernel = rng.normal(size=(16, 16, 2)), KernelSpec(rng.normal(size=(3, 3)), 2)
        irfft, calls = np.fft.irfft, []

        def failing_irfft(*args, **kwargs):
            calls.append(len(calls))
            if calls[-1] == low:
                raise KeyError("low")
            if calls[-1] == high:
                raise ZeroDivisionError("high")
            return irfft(*args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.fft, "irfft", failing_irfft)
            with pytest.raises(KeyError, match="low"):
                _place_by_fft(x, kernel, "periodic")
        assert calls == list(range(low + 1))


class TestPlacementRule:
    """The path is a fixed rule on (samples per channel, nonzero taps of
    the fullest phase): small and few-tap placements stay direct, and so
    keep their bytes."""

    @staticmethod
    def _spy(mp):
        calls = []
        fft = upsamplers._place_fft
        mp.setattr(upsamplers, "_place_fft", lambda *a: calls.append(a[0].shape) or fft(*a))
        return calls

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), ndim=st.sampled_from([1, 2]),
           boundary=st.sampled_from(["periodic", "zero-pad"]))
    def test_property_test_draws_are_direct(self, data, ndim, boundary):
        x, kernel, _ = data.draw(placement_cases(ndim=ndim))
        with pytest.MonkeyPatch.context() as mp:
            calls = self._spy(mp)
            (transposed_conv if ndim == 1 else transposed_conv2)(x, kernel, boundary)
        assert calls == []

    def test_default_cli_compares_are_direct(self, tmp_path):
        with pytest.MonkeyPatch.context() as mp:
            calls = self._spy(mp)
            for argv in ([], ["--n", "128", "--kernel-size", "31"]):
                for boundary in upsamplers.BOUNDARY_MODES:
                    assert cli_main(["compare", "--out-dir", str(tmp_path), "--seed", "1",
                                     "--boundary", boundary, *argv]) == 0
        assert calls == []

    def test_large_image_with_many_taps_takes_fft(self):
        rng = np.random.default_rng(11)
        kernel = KernelSpec(0.5 + rng.random((11, 11)), 2)
        image = rng.normal(size=(256, 256, 3))
        with pytest.MonkeyPatch.context() as mp:
            calls = self._spy(mp)
            for boundary in upsamplers.BOUNDARY_MODES:
                transposed_conv2(image, kernel, boundary)
        assert calls == [(256, 256, 3)] * 2

    def test_threshold(self):
        # at stride 2 the fullest phase has ceil(K/2) taps a side; each
        # FFT_MIN_TAPS step switches to FFT at its count and stays direct one
        # tap below it, and 1023 samples stay direct
        fft = [((32, 32), (9, 9)), ((1023, 2), (9, 9)), ((1024,), 65), ((4095,), 65),
               ((4096,), 95), ((16383,), 95), ((16384,), 159), ((131071,), 161),
               ((131072,), 161), ((255, 256), (11, 11)), ((256, 256), (11, 11))]
        direct = [((32, 32), (8, 11)), ((31, 33), (9, 9)), ((1024, 2), (9, 9)),
                  ((1024,), 63), ((1023,), 65), ((4096,), 93), ((16384,), 157)]
        rng = np.random.default_rng(12)
        with pytest.MonkeyPatch.context() as mp:
            calls = self._spy(mp)
            for shape, k in fft + direct:
                op = transposed_conv if len(shape) == 1 else transposed_conv2
                op(rng.normal(size=shape), KernelSpec(rng.normal(size=k), 2))
        assert calls == [(1, *shape, 1) if len(shape) == 1 else (*shape, 1) for shape, _ in fft]

    @settings(max_examples=200, deadline=None)
    @given(ka=st.integers(1, 12), kb=st.integers(1, 12), sa=st.integers(1, 8),
           sb=st.integers(1, 8), density=st.sampled_from([0.0, 0.3, 0.7, 1.0]),
           seed=st.integers(0, 2**32 - 1))
    def test_fullest_phase_equals_literal_count(self, ka, kb, sa, sb, density, seed):
        # phases are the tap classes mod s, whatever order _phases lists them
        # in; kernels of zeros and strides past the kernel size included
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(ka, kb)) * (rng.random((ka, kb)) < density)
        for strides in ((sa, sb), (1, sb)):
            assert upsamplers._fullest_phase_taps(w, strides) == \
                literal_fullest_phase_taps(w, strides)


#: Scale factors c = 2^k, by which every operator commutes exactly.
POWERS_OF_TWO = st.integers(-30, 30).map(lambda k: 2.0 ** k)


class TestEquivariance:
    """Every operator is linear and commutes with scaling by c = 2^k
    exactly; under periodic placement a shift of x by one sample shifts
    y by r exactly (fourier_pad to 1e-12 of scale, as its FFTs sum in
    another order)."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), ndim=st.sampled_from([1, 2]), c=POWERS_OF_TWO,
           boundary=st.sampled_from(["periodic", "zero-pad"]))
    def test_transposed_convolutions(self, data, ndim, c, boundary):
        x, kernel, _ = data.draw(placement_cases(ndim=ndim))
        conv = transposed_conv if ndim == 1 else transposed_conv2
        axes = tuple(range(ndim))
        y = conv(x, kernel, boundary)
        np.testing.assert_array_equal(conv(c * x, kernel, boundary), c * y)
        if boundary == "periodic":
            np.testing.assert_array_equal(conv(np.roll(x, 1, axis=axes), kernel),
                                          np.roll(y, kernel.stride, axis=axes))

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(1, 64), r=st.integers(2, 6), c=POWERS_OF_TWO,
           exponent=st.integers(-6, 6), seed=st.integers(0, 2**32 - 1))
    def test_fixed_operators(self, n, r, c, exponent, seed):
        rng = np.random.default_rng(seed)
        channels = rng.normal(size=(r, n)) * 10.0 ** exponent
        x = channels[0]
        ops = [lambda v: bed_of_nails(v, r), lambda v: nearest(v, r),
               lambda v: linear(v, r), lambda v: linear(v, r, "zero-pad"),
               lambda v: fourier_pad_upsample(v, r)]
        for op in ops:
            np.testing.assert_array_equal(op(c * x), c * op(x))
        for op in ops[:3]:
            np.testing.assert_array_equal(op(np.roll(x, 1)), np.roll(op(x), r))
        np.testing.assert_allclose(ops[4](np.roll(x, 1)), np.roll(ops[4](x), r),
                                   rtol=0, atol=1e-12 * np.abs(x).sum())
        shuffled = pixel_shuffle(channels, r)
        np.testing.assert_array_equal(pixel_shuffle(c * channels, r), c * shuffled)
        np.testing.assert_array_equal(pixel_shuffle(np.roll(channels, 1, axis=1), r),
                                      np.roll(shuffled, r))


class TestFourierPad:
    def test_bandlimited_cosine_reconstructed(self):
        x = np.cos(2 * np.pi * np.arange(4) / 4)
        expected = [1, np.sqrt(2) / 2, 0, -np.sqrt(2) / 2,
                    -1, -np.sqrt(2) / 2, 0, np.sqrt(2) / 2]
        np.testing.assert_allclose(fourier_pad_upsample(x, 2), expected, atol=1e-12)

    def test_constant_passthrough(self):
        np.testing.assert_allclose(fourier_pad_upsample([3.0, 3.0, 3.0], 2),
                                   np.full(6, 3.0), atol=1e-12)

    def test_nyquist_half_split(self):
        # the split Nyquist bins reconstruct cos(pi*n/2) exactly
        out = fourier_pad_upsample([1.0, -1.0, 1.0, -1.0], 2)
        np.testing.assert_allclose(out, np.cos(np.pi * np.arange(8) / 2), atol=1e-12)

    def test_preserves_original_samples(self):
        rng = np.random.default_rng(10)
        for n in (5, 8, 21, 64):
            for r in (2, 3):
                x = rng.normal(size=n)
                y = fourier_pad_upsample(x, r)
                assert y.size == r * n
                np.testing.assert_allclose(y[::r], x, atol=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(half=st.integers(0, 149), odd=st.booleans(), r=st.integers(2, 8),
           exponent=st.integers(-300, 300), seed=st.integers(0, 2**32 - 1))
    def test_bins_equal_literal_layout(self, half, odd, r, exponent, seed):
        # one bin copy for both parities, then even n's halved Nyquist bin: the
        # half spectra equal the complex layout to 1e-13 of the input's scale
        n = 2 * half + 1 if odd else 2 * half + 2
        x = np.random.default_rng(seed).normal(size=n) * 10.0 ** exponent
        np.testing.assert_allclose(fourier_pad_upsample(x, r), literal_fourier_pad(x, r),
                                   rtol=0, atol=1e-13 * np.abs(x).max())

    def test_no_energy_outside_passband(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=32)
        f = np.fft.fftshift(np.fft.fft(fourier_pad_upsample(x, 2)))
        kc = np.arange(64) - 32
        outside = np.abs(kc) > 16
        assert np.max(np.abs(f[outside]) ** 2) <= 1e-18


#: Input lengths on both sides of FFT_MIN_SAMPLES, so that placements run
#: tap by tap and by FFT, and exponents of 2 that scale x and w.
SYMBOL_LENGTHS = st.integers(1, 40) | st.integers(1024, 2500)
SYMBOL_SCALES = st.sampled_from([-480, 0, 480])


@st.composite
def symbol_cases(draw):
    """(n, r, K, k or None): K up to 3*r*n, so offsets wrap, and an
    optional small branch of any size up to K."""
    n, r = draw(SYMBOL_LENGTHS), draw(st.integers(2, 4))
    k = draw(st.integers(1, 3 * r * n))
    return n, r, k, draw(st.none() | st.integers(1, k))


def assert_symbol_identity(y, x, impulse_response, r):
    """DFT(y) = G * tile(DFT(x), r), G = DFT(impulse_response), to
    1e-13 * max|G| * max|DFT(x)|."""
    spectrum, symbol = np.fft.fft(x), np.fft.fft(impulse_response)
    gap = np.abs(np.fft.fft(y) - symbol * np.tile(spectrum, r)).max()
    assert gap <= 1e-13 * np.abs(symbol).max() * np.abs(spectrum).max()


class TestSymbolIdentity:
    """Under periodic placement every operator is a convolution of the
    zero-inserted input with its impulse response g on the r*n grid, so
    DFT(T x) = G * tile(DFT x, r) with G = DFT(g) (Sedghi et al. 2019)."""

    @settings(max_examples=150, deadline=None)
    @given(case=symbol_cases(), ex=SYMBOL_SCALES, ew=SYMBOL_SCALES,
           seed=st.integers(0, 2**32 - 1))
    @example(case=(8, 2, 20, 3), ex=0, ew=0, seed=0)
    @example(case=(1024, 2, 5000, 7), ex=480, ew=480, seed=1)
    def test_transposed_conv_symbol_is_its_taps_on_their_offsets(self, case, ex, ew, seed):
        n, r, k, small = case
        rng = np.random.default_rng(seed)
        x = np.ldexp(rng.normal(size=n), ex)
        taps = np.ldexp(rng.normal(size=k + (small or 0)), ew)
        kernel = KernelSpec(taps[:k], r, None if small is None else taps[k:])
        offsets = upsamplers._tap_offsets([k] if small is None else [k, small], r * n)
        g = np.bincount(offsets, weights=taps, minlength=r * n)
        assert_symbol_identity(transposed_conv(x, kernel), x, g, r)

    @settings(max_examples=100, deadline=None)
    @given(n=SYMBOL_LENGTHS, r=st.integers(2, 4), ex=SYMBOL_SCALES,
           seed=st.integers(0, 2**32 - 1))
    def test_fixed_operator_symbol_is_its_impulse_response(self, n, r, ex, seed):
        x = np.ldexp(np.random.default_rng(seed).normal(size=n), ex)
        impulse = np.zeros(n)
        impulse[0] = 1.0
        for op in (bed_of_nails, nearest, linear, fourier_pad_upsample):
            assert_symbol_identity(op(x, r), x, op(impulse, r), r)


class TestOperatorMatrix:
    def test_bed_of_nails_matrix(self):
        mat = operator_matrix(lambda x: bed_of_nails(x, 2), 2)
        np.testing.assert_array_equal(mat, [[1, 0], [0, 0], [0, 1], [0, 0]])

    def test_nearest_matrix(self):
        mat = operator_matrix(lambda x: nearest(x, 2), 2)
        np.testing.assert_array_equal(mat, [[1, 0], [1, 0], [0, 1], [0, 1]])

    def test_fourier_pad_matrix_is_dirichlet(self):
        mat = operator_matrix(lambda x: fourier_pad_upsample(x, 2), 4)
        np.testing.assert_allclose(mat, dirichlet_matrix(4, 2), atol=1e-12)

    def test_matrix_reproduces_application(self):
        rng = np.random.default_rng(12)
        k = KernelSpec(weights=rng.normal(size=5), stride=2)
        ops = [lambda x: linear(x, 3), lambda x: transposed_conv(x, k),
               lambda x: fourier_pad_upsample(x, 2)]
        for op in ops:
            mat = operator_matrix(op, 6)
            x = rng.normal(size=6)
            np.testing.assert_allclose(mat @ x, op(x), atol=1e-12)


class TestOperatorInvariants:
    def test_replica_identity(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            n = int(rng.integers(2, 513))
            r = int(rng.choice([2, 3]))
            x = rng.normal(size=n)
            fy = dft(bed_of_nails(x, r)).values
            fx = dft(x).values
            assert np.max(np.abs(fy - np.tile(fx, r))) <= 1e-10

    def test_linearity_of_all_operators(self):
        rng = np.random.default_rng(14)
        k = KernelSpec(weights=rng.normal(size=5), stride=2,
                       parallel_small=rng.normal(size=3))
        ops = [
            lambda v: bed_of_nails(v, 2),
            lambda v: nearest(v, 3),
            lambda v: linear(v, 2),
            lambda v: transposed_conv(v, k),
            lambda v: fourier_pad_upsample(v, 2),
        ]
        x, y = rng.normal(size=12), rng.normal(size=12)
        a, b = -1.7, 0.4
        for op in ops:
            np.testing.assert_allclose(op(a * x + b * y), a * op(x) + b * op(y),
                                       atol=1e-10)

    def test_fourier_pad_imaginary_guard(self):
        # operator applied through a complex-valued path stays real
        x = random_bandlimited(16, 7, np.random.default_rng(15))
        fourier_pad_upsample(x, 3)  # must not raise
        with pytest.raises((NonRealResultError, ValueError)):
            fourier_pad_upsample([1.0, np.inf], 2)

    def test_fourier_pad_overflow_at_the_nyquist_split_raises_without_a_warning(self):
        # 0.5 * f[n/2] of an overflowed spectrum; a warning would fail the test
        with pytest.raises(NonRealResultError):
            fourier_pad_upsample(1e308 * (-1.0) ** np.arange(16), 2)

    def test_fourier_pad_accepts_any_amplitude(self):
        # the imaginary residue grows with the amplitude; the bound must too
        x = 1e8 * np.cos(2 * np.pi * 7 * np.arange(1000) / 1000)
        y = fourier_pad_upsample(x, 3)
        np.testing.assert_allclose(y[::3], x, rtol=0, atol=1e-12 * 1e8)


class TestOutputLength:
    @pytest.mark.parametrize("upsample", [
        bed_of_nails, nearest, linear, fourier_pad_upsample,
        lambda x, r: pixel_shuffle([x], r),
        lambda x, r: transposed_conv(x, KernelSpec(np.ones(3), r)),
    ], ids=["bed_of_nails", "nearest", "linear", "fourier_pad", "pixel_shuffle",
            "transposed_conv"])
    def test_output_past_an_array_is_named(self, upsample):
        # r*n past the most float64 samples one array holds is one ValueError
        # naming it, not numpy's words, whatever the operator
        message = f"output length r*n must be an integer from 1 to {MAX_SAMPLES}, got {16 * 2**62}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            upsample(np.ones(16), 2 ** 62)

    def test_largest_output_is_accepted(self):
        assert upsamplers.validate_factor(MAX_SAMPLES, 1) == MAX_SAMPLES
        assert upsamplers.validate_factor(2 ** 55, 16) == 2 ** 55
        with pytest.raises(ValueError, match="^output length r\\*n must be"):
            upsamplers.validate_factor(2 ** 56, 16)

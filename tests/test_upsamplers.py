import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    brute_dft,
    dirichlet_matrix,
    literal_bed_of_nails,
    literal_fold,
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
        np.testing.assert_array_equal(calls[1], [[0], [0], [1], [1], [1]])
        np.testing.assert_array_equal(calls[2], [[1 / 3], [2 / 3], [1], [1 - 1 / 3], [1 - 2 / 3]])


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

    def test_no_energy_outside_passband(self):
        rng = np.random.default_rng(11)
        x = rng.normal(size=32)
        f = np.fft.fftshift(np.fft.fft(fourier_pad_upsample(x, 2)))
        kc = np.arange(64) - 32
        outside = np.abs(kc) > 16
        assert np.max(np.abs(f[outside]) ** 2) <= 1e-18


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

    def test_fourier_pad_accepts_any_amplitude(self):
        # the imaginary residue grows with the amplitude; the bound must too
        x = 1e8 * np.cos(2 * np.pi * 7 * np.arange(1000) / 1000)
        y = fourier_pad_upsample(x, 3)
        np.testing.assert_allclose(y[::3], x, rtol=0, atol=1e-12 * 1e8)

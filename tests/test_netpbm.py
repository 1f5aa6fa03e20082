import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from helpers import INT64_MAX, literal_quantize, literal_strip_file
from upspec import netpbm
from upspec.netpbm import read_netpbm, write_netpbm
from upspec.upsamplers import KernelSpec, transposed_conv2

shapes = (st.tuples(st.integers(1, 6), st.integers(1, 6))
          | st.tuples(st.integers(1, 6), st.integers(1, 6), st.just(3)))


@st.composite
def float_images(draw):
    """Unit-range images scaled by 1e-300 .. 1e300 and shifted by up to
    that amplitude, so the range stays finite."""
    shape = draw(shapes)
    amplitude = 10.0 ** draw(st.floats(-300, 300))
    unit = draw(hnp.arrays(float, shape, elements=st.floats(-1, 1)))
    return unit * amplitude + draw(st.floats(-1, 1)) * amplitude


@st.composite
def tie_images(draw):
    """Integers 0 .. 2^j with both ends present, times a power of two:
    the value 2^(j-1) scales to exactly 127.5."""
    shape = draw(shapes)
    top = 2 ** draw(st.integers(1, 12))
    arr = draw(hnp.arrays(np.int64, shape, elements=st.integers(0, top))).astype(float)
    arr.flat[0], arr.flat[-1] = 0, top
    return arr * 2.0 ** draw(st.integers(-60, 60))


def quantized(arr, directory) -> np.ndarray:
    """The raster that ``write_netpbm`` writes for ``arr``, read back."""
    path = directory / "raster.pnm"
    write_netpbm(arr, path)
    return read_netpbm(path)


class TestQuantize:
    def test_constant_maps_to_zero(self, tmp_path):
        np.testing.assert_array_equal(quantized(np.full((2, 3), 7.7), tmp_path),
                                      np.zeros((2, 3), dtype=np.uint8))

    def test_endpoints(self, tmp_path):
        np.testing.assert_array_equal(quantized(np.array([[0.0, 1.0]]), tmp_path), [[0, 255]])

    def test_rejects_nan(self, tmp_path):
        with pytest.raises(ValueError):
            write_netpbm(np.array([[np.nan]]), tmp_path / "bad.pgm")

    @pytest.mark.parametrize("values", [[np.inf], [-np.inf, 0.0], [1e308, np.inf, np.nan]])
    def test_rejects_non_finite(self, tmp_path, values):
        with pytest.raises(ValueError, match="finite"):
            write_netpbm(np.array([values]), tmp_path / "bad.pgm")

    @settings(max_examples=250, deadline=None)
    @given(arr=float_images() | tie_images()
           | st.builds(np.full, shapes, st.floats(-1e300, 1e300)))
    def test_floats_equal_literal_formula(self, arr, tmp_path_factory):
        np.testing.assert_array_equal(quantized(arr, tmp_path_factory.mktemp("q")),
                                      literal_quantize(arr))

    def test_half_step_ties_round_to_even(self, tmp_path):
        # 0, 1/2, 1 scale to 0, 127.5, 255; 127.5 rounds to the even 128
        np.testing.assert_array_equal(quantized(np.array([[0.0, 1.0, 2.0]]), tmp_path),
                                      [[0, 128, 255]])

    @settings(max_examples=100, deadline=None)
    @given(mask=hnp.arrays(bool, shapes) | shapes.map(lambda s: np.ones(s, dtype=bool))
           | shapes.map(lambda s: np.zeros(s, dtype=bool)))
    def test_booleans_equal_float_cast(self, mask, tmp_path_factory):
        directory = tmp_path_factory.mktemp("q")
        out = quantized(mask, directory)
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, quantized(mask.astype(float), directory))
        np.testing.assert_array_equal(out, literal_quantize(mask))
        transposed = mask.swapaxes(0, 1)
        np.testing.assert_array_equal(quantized(transposed, directory),
                                      literal_quantize(transposed))

    @settings(max_examples=100, deadline=None)
    @given(arr=hnp.arrays(np.int64, shapes, elements=st.integers(-2 ** 40, 2 ** 40))
           | hnp.arrays(np.uint8, shapes))
    def test_integers_equal_literal_formula(self, arr, tmp_path_factory):
        np.testing.assert_array_equal(quantized(arr, tmp_path_factory.mktemp("q")),
                                      literal_quantize(arr))

    def test_overflowing_range_is_scaled_by_halves(self, tmp_path):
        big = np.finfo(float).max
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            np.testing.assert_array_equal(
                quantized(np.array([[-1e308, 0.0, 1e308]]), tmp_path), [[0, 128, 255]])
            np.testing.assert_array_equal(
                quantized(np.array([[-big, big], [0.0, big / 2]]), tmp_path),
                [[0, 255], [128, 191]])


@st.composite
def rasters(draw):
    """Arrays of 1-300 rows, up to 70,000 columns (so that one row can
    outgrow a write block) and no channel axis or one of 1 or 3 channels,
    within 300,000 values: constant and mixed masks, floats over 600
    decades or with a range that overflows, and uint8; in C order,
    transposed, strided, or with the last axis slowest (channel first)."""
    h = draw(st.integers(1, 300) | st.integers(1, 4))
    channels = draw(st.sampled_from([(), (1,), (3,)]))
    widest = min(70_000, 300_000 // (h * (channels or (1,))[0]))
    w = draw(st.integers(1, widest) | st.just(widest))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    layout = draw(st.sampled_from(["c", "transposed", "strided", "channel-first"]))
    shape = {"c": (h, w), "transposed": (w, h), "strided": (h, 2 * w),
             "channel-first": (h, w)}[layout] + channels
    kind = draw(st.sampled_from(["false", "true", "mask", "float", "overflow", "uint8"]))
    if kind in ("false", "true"):
        arr = np.full(shape, kind == "true")
    elif kind == "mask":
        arr = rng.random(shape) < draw(st.floats(0, 1))
    elif kind == "float":
        arr = rng.normal(size=shape) * 10.0 ** draw(st.integers(-300, 300))
    elif kind == "overflow":
        arr = rng.uniform(-1, 1, shape) * 1e308
        arr.flat[0], arr.flat[-1] = -1e308, 1e308
    else:
        arr = rng.integers(0, 256, shape, dtype=np.uint8)
    if layout == "channel-first":
        return np.moveaxis(np.ascontiguousarray(np.moveaxis(arr, -1, 0)), 0, -1)
    return {"c": arr, "transposed": arr.swapaxes(0, 1), "strided": arr[::-1, ::2]}[layout]


#: A (320, 320, 3) FFT-placed transposed_conv2 output: a channel-first view
#: written in five row blocks, the last one ragged.
FFT_PLACED = transposed_conv2(np.random.default_rng(3).normal(size=(160, 160, 3)),
                              KernelSpec(np.random.default_rng(4).normal(size=(9, 9)), 2))


class TestWriteRead:
    @settings(max_examples=100, deadline=None)
    @given(arr=rasters())
    @example(arr=FFT_PLACED)
    def test_file_is_header_and_literal_bytes(self, arr, tmp_path_factory):
        path = tmp_path_factory.mktemp("pnm") / "raster.pnm"
        write_netpbm(arr, path)
        raster = literal_quantize(arr[:, :, 0] if arr.ndim == 3 and arr.shape[2] == 1 else arr)
        magic = b"P5" if raster.ndim == 2 else b"P6"
        header = b"%s %d %d 255\n" % (magic, arr.shape[1], arr.shape[0])
        assert path.read_bytes() == header + raster.tobytes()

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_creates_no_file(self, tmp_path, bad):
        # the bad value sits in the last of several row blocks
        arr = np.zeros((300, 1000))
        arr[-1, -1] = bad
        with pytest.raises(ValueError, match="finite"):
            write_netpbm(arr, tmp_path / "bad.pgm")
        assert not (tmp_path / "bad.pgm").exists()

    def test_single_pixel_header_and_byte(self, tmp_path):
        path = tmp_path / "one.pgm"
        write_netpbm(np.array([[123.4]]), path)
        assert path.read_bytes() == b"P5 1 1 255\n\x00"

    def test_boolean_mask_bytes(self, tmp_path):
        path = tmp_path / "mask.pgm"
        write_netpbm(np.array([[True, False], [False, False]]), path)
        assert path.read_bytes() == b"P5 2 2 255\n" + bytes([255, 0, 0, 0])

    def test_two_pixel_endpoints(self, tmp_path):
        path = tmp_path / "two.pgm"
        write_netpbm(np.array([[0.0, 1.0]]), path)
        assert path.read_bytes() == b"P5 2 1 255\n" + bytes([0, 255])

    def test_round_trip_is_byte_stable(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.normal(size=(8, 8))
        first = tmp_path / "a.pgm"
        second = tmp_path / "b.pgm"
        write_netpbm(img, first)
        write_netpbm(read_netpbm(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_rgb_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = rng.normal(size=(5, 7, 3))
        path = tmp_path / "c.ppm"
        write_netpbm(img, path)
        assert path.read_bytes().startswith(b"P6 7 5 255\n")
        back = read_netpbm(path)
        assert back.shape == (5, 7, 3)
        np.testing.assert_array_equal(back, literal_quantize(img))

    @pytest.mark.parametrize("view", [lambda a: a[:, :, 0].T, lambda a: a[::-1, ::2, 0],
                                      lambda a: a.transpose(1, 0, 2)],
                             ids=["transposed", "strided", "rgb-transposed"])
    @pytest.mark.parametrize("mask", [False, True])
    def test_non_contiguous_views_write_their_c_order_bytes(self, tmp_path, view, mask):
        arr = view(np.random.default_rng(2).normal(size=(6, 8, 3)))
        if mask:
            arr = arr > 0
        write_netpbm(arr, tmp_path / "view.pnm")
        write_netpbm(np.ascontiguousarray(arr), tmp_path / "copy.pnm")
        assert (tmp_path / "view.pnm").read_bytes() == (tmp_path / "copy.pnm").read_bytes()
        np.testing.assert_array_equal(read_netpbm(tmp_path / "view.pnm"), literal_quantize(arr))

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "d.pgm"
        path.write_bytes(b"P5\n# a comment\n2 1\n255\n" + bytes([4, 9]))
        np.testing.assert_array_equal(read_netpbm(path), [[4, 9]])

    @settings(max_examples=200, deadline=None)
    @given(arr=hnp.arrays(np.uint8, shapes), data=st.data())
    def test_any_spacing_and_comments_read_the_same_raster(self, arr, data, tmp_path_factory):
        # every field separator becomes a run of whitespace bytes and comments;
        # the byte after maxval stays one whitespace byte
        path = tmp_path_factory.mktemp("pnm") / "raster.pnm"
        write_netpbm(arr, path)
        expected = read_netpbm(path)
        magic, w, h, rest = path.read_bytes().split(b" ", 3)
        space = st.sampled_from([b"\t", b"\n", b"\v", b"\f", b"\r", b" "])
        comment = st.binary(max_size=8).map(lambda c: b"#" + c.replace(b"\n", b"") + b"\n")
        separator = st.lists(space | comment, min_size=1, max_size=4).map(b"".join)
        header = magic + b"".join(data.draw(separator) + field for field in (w, h, b"255"))
        path.write_bytes(header + data.draw(space) + rest[len(b"255\n"):])
        np.testing.assert_array_equal(read_netpbm(path), expected)

    @pytest.mark.parametrize("first", [9, 10, 11, 12, 13, 32])
    def test_raster_starting_with_whitespace_values_reads_exactly(self, tmp_path, first):
        # the raster begins right after the one whitespace byte behind maxval
        raster = bytes([first, first, 32, 9, 7, 10])
        path = tmp_path / "space.pgm"
        path.write_bytes(b"P5 3 2 255\n" + raster)
        out = read_netpbm(path)
        np.testing.assert_array_equal(out, np.frombuffer(raster, np.uint8).reshape(2, 3))
        assert out.flags.writeable and out.flags.c_contiguous

    def test_comment_right_after_digits(self, tmp_path):
        path = tmp_path / "e.pgm"
        path.write_bytes(b"P5 2# width\n1#height\n255\n" + bytes([4, 9]))
        np.testing.assert_array_equal(read_netpbm(path), [[4, 9]])

    @pytest.mark.parametrize("content, message", [
        (b"P5 +2 1 255\n\x00\x00", "malformed Netpbm header"),
        (b"P5 2 1 255", "malformed Netpbm header"),
        (b" P5 2 1 255\n\x00\x00", "unsupported Netpbm magic b' P'"),
        (b"# c\nP5 2 1 255\n\x00\x00", "unsupported Netpbm magic b'# '"),
        (b"P5 0 4 255\n", f"width must be an integer from 1 to {INT64_MAX}, got 0"),
        (b"P6 4 0 255\n", f"height must be an integer from 1 to {INT64_MAX}, got 0"),
    ], ids=["plus-sign", "no-byte-after-maxval", "space-before-magic",
            "comment-before-magic", "zero-width", "zero-height"])
    def test_rejects_headers_outside_the_grammar(self, tmp_path, content, message):
        path = tmp_path / "bad.pnm"
        path.write_bytes(content)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
            read_netpbm(path)

    def test_rejects_bad_inputs(self, tmp_path):
        with pytest.raises(ValueError):
            write_netpbm(np.ones((2, 2, 2)), tmp_path / "bad.pgm")
        path = tmp_path / "trunc.pgm"
        path.write_bytes(b"P5 4 4 255\n\x00")
        with pytest.raises(ValueError):
            read_netpbm(path)
        other = tmp_path / "magic.pgm"
        other.write_bytes(b"P2 1 1 255\n0")
        with pytest.raises(ValueError):
            read_netpbm(other)


@st.composite
def half_step_ties(draw):
    """Integers 0 .. 96 with both ends present, times a power of two: every
    odd value scales to an exact half step of the 48 rows."""
    values = draw(st.lists(st.integers(0, 96), max_size=298))
    return [v * 2.0 ** draw(st.integers(-60, 60)) for v in [0, *values, 96]]


class TestBarStrip:
    @settings(max_examples=200, deadline=None)
    @given(values=st.lists(st.floats(-1e300, 1e300) | st.integers(-1000, 1000)
                           | st.integers(-10 ** 300, 10 ** 300), min_size=1, max_size=300)
           | st.builds(lambda v, size: [v] * size, st.floats(-1e300, 1e300) | st.integers(),
                       st.integers(1, 300))
           | half_step_ties(),
           repeat=st.integers(1, 5))
    @example(values=[0, 2, 6, 10, 14, 64], repeat=3)
    @example(values=[-2.5] * 4, repeat=5)  # constant: all 0, tiled
    @example(values=[7.0], repeat=1)  # one value
    def test_equals_literal_column_fill(self, values, repeat, tmp_path_factory):
        path = tmp_path_factory.mktemp("strip") / "strip.pgm"
        netpbm.write_bar_strip(values, path, repeat)
        assert path.read_bytes() == literal_strip_file(values, repeat, netpbm.BAR_HEIGHT)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_values_raise_and_create_no_file(self, tmp_path, bad):
        with pytest.raises(ValueError, match="finite"):
            netpbm.write_bar_strip([0.0, bad, 1.0], tmp_path / "bad.pgm", 2)
        assert not (tmp_path / "bad.pgm").exists()

    def test_overflowing_range_fills_by_halves(self, tmp_path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            netpbm.write_bar_strip([-1e308, 0.0, 1e308], tmp_path / "strip.pgm")
        strip = read_netpbm(tmp_path / "strip.pgm")
        np.testing.assert_array_equal(np.unique(strip), [0, 255])
        np.testing.assert_array_equal((strip == 255).sum(axis=0), [0, 24, 48])

    def test_half_steps_round_to_even(self, tmp_path):
        # scaled values times 48 are 0, 1.5, 4.5, 7.5, 10.5 and 48, exactly
        netpbm.write_bar_strip([0, 2, 6, 10, 14, 64], tmp_path / "strip.pgm")
        img = read_netpbm(tmp_path / "strip.pgm")
        assert img.shape == (48, 6)
        np.testing.assert_array_equal((img == 255).sum(axis=0), [0, 2, 4, 8, 10, 48])
        assert not img[:-2, 1].any() and (img[-2:, 1] == 255).all()

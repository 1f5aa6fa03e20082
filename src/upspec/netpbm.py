"""Binary Netpbm (P5/P6) writing and reading.

Arrays are min-max normalized to 0..255 on write (constant arrays map to
0), with a single-space header "P5 <w> <h> 255\\n". A boolean array maps
to {0, 255}, or to 0 when constant. A range too wide for ``hi - lo`` to
be finite is scaled by halves instead of overflowing. Reading back
yields the quantized bytes exactly, so write -> read -> write is
byte-stable. Bar strips are rendered straight to their P5 raster.
"""

from __future__ import annotations

import re

import numpy as np

from .signal_core import _integer

#: Raster bytes quantized and written at a time by :func:`write_netpbm`.
_BLOCK_BYTES = 1 << 16
#: Header of a maxval-255 raster, filled with (magic, width, height).
_HEADER = b"%s %d %d 255\n"
#: Width, height and maxval after the magic, in :func:`read_netpbm`'s grammar.
_HEADER_FIELDS = re.compile(rb"(?:(?:\s|#[^\n]*\n)+(\d+))" * 3 + rb"\s")
#: Rows of a bar strip (:func:`write_bar_strip`).
BAR_HEIGHT = 48


def _minmax_rint(arr, lo: float, hi: float, top: float, out) -> np.ndarray:
    """``rint((arr - lo) / (hi - lo) * top)`` for lo < hi, into ``out`` (arr's
    shape) or a new float array if None, in place in that order of operations,
    so ties at .5 round as the expression does. When ``hi - lo`` overflows,
    the same ratio is taken as ``(arr/2 - lo/2) / (hi/2 - lo/2)``."""
    span = hi - lo
    if np.isfinite(span):
        out = np.subtract(arr, lo, out=out)
        out /= span
    else:
        out = np.multiply(arr, 0.5, out=out)
        out -= lo / 2
        out /= hi / 2 - lo / 2
    out *= top
    return np.rint(out, out=out)


def _finite_range(arr: np.ndarray) -> tuple[float, float]:
    """min and max of the whole array as floats; a non-finite one raises."""
    lo, hi = float(arr.min()), float(arr.max())
    if not (np.isfinite(lo) and np.isfinite(hi)):
        raise ValueError("array values must be finite")
    return lo, hi


def _quantize_block(block: np.ndarray, lo: float, hi: float, scratch: np.ndarray) -> np.ndarray:
    """Min-max quantisation to uint8 of any rows of an array whose range is
    [lo, hi], read as floats (booleans as 0 and 1), zeros when constant; in C
    order, scaled in ``scratch``, a C-order float array of the block's shape."""
    if hi == lo:
        return np.zeros(block.shape, dtype=np.uint8)
    # with both axes reversed numpy reads a channel-first view, such as an
    # FFT-placed image, along its rows instead of across its channels
    _minmax_rint(np.asarray(block, dtype=float).T, lo, hi, 255.0, scratch.T)
    return scratch.astype(np.uint8)


def write_netpbm(array, path) -> None:
    """Write a 2D array as P5 or an (H, W, 3) array as P6, quantized in blocks
    of whole rows of about ``_BLOCK_BYTES`` through one block-sized float
    buffer: no full-size copy is made. The range is checked first, so a
    non-finite array creates no file."""
    arr = np.asarray(array)
    if arr.ndim == 3 and arr.shape[2] == 1:
        arr = arr[:, :, 0]
    if arr.ndim == 2:
        magic = b"P5"
    elif arr.ndim == 3 and arr.shape[2] == 3:
        magic = b"P6"
    else:
        raise ValueError(f"expected (H, W) or (H, W, 3) array, got shape {arr.shape}")
    lo, hi = _finite_range(arr)
    h, w = arr.shape[:2]
    rows = max(1, _BLOCK_BYTES // arr[0].size)
    scratch = np.empty((min(rows, h), *arr.shape[1:]))
    with open(path, "wb") as fh:
        fh.write(_HEADER % (magic, w, h))
        for start in range(0, h, rows):
            block = arr[start:start + rows]
            fh.write(_quantize_block(block, lo, hi, scratch[:len(block)]))


def write_bar_strip(values, path, repeat: int = 1) -> None:
    """Write a 1D array, tiled ``repeat`` times, as a P5 bar chart of BAR_HEIGHT
    rows: column j is 255 in its bottom rint(scaled_j * BAR_HEIGHT) rows, the
    values min-max scaled to [0, 1], and 0 above (all 0 when constant). The
    (BAR_HEIGHT, len(values)) raster is filled once, with no zero-fill, by a
    compare into its bool view and ``np.negative`` (1 -> 255), then tiled.
    Non-finite values raise ``ValueError`` before the file is opened."""
    vals = np.asarray(values, dtype=float)
    lo, hi = _finite_range(vals)
    filled = np.zeros(vals.size) if hi == lo else _minmax_rint(vals, lo, hi, BAR_HEIGHT, None)
    empty = np.subtract(BAR_HEIGHT, filled, out=filled)
    raster = np.empty((BAR_HEIGHT, vals.size), np.uint8)
    np.greater_equal(np.arange(BAR_HEIGHT, dtype=np.uint8)[:, np.newaxis],
                     empty.astype(np.uint8), out=raster.view(bool))
    np.negative(raster, out=raster)
    if repeat != 1:
        raster = np.tile(raster, (1, repeat))
    with open(path, "wb") as fh:
        fh.write(_HEADER % (b"P5", raster.shape[1], BAR_HEIGHT))
        fh.write(raster)


def read_netpbm(path) -> np.ndarray:
    """Read a binary P5/P6 file; returns uint8 (H, W) or (H, W, 3), a writable
    view of the file's bytes, read once.

    The header is the magic "P5" or "P6" at the first byte, then width,
    height and maxval as decimal digits, each after whitespace or '#'
    comments that run to the end of the line, then exactly one whitespace
    byte; the raster follows it. Width and height must be from 1 to 2**63 - 1
    and maxval 255; bytes after the raster are ignored."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())  # writable, so the raster needs no copy of its own
    if data[:2] not in (b"P5", b"P6"):
        raise ValueError(f"unsupported Netpbm magic {bytes(data[:2])!r}")
    header = _HEADER_FIELDS.match(data, 2)
    if header is None:
        raise ValueError("malformed Netpbm header")
    width, height, maxval = map(int, header.groups())
    width, height = _integer(width, "width", 1), _integer(height, "height", 1)
    if maxval != 255:
        raise ValueError(f"only maxval 255 is supported, got {maxval}")
    channels = 1 if data[:2] == b"P5" else 3
    count, start = width * height * channels, header.end()
    if len(data) - start < count:
        raise ValueError(f"truncated raster: expected {count} bytes, got {len(data) - start}")
    raster = np.frombuffer(data, np.uint8, count, start)
    return raster.reshape(height, width) if channels == 1 else raster.reshape(height, width, 3)

"""Deterministic upsampling operators, in 1D and 2D.

Every operator maps a length-N signal to a length r*N signal (or an HxW
image to rH x rW) and is linear in its input. The boundary convention is
explicit everywhere:

- "periodic": indices wrap (the setting in which the spectral identities
  below are exact);
- "zero-pad": out-of-range neighbours read as zero. Output length is kept
  at r*N in this mode too, so operators of both modes share one shape
  contract.

Transposed convolutions are defined constructively: insert r-1 zeros
between samples, then convolve with the kernel anchored at index
floor(K/2). The fixed anchor makes kernel supports nested as K grows,
which in turn makes least-squares fitting residuals monotone in K. They
are computed in polyphase form (Shi et al. 2016, arXiv:1609.07009):
output phase p only receives the taps j = p + floor(K/2) (mod r), applied
to the un-inserted input, so no zero-inserted array is built and each
output sample costs K/r multiply-adds per axis instead of K. Placement is
linear, so a parallel small branch is folded into one effective kernel
(:meth:`KernelSpec.effective_weights`) and every transposed convolution
places its taps once. So do zero insertion, nearest and linear
interpolation, whose kernels are fixed: the pad mode is the one boundary rule.

Placement runs either tap by tap (each tap adds a shifted slice, exact
sums in a fixed order) or, for large inputs with many taps per phase, as
one real FFT convolution per output phase (to round-off, O(rN log N)
whatever K). A fixed rule on the input size and the kernel picks the path
(see ``FFT_MIN_SAMPLES`` and ``FFT_MIN_TAPS``); the fixed upsamplers and
every placement below the rule's threshold stay on the first. Large FFT
placements run their output phases in stripes, one per CPU up to two: the
caller's, and one on a long-lived worker thread, with output bitwise equal
to one thread's.
"""

from __future__ import annotations

import contextvars
import os
import threading
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .signal_core import _integer, as_image, as_signal, idft

BOUNDARY_MODES = ("periodic", "zero-pad")

#: Placement runs by FFT when a channel has at least FFT_MIN_SAMPLES samples
#: and the fullest output phase receives at least the nonzero taps that
#: FFT_MIN_TAPS pairs with the first bound above the longest axis (the
#: crossover table is in :func:`_place`).
FFT_MIN_SAMPLES = 1024
FFT_MIN_TAPS = ((1024, 25), (4096, 33), (16384, 48), (float("inf"), 80))
#: An FFT placement runs its phases in stripes on the caller and a worker thread
#: when it writes at least this many output samples (all channels), and
#: ``error_spectrum`` its stripes when each input holds this many samples;
#: smaller ones run on the caller alone.
_THREAD_MIN_SAMPLES = 1 << 18
#: Stripes are at most this many, the caller's and one worker thread's: the
#: crossover table in :func:`_place` and the peak-RSS figures were measured
#: with two, each stripe holding one complex and one real buffer of a
#: channel's transform size.
_MAX_WORKERS = 2
#: True in a context that runs one of several stripes.
_IN_STRIPE = contextvars.ContextVar("_IN_STRIPE", default=False)


@dataclass(frozen=True)
class KernelSpec:
    """Transposed-convolution weights plus stride.

    ``weights`` is a 1D tap vector or a 2D (square or rectangular) tap
    matrix. ``parallel_small`` is an optional second, smaller kernel on
    the same zero-inserted input (the large-context block composition).
    The anchor of every kernel is fixed at floor(K/2) per axis, so the
    two branches together act as the single kernel
    :meth:`effective_weights`.
    """

    weights: np.ndarray
    stride: int
    parallel_small: np.ndarray | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim not in (1, 2):
            raise ValueError("kernel weights must be 1D or 2D")
        if w.size == 0:
            raise ValueError("kernel must have at least one tap")
        if not np.all(np.isfinite(w)):
            raise ValueError("kernel weights must be finite")
        object.__setattr__(self, "stride", _integer(self.stride, "stride"))
        if self.stride < 1:
            raise ValueError("stride must be >= 1")
        object.__setattr__(self, "weights", w)
        if self.parallel_small is not None:
            small = np.asarray(self.parallel_small, dtype=float)
            if small.ndim != w.ndim:
                raise ValueError("parallel kernel must match main kernel dimensionality")
            if small.size == 0 or not np.all(np.isfinite(small)):
                raise ValueError("parallel kernel taps must be finite and non-empty")
            if any(s > m for s, m in zip(small.shape, w.shape)):
                raise ValueError("parallel kernel must not exceed the main kernel size")
            object.__setattr__(self, "parallel_small", small)

    @property
    def size(self) -> int:
        """Tap count along axis 0 (2D kernels may be rectangular)."""
        return self.weights.shape[0]

    def effective_weights(self) -> np.ndarray:
        """The one kernel whose placement equals both branches summed.

        Without a small branch this is ``weights`` itself (no copy).
        Otherwise it is a copy with ``parallel_small`` added onto the
        window starting at K//2 - k//2 on each axis, which puts the small
        anchor on the large one; the window fits because k <= K.
        """
        if self.parallel_small is None:
            return self.weights
        folded = self.weights.copy()
        window = tuple(slice(big // 2 - small // 2, big // 2 - small // 2 + small)
                       for big, small in zip(folded.shape, self.parallel_small.shape))
        folded[window] += self.parallel_small
        return folded


def validate_factor(r: int) -> int:
    r = _integer(r, "upsampling factor")
    if r < 2:
        raise ValueError("upsampling factor must be >= 2")
    return r


def _validate_boundary(boundary: str) -> None:
    if boundary not in BOUNDARY_MODES:
        raise ValueError(f"boundary must be one of {BOUNDARY_MODES}, got {boundary!r}")


def bed_of_nails(x, r: int) -> np.ndarray:
    """Insert r-1 zeros after every sample (kernel [1]): out[r*j] = x[j], 0 elsewhere."""
    x = as_signal(x)
    r = validate_factor(r)
    return _place1(x, np.ones(1), r, "periodic")


def nearest(x, r: int) -> np.ndarray:
    """Repeat every sample r times (kernel: r-1 zeros, r ones): out[r*j + m] = x[j]."""
    x = as_signal(x)
    r = validate_factor(r)
    return _place1(x, np.concatenate([np.zeros(r - 1), np.ones(r)]), r, "periodic")


def linear(x, r: int, boundary: str = "periodic") -> np.ndarray:
    """Linear interpolation: inserted samples sit between x[j] and x[j+1].

    out[r*j] = x[j]; out[r*j + m] = (1 - m/r) x[j] + (m/r) x[j+1] for
    0 < m < r. The missing neighbour x[N] is x[0] under "periodic" and 0
    under "zero-pad". For r=2 this is the midpoint rule. The kernel is
    the triangle m/r (0 < m < r), then 1 - m/r (0 <= m < r), its 1 on the anchor.
    """
    x = as_signal(x)
    r = validate_factor(r)
    _validate_boundary(boundary)
    return _place1(x, np.concatenate([np.arange(1, r) / r, 1 - np.arange(r) / r]), r, boundary)


def pixel_shuffle(channels, r: int) -> np.ndarray:
    """Interleave r (1D) or r^2 (2D) equal-shape channels into sub-pixel slots.

    1D: out[r*j + m] = channels[m][j].
    2D: out[r*h + a, r*w + b] = channels[a*r + b][h, w] (row-major
    sub-pixel order).
    """
    r = validate_factor(r)
    arrays = [np.asarray(c, dtype=float) for c in channels]
    if not arrays:
        raise ValueError("pixel_shuffle needs at least one channel")
    shape = arrays[0].shape
    if any(a.shape != shape for a in arrays):
        raise ValueError("all channels must have identical shape")
    if any(not np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("channel samples must be finite")

    if arrays[0].ndim == 1:
        if len(arrays) != r:
            raise ValueError(f"1D pixel shuffle needs exactly r={r} channels, got {len(arrays)}")
        return np.stack(arrays, axis=1).ravel()

    if arrays[0].ndim == 2:
        if len(arrays) != r * r:
            raise ValueError(f"2D pixel shuffle needs exactly r^2={r * r} channels, got {len(arrays)}")
        h, w = shape
        return np.stack(arrays).reshape(r, r, h, w).transpose(2, 0, 3, 1).reshape(r * h, r * w)

    raise ValueError("channels must be 1D or 2D arrays")


def pixel_unshuffle(x, r: int) -> list[np.ndarray]:
    """Exact inverse of :func:`pixel_shuffle`."""
    r = validate_factor(r)
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 1:
        if arr.size % r != 0:
            raise ValueError(f"length {arr.size} not divisible by r={r}")
        return [arr[m::r].copy() for m in range(r)]
    if arr.ndim == 2:
        if arr.shape[0] % r != 0 or arr.shape[1] % r != 0:
            raise ValueError(f"shape {arr.shape} not divisible by r={r}")
        return [arr[a::r, b::r].copy() for a in range(r) for b in range(r)]
    raise ValueError("pixel_unshuffle expects a 1D or 2D array")


def _place(x: np.ndarray, w: np.ndarray, strides, boundary: str) -> np.ndarray:
    """Polyphase tap placement of an (H, W, C) array, all channels at once.

    Output phase (pa, pb) of the stride-(sa, sb) transposed convolution
    receives the taps that :func:`_phases` lists for pa on axis 0 and pb on
    axis 1; each adds w[a, b] times the un-inserted input shifted by the
    tap's offsets. The input is padded once by :func:`_padded` (wrapped or
    zero; not at all when no tap reads past an edge) so every shift is a
    slice, and taps are summed in ascending (a, b) order. 1D signals come
    in as rows.

    With H*W >= FFT_MIN_SAMPLES (1024) and enough nonzero taps in the
    fullest phase for the longest axis, max(H, W), :func:`_place_fft`
    computes the same placement to round-off instead: 25 taps below 1,024
    samples an axis (2D), 33 below 4,096, 48 below 16,384 and 80 from
    there on (FFT_MIN_TAPS). Direct time over FFT time (above 1: FFT
    faster), periodic and zero-pad, strides 2-4, 1 BLAS thread, 2-vCPU
    Xeon VM, min of 3-7 runs, by nonzero taps of the fullest phase:

    ===================  =========  =========  =========  =========  =========  =========
    samples per channel  16 taps    24-25      32-36      48-49      64         80
    ===================  =========  =========  =========  =========  =========  =========
    2D 32x32 - 256x256   0.47-1.78  0.69-2.87  0.94-3.53  1.29-4.80  1.85-5.81  --
    1D 1,024             0.78-0.98  1.06-1.33  1.33-1.72  1.81-2.28  2.48-3.25  --
    1D 4,096             0.48-0.62  0.68-0.88  0.84-1.26  1.06-1.59  1.53-2.15  --
    1D 8,192             --         --         --         0.81-1.34  1.07-1.87  1.19-2.39
    1D 16,384            0.23-0.45  0.31-0.54  0.39-0.67  0.50-1.09  0.72-1.47  0.85-1.80
    1D 65,536            0.29-0.48  0.42-0.55  0.49-0.67  0.71-1.05  0.84-1.38  0.99-1.34
    ===================  =========  =========  =========  =========  =========  =========

    (2D kernels of 7-21 taps a side, 1 and 3 channels; 1D from 96 taps on
    reads 1.17 - 5.31.) A 1D FFT costs more per sample as it grows, a 2D
    one of the same size less, so the rule reads the longest axis. It
    keeps 1D kernels of up to 32 taps a phase (K = 63 at stride 2) direct
    at every length, and loses up to 1.5x on 2D zero-pad placements with
    25 taps and up to 1.2x on 1D ones at the lower edge of a step.

    An FFT placement that writes at least _THREAD_MIN_SAMPLES (2^18) output
    samples, all channels counted, runs its phases in stripes, one per CPU
    up to _MAX_WORKERS = 2, the count measured below: the caller's, and one
    handed to the reused worker thread of :func:`_in_stripes`; the bytes are
    the same either way (see :func:`_place_fft`).
    One worker's time over two workers' (above 1: two faster), periodic /
    zero-pad, size rule lifted, 1 BLAS thread, 2-vCPU Xeon VM, medians of 41
    alternating calls, two runs:

    ==========================  ===========  =========  =========
    placement                   out samples  periodic   zero-pad
    ==========================  ===========  =========  =========
    2D 32x32x1, K=11, s=2       4,096        0.62-0.64  0.58-0.59
    2D 64x64x1, K=11, s=2       16,384       0.71-0.72  0.76-0.78
    2D 64x64x3, K=11, s=2       49,152       0.69-0.70  0.78-0.80
    2D 128x128x1, K=11, s=2     65,536       1.02-1.09  1.03-1.12
    1D 16,384, K=255, s=4       65,536       1.18-1.35  1.17-1.20
    1D 65,536, K=161, s=2       131,072      1.34-1.41  1.33-1.36
    2D 128x128x3, K=11, s=2     196,608      1.00-1.03  1.08
    2D 256x256x1, K=11, s=2     262,144      1.15-1.20  1.24-1.25
    1D 131,072, K=161, s=2      262,144      1.45-1.48  1.47
    2D 256x256x3, K=11, s=2     786,432      1.40-1.43  1.46-1.47
    2D 512x512x3, K=11, s=2     3,145,728    1.59-1.62  1.58-1.60
    ==========================  ===========  =========  =========

    Handing phases to the worker (two semaphore signals and GIL hand-offs)
    costs about 0.1-0.15 ms, so 2D placements below 2^16 samples lose up to
    1.7x; from 2^16 on no case loses. When a new thread was started and
    joined per call (0.5-0.9 ms), 2D placements lost up to 2.4x below 2^17
    and the crossover was near 2^17; the rule still reads 2^18.
    """
    (h, wd, nc), (sa, sb) = x.shape, strides
    if h * wd >= FFT_MIN_SAMPLES and _fullest_phase_taps(w, strides) >= next(
            taps for bound, taps in FFT_MIN_TAPS if max(h, wd) < bound):
        return _place_fft(x, w, strides, boundary)
    pads = _pads(w.shape, strides)
    padded = _padded(x, pads, boundary) if any(pads[0] + pads[1]) else x
    (lo_a, _), (lo_b, _) = pads
    out = np.empty((sa * h, sb * wd, nc))
    for pa, (rows, ua) in enumerate(_phases(w.shape[0], sa)):
        for pb, (cols, ub) in enumerate(_phases(w.shape[1], sb)):
            acc = np.zeros((h, wd, nc))
            for a, u in zip(rows.tolist(), ua.tolist()):
                for b, v in zip(cols.tolist(), ub.tolist()):
                    if w[a, b] != 0.0:
                        ra, rb = lo_a - u, lo_b - v
                        acc += w[a, b] * padded[ra:ra + h, rb:rb + wd]
            out[pa::sa, pb::sb] = acc
    return out


def _padded(x: np.ndarray, pads, boundary: str) -> np.ndarray:
    """x padded by ``pads`` on its first two axes, bitwise equal to
    ``np.pad(x, pads + [(0, 0)], mode="wrap")`` under "periodic" and to
    mode="constant" under "zero-pad".

    x is copied into a fresh array once. Under "periodic" the rows before
    and after it are read from x at their indices mod H, then the columns
    before and after, corners included, from the padded array itself at
    their indices mod W, so a pad longer than its axis wraps around it
    more than once, as np.pad's does.
    """
    (h, wd, nc), ((ta, ba), (tb, bb)) = x.shape, pads
    periodic = boundary == "periodic"
    out = (np.empty if periodic else np.zeros)((ta + h + ba, tb + wd + bb, nc))
    out[ta:ta + h, tb:tb + wd] = x
    if periodic and ta + ba:
        out[:ta, tb:tb + wd] = x[np.arange(-ta, 0) % h]
        out[ta + h:, tb:tb + wd] = x[np.arange(ba) % h]
    if periodic and tb + bb:
        out[:, :tb] = out[:, tb + np.arange(-tb, 0) % wd]
        out[:, tb + wd:] = out[:, tb + np.arange(bb) % wd]
    return out


@lru_cache
def _phases(k: int, s: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """Per output phase p, the taps j = p + floor(k/2) (mod s) it receives, in
    ascending order, and the input offset (j - p - floor(k/2)) / s each reads
    back. Every tap lies in exactly one phase; a phase gets none only if s > k.
    Cached, as building it costs more than a short placement: read, never write."""
    c = k // 2
    phases = [np.arange((p + c) % s, k, s) for p in range(s)]
    return tuple((taps, (taps - p - c) // s) for p, taps in enumerate(phases))


def _pads(shape, strides) -> list[tuple[int, int]]:
    """Input samples read before and after the input, per axis.

    Tap a of phase p reads the input at offset (p + c - a) / s, which lies
    between -((K - 1 - c) // s) and (s - 1 + c) // s, with c = floor(K/2).
    """
    return [((k - 1 - k // 2) // s, (s - 1 + k // 2) // s) for k, s in zip(shape, strides)]


def _tap_offsets(sizes, m: int) -> np.ndarray:
    """Output offset (mod m) of every tap of kernels of the given sizes, in
    order: tap j of a K-tap kernel writes j - floor(K/2) samples after the
    zero-inserted sample it scales, the anchor that :func:`_phases` places by."""
    return np.concatenate([np.arange(k) - k // 2 for k in sizes]) % m


def _fullest_phase_taps(w: np.ndarray, strides) -> int:
    """Nonzero taps of the output phase that receives the most of them, the
    phases being those of :func:`_phases`."""
    (sa, sb), nonzero = strides, w != 0.0
    return max(np.count_nonzero(nonzero[np.ix_(rows, cols)])
               for rows, _ in _phases(w.shape[0], sa) for cols, _ in _phases(w.shape[1], sb))


def _fast_length(n: int) -> int:
    """The smallest 5-smooth integer >= n."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def _place_fft(x: np.ndarray, w: np.ndarray, strides, boundary: str) -> np.ndarray:
    """:func:`_place` by real FFTs: one of the input, one inverse per output phase.

    Phase (pa, pb) is the un-inserted input convolved with its sub-kernel
    W_p: tap (a, b) reads the input at offset -(ua, ub), the offsets that
    :func:`_phases` gives it, so the phase's spectrum is E_a^T W_p E_b, E_a
    and E_b the DFT matrices of the taps' bin offsets (taps on one bin add).
    E_a has na taps by La bins; W_p E_b is the real FFT of W_p's taps summed
    onto their Lb bins, as a matrix too costly for a long 1D signal.
    Periodic placement is the circular convolution at (La, Lb) = (H, W).
    Zero-pad placement is the linear one: the input is zero-padded to the
    next 5-smooth length of at least H + max(pads) per axis, so that every
    read past either end finds a zero, and the first (H, W) samples are kept.

    Input and output are handled channel first, so the real FFT runs along
    the contiguous last axis (the samples of a 1D row), each phase is
    written once, and the result is an (sa H, sb W, C) view. An input with
    H > W is placed turned, so that its longer axis takes the real FFT and
    it costs what its transpose costs. x and w are scaled by exact powers
    of two to peak in [0.5, 1), so no transform over- or underflows, and
    scaled back on write.

    The caller transforms the channels one after another. Then each output
    phase is a job: its sub-kernel spectrum and, per channel, the product,
    the inverse transform and the write. Once the output holds at least
    _THREAD_MIN_SAMPLES samples, _MAX_WORKERS pairs of one complex and one
    real buffer are made here, and :func:`_in_stripes` runs the jobs in as
    many stripes as it picks, at most one per pair; below that, one pair
    and the caller alone. Each stripe transforms in its own pair (the
    transforms write through ``out=``, which numpy's FFT functions take
    from numpy 2.0 on); the only channel-sized array a job makes is its
    phase's sub-kernel spectrum. Every output sample is computed by one job
    with the same operations in the same order whatever the stripe count,
    so the output is bitwise the same.
    """
    turned = x.shape[0] > x.shape[1]
    if turned:
        x, w, strides = x.transpose(1, 0, 2), w.T, strides[::-1]
    (h, wd, nc), (sa, sb) = x.shape, strides
    la, lb = h, wd
    if boundary == "zero-pad":
        la, lb = (_fast_length(n + max(pad)) for n, pad in zip((h, wd), _pads(w.shape, strides)))
    ex, ew = (int(np.frexp(max(a.max(), -a.min()))[1]) for a in (x, w))
    w = np.ldexp(w, -ew)
    spectrum = np.empty((nc, la, lb // 2 + 1), complex)
    out = np.zeros((nc, sa * h, sb * wd))
    phases = [(pa, rows, ua, pb, cols, ub)
              for pa, (rows, ua) in enumerate(_phases(w.shape[0], sa)) if rows.size
              for pb, (cols, ub) in enumerate(_phases(w.shape[1], sb)) if cols.size]
    threaded = out.size >= _THREAD_MIN_SAMPLES
    buffers = [(np.empty(spectrum.shape[1:], complex), np.empty((la, lb)))
               for _ in range(_MAX_WORKERS if threaded else 1)]

    real = buffers[0][1]
    for c in range(nc):
        np.ldexp(x[:, :, c], -ex, out=real[:h, :wd])
        np.fft.rfft(real[:h, :wd], lb, out=spectrum[c, :h])
        if la > 1:  # a transform of length 1 would only copy
            spectrum[c, h:] = 0.0
            np.fft.fft(spectrum[c], axis=0, out=spectrum[c])

    def phase(i, product, real):
        pa, rows, ua, pb, cols, ub = phases[i]
        ea = np.exp(-2j * np.pi / la * (np.outer(ua, np.arange(la)) % la))
        bins = np.arange(rows.size)[:, None] * lb + ub % lb
        taps = np.bincount(bins.ravel(), weights=w[np.ix_(rows, cols)].ravel(),
                           minlength=rows.size * lb).reshape(rows.size, lb)
        kernel = ea.T @ np.fft.rfft(taps)
        for c in range(nc):
            np.multiply(spectrum[c], kernel, out=product)
            if la > 1:
                np.fft.ifft(product, axis=0, out=product)
            np.fft.irfft(product, lb, out=real)
            np.ldexp(real[:h, :wd], ex + ew, out=out[c, pa::sa, pb::sb])

    _in_stripes(phase, len(phases), threaded, buffers)
    return out.transpose((2, 1, 0) if turned else (1, 2, 0))


def _worker_count() -> int:
    """CPUs this process may run on, at most _MAX_WORKERS."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, _MAX_WORKERS)


class _Worker:
    """A daemon thread that runs the stripes handed to it, one at a time:
    ``ready`` is released when ``task`` is set, and ``done`` when the stripe
    has returned (a stripe never raises)."""

    def __init__(self):
        self.task, self.ready, self.done = None, threading.Semaphore(0), threading.Semaphore(0)
        self.thread = threading.Thread(target=self._serve, name="upspec-stripes", daemon=True)
        self.thread.start()

    def _serve(self):
        while True:
            self.ready.acquire()
            (context, stripe, k), self.task = self.task, None
            context.run(stripe, k)
            del context, stripe  # an idle worker holds nothing of the last call
            self.done.release()

    def hand(self, stripe, k: int) -> None:
        """Run stripe(k) on this worker in a copy of the caller's context."""
        self.task = (contextvars.copy_context(), stripe, k)
        self.ready.release()


#: The workers of :func:`_in_stripes`, started on first need and reused, and
#: the lock that the call handing them stripes holds.
_WORKERS: list[_Worker] = []
_WORKERS_LOCK = threading.Lock()


def _drop_workers() -> None:
    """Forget the parent's workers in a forked child, which runs none of
    their threads; the child starts its own on first need."""
    global _WORKERS, _WORKERS_LOCK
    _WORKERS, _WORKERS_LOCK = [], threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_drop_workers)


def _in_stripes(job, n: int, threaded: bool, buffers=None) -> None:
    """job(i, *buffers[k]) for i < n, stripe k taking i = k, k + m, ... of m stripes.

    m is min(n, CPUs up to _MAX_WORKERS, len(buffers)) if ``threaded``, and 1
    if not or if this call runs inside a stripe of an m > 1 call, so threads
    never exceed _MAX_WORKERS; no other code reads the CPU count. Without
    buffers, the job is called as job(i). Stripe 0 runs on the caller and
    stripe k on worker k - 1, a daemon thread started by the first call that
    needs it and reused by every later one, so there are never more than
    the largest m - 1 (one on two CPUs). The call waits for each worker's
    stripe before return, on error too, and each stripe runs in its own copy
    of the caller's context, so numpy's error state holds in all. A stripe
    stops at its first error, and the lowest job index's error is raised
    here, as a loop over i would raise it; the worker stays in service.
    A call that finds the workers held by another thread's call runs all its
    jobs itself (m = 1): it never waits for them, and the bytes are the same
    on any m. A forked child forgets the parent's workers and lock
    (``os.register_at_fork``), so it starts its own instead of waiting on
    threads it does not run.
    """
    nested = _IN_STRIPE.get()
    m = min(n, _worker_count(), len(buffers or range(n))) if threaded and not nested else 1
    lock = _WORKERS_LOCK
    if m > 1 and not lock.acquire(blocking=False):
        m = 1
    errors = {}

    def stripe(k):
        _IN_STRIPE.set(nested or m > 1)
        try:
            for i in range(k, n, m):
                job(i, *(buffers[k] if buffers else ()))
        except BaseException as error:  # raised again on the caller
            errors[i] = error

    handed = []
    try:
        for k in range(1, m):
            if len(_WORKERS) < k:
                _WORKERS.append(_Worker())
            _WORKERS[k - 1].hand(stripe, k)
            handed.append(_WORKERS[k - 1])
        contextvars.copy_context().run(stripe, 0)
    finally:
        for worker in handed:
            worker.done.acquire()
        if m > 1:
            lock.release()
    if errors:
        raise errors[min(errors)]


def _place1(x: np.ndarray, w: np.ndarray, s: int, boundary: str) -> np.ndarray:
    """:func:`_place` of a validated signal by 1D taps w at stride s: one
    (1, N, 1) row by a (1, K) kernel at strides (1, s), samples contiguous."""
    return _place(x[None, :, None], w[None, :], (1, s), boundary).ravel()


def transposed_conv(x, kernel: KernelSpec, boundary: str = "periodic") -> np.ndarray:
    """Transposed convolution: zero insertion followed by kernel placement.

    out[p] = sum_j w[j] * z[(p - j + c) mod s*N] with z the zero-inserted
    signal, c = floor(K/2) (periodic mode; zero-pad reads missing
    neighbours as 0), with w the kernel's effective weights (a parallel
    small branch folded in). Output length is s*N.
    """
    x = as_signal(x)
    _validate_boundary(boundary)
    if kernel.weights.ndim != 1:
        raise ValueError("transposed_conv expects a 1D kernel; use transposed_conv2 for images")
    return _place1(x, kernel.effective_weights(), kernel.stride, boundary)


def transposed_conv2(image, kernel: KernelSpec, boundary: str = "periodic") -> np.ndarray:
    """2D transposed convolution, applied per channel independently.

    Full 2D tap placement of the kernel's effective weights (separability
    is not assumed). Accepts (H, W) or (H, W, C) arrays and preserves the
    input's dimensionality.
    """
    _validate_boundary(boundary)
    if kernel.weights.ndim != 2:
        raise ValueError("transposed_conv2 expects a 2D kernel")
    out = _place(as_image(image), kernel.effective_weights(), (kernel.stride, kernel.stride),
                 boundary)
    return out[:, :, 0] if np.ndim(image) == 2 else out


def fourier_pad_upsample(x, r: int) -> np.ndarray:
    """Ideal (alias-free) upsampling by zero-padding the spectrum.

    The N input coefficients are copied into their centered positions in
    a length r*N spectrum, the rest is zero, and the result is inverse
    transformed and scaled by r so the original samples are reproduced on
    the coarse grid. For even N the single Nyquist coefficient is split
    half-and-half into the +N/2 and -N/2 bins, the unique choice that
    keeps the output real and the implied kernel symmetric; an imaginary
    residue beyond round-off, or an overflow, raises :class:`NonRealResultError`.
    """
    x = as_signal(x)
    r = validate_factor(r)
    n = x.size
    m = r * n
    with np.errstate(over="ignore", invalid="ignore"):  # idft reports an overflow
        f = np.fft.fft(x)
        g = np.zeros(m, dtype=complex)
        g[:(n + 1) // 2] = f[:(n + 1) // 2]
        g[m - n // 2:] = f[(n + 1) // 2:]
        if n % 2 == 0:
            g[n // 2] = g[m - n // 2] = 0.5 * f[n // 2]
    return r * idft(g)

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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .signal_core import as_image, as_signal, idft

BOUNDARY_MODES = ("periodic", "zero-pad")


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
        if int(self.stride) != self.stride:
            raise ValueError(f"stride must be an integer, got {self.stride!r}")
        if int(self.stride) < 1:
            raise ValueError("stride must be >= 1")
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "stride", int(self.stride))
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
    if int(r) != r:
        raise ValueError(f"upsampling factor must be an integer, got {r!r}")
    if r < 2:
        raise ValueError("upsampling factor must be >= 2")
    return int(r)


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
    only receives taps a = pa + floor(Ka/2) (mod sa), b likewise; each such
    tap adds w[a, b] times a shifted copy of the un-inserted input. The
    input is padded once (wrapped or zero) so every shift is a slice, and
    taps are summed in ascending (a, b) order.
    """
    (h, wd, nc), (sa, sb) = x.shape, strides
    ca, cb = w.shape[0] // 2, w.shape[1] // 2
    # tap a of phase p reads the input at offset (p + c - a) / s, which
    # lies between -((K - 1 - c) // s) and (s - 1 + c) // s
    pads = [((k - 1 - c) // s, (s - 1 + c) // s)
            for k, c, s in zip(w.shape, (ca, cb), strides)]
    padded = np.pad(x, pads + [(0, 0)], mode="wrap" if boundary == "periodic" else "constant")
    (lo_a, _), (lo_b, _) = pads
    out = np.empty((sa * h, sb * wd, nc))
    for pa in range(sa):
        for pb in range(sb):
            acc = np.zeros((h, wd, nc))
            for a in range((pa + ca) % sa, w.shape[0], sa):
                ra = lo_a + (pa + ca - a) // sa
                for b in range((pb + cb) % sb, w.shape[1], sb):
                    if w[a, b] != 0.0:
                        rb = lo_b + (pb + cb - b) // sb
                        acc += w[a, b] * padded[ra:ra + h, rb:rb + wd]
            out[pa::sa, pb::sb] = acc
    return out


def _place1(x: np.ndarray, w: np.ndarray, s: int, boundary: str) -> np.ndarray:
    """:func:`_place` of a validated signal by 1D taps w at stride s."""
    return _place(x[:, None, None], w[:, None], (s, 1), boundary).ravel()


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
    residue beyond round-off raises :class:`NonRealResultError`.
    """
    x = as_signal(x)
    r = validate_factor(r)
    n = x.size
    m = r * n
    f = np.fft.fft(x)
    g = np.zeros(m, dtype=complex)
    half = n // 2
    if n % 2 == 0:
        g[:half] = f[:half]
        g[half] = 0.5 * f[half]
        g[m - half] = 0.5 * f[half]
        g[m - half + 1:] = f[half + 1:]
    else:
        g[:half + 1] = f[:half + 1]
        g[m - half:] = f[half + 1:]
    return r * idft(g)

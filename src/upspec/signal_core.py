"""Discrete Fourier analysis primitives shared by all other modules.

Conventions:
- A signal is a 1D array of finite real samples, length N >= 1.
- An image is an (H, W) or (H, W, C) array of finite real samples; 2D
  arrays are treated as single-channel.
- Every array an entry point takes is read by ``_array``: a complex array
  is refused, not cut to its real part; anything else is read as float64
  (a float64 array is not copied); a wrong dimensionality, an empty array
  or a non-finite sample is one ValueError naming the argument.
- The forward transform is unnormalized,
      F_k = sum_j exp(-2*pi*i*j*k/N) * x_j,
  and the inverse carries the 1/N factor. Any signal length is supported;
  correctness is defined by the sum, not by the algorithm used to
  evaluate it.
- Spectra are "unshifted" (k = 0..N-1) unless explicitly centered with
  ``center_shift`` (DC moved to index len//2).

All functions are pure and never mutate their inputs. Their tolerances
are the module constants below, not parameters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

#: Maximum imaginary residue, relative to the largest output magnitude,
#: tolerated when an inverse transform is required to produce a real
#: signal. Far above double-precision round-off, far below any real
#: conjugate-symmetry violation, at any signal amplitude.
IMAG_RESIDUE_TOL = 1e-9

#: Additive floor of log-magnitude plots: avoids -inf while leaving 12
#: decades of dynamic range.
LOG_FLOOR = 1e-12


class NonRealResultError(ValueError):
    """A transform overflowed, or an inverse transform produced a signal
    with non-negligible imaginary part (a conjugate-symmetry violation)."""


@dataclass(frozen=True)
class Spectrum:
    """Complex DFT coefficients plus their frequency-index convention.

    ``centered`` is False for the native ordering (k = 0..len-1) and True
    after DC has been rotated to the middle (k_c = -len//2 .. len-len//2-1).
    """

    values: np.ndarray
    centered: bool = False

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=complex)
        if values.size == 0:
            raise ValueError("spectrum must contain at least one coefficient")
        if not np.all(np.isfinite(values)):
            raise ValueError("spectrum coefficients must be finite")
        object.__setattr__(self, "values", values)


class RadialProfile(NamedTuple):
    """Radially binned 2D spectrum summary (bin centers, mean |F|, empty flags)."""

    radius: np.ndarray
    magnitude: np.ndarray
    empty: np.ndarray


#: int64's largest value, and the most float64 samples one numpy array
#: holds: numpy caps an array's bytes at the largest int64 (intp).
_INT_MAX = 2 ** 63 - 1
_MAX_SAMPLES = _INT_MAX // 8
#: float64 holds every count up to 2**53 exactly.
_MAX_BINS = 2 ** 53


def _integer(value, name: str, minimum: float, maximum: float = _INT_MAX) -> int:
    """``value`` as an int, if it is an integral number from ``minimum`` to
    ``maximum``; else a ValueError naming ``name`` and the range."""
    try:
        number = int(value)
    except (OverflowError, ValueError):  # inf and nan have no int
        number = None
    if number != value or not minimum <= number <= maximum:
        raise ValueError(f"{name} must be an integer from {minimum} to {maximum}, got {value!r}")
    return number


def _array(x, name: str, ndims: tuple, finite: bool = True) -> np.ndarray:
    """``x`` as a float64 array, read in one conversion and not copied if it
    is one, if it is real, has ``ndims`` dimensions and at least one sample,
    all finite unless ``finite`` is False; else a ValueError naming ``name``."""
    arr = np.asarray(x)
    if arr.dtype.kind == "c":  # a float cast would keep the real part
        raise ValueError(f"{name} must be real, got a complex array")
    arr = arr.astype(float, copy=False)
    if arr.ndim not in ndims:
        dims = " or ".join(f"{d}D" for d in ndims)
        raise ValueError(f"{name} must be {dims}, got shape {arr.shape}")
    if arr.size == 0:
        raise ValueError(f"{name} must contain at least one sample")
    if finite and not np.isfinite(arr).all():  # half np.all's cost on short arrays
        raise ValueError(f"{name} samples must be finite")
    return arr


def as_signal(x) -> np.ndarray:
    """Validate and return ``x`` as a 1D float array of length >= 1."""
    return _array(x, "signal", (1,))


def as_image(x) -> np.ndarray:
    """Validate and return ``x`` as an (H, W, C) float array.

    2D inputs are promoted to a single channel.
    """
    return _image(x)


def _image(x, finite: bool = True) -> np.ndarray:
    """:func:`as_image`, whose finiteness check callers that make it on values
    they compute anyway skip with ``finite=False``."""
    arr = _array(x, "image", (2, 3), finite)
    return arr[:, :, np.newaxis] if arr.ndim == 2 else arr


def dft(signal) -> Spectrum:
    """Forward DFT of a real signal, unshifted convention.

    F_k = sum_{j=0}^{N-1} exp(-2*pi*i*j*k/N) * x_j. Evaluated with a fast
    transform, but the contract is the plain sum (any N). An overflow
    raises :class:`NonRealResultError`.
    """
    values = as_signal(signal).astype(complex)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        np.fft.fft(values, out=values)
    if not np.all(np.isfinite(values)):
        raise NonRealResultError("forward transform overflowed: spectrum is not finite")
    return Spectrum(values, centered=False)


def _rdft(signals: np.ndarray) -> np.ndarray:
    """Bins 0..N//2 of the :func:`dft` of each finite real row along the last
    axis, the rest being their conjugates; unchecked: an overflow is left
    for the caller to report."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.fft.rfft(signals)


def idft(spectrum) -> np.ndarray:
    """Inverse DFT, returning a real signal.

    x_j = (1/N) * sum_k exp(+2*pi*i*j*k/N) * F_k. Imaginary residue up to
    ``IMAG_RESIDUE_TOL`` times the largest output magnitude is discarded;
    anything larger raises :class:`NonRealResultError` because the input
    cannot be the spectrum of a real signal, as does an overflow.
    """
    values = _unshifted_values(spectrum)
    with np.errstate(over="ignore", invalid="ignore"):
        out = np.fft.ifft(values)
    scratch = np.abs(out.imag)
    residue = float(scratch.max())
    scale = float(np.abs(out, out=scratch).max())
    if not np.isfinite(scale):  # an overflow, reported here instead of as a warning
        raise NonRealResultError("inverse transform overflowed: output is not finite")
    if residue > IMAG_RESIDUE_TOL * scale:
        raise NonRealResultError(
            f"imaginary residue {residue:.3e} exceeds {IMAG_RESIDUE_TOL:.1e} of the "
            f"output scale {scale:.3e}; spectrum is not conjugate-symmetric"
        )
    return out.real


def center_shift(spectrum: Spectrum) -> Spectrum:
    """Rotate a spectrum so DC sits at index len//2 (all axes).

    Input must be unshifted; ``np.fft.ifftshift`` of the values undoes it.
    """
    if spectrum.centered:
        raise ValueError("spectrum is already centered")
    return Spectrum(np.fft.fftshift(spectrum.values), centered=True)


def log_magnitude(spectrum) -> np.ndarray:
    """log10(|F_k| + LOG_FLOOR), elementwise; real array of the same shape."""
    values = spectrum.values if isinstance(spectrum, Spectrum) else np.asarray(spectrum)
    return _log_map(np.abs(values, out=np.empty(values.shape)))


def _log_map(magnitudes: np.ndarray) -> np.ndarray:
    """log10(magnitudes + LOG_FLOOR), written over the float array
    ``magnitudes`` and returned: the one log map of every spectrum plot."""
    magnitudes += LOG_FLOOR
    return np.log10(magnitudes, out=magnitudes)


def radial_average(spectrum, n_bins: int) -> RadialProfile:
    """Radially average a centered 2D spectrum's magnitudes.

    ``spectrum`` is a centered :class:`Spectrum` or real (H, W) magnitudes.
    Radii are measured in integer index units from the DC position (H//2,
    W//2); n_bins uniform bins partition [0, r_max], the bin map is built
    once per (H, W, n_bins). Empty bins report magnitude 0 and are flagged.
    """
    n_bins = _integer(n_bins, "n_bins", 1, _MAX_BINS)
    if isinstance(spectrum, Spectrum):
        if not spectrum.centered:
            raise ValueError("radial_average requires a centered Spectrum")
        if spectrum.values.ndim != 2:
            raise ValueError("radial_average requires a 2D spectrum")
        values = spectrum.values
    else:
        values = _array(spectrum, "spectrum", (2,))

    idx, counts, r_max = _radial_bins(*values.shape, n_bins)
    sums = np.bincount(idx, weights=np.abs(values).ravel(), minlength=n_bins)
    empty = counts == 0
    means = np.where(empty, 0.0, sums / np.maximum(counts, 1))
    centers = (np.arange(n_bins) + 0.5) / n_bins * r_max
    return RadialProfile(radius=centers, magnitude=means, empty=empty)


@functools.lru_cache(maxsize=8)
def _radial_bins(h: int, w: int, n_bins: int) -> tuple[np.ndarray, np.ndarray, float]:
    """Read-only flat bin index of every position of an (h, w) grid, the
    count of each bin, and the largest radius."""
    rows = np.arange(h) - h // 2
    cols = np.arange(w) - w // 2
    radii = np.hypot(rows[:, None], cols[None, :])
    r_max = float(radii.max())  # 0 on a 1x1 grid, else at least 1
    idx = np.minimum((radii / max(r_max, 1.0) * n_bins).astype(int), n_bins - 1).ravel()
    counts = np.bincount(idx, minlength=n_bins)
    idx = idx.astype(np.min_scalar_type(n_bins - 1))
    idx.flags.writeable = counts.flags.writeable = False
    return idx, counts, r_max


def _unshifted_values(spectrum) -> np.ndarray:
    """Extract complex values from a Spectrum or array, enforcing the
    unshifted convention and one dimension."""
    if isinstance(spectrum, Spectrum):
        if spectrum.centered:
            raise ValueError("expected an unshifted spectrum")
        values = spectrum.values
    else:
        values = np.asarray(spectrum, dtype=complex)
    if values.ndim != 1:
        raise ValueError(f"expected a 1D spectrum, got shape {values.shape}")
    if values.size == 0:
        raise ValueError("spectrum must contain at least one coefficient")
    return values

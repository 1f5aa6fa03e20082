"""Spectral-artifact metrics for upsampled signals.

The frequency bands of an upsampled signal (length M = r*N) are defined
on the centered index grid k_c = -M//2 .. M - M//2 - 1:

- passband: |k_c| < N/2, the content representable at the original rate;
- Nyquist band: k_c = +-N/2 (even N only), ambiguous at the original rate;
- alias band: everything else.

The alias-energy ratio counts the Nyquist band as alias (it is not
representable unambiguously at the lower rate) but also reports it
separately, so the half-split Nyquist convention of the ideal upsampler
stays visible. Ratios and PSNR are taken from unit-peak quantities, so
they do not depend on the amplitude of the signal.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .signal_core import NonRealResultError, _dft, _image, _integer, _log_map, as_image, as_signal
from .upsamplers import (_MAX_WORKERS, _THREAD_MIN_SAMPLES, KernelSpec, _in_stripes, _phases,
                         bed_of_nails, linear, nearest, validate_factor)

#: The interpolation filters by name, each the operator that realizes it.
FILTER_METHODS = {"bed_of_nails": bed_of_nails, "nearest": nearest, "linear": linear}


@dataclass(frozen=True)
class AliasReport:
    """Band energies of one upsampled signal.

    ``alias_ratio`` = (alias + Nyquist) / total energy, in [0, 1].
    ``replica_deviation`` is populated only when the low-rate input was
    supplied for reference (None otherwise). ``magnitude`` is the
    centered |DFT(y)| (DC at index len//2) that the bands partition.
    """

    passband_energy: float
    alias_energy: float
    nyquist_energy: float
    alias_ratio: float
    replica_deviation: float | None = None
    magnitude: np.ndarray | None = field(default=None, repr=False, compare=False)


@dataclass(frozen=True)
class ContributionMap:
    """Per-output-position tap contribution counts of a transposed conv.

    counts[p] is the number of (input position, tap) pairs that write to
    output position p under periodic placement. Uneven counts are the
    checkerboard mechanism; counts are uniform exactly when the stride
    divides the kernel size.
    """

    counts: np.ndarray
    period: int
    uniform: bool
    variance: float


def alias_energy(y, r: int, reference=None) -> AliasReport:
    """Split the spectrum of an upsampled signal into band energies.

    ``y`` must have length r*N. One transform of y gives the band
    energies, the centered magnitude carried by the report and, if
    ``reference`` (the low-rate input) is given, its replica deviation. A
    transform that overflows raises :class:`NonRealResultError`.
    """
    y = as_signal(y)
    r = validate_factor(r)
    if y.size % r != 0:
        raise ValueError(f"length {y.size} is not divisible by r={r}")
    (report,) = _alias_reports(y[np.newaxis], r, None if reference is None else _dft(reference))
    return report


def _alias_reports(ys: np.ndarray, r: int, low_rate: np.ndarray | None) -> list[AliasReport]:
    """:func:`alias_energy` of each row of a finite (R, r*N) stack, whose rows
    share ``low_rate``, the DFT of the reference; one row's overflow fails all."""
    m = ys.shape[1]
    n = m // r
    h, q = m // 2, n // 2
    magnitudes = np.empty(ys.shape)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        spectra = np.fft.fft(ys, axis=1)
        np.abs(spectra[:, :m - h], out=magnitudes[:, h:])
        np.abs(spectra[:, m - h:], out=magnitudes[:, :h])
    peaks = magnitudes.max(axis=1)
    if not np.all(np.isfinite(peaks)):
        raise NonRealResultError("transform of y overflowed: its spectrum is not finite")

    # band sums of the unit-peak power neither over- nor underflow at any
    # amplitude; the energies are those sums times peak^2. Each band is a
    # slice of the centred columns, column h + k holding bin k: passband
    # |k| < n/2, Nyquist k = -+n/2 for even n, and the alias band's two
    # tails joined, so that each row sums its bands as the 1D band would
    peaks[peaks == 0.0] = 1.0
    power = magnitudes / peaks[:, np.newaxis]
    np.square(power, out=power)
    odd = n % 2
    s_pass = power[:, h - q + 1 - odd:h + q + odd].sum(axis=1)
    s_nyq = power[:, slice(0) if odd else slice(h - q, h + q + 1, n)].sum(axis=1)
    s_alias = np.concatenate([power[:, :h - q], power[:, h + q + 1:]], axis=1).sum(axis=1)
    total = s_pass + s_nyq + s_alias
    ratios = np.divide(s_alias + s_nyq, total, out=np.zeros_like(total), where=total > 0.0)
    with np.errstate(over="ignore"):  # an energy outside the float range reads inf
        energies = [(s * peaks * peaks).tolist() for s in (s_pass, s_alias, s_nyq)]
    deviations = ([None] * len(ys) if low_rate is None
                  else _replica_gaps(low_rate, spectra, r).tolist())
    return [AliasReport(*fields, magnitude=magnitude)
            for *fields, magnitude in zip(*energies, ratios.tolist(), deviations, magnitudes)]


def replica_deviation(x, y, r: int) -> float:
    """Max deviation of y's spectrum from r-fold replication of x's.

    max_k |DFT(y)[k] - DFT(x)[k mod N]|; zero exactly when y is the
    zero-inserted upsampling of x.
    """
    return float(_replica_gaps(_dft(x), _dft(y), validate_factor(r)))


def _replica_gaps(fx: np.ndarray, fy: np.ndarray, r: int) -> np.ndarray:
    """``replica_deviation`` of each unshifted DFT of y along the last axis
    of ``fy``; an overflow on the way raises :class:`NonRealResultError`."""
    if fy.shape[-1] != r * fx.size:
        raise ValueError(f"expected len(y) = r*len(x) = {r * fx.size}, got {fy.shape[-1]}")
    with np.errstate(over="ignore", invalid="ignore"):  # bins mN + k of y against bin k of x
        gaps = np.abs(fy.reshape(*fy.shape[:-1], r, fx.size) - fx).max(axis=(-2, -1))
    if not np.all(np.isfinite(gaps)):
        raise NonRealResultError("replica deviation overflowed: it is not finite")
    return gaps


def filter_response(method: str, r: int, n_points: int,
                    include_replicas: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Analytic magnitude response of an interpolation filter.

    Sampled at ``n_points`` frequencies l in [0, r/2] cycles per input
    sample. With ``include_replicas=False`` the response is the single
    lobe of the continuous kernel: flat 1 for zero insertion, |sinc(l)|
    for sample repetition (box of width 1), sinc(l)^2 for linear
    interpolation (triangle of width 2), with sinc(l) = sin(pi*l)/(pi*l).

    With ``include_replicas=True`` the replicas that appear when the
    kernel is realized on the rate-r output grid are folded in (the
    response then repeats with rate r and carries the DC gain r). For the
    triangle this fold of sinc^2 terms has the closed form
    (1/r) * (sin(pi*l) / sin(pi*l/r))^2, which is what a DFT of the
    discrete impulse response measures.
    """
    if method not in FILTER_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(FILTER_METHODS)}")
    r = validate_factor(r)
    n_points = _integer(n_points, "n_points")
    if n_points < 2:
        raise ValueError("n_points must be >= 2")
    ell = np.linspace(0.0, r / 2.0, n_points)
    if method == "bed_of_nails":
        return ell, np.ones_like(ell)
    if not include_replicas:
        mags = np.abs(np.sinc(ell)) if method == "nearest" else np.sinc(ell) ** 2
        return ell, mags
    return ell, _folded_response(method, r, ell)


def _folded_response(method: str, r: int, ell: np.ndarray) -> np.ndarray:
    """Closed form of the replica-folded response on the rate-r grid."""
    # sin(pi l) / sin(pi l / r) = r sinc(l) / sinc(l / r); np.sinc takes
    # the l = 0 limit, and sinc(l / r) has no zero for l in [0, r/2]
    ratio = r * np.sinc(ell) / np.sinc(ell / r)
    if method == "nearest":
        return np.abs(ratio)
    return ratio ** 2 / r


def empirical_filter_response(method: str, r: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Measured magnitude response: operator applied to a periodic impulse.

    Applies the method to a length-n unit impulse, takes |DFT| of the
    r*n output, and returns the non-negative-frequency half as (l, |F|)
    pairs with l = bin/n in [0, r/2] cycles per input sample. DC equals
    the kernel tap sum (r for sample repetition and linear interpolation);
    replicas of the kernel response are inherently present, so the curve
    matches ``filter_response(..., include_replicas=True)`` bin for bin.
    """
    if method not in FILTER_METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {tuple(FILTER_METHODS)}")
    r = validate_factor(r)
    n = _integer(n, "impulse length")
    if n < 4:
        raise ValueError("impulse length must be >= 4")
    impulse = np.zeros(n)
    impulse[0] = 1.0
    mags = np.abs(np.fft.fft(FILTER_METHODS[method](impulse, r)))
    k = np.arange(r * n // 2 + 1)
    return k / n, mags[: k.size]


def contribution_map(kernel: KernelSpec, out_len: int) -> ContributionMap:
    """Count tap contributions per output position (periodic placement).

    counts[p] = #{(i, j) : p = (s*i + j - anchor) mod out_len}. For 2D
    kernels the count matrix is the outer product of the per-axis counts.
    The map is uniform exactly when the stride divides the kernel size.
    """
    out_len = _integer(out_len, "out_len")
    s = kernel.stride
    if out_len < 1 or out_len % s != 0:
        raise ValueError(f"out_len must be a positive multiple of stride {s}")

    counts = functools.reduce(np.multiply.outer,
                              [_axis_counts(k, s, out_len) for k in kernel.weights.shape])
    variance = float(np.var(counts))
    return ContributionMap(
        counts=counts,
        period=s,
        uniform=bool(np.all(counts == counts.flat[0])),
        variance=variance,
    )


def _axis_counts(k: int, s: int, out_len: int) -> np.ndarray:
    """Output p gets one contribution per tap that placement gives phase p mod s."""
    return np.tile([taps.size for taps, _ in _phases(k, s)], out_len // s)


def _bands(n: int, count: int) -> list[slice]:
    """range(n) cut into min(n, count) contiguous bands of near-equal size."""
    m = min(n, count)
    return [slice(i * n // m, (i + 1) * n // m) for i in range(m)]


def error_spectrum(pred, gt, mode: str = "complex", log: bool = True) -> np.ndarray:
    """Centered log-magnitude spectrum of the channel-mean prediction error.

    By default the per-channel 2D DFTs of (pred - gt) are averaged as
    complex values and the magnitude is taken afterwards (the DFT is
    linear, so this is one DFT of the channel-mean difference); ``mode=
    "magnitude"`` averages the magnitudes instead. ``log=False`` returns
    the centered magnitudes without the log map of :func:`log_magnitude`.
    The channel mean adds the channels in order, as ``mean(axis=2)`` does
    below 8 channels. Only the half spectrum of a real FFT is computed; the
    rest is its mirror |F[-k]| = |F[k]|, exactly point-symmetric about DC.

    The real 2D FFT runs in two stages of stripes (:func:`_in_stripes`) over
    one complex (H, W//2 + 1) array: row stripes build the channel mean of
    their rows and write their real FFTs, then column stripes transform their
    columns in place. These are the two passes of ``np.fft.rfft2``, so the
    bytes are its bytes on any worker count. Magnitude mode runs both stages
    once per channel and adds |F_c| in channel order. A non-finite sample
    makes its pixel's mean non-finite, so the inputs are checked through the
    means: only a stripe whose mean is not finite reads its samples again, to
    raise ``ValueError`` or go on with a difference that overflowed.

    From _THREAD_MIN_SAMPLES (2^18) samples an input, all channels counted,
    each stage is cut into _MAX_WORKERS = 2 bands that :func:`_in_stripes`
    runs as min(CPUs, 2) stripes, the caller's and one on its reused worker
    thread (on one CPU both on the caller, same bytes); below that, into one
    band. One worker's time over two workers' (above 1: two faster),
    complex / magnitude mode, log on, size rule lifted, 1 BLAS thread, 2-vCPU
    Xeon VM, medians of 41 alternating calls, range over two runs each of
    (H, W, C) arrays and of channel-first views:

    ===========  =========  =========  =========
    H x W x C    samples    complex    magnitude
    ===========  =========  =========  =========
    64x64x3      12,288     0.47-0.48  0.38-0.39
    128x128x1    16,384     0.65-0.70  0.59-0.71
    128x128x3    49,152     0.72-0.77  0.61-0.64
    256x256x1    65,536     0.87-1.00  0.82-0.92
    256x256x3    196,608    1.01-1.21  0.91-1.17
    301x257x3    232,071    1.32-1.38  1.48-1.55
    512x512x1    262,144    1.08-1.15  1.06-1.17
    512x512x3    786,432    1.30-1.41  1.20-1.26
    1024x768x3   2,359,296  1.32-1.62  1.21-1.49
    ===========  =========  =========  =========

    The transforms of a prime width (257) cost more per sample, so 301x257x3
    would gain below the rule; it counts samples only, as placement's does.
    With a new thread started and joined per call, 256x256x3 read 0.80-0.95
    / 0.71-0.84 and the crossover sat just below 2^18; with the reused worker
    it sits near 2^17.5, and the rule still reads 2^18.
    """
    if mode not in ("complex", "magnitude"):
        raise ValueError("mode must be 'complex' or 'magnitude'")
    p = _image(pred)
    g = _image(gt)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")

    h, w, channels = p.shape
    spectrum = np.empty((h, w // 2 + 1), complex)
    out = np.empty((h, w))
    threaded = p.size >= _THREAD_MIN_SAMPLES
    rows, cols = (_bands(n, _MAX_WORKERS if threaded else 1) for n in spectrum.shape)

    def row_stripe(i, group):
        # the stripe's channel mean is built in its rows of out, and each
        # further channel's difference in the spectrum rows it transforms into
        band = rows[i]
        mean, diff = out[band], spectrum[band].view(float)[:, :w]
        with np.errstate(invalid="ignore"):  # a non-finite input is reported below
            np.subtract(p[band, :, group[0]], g[band, :, group[0]], out=mean)
            for c in group[1:]:
                mean += np.subtract(p[band, :, c], g[band, :, c], out=diff)
        if len(group) > 1:
            mean /= len(group)
        if not np.all(np.isfinite(mean)):  # a non-finite sample, or an overflow
            as_image(p[band]), as_image(g[band])  # raises for the first only
        np.fft.rfft(mean, axis=1, out=spectrum[band])

    def column_stripe(i):
        band = spectrum[:, cols[i]]
        np.fft.fft(band, axis=0, out=band)

    groups = [range(channels)] if mode == "complex" else [(c,) for c in range(channels)]
    for k, group in enumerate(groups):
        _in_stripes(lambda i: row_stripe(i, group), len(rows), threaded)
        _in_stripes(column_stripe, len(cols), threaded)
        if k == 0:
            half = np.abs(spectrum)
        else:
            half += np.abs(spectrum)
    if len(groups) > 1:
        half /= len(groups)
    ch, cw = h // 2, w // 2
    # columns 0 and w/2 (w even) are their own mirror: row -k of each takes
    # the value of row k, 0 < k < h/2
    half[:ch:-1, ::w - cw] = half[1:(h + 1) // 2, ::w - cw]
    if log:
        _log_map(half)
    # centred bin (i, j) holds frequency (i - h//2, j - w//2); the columns
    # from w//2 on are the half spectrum, those before it the mirror
    out[ch:, cw:] = half[:h - ch, :w - cw]
    out[:ch, cw:] = half[h - ch:, :w - cw]
    out[:ch + 1, :cw] = half[ch::-1, cw:0:-1]
    out[ch + 1:, :cw] = half[:ch:-1, cw:0:-1]
    return out


def psnr(pred, gt, peak: float) -> float:
    """Peak signal-to-noise ratio in dB; identical inputs report +inf."""
    if not 0 < peak < np.inf:  # NaN fails too
        raise ValueError(f"peak must be positive and finite, got {peak!r}")
    p = as_image(pred)
    g = as_image(gt)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")
    return float(_psnr_rows(p[np.newaxis], g, peak)[0])


def _psnr_rows(preds: np.ndarray, gt: np.ndarray, peak: float) -> np.ndarray:
    """:func:`psnr` of each validated ``preds[i]`` against ``gt``."""
    # the difference at half scale cannot overflow; halving is exact, so the
    # ratios below are those of the full-scale difference
    half = 0.5 * preds
    half -= 0.5 * gt
    axes = tuple(range(1, half.ndim))
    top = np.abs(half).max(axis=axes, keepdims=True)
    # a row with top 0 reads +inf; peak / top overflows to inf as a float would
    with np.errstate(all="ignore"):
        mse = np.mean((half / top) ** 2, axis=axes)  # scaled by its max: no over- or underflow
        db = 20.0 * np.log10(peak / top.ravel() * 0.5) - 10.0 * np.log10(mse)
    return np.where(top.ravel() == 0.0, np.inf, db)

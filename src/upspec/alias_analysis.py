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

from .signal_core import (_MAX_SAMPLES, NonRealResultError, _image, _integer, _log_map, _rdft,
                          as_image, as_signal)
from .upsamplers import KernelSpec, _tap_offsets, bed_of_nails, linear, nearest, validate_factor

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

    ``y`` must have length r*N. One real transform of y gives the band
    energies, the centered magnitude carried by the report and, if
    ``reference`` (the low-rate input) is given, its replica deviation. A
    transform that overflows raises :class:`NonRealResultError`.
    """
    y = as_signal(y)
    r = validate_factor(r)
    if y.size % r != 0:
        raise ValueError(f"length {y.size} is not divisible by r={r}")
    low_rate = None
    if reference is not None:
        x = as_signal(reference)
        if y.size != r * x.size:
            raise ValueError(f"expected len(y) = r*len(x) = {r * x.size}, got {y.size}")
        low_rate = _rdft(x)
    (report,) = _alias_reports(y[np.newaxis], r, low_rate)
    return report


def _alias_reports(ys: np.ndarray, r: int, low_rate: np.ndarray | None) -> list[AliasReport]:
    """:func:`alias_energy` of each row of a finite (R, r*N) stack, whose rows
    share ``low_rate``, the half spectrum of the reference; one row's overflow
    fails all. Each row's half spectrum gives the centred columns from DC on,
    and their reversed copy the columns below DC, so the magnitude is exactly
    symmetric about DC. The replica gaps are taken in place in the half
    spectra and their magnitudes in ``power``, so at r = 2 the arrays peak at
    3.5 times the stack's size."""
    m = ys.shape[1]
    n = m // r
    h, q = m // 2, n // 2
    even = 1 - m % 2
    magnitudes = np.empty(ys.shape)
    spectra = _rdft(ys)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        np.abs(spectra[:, :m - h], out=magnitudes[:, h:])
        np.abs(spectra[:, m - h:], out=magnitudes[:, :even])  # bin h = -h of an even m
    magnitudes[:, even:h] = magnitudes[:, :h:-1]
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
                  else _replica_gaps(low_rate, spectra, n, power[:, :h + 1]).tolist())
    return [AliasReport(*fields, magnitude=magnitude)
            for *fields, magnitude in zip(*energies, ratios.tolist(), deviations, magnitudes)]


def replica_deviation(x, y, r: int) -> float:
    """Max deviation of y's spectrum from r-fold replication of x's.

    max_k |DFT(y)[k] - DFT(x)[k mod N]|; zero exactly when y is the
    zero-inserted upsampling of x. Read from :func:`alias_energy` with x as
    the reference.
    """
    return alias_energy(y, r, reference=x).replica_deviation


def _replica_gaps(fx: np.ndarray, fy: np.ndarray, n: int, out: np.ndarray) -> np.ndarray:
    """``replica_deviation`` of each half spectrum of y along the last axis of
    ``fy`` against ``fx``, that of the n samples of x; an overflow on the way
    raises :class:`NonRealResultError`. Both signals are real, so bins k and
    -k differ by the same amount and bins 0..rN/2 of y suffice; bin k > N/2
    of x is read as the conjugate of bin N - k, in place through the real and
    imaginary views. The differences overwrite ``fy`` and their magnitudes
    ``out``, a float array of fy's shape."""
    half = fx.size
    with np.errstate(over="ignore", invalid="ignore"):  # bins jN + k of y against bin k of x
        for start in range(0, fy.shape[-1], n):
            low = fy[..., start:start + half]
            low -= fx[:low.shape[-1]]
            high = fy[..., start + half:start + n]
            mirror = fx[n - half:n - half - high.shape[-1]:-1]
            high.real -= mirror.real
            high.imag += mirror.imag
        gaps = np.abs(fy, out=out).max(axis=-1)
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
    n_points = _integer(n_points, "n_points", 2, _MAX_SAMPLES)
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
    n = _integer(n, "impulse length", 4, _MAX_SAMPLES)
    impulse = np.zeros(n)
    impulse[0] = 1.0
    mags = np.abs(_rdft(FILTER_METHODS[method](impulse, r)))
    return np.arange(mags.size) / n, mags


def contribution_map(kernel: KernelSpec, out_len: int) -> ContributionMap:
    """Count tap contributions per output position (periodic placement).

    counts[p] = #{(i, j) : p = (s*i + j - anchor) mod out_len}: output p gets
    one contribution per tap that placement gives phase p mod s, so the map
    repeats with period s and ``out_len = s`` is one period, counted per axis
    as one ``np.bincount`` of the taps' offsets mod s in O(k + s). For 2D kernels
    the count matrix is the outer product of the per-axis counts. The map is
    uniform exactly when the stride divides the kernel size. Over the N cells
    of one period the variance is (N*sum(c^2) - sum(c)^2) / N^2 in Python
    integers, rounded once; any whole number of periods has the same sums up
    to a common factor, so this is the variance of every map.
    """
    out_len = _integer(out_len, "out_len", 1)
    s = kernel.stride
    if out_len % s != 0:
        raise ValueError(f"out_len must be a multiple of stride {s}")

    axes = [np.bincount(_tap_offsets([k], s), minlength=s) for k in kernel.weights.shape]
    period = functools.reduce(np.multiply.outer, axes)
    cells = period.ravel().tolist()
    n = len(cells)
    spread = n * sum(c * c for c in cells) - sum(cells) ** 2
    return ContributionMap(counts=np.tile(period, [out_len // s] * period.ndim), period=s,
                           uniform=spread == 0, variance=spread / (n * n))


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

    Each channel group is transformed by one ``np.fft.rfft2`` call into one
    complex (H, W//2 + 1) array: in complex mode the channel mean, in
    magnitude mode each channel, whose |F_c| are added in channel order. A
    non-finite sample makes its pixel's mean non-finite, so the inputs are
    checked through the means: only a mean that is not finite reads the
    samples again, to raise ``ValueError`` or go on with a difference that
    overflowed.
    """
    if mode not in ("complex", "magnitude"):
        raise ValueError("mode must be 'complex' or 'magnitude'")
    p = _image(pred, finite=False)
    g = _image(gt, finite=False)
    if p.shape != g.shape:
        raise ValueError(f"shape mismatch: {p.shape} vs {g.shape}")

    h, w, channels = p.shape
    spectrum = np.empty((h, w // 2 + 1), complex)
    # the channel mean is built in out, and each further channel's difference
    # in the spectrum it is transformed into
    out, diff = np.empty((h, w)), spectrum.view(float)[:, :w]
    groups = [range(channels)] if mode == "complex" else [(c,) for c in range(channels)]
    for k, group in enumerate(groups):
        with np.errstate(invalid="ignore"):  # a non-finite input is reported below
            np.subtract(p[:, :, group[0]], g[:, :, group[0]], out=out)
            for c in group[1:]:
                out += np.subtract(p[:, :, c], g[:, :, c], out=diff)
        if len(group) > 1:
            out /= len(group)
        if not np.all(np.isfinite(out)):  # a non-finite sample, or an overflow
            as_image(p), as_image(g)  # raises for the first only
        np.fft.rfft2(out, out=spectrum)
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
    scratch = np.multiply(gt, 0.5)
    half = 0.5 * preds
    half -= scratch
    axes = tuple(range(1, half.ndim))
    top = np.array([np.abs(row, out=scratch).max() for row in half])
    # a row with top 0 reads +inf; peak / top overflows to inf as a float would
    with np.errstate(all="ignore"):
        half /= top.reshape(-1, *[1] * len(axes))  # scaled by its max: no over- or underflow
        mse = np.mean(np.square(half, out=half), axis=axes)
        db = 20.0 * np.log10(peak / top * 0.5) - 10.0 * np.log10(mse)
    return np.where(top == 0.0, np.inf, db)

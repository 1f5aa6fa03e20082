"""Deterministic synthetic signals and images for experiments.

Randomized kinds are driven by NumPy's PCG64 generator seeded explicitly
(uniform/normal doubles use its standard integer-to-float mappings), so
identical parameters produce bit-identical arrays on every platform.
"""

from __future__ import annotations

import math

import numpy as np

from .signal_core import _MAX_SAMPLES, _integer


def cosine_signal(n: int, frequency: int, amplitude: float = 1.0,
                  phase: float = 0.0) -> np.ndarray:
    """amp * cos(2*pi*frequency*j/n + phase); frequency 0 gives a constant.
    A frequency with |frequency| >= n is taken modulo n, the same cosine on
    the n samples."""
    n = _integer(n, "n", 1, _MAX_SAMPLES)
    frequency = _integer(frequency, "frequency", -math.inf, math.inf)
    if abs(frequency) >= n:
        frequency %= n
    for name, value in (("amplitude", amplitude), ("phase", phase)):
        if not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value:g}")
    j = np.arange(n)
    return amplitude * np.cos(2.0 * np.pi * frequency * j / n + phase)


def cosine_mixture(n: int, components) -> np.ndarray:
    """Sum of cosines given as (frequency, amplitude, phase) triples; a sum
    that is not finite raises ``ValueError``."""
    n = _integer(n, "n", 1, _MAX_SAMPLES)
    comps = list(components)
    if not comps:
        raise ValueError("cosine mixture needs at least one component")
    out = np.zeros(n)
    for frequency, amplitude, phase in comps:
        term = cosine_signal(n, frequency, float(amplitude), float(phase))
        with np.errstate(over="ignore"):  # reported below
            out += term
    if not np.all(np.isfinite(out)):
        raise ValueError("the cosine mixture's sum is not finite")
    return out


def bandlimited_noise(n: int, cutoff: int, seed: int) -> np.ndarray:
    """Random real signal whose centered spectrum is zero beyond |k| > cutoff.

    Bins 1..cutoff get independent complex Gaussian draws, mirrored for
    conjugate symmetry; DC gets a real draw. cutoff must stay below n/2
    so the band excludes the Nyquist bin.
    """
    n = _integer(n, "n", 2, _MAX_SAMPLES)
    cutoff = _integer(cutoff, "cutoff", 0, (n - 1) // 2)
    rng = np.random.default_rng(seed)
    spec = np.zeros(n, dtype=complex)
    spec[0] = rng.normal()
    re, im = rng.normal(size=(cutoff, 2)).T
    spec.real[1:cutoff + 1] = re
    spec.imag[1:cutoff + 1] = im
    spec.real[n - cutoff:] = re[::-1]
    np.negative(im[::-1], out=spec.imag[n - cutoff:])
    np.fft.ifft(spec, out=spec)
    return spec.real * np.sqrt(n)


def step_signal(n: int) -> np.ndarray:
    """Edge at n//2: zeros then ones."""
    n = _integer(n, "n", 2, _MAX_SAMPLES)
    out = np.zeros(n)
    out[n // 2:] = 1.0
    return out


def checkerboard_image(height: int, width: int, period: int = 8) -> np.ndarray:
    height = _integer(height, "height", 1, _MAX_SAMPLES)
    width = _integer(width, "width", 1, _MAX_SAMPLES)
    period = _integer(period, "period", 1)
    rows = np.arange(height)[:, None] // period
    cols = np.arange(width)[None, :] // period
    return ((rows + cols) % 2).astype(float)


def gaussian_blob_image(height: int, width: int, sigma: float | None = None) -> np.ndarray:
    height = _integer(height, "height", 1, _MAX_SAMPLES)
    width = _integer(width, "width", 1, _MAX_SAMPLES)
    if sigma is None:
        sigma = min(height, width) / 6.0
    if not (sigma > 0 and 2.0 * sigma * sigma > 0):  # NaN fails this too
        raise ValueError(f"sigma must be positive, with 2*sigma^2 > 0, got {sigma:g}")
    y = np.arange(height) - (height - 1) / 2.0
    x = np.arange(width) - (width - 1) / 2.0
    with np.errstate(over="ignore"):  # an infinite exponent is a sample of 0
        return np.exp(-(y[:, None] ** 2 + x[None, :] ** 2) / (2.0 * sigma * sigma))


def composite_image(height: int, width: int, seed: int) -> np.ndarray:
    """3-channel edge-plus-texture test image (seeded, deterministic).

    Each channel combines a vertical step edge, an oriented cosine with a
    channel-dependent frequency, and low-amplitude seeded noise.
    """
    height = _integer(height, "height", 2, _MAX_SAMPLES)
    width = _integer(width, "width", 2, _MAX_SAMPLES)
    rng = np.random.default_rng(seed)
    yy = np.arange(height)[:, None]
    xx = np.arange(width)[None, :]
    edge = (xx >= width // 2).astype(float) * np.ones((height, 1))
    out = np.empty((height, width, 3))
    for c in range(3):
        fy, fx = 2 + c, 3 + 2 * c
        texture = 0.5 * np.cos(2.0 * np.pi * (fy * yy / height + fx * xx / width))
        noise = 0.1 * rng.standard_normal((height, width))
        out[:, :, c] = edge + texture + noise
    return out

"""Deterministic synthetic signals and images for experiments.

Randomized kinds are driven by NumPy's PCG64 generator seeded explicitly
(uniform/normal doubles use its standard integer-to-float mappings), so
identical parameters produce bit-identical arrays on every platform.
"""

from __future__ import annotations

import numpy as np

from .signal_core import _integer


def cosine_signal(n: int, frequency: int, amplitude: float = 1.0,
                  phase: float = 0.0) -> np.ndarray:
    """amp * cos(2*pi*frequency*j/n + phase); frequency 0 gives a constant."""
    n, frequency = _integer(n, "n"), _integer(frequency, "frequency")
    if n < 1:
        raise ValueError("signal length must be >= 1")
    j = np.arange(n)
    return amplitude * np.cos(2.0 * np.pi * frequency * j / n + phase)


def cosine_mixture(n: int, components) -> np.ndarray:
    """Sum of cosines given as (frequency, amplitude, phase) triples."""
    n = _integer(n, "n")
    comps = list(components)
    if not comps:
        raise ValueError("cosine mixture needs at least one component")
    out = np.zeros(n)
    for frequency, amplitude, phase in comps:
        out += cosine_signal(n, frequency, float(amplitude), float(phase))
    return out


def bandlimited_noise(n: int, cutoff: int, seed: int) -> np.ndarray:
    """Random real signal whose centered spectrum is zero beyond |k| > cutoff.

    Bins 1..cutoff get independent complex Gaussian draws, mirrored for
    conjugate symmetry; DC gets a real draw. cutoff must stay below n/2
    so the band excludes the Nyquist bin.
    """
    n, cutoff = _integer(n, "n"), _integer(cutoff, "cutoff")
    if n < 2:
        raise ValueError("signal length must be >= 2")
    if cutoff < 0 or 2 * cutoff >= n:
        raise ValueError(f"cutoff must satisfy 0 <= cutoff < n/2, got {cutoff}")
    rng = np.random.default_rng(seed)
    spec = np.zeros(n, dtype=complex)
    spec[0] = rng.normal()
    re, im = rng.normal(size=(cutoff, 2)).T
    spec[1:cutoff + 1] = re + 1j * im
    spec[n - cutoff:] = (re - 1j * im)[::-1]
    return np.fft.ifft(spec).real * np.sqrt(n)


def step_signal(n: int) -> np.ndarray:
    """Edge at n//2: zeros then ones."""
    n = _integer(n, "n")
    if n < 2:
        raise ValueError("signal length must be >= 2")
    out = np.zeros(n)
    out[n // 2:] = 1.0
    return out


def checkerboard_image(height: int, width: int, period: int = 8) -> np.ndarray:
    height, width = _integer(height, "height"), _integer(width, "width")
    period = _integer(period, "period")
    if height < 1 or width < 1 or period < 1:
        raise ValueError("height, width and period must be positive")
    rows = np.arange(height)[:, None] // period
    cols = np.arange(width)[None, :] // period
    return ((rows + cols) % 2).astype(float)


def gaussian_blob_image(height: int, width: int, sigma: float | None = None) -> np.ndarray:
    height, width = _integer(height, "height"), _integer(width, "width")
    if height < 1 or width < 1:
        raise ValueError("height and width must be positive")
    if sigma is None:
        sigma = min(height, width) / 6.0
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    y = np.arange(height) - (height - 1) / 2.0
    x = np.arange(width) - (width - 1) / 2.0
    return np.exp(-(y[:, None] ** 2 + x[None, :] ** 2) / (2.0 * sigma * sigma))


def composite_image(height: int, width: int, seed: int) -> np.ndarray:
    """3-channel edge-plus-texture test image (seeded, deterministic).

    Each channel combines a vertical step edge, an oriented cosine with a
    channel-dependent frequency, and low-amplitude seeded noise.
    """
    height, width = _integer(height, "height"), _integer(width, "width")
    if height < 2 or width < 2:
        raise ValueError("composite image must be at least 2x2")
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

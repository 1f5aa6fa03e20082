"""Independent oracles used to freeze expected values.

Everything here is deliberately written the slow, literal way (direct
sums and enumerations) so the tests never share a code path with the
library implementations they check.
"""

import threading

import numpy as np

from upspec import KernelSpec, fourier_pad_upsample, transposed_conv, upsamplers
from upspec.signal_core import LOG_FLOOR


def operator_matrix(op, n: int) -> np.ndarray:
    """Dense matrix of a linear signal operator on length-n inputs: column
    j is the operator applied to the j-th standard basis vector."""
    return np.stack([np.asarray(op(e), dtype=float) for e in np.eye(n)], axis=1)


def build_basis(n: int, r: int, k: int, small: int = 0) -> list[np.ndarray]:
    """Operator matrices of the one-hot kernels: e_0 .. e_{k-1} of the large
    branch, then e_0 .. e_{small-1} of a parallel small branch, so that
    T(w) = sum_j w_j B_j is the stride-r periodic transposed convolution."""
    kernels = [KernelSpec(weights=taps, stride=r) for taps in np.eye(k)]
    kernels += [KernelSpec(weights=np.zeros(k), stride=r, parallel_small=taps)
                for taps in np.eye(small)]
    return [operator_matrix(lambda x: transposed_conv(x, kernel), n) for kernel in kernels]


def ideal_operator(n: int, r: int) -> np.ndarray:
    """Dense matrix of the Fourier zero-padding upsampler (the fit target)."""
    return operator_matrix(lambda x: fourier_pad_upsample(x, r), n)


def brute_dft(x) -> np.ndarray:
    """Literal O(N^2) evaluation of F_k = sum_j exp(-2*pi*i*j*k/N) x_j."""
    x = np.asarray(x, dtype=complex)
    n = x.size
    out = np.zeros(n, dtype=complex)
    for k in range(n):
        for j in range(n):
            out[k] += np.exp(-2j * np.pi * j * k / n) * x[j]
    return out


def literal_fourier_pad(x, r: int) -> np.ndarray:
    """Ideal upsampling with the bins laid out one branch per parity of n:
    the n bins of x at their centered places among r*n zeros, and for even
    n the Nyquist bin n/2 halved into bins n/2 and r*n - n/2."""
    f = np.fft.fft(np.asarray(x, dtype=float))
    n = f.size
    m = r * n
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
    return r * np.fft.ifft(g).real


def literal_fullest_phase_taps(w, strides) -> int:
    """Most nonzero taps (a, b) of a 2D kernel that share one class
    (a mod sa, b mod sb), counted tap by tap; 0 for a kernel of zeros."""
    sa, sb = strides
    counts = {}
    for a in range(w.shape[0]):
        for b in range(w.shape[1]):
            if w[a, b] != 0.0:
                counts[a % sa, b % sb] = counts.get((a % sa, b % sb), 0) + 1
    return max(counts.values(), default=0)


def brute_dft2(img) -> np.ndarray:
    """Literal O((HW)^2) double-sum 2D DFT of one channel."""
    img = np.asarray(img, dtype=complex)
    h, w = img.shape
    out = np.zeros((h, w), dtype=complex)
    for k1 in range(h):
        for k2 in range(w):
            acc = 0.0 + 0.0j
            for j1 in range(h):
                for j2 in range(w):
                    acc += img[j1, j2] * np.exp(-2j * np.pi * (j1 * k1 / h + j2 * k2 / w))
            out[k1, k2] = acc
    return out


def literal_mirror(half, w: int) -> np.ndarray:
    """The full (H, W) magnitude spectrum of a real image from the (H, W//2 + 1)
    magnitudes of its rfft2, bin by bin: |F[k1, k2]| = |F[-k1, -k2]|, read
    from bin (-k1, -k2) past column W//2 and, in the columns that are their
    own mirror (0 and W/2), past row H//2."""
    h = half.shape[0]
    full = np.empty((h, w))
    for k1 in range(h):
        for k2 in range(w):
            m1, m2 = -k1 % h, -k2 % w
            mirrored = k2 > w // 2 or (m2 == k2 and k1 > h // 2)
            full[k1, k2] = half[m1, m2] if mirrored else half[k1, k2]
    return full


def literal_error_spectrum(pred, gt, mode: str, log: bool) -> np.ndarray:
    """``error_spectrum`` by ``np.fft.rfft2``: of the channel mean of pred - gt
    (channels added in order), or the mean of the channels' magnitudes; the
    log10(|F| + LOG_FLOOR) map is taken on the half spectrum, which is then
    mirrored bin by bin and centred."""
    diff = np.asarray(pred, dtype=float) - np.asarray(gt, dtype=float)
    if diff.ndim == 2:
        diff = diff[:, :, np.newaxis]
    channels = diff.shape[2]
    if mode == "complex":
        mean = diff[:, :, 0].copy()
        for c in range(1, channels):
            mean += diff[:, :, c]
        mean /= channels
        half = np.abs(np.fft.rfft2(mean))
    else:
        half = np.abs(np.fft.rfft2(diff[:, :, 0]))
        for c in range(1, channels):
            half += np.abs(np.fft.rfft2(diff[:, :, c]))
        half /= channels
    if log:
        half = np.log10(half + LOG_FLOOR)
    return np.fft.fftshift(literal_mirror(half, diff.shape[1]))


def dirichlet_interpolant(u, n: int, r: int) -> float:
    """Periodic-sinc value at output offset u for an N-point input
    upsampled to M = r*N, with the even-N Nyquist term half-weighted:

        D(u) = (1/N) [ 1 + 2 sum_{0<k<N/2} cos(2 pi k u / M) + cos(pi N u / M) ]

    (the last term present only for even N).
    """
    m = r * n
    total = 1.0
    for k in range(1, (n + 1) // 2):
        total += 2.0 * np.cos(2.0 * np.pi * k * u / m)
    if n % 2 == 0:
        total += np.cos(np.pi * n * u / m)
    return total / n


def dirichlet_matrix(n: int, r: int) -> np.ndarray:
    """Ideal upsampling operator built column by column from the formula."""
    m = r * n
    out = np.zeros((m, n))
    for j in range(n):
        for p in range(m):
            out[p, j] = dirichlet_interpolant(p - r * j, n, r)
    return out


def enumerate_contributions(k: int, s: int, out_len: int) -> np.ndarray:
    """Tap-placement counts by literal enumeration (anchor floor(k/2))."""
    c = k // 2
    counts = np.zeros(out_len, dtype=int)
    for i in range(out_len // s):
        for j in range(k):
            counts[(s * i + j - c) % out_len] += 1
    return counts


def truncated_sinc_square_replicas(ell, r: int, terms: int) -> np.ndarray:
    """r * sum_{|m|<=terms} sinc^2(l - r*m): the literal replica sum that
    a rate-r realization of the triangular kernel folds into one band."""
    ell = np.asarray(ell, dtype=float)
    m = np.arange(-terms, terms + 1)
    return r * np.sum(np.sinc(ell[:, None] - r * m[None, :]) ** 2, axis=1)


def random_bandlimited(n: int, cutoff: int, rng) -> np.ndarray:
    """Real signal with conjugate-symmetric random spectrum up to cutoff."""
    spec = np.zeros(n, dtype=complex)
    spec[0] = rng.normal()
    for k in range(1, cutoff + 1):
        re, im = rng.normal(), rng.normal()
        spec[k] = re + 1j * im
        spec[n - k] = re - 1j * im
    return np.fft.ifft(spec).real * n


def literal_bandlimited_noise(n: int, cutoff: int, seed: int) -> np.ndarray:
    """``bandlimited_noise`` drawn bin by bin: DC gets one normal draw, then
    bins 1..cutoff get (re, im) draws in turn, mirrored conjugate."""
    rng = np.random.default_rng(seed)
    spec = np.zeros(n, dtype=complex)
    spec[0] = rng.normal()
    for k in range(1, cutoff + 1):
        re, im = rng.normal(), rng.normal()
        spec[k] = re + 1j * im
        spec[n - k] = re - 1j * im
    return np.fft.ifft(spec).real * np.sqrt(n)


def dense_fit(n: int, r: int, k: int, small=None, corpus=()):
    """Kernel fit through dense operator matrices: the normal equations of
    the one-hot basis operators (large branch, then the optional small
    branch) against the dense ideal operator, solved for the minimum-norm
    weights with eigenvalues below 1e-12 of the Gram trace treated as
    null. Returns (weights, residual recomputed from the operator, rank).
    """
    basis = build_basis(n, r, k, small or 0)
    target = ideal_operator(n, r)
    if len(corpus) == 0:
        stack = np.stack([b.ravel() for b in basis])
        gram, rhs = stack @ stack.T, stack @ target.ravel()
    else:
        gram, rhs = 0.0, 0.0
        for x in corpus:
            bx = np.stack([b @ x for b in basis])
            gram = gram + bx @ bx.T
            rhs = rhs + bx @ (target @ x)
    evals, evecs = np.linalg.eigh(gram)
    keep = evals > 1e-12 * np.trace(gram)
    weights = evecs[:, keep] @ ((evecs[:, keep].T @ rhs) / evals[keep])
    fitted = sum(w * b for w, b in zip(weights, basis))
    if len(corpus) == 0:
        residual = float(np.linalg.norm(fitted - target))
    else:
        err = sum(float(np.sum((fitted @ x - target @ x) ** 2)) for x in corpus)
        residual = float(np.sqrt(err / len(corpus)))
    return weights, residual, int(np.count_nonzero(keep))


def literal_bar_strip(values, height: int = 48) -> np.ndarray:
    """Bar chart filled column by column: ``round(scaled * height)`` ones
    at the bottom of each column, values min-max scaled to [0, 1]."""
    vals = np.asarray(values, dtype=float)
    lo, hi = float(vals.min()), float(vals.max())
    img = np.zeros((height, vals.size))
    for col, v in enumerate(vals):
        scaled = 0.0 if hi == lo else (v - lo) / (hi - lo)
        fill = int(round(scaled * height))
        if fill > 0:
            img[height - fill:, col] = 1.0
    return img


def literal_quantize(array) -> np.ndarray:
    """Min-max quantisation as one expression over a float copy:
    ``rint((a - lo) / (hi - lo) * 255)`` cast to uint8, zeros when constant.
    When ``hi - lo`` overflows, every term is halved first (exact in binary)."""
    a = np.asarray(array, dtype=float)
    lo, hi = float(a.min()), float(a.max())
    if hi == lo:
        return np.zeros(a.shape, dtype=np.uint8)
    if not np.isfinite(hi - lo):
        return np.rint((a / 2 - lo / 2) / (hi / 2 - lo / 2) * 255.0).astype(np.uint8)
    return np.rint((a - lo) / (hi - lo) * 255.0).astype(np.uint8)


def literal_strip_file(values, repeat: int = 1, height: int = 48) -> bytes:
    """The P5 file of a bar strip: its header, then the literal quantisation
    of ``literal_bar_strip(values)`` tiled ``repeat`` times."""
    raster = literal_quantize(np.tile(literal_bar_strip(values, height), repeat))
    return b"P5 %d %d 255\n" % (raster.shape[1], height) + raster.tobytes()


def literal_alias_reports(ys, r: int, x=None) -> list[dict]:
    """The fields of ``alias_energy(y, r, reference=x)`` of each row y of
    ``ys`` and its ``magnitude``: fftshift(|fft(y)|), band sums of the
    unit-peak power over boolean masks of the centred bins k (passband
    2|k| < n, Nyquist 2|k| == n, alias the rest), each band gathered by
    np.compress, and the replica gap against fft(x) tiled r times."""
    reports = []
    for y in np.asarray(ys, dtype=float):
        m = y.size
        n = m // r
        magnitude = np.fft.fftshift(np.abs(np.fft.fft(y)))
        k = np.arange(m) - m // 2
        passband, nyquist = 2 * np.abs(k) < n, 2 * np.abs(k) == n
        alias = ~(passband | nyquist)
        peak = magnitude.max() or 1.0
        power = (magnitude / peak) ** 2
        s_pass, s_nyq, s_alias = (np.compress(band, power).sum()
                                  for band in (passband, nyquist, alias))
        total = s_pass + s_nyq + s_alias
        with np.errstate(over="ignore"):
            energies = [float(s * peak * peak) for s in (s_pass, s_alias, s_nyq)]
        reports.append({
            **dict(zip(("passband_energy", "alias_energy", "nyquist_energy"), energies)),
            "alias_ratio": float((s_alias + s_nyq) / total) if total > 0 else 0.0,
            "replica_deviation": None if x is None else literal_replica_deviation(x, y, r),
            "magnitude": magnitude,
        })
    return reports


def literal_replica_deviation(x, y, r: int) -> float:
    """max_k |DFT(y)[k] - DFT(x)[k mod N]| against DFT(x) tiled r times;
    an overflow on the way reads inf or nan."""
    with np.errstate(over="ignore", invalid="ignore"):
        return float(np.abs(np.fft.fft(y) - np.tile(np.fft.fft(x), r)).max())


def literal_fold(kernel) -> KernelSpec:
    """The one-branch kernel of a two-branch one: each small tap is added,
    one at a time, onto the large tap at the same offset from the anchor
    (floor(K/2) for the large kernel, floor(k/2) for the small one)."""
    weights = kernel.weights.copy()
    small = kernel.parallel_small
    if small is not None:
        for idx in np.ndindex(*small.shape):
            at = tuple(i - k // 2 + big // 2
                       for i, k, big in zip(idx, small.shape, weights.shape))
            weights[at] += small[idx]
    return KernelSpec(weights=weights, stride=kernel.stride)


def literal_bed_of_nails(x, r: int) -> np.ndarray:
    """Zero insertion by a strided write: out[r*j] = x[j], 0 elsewhere."""
    x = np.asarray(x, dtype=float)
    out = np.zeros(r * x.size)
    out[::r] = x
    return out


def literal_nearest(x, r: int) -> np.ndarray:
    """Every sample repeated r times by ``np.repeat``."""
    return np.repeat(np.asarray(x, dtype=float), r)


def literal_linear(x, r: int, boundary: str = "periodic") -> np.ndarray:
    """Linear interpolation phase by phase: out[r*j + m] is
    ``(1 - m/r) * x[j] + (m/r) * x[j+1]``, with x[N] read as x[0]
    ("periodic") or 0 ("zero-pad")."""
    x = np.asarray(x, dtype=float)
    succ = np.roll(x, -1)
    if boundary == "zero-pad":
        succ[-1] = 0.0
    out = np.empty(r * x.size)
    for m in range(r):
        t = m / r
        out[m::r] = (1.0 - t) * x + t * succ
    return out


def _literal_place_1d(z, w, boundary):
    """Convolve a zero-inserted signal with taps anchored at floor(K/2):
    one full-array roll per tap (periodic) or ``np.convolve`` (zero-pad)."""
    c = w.shape[0] // 2
    if boundary == "periodic":
        out = np.zeros_like(z)
        for j in range(w.shape[0]):
            if w[j] != 0.0:
                out += w[j] * np.roll(z, j - c)
        return out
    full = np.convolve(z, w, mode="full")
    return full[c:c + z.shape[0]]


def literal_transposed_conv(x, kernel, boundary="periodic") -> np.ndarray:
    """1D transposed convolution by zero insertion and per-tap placement;
    a parallel small branch is placed on its own and added."""
    x = np.asarray(x, dtype=float)
    z = np.zeros(kernel.stride * x.size)
    z[::kernel.stride] = x
    out = _literal_place_1d(z, kernel.weights, boundary)
    if kernel.parallel_small is not None:
        out = out + _literal_place_1d(z, kernel.parallel_small, boundary)
    return out


def _literal_place_2d(z, w, boundary):
    """Place every tap of w over a zero-inserted image, one shifted
    full-size copy per tap: rolled (periodic) or cut from a zero frame."""
    ca, cb = w.shape[0] // 2, w.shape[1] // 2
    out = np.zeros_like(z)
    if boundary == "periodic":
        for a in range(w.shape[0]):
            for b in range(w.shape[1]):
                if w[a, b] != 0.0:
                    out += w[a, b] * np.roll(z, (a - ca, b - cb), axis=(0, 1))
        return out
    padded = np.zeros((z.shape[0] + w.shape[0], z.shape[1] + w.shape[1]))
    for a in range(w.shape[0]):
        for b in range(w.shape[1]):
            if w[a, b] == 0.0:
                continue
            shifted = np.zeros_like(padded)
            shifted[a:a + z.shape[0], b:b + z.shape[1]] = w[a, b] * z
            out += shifted[ca:ca + z.shape[0], cb:cb + z.shape[1]]
    return out


def literal_transposed_conv2(image, kernel, boundary="periodic") -> np.ndarray:
    """2D transposed convolution of an (H, W, C) image, channel by channel,
    by zero insertion and per-tap placement; a parallel small branch is
    placed on its own and added."""
    arr = np.asarray(image, dtype=float)
    s = kernel.stride
    h, wd, nc = arr.shape
    out = np.zeros((s * h, s * wd, nc))
    for c in range(nc):
        z = np.zeros((s * h, s * wd))
        z[::s, ::s] = arr[:, :, c]
        acc = _literal_place_2d(z, kernel.weights, boundary)
        if kernel.parallel_small is not None:
            acc = acc + _literal_place_2d(z, kernel.parallel_small, boundary)
        out[:, :, c] = acc
    return out


def literal_csv_cell(value) -> str:
    """One CSV value, branch by branch: floats (numpy's too) to 12
    significant digits, integers in full, None empty, Python and numpy
    booleans as ``true``/``false``, anything else by ``str``."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.12g}"
    return str(value)


def literal_csv_text(header, rows) -> str:
    """The text of a CSV file, formatted one value at a time."""
    lines = [",".join(header)] + [",".join(map(literal_csv_cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def literal_position_rows(out_len: int, suffixes) -> bytes:
    """The rows ``b"%d" % p + suffixes[p % s]`` for p in range(out_len), by
    one %-template of a period's s rows repeated out_len/s times and filled
    with every position; the suffixes hold no ``%``."""
    template = b"".join(b"%d" + suffix for suffix in suffixes)
    return template * (out_len // len(suffixes)) % tuple(range(out_len))


def handoff_spy(mp) -> list:
    """The stripes that ``upsamplers._in_stripes`` hands to its worker threads
    while ``mp`` is active, as (worker, k) pairs, with
    ``upsamplers._worker_count`` at two CPUs whatever the machine has."""
    handed, hand = [], upsamplers._Worker.hand

    def spy(worker, stripe, k):
        handed.append((worker, k))
        hand(worker, stripe, k)

    mp.setattr(upsamplers._Worker, "hand", spy)
    mp.setattr(upsamplers, "_worker_count", lambda: 2)
    return handed


def threads_besides_workers() -> set:
    """The live threads other than the workers of ``upsamplers._in_stripes``."""
    return set(threading.enumerate()) - {worker.thread for worker in upsamplers._WORKERS}


def assert_workers_idle(timeout: float = 60.0) -> None:
    """Every worker of ``upsamplers._in_stripes`` is alive and idle: no stripe
    waits for it, none has ended unawaited, and a stripe handed to it now
    runs and ends within ``timeout`` seconds."""
    for worker in upsamplers._WORKERS:
        assert worker.thread.is_alive() and worker.task is None
        assert not worker.done.acquire(blocking=False)
        ran = []
        worker.hand(ran.append, 1)
        assert worker.done.acquire(timeout=timeout) and ran == [1]


def in_time(call, timeout: float = 60.0):
    """call() on a daemon thread joined with a timeout, so that a stripe that
    hangs fails the test instead of the run; returns its result or raises its
    error here."""
    outcome = []

    def run():
        try:
            outcome.append((True, call()))
        except BaseException as error:  # raised again on the test's thread
            outcome.append((False, error))

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), f"the call did not return within {timeout} s"
    returned, value = outcome[0]
    if not returned:
        raise value
    return value

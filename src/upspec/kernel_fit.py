"""Least-squares fitting of transposed-convolution kernels to the ideal
(Fourier zero-padding) upsampler.

Offset and fold view: a periodic stride-r transposed convolution maps x
to g (*) z, the circular convolution of the zero-inserted signal z
(length M = r*N) with a length-M kernel g. Tap j of a K-tap kernel sits
at offset (j - floor(K/2)) mod M, the taps of a parallel small branch at
their own anchored offsets, and g is the fold of all taps onto their
offsets (taps sharing an offset add). The ideal upsampler is h (*) z
with h = fourier_pad_upsample(e_0, r). Every column of either operator
is a shift of its kernel, so

    ||T(w) - U||_F^2 = N ||g - h||^2,   ||T(w) x - U x||^2 = ||(g - h) (*) z||^2.

"operator_frobenius" is then solved directly: g = h on every covered
offset, split equally among the taps sharing it (the minimum-norm
solution; ``gram_rank`` is the number of distinct offsets), in
O(K + M log M) with no linear solve. "corpus_lsq" solves a small Gram
system whose entries are autocorrelations of z at offset differences and
whose right-hand side is the cross-correlation of z with U x, both
summed over the corpus and computed by rFFT. No dense operator matrix
is built. Because kernel anchors are fixed at floor(K/2), supports
are nested in K and fitting residuals are monotone non-increasing,
reaching exactly zero at full support K = r*N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .upsamplers import KernelSpec, fourier_pad_upsample, validate_factor

OBJECTIVES = ("operator_frobenius", "corpus_lsq")

#: Relative eigenvalue cutoff (times the Gram trace) below which Gram
#: directions are treated as null space (minimum-norm solve, rank).
RANK_TOL = 1e-12

#: Gradient-descent defaults: relative gradient-norm stop, iteration cap.
GD_TOL = 1e-12
GD_MAX_ITER = 100_000


class DivergenceError(RuntimeError):
    """Gradient descent increased its objective repeatedly."""


@dataclass(frozen=True)
class FitProblem:
    """One kernel-fitting instance.

    ``n`` is the input length, ``r`` the upsampling factor (the stride
    always equals r), ``k`` the kernel size. ``corpus`` supplies the
    training signals for the "corpus_lsq" objective; ``parallel_small``
    is the optional size of a second, small kernel branch fitted jointly
    (see :func:`lctc_fit`).
    """

    n: int
    r: int
    k: int
    objective: str = "operator_frobenius"
    corpus: tuple = ()
    parallel_small: int | None = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "r", validate_factor(self.r))
        if self.n < 1:
            raise ValueError("input length must be >= 1")
        if self.k < 1:
            raise ValueError("kernel size must be >= 1")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.objective == "corpus_lsq" and len(self.corpus) == 0:
            raise ValueError("corpus_lsq objective requires a non-empty corpus")
        if self.parallel_small is not None:
            if self.parallel_small < 1 or self.parallel_small > self.k:
                raise ValueError("parallel kernel size must be in [1, k]")
        corpus = tuple(np.asarray(x, dtype=float) for x in self.corpus)
        shapes = sorted({x.shape for x in corpus} - {(self.n,)})
        if shapes:
            raise ValueError(f"corpus signals must have shape ({self.n},), got {shapes}")
        object.__setattr__(self, "corpus", corpus)


@dataclass(frozen=True)
class FitResult:
    """Fitted kernel plus diagnostics.

    ``residual`` is the Frobenius operator distance (or root-mean-square
    corpus error). ``gram_rank`` reports the numerical rank of the normal
    equations; anything below the tap count means the minimum-norm
    solution was taken. ``converged`` is True for closed-form fits; for
    gradient descent it says whether ||G w - b|| <= tol * ||b|| held
    within the iteration cap.
    """

    kernel: KernelSpec
    residual: float
    iterations: int
    gram_rank: int
    objective_history: tuple = field(default=())
    converged: bool = True


class EdgeProfile(NamedTuple):
    center_mass: float
    edge_mass: float
    decays_toward_edge: bool


def _offsets(problem: FitProblem) -> np.ndarray:
    """Output offset (mod r*n) of every tap, large branch first."""
    sizes = [problem.k] if problem.parallel_small is None else [problem.k, problem.parallel_small]
    offsets = np.concatenate([np.arange(size) - size // 2 for size in sizes])
    return offsets % (problem.r * problem.n)


def _ideal_response(n: int, r: int) -> np.ndarray:
    """Impulse response h of the ideal upsampler: U x = h (*) zero-inserted x."""
    impulse = np.zeros(n)
    impulse[0] = 1.0
    return fourier_pad_upsample(impulse, r)


def _corpus_spectra(problem: FitProblem) -> np.ndarray:
    """rFFT of every zero-inserted corpus signal, one row per signal."""
    z = np.zeros((len(problem.corpus), problem.r * problem.n))
    z[:, ::problem.r] = np.stack(problem.corpus)
    return np.fft.rfft(z, axis=1)


def _quadratic(problem: FitProblem, offsets: np.ndarray,
               h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Gram matrix G, right-hand side b and constant c of the objective
    w.G.w - 2 b.w + c, built from the tap offsets alone."""
    if problem.objective == "operator_frobenius":
        gram = problem.n * (offsets[:, None] == offsets[None, :]).astype(float)
        return gram, problem.n * h[offsets], problem.n * float(h @ h)
    m = problem.r * problem.n
    power = np.sum(np.abs(_corpus_spectra(problem)) ** 2, axis=0)
    response = np.fft.rfft(h)
    autocorr = np.fft.irfft(power, m)
    crosscorr = np.fft.irfft(response * power, m)
    const = float(np.fft.irfft(np.abs(response) ** 2 * power, m)[0])
    return autocorr[(offsets[:, None] - offsets[None, :]) % m], crosscorr[offsets], const


def _kept(gram: np.ndarray, evals: np.ndarray) -> np.ndarray:
    """Mask of the Gram eigenvalues above the null-space cutoff."""
    return evals > RANK_TOL * max(float(np.trace(gram)), np.finfo(float).tiny)


def _min_norm_solve(gram: np.ndarray, rhs: np.ndarray) -> tuple[np.ndarray, int]:
    """Minimum-norm solution of a symmetric PSD system via eigendecomposition."""
    evals, evecs = np.linalg.eigh(gram)
    keep = _kept(gram, evals)
    inv = np.zeros_like(evals)
    inv[keep] = 1.0 / evals[keep]
    w = evecs @ (inv * (evecs.T @ rhs))
    return w, int(np.count_nonzero(keep))


def _fit_residual(problem: FitProblem, weights: np.ndarray, offsets: np.ndarray,
                  h: np.ndarray) -> float:
    """Residual of the fitted operator, from its folded kernel g."""
    m = problem.r * problem.n
    error = np.bincount(offsets, weights=weights, minlength=m) - h
    if problem.objective == "operator_frobenius":
        return float(np.sqrt(problem.n * np.sum(error ** 2)))
    per_signal = np.fft.irfft(np.fft.rfft(error) * _corpus_spectra(problem), m, axis=1)
    return float(np.sqrt(np.sum(per_signal ** 2) / len(problem.corpus)))


def _result_kernel(problem: FitProblem, weights: np.ndarray) -> KernelSpec:
    if problem.parallel_small is None:
        return KernelSpec(weights=weights, stride=problem.r)
    k = problem.k
    return KernelSpec(weights=weights[:k], stride=problem.r,
                      parallel_small=weights[k:])


def fit_closed_form(problem: FitProblem) -> FitResult:
    """Solve the kernel fit exactly.

    ``operator_frobenius`` needs no linear solve: every tap gets an equal
    share of h at its offset. ``corpus_lsq`` solves its (k+s) x (k+s)
    Gram system; a rank-deficient one yields the minimum-norm weights
    (reported through ``gram_rank``).
    """
    offsets = _offsets(problem)
    h = _ideal_response(problem.n, problem.r)
    if problem.objective == "operator_frobenius":
        counts = np.bincount(offsets)
        weights = h[offsets] / counts[offsets]
        rank = int(np.count_nonzero(counts))
    else:
        gram, rhs, _ = _quadratic(problem, offsets, h)
        weights, rank = _min_norm_solve(gram, rhs)
    return FitResult(kernel=_result_kernel(problem, weights),
                     residual=_fit_residual(problem, weights, offsets, h),
                     iterations=0, gram_rank=rank)


def fit_gradient_descent(problem: FitProblem, lr: float | None = None,
                         max_iter: int = GD_MAX_ITER, tol: float = GD_TOL) -> FitResult:
    """Solve the kernel fit by plain gradient descent on the quadratic.

    The gradient is 2*(G w - b). One ``eigvalsh`` of G gives ``gram_rank``
    and the default step 1/(2*lambda_max), which shrinks the error along
    every eigenvector without overshoot (by 1 - lambda/lambda_max). Weights start at zero, so they stay in
    the range of G and converge to the closed form's minimum-norm weights.
    Descent stops once ||G w - b|| <= tol * ||b||, which bounds the weight
    error by tol * ||b|| / (smallest nonzero eigenvalue); ``converged``
    says whether that held within ``max_iter`` steps. Ten consecutive
    objective increases, or an objective that overflows, raise
    :class:`DivergenceError` naming the step.
    """
    if lr is not None and not lr > 0:
        raise ValueError(f"learning rate must be positive, got lr={lr:g}")
    if max_iter < 0:
        raise ValueError("iteration cap must be >= 0")
    offsets = _offsets(problem)
    h = _ideal_response(problem.n, problem.r)
    gram, rhs, const = _quadratic(problem, offsets, h)
    evals = np.linalg.eigvalsh(gram)
    if lr is None:
        lr = 1.0 / (2.0 * max(float(evals[-1]), np.finfo(float).tiny))
    stop = tol * float(np.linalg.norm(rhs))

    w = np.zeros(offsets.size)
    history = []
    increases = 0
    # an overflowing step is reported by the finiteness check, not as warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for iterations in range(max_iter + 1):
            normal_residual = gram @ w - rhs
            obj = float(w @ normal_residual - rhs @ w + const)
            if not np.isfinite(obj):
                raise DivergenceError(f"objective is no longer finite at lr={lr:g}")
            if history and obj > history[-1]:
                increases += 1
                if increases >= 10:
                    raise DivergenceError(
                        f"objective increased for 10 consecutive steps at lr={lr:g}")
            else:
                increases = 0
            history.append(obj)
            converged = float(np.linalg.norm(normal_residual)) <= stop
            if converged or iterations == max_iter:
                break
            w = w - lr * 2.0 * normal_residual

    return FitResult(kernel=_result_kernel(problem, w),
                     residual=_fit_residual(problem, w, offsets, h),
                     iterations=iterations,
                     gram_rank=int(np.count_nonzero(_kept(gram, evals))),
                     objective_history=tuple(history), converged=converged)


def residual_sweep(n: int, r: int, kernel_sizes) -> list[tuple[int, float]]:
    """Closed-form fit residual for each kernel size (sizes ascending).

    The fixed floor(K/2) anchor nests supports, so the residual column is
    non-increasing and exactly zero from K = r*n on.
    """
    sizes = [int(k) for k in kernel_sizes]
    if any(b < a for a, b in zip(sizes, sizes[1:])):
        raise ValueError("kernel sizes must be ascending")
    out = []
    for k in sizes:
        result = fit_closed_form(FitProblem(n=n, r=r, k=k))
        out.append((k, result.residual))
    return out


def kernel_edge_profile(kernel: KernelSpec) -> EdgeProfile:
    """Compare tap mass at the kernel center against its borders.

    center_mass is the mean |w| over the central third, edge_mass the
    mean |w| over the outer sixths; smooth interpolating kernels fade
    toward the border (edge < center).
    """
    w = kernel.weights
    if w.ndim != 1:
        raise ValueError("edge profile is defined for 1D kernels")
    k = w.shape[0]
    if k < 3:
        raise ValueError("kernel must have at least 3 taps")
    third = max(1, k // 3)
    lo = (k - third) // 2
    center = float(np.mean(np.abs(w[lo:lo + third])))
    sixth = max(1, k // 6)
    edge = float(np.mean(np.abs(np.concatenate([w[:sixth], w[-sixth:]]))))
    return EdgeProfile(center_mass=center, edge_mass=edge,
                       decays_toward_edge=edge < center)


def lctc_fit(problem: FitProblem) -> FitResult:
    """Jointly fit a large kernel plus a parallel small branch.

    The small branch's taps share offsets with central taps of the large
    kernel, so the joint fit is rank-deficient by construction and the
    minimum-norm solution is taken: it splits each shared offset between
    the branches. Both branches cover exactly the offsets the large kernel
    alone covers, so the residual equals the large-only fit's (to
    round-off); the small branch reparametrises the kernel, it adds no
    representational power.
    """
    if problem.parallel_small is None:
        raise ValueError("lctc_fit requires a parallel_small size")
    if problem.k < 5:
        raise ValueError("the large kernel of the parallel block must have k >= 5")
    return fit_closed_form(problem)

"""Least-squares fitting of transposed-convolution kernels to the ideal
(Fourier zero-padding) upsampler.

Offset and fold view: a periodic stride-r transposed convolution maps x
to g (*) z, the circular convolution of the zero-inserted signal z
(length M = r*N) with a length-M kernel g. Tap j of a K-tap kernel sits
at offset (j - floor(K/2)) mod M, a small branch's taps likewise
(``upsamplers._tap_offsets``), and g is the fold of all taps onto their
offsets (taps sharing an offset add). The ideal upsampler is h (*) z
with h = fourier_pad_upsample(e_0, r).

Per-frequency view: zero insertion repeats the spectrum X of x r times,
so the error operator T(w) - U is block-circulant: it scales X[q] by
E[q + m*N] into each output bin q + m*N, where E = DFT(g - h), and has
one singular value per low-rate frequency q,

    sigma_q(w)^2 = (1/r) sum_m |E[q + m*N]|^2.

Both objectives are one weighted sum sum_q c_q sigma_q(w)^2: c_q = 1 for
"operator_frobenius" (||T(w) - U||_F^2), and c_q = P_q / N for
"corpus_lsq" (sum_s ||T(w) x_s - U x_s||^2), where P_q = sum_s |X_s[q]|^2
is the corpus power spectrum. The weights c are the only place the
objective, and the corpus, enter. The quadratic's Gram entries,
right-hand side and constant are inverse transforms of c tiled over the
M output frequencies, read at offset differences, so no dense operator
is built. The residual is sqrt(sum_q c_q sigma_q^2 / S), S the corpus
size (1 for the operator norm).

"operator_frobenius" is solved directly: g = h on every covered offset,
split equally among the taps sharing it (the minimum-norm solution;
``gram_rank`` is the number of distinct offsets), in O(K + M log M)
with no linear solve; "corpus_lsq" solves the small Gram system. Kernel
anchors are fixed at floor(K/2), so supports are nested in K and
residuals are non-increasing, reaching exactly zero at K = r*N.

Gradient descent on the same quadratic diverges exactly when
lr * lambda_max > 1 (a step scales the error along each Gram eigenvalue
lambda by 1 - 2*lr*lambda), which it checks before the first step.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .signal_core import _MAX_SAMPLES, _integer
from .upsamplers import KernelSpec, _tap_offsets, fourier_pad_upsample, validate_factor

OBJECTIVES = ("operator_frobenius", "corpus_lsq")

#: Relative eigenvalue cutoff (times the Gram trace) below which Gram
#: directions are treated as null space (minimum-norm solve, rank).
RANK_TOL = 1e-12

#: Gradient descent: relative gradient-norm stop, default iteration cap.
GD_TOL = 1e-12
GD_MAX_ITER = 100_000


class DivergenceError(RuntimeError):
    """The gradient-descent step exceeds 1/lambda_max, so descent diverges."""


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
        object.__setattr__(self, "n", _integer(self.n, "input length", 1))
        object.__setattr__(self, "r", validate_factor(self.r, self.n))
        object.__setattr__(self, "k", _integer(self.k, "kernel size", 1, _MAX_SAMPLES))
        if self.objective not in OBJECTIVES:
            raise ValueError(f"objective must be one of {OBJECTIVES}")
        if self.objective == "corpus_lsq" and len(self.corpus) == 0:
            raise ValueError("corpus_lsq objective requires a non-empty corpus")
        if self.objective == "operator_frobenius" and len(self.corpus) > 0:
            raise ValueError("operator_frobenius objective takes no corpus")
        if self.parallel_small is not None:
            object.__setattr__(self, "parallel_small",
                               _integer(self.parallel_small, "parallel kernel size", 1, self.k))
        corpus = tuple(np.asarray(x, dtype=float) for x in self.corpus)
        shapes = sorted({x.shape for x in corpus} - {(self.n,)})
        if shapes:
            raise ValueError(f"corpus signals must have shape ({self.n},), got {shapes}")
        if not all(np.all(np.isfinite(x)) for x in corpus):
            raise ValueError("corpus signals must be finite")
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
    return _tap_offsets(sizes, problem.r * problem.n)


@lru_cache(maxsize=1)
def _ideal_response(n: int, r: int) -> np.ndarray:
    """Impulse response h of the ideal upsampler: U x = h (*) zero-inserted x.

    Cached per (n, r) and read-only, as ``upsamplers._phases`` is, so the
    fits of one command (``compare``'s two, a ``sweep``'s one per size)
    transform the impulse once. One entry suffices, since a command fits at
    one (n, r), and keeps no more than one r*n-sample h alive.
    """
    impulse = np.zeros(n)
    impulse[0] = 1.0
    h = fourier_pad_upsample(impulse, r)
    h.flags.writeable = False
    return h


def _frequency_weights(problem: FitProblem) -> np.ndarray:
    """Weight c_q of each low-rate frequency q in the objective
    sum_q c_q sigma_q^2: 1, or P_q / n for a corpus of power spectrum P."""
    if problem.objective == "operator_frobenius":
        return np.ones(problem.n)
    return np.sum(np.abs(np.fft.fft(problem.corpus, axis=1)) ** 2, axis=0) / problem.n


def _quadratic(problem: FitProblem, offsets: np.ndarray,
               h: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """Gram matrix G, right-hand side b and constant a of the objective
    w.G.w - 2 b.w + a = sum_q c_q sigma_q(w)^2, from the tap offsets alone.

    With C the weights c tiled over the M = r*n output frequencies and
    H = DFT(h): G[j, l] = n IDFT(C)[o_j - o_l], b_j = n IDFT(C H)[o_j] and
    a = n IDFT(C |H|^2)[0], from one batched inverse transform.
    """
    m = problem.r * problem.n
    tiled = np.tile(_frequency_weights(problem), problem.r)[:m // 2 + 1]
    response = np.fft.rfft(h)
    auto, cross, const = problem.n * np.fft.irfft(
        np.stack([tiled, tiled * response, tiled * np.abs(response) ** 2]), m)
    return auto[(offsets[:, None] - offsets[None, :]) % m], cross[offsets], float(const[0])


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


def _error_gains(g: np.ndarray, h: np.ndarray, n: int, r: int) -> np.ndarray:
    """Singular values sigma_q of the error operator at each low-rate
    frequency q: sigma_q^2 = (1/r) sum_m |E[q + m*n]|^2 with E = DFT(g - h),
    taken in its polyphase form sum_p |DFT(e[p::r])[q]|^2 (Parseval over m).
    """
    return np.linalg.norm(np.fft.fft((g - h).reshape(n, r), axis=0), axis=1)


def _fit_residual(problem: FitProblem, weights: np.ndarray, offsets: np.ndarray,
                  h: np.ndarray) -> float:
    """Residual sqrt(sum_q c_q sigma_q^2 / S) of the fitted operator's folded kernel
    g, S the corpus size (1 for the operator norm); no BLAS dot, whose threads spin."""
    g = np.bincount(offsets, weights=weights, minlength=problem.r * problem.n)
    spread = np.sum(_frequency_weights(problem) * _error_gains(g, h, problem.n, problem.r) ** 2)
    return float(np.sqrt(spread / max(len(problem.corpus), 1)))


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
                         max_iter: int = GD_MAX_ITER) -> FitResult:
    """Solve the kernel fit by plain gradient descent on the quadratic.

    The gradient is 2*(G w - b), so a step scales the error along each
    eigenvalue lambda of G by 1 - 2*lr*lambda. One ``eigvalsh`` of G gives
    ``gram_rank``, the default step 1/(2*lambda_max), which shrinks every
    error component without overshoot, and the divergence rule: a step
    lr > 1/lambda_max raises :class:`DivergenceError` before the first step.
    Weights start at zero, so they stay in the range of G and converge to
    the closed form's minimum-norm weights. Descent stops once
    ||G w - b|| <= GD_TOL * ||b||, which bounds the weight error by
    GD_TOL * ||b|| / (smallest nonzero eigenvalue); ``converged`` says
    whether that held within ``max_iter`` steps.
    """
    if lr is not None and not lr > 0:
        raise ValueError(f"learning rate must be positive, got lr={lr:g}")
    max_iter = _integer(max_iter, "iteration cap", 0)
    offsets = _offsets(problem)
    h = _ideal_response(problem.n, problem.r)
    gram, rhs, const = _quadratic(problem, offsets, h)
    evals = np.linalg.eigvalsh(gram)
    top = float(evals[-1])
    if lr is None:
        lr = 1.0 / (2.0 * max(top, np.finfo(float).tiny))
    elif lr * top > 1.0:
        raise DivergenceError(f"step lr={lr:g} exceeds 1/lambda_max={1.0 / top:g}, "
                              f"so gradient descent diverges")
    stop = GD_TOL * float(np.linalg.norm(rhs))

    w = np.zeros(offsets.size)
    history = []
    for iterations in range(max_iter + 1):
        normal_residual = gram @ w - rhs
        history.append(float(w @ normal_residual - rhs @ w + const))
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
    """Closed-form fit residual for each kernel size, in the given order.

    The fixed floor(K/2) anchor nests supports, so residuals are
    non-increasing in K and exactly zero from K = r*n on.
    """
    problems = [FitProblem(n=n, r=r, k=k) for k in kernel_sizes]
    return [(p.k, fit_closed_form(p).residual) for p in problems]


def kernel_edge_profile(kernel: KernelSpec) -> EdgeProfile:
    """Compare tap mass at the kernel center against its borders.

    center_mass is the mean |w| over the central third, edge_mass the
    mean |w| over the outer sixths; smooth interpolating kernels fade
    toward the border (edge < center). It reads the placed kernel, the
    effective weights with any parallel small branch folded in.
    """
    w = kernel.effective_weights()
    if w.ndim != 1:
        raise ValueError("edge profile is defined for 1D kernels")
    k = _integer(w.shape[0], "kernel size", 3)
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
    representational power. Any small size 1 <= s <= k is valid.
    """
    if problem.parallel_small is None:
        raise ValueError("lctc_fit requires a parallel_small size")
    return fit_closed_form(problem)

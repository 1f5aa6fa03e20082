"""Acceptance gate: the exact spectral properties and oracle equivalences
this package promises, each with a fixed tolerance and runtime budget.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import time

import numpy as np

from helpers import (
    build_basis,
    ideal_operator,
    random_bandlimited,
    truncated_sinc_square_replicas,
)
from upspec import (
    FitProblem,
    alias_energy,
    bed_of_nails,
    contribution_map,
    dft,
    empirical_filter_response,
    filter_response,
    fit_closed_form,
    fit_gradient_descent,
    fourier_pad_upsample,
    idft,
    kernel_edge_profile,
    KernelSpec,
    lctc_fit,
    linear,
    pixel_shuffle,
    pixel_unshuffle,
    residual_sweep,
    transposed_conv,
)
from upspec.cli import main as cli_main
from upspec.kernel_fit import _ideal_response, _offsets, _quadratic


def _run(num, name, budget_s, body):
    started = time.perf_counter()
    try:
        body()
        elapsed = time.perf_counter() - started
        assert elapsed < budget_s, f"runtime {elapsed:.2f}s exceeds budget {budget_s}s"
    except BaseException:
        print(f"[acceptance {num:02d}] {name}: FAIL")
        raise
    print(f"[acceptance {num:02d}] {name}: PASS ({elapsed:.2f}s)")


def test_01_replica_identity():
    def body():
        rng = np.random.default_rng(101)
        worst = 0.0
        for i in range(200):
            n = int(rng.integers(8, 513))
            r = 2 if i % 2 == 0 else 3
            x = rng.normal(size=n)
            fy = dft(bed_of_nails(x, r)).values
            fx = dft(x).values
            worst = max(worst, float(np.max(np.abs(fy - np.tile(fx, r)))))
        assert worst <= 1e-10, f"worst replica deviation {worst:.3e}"

    _run(1, "zero insertion replicates the spectrum", 5.0, body)


def test_02_ideal_upsampler_exactness():
    def body():
        rng = np.random.default_rng(102)
        for n, r in [(8, 2), (16, 2), (33, 2), (16, 3), (64, 2)]:
            x = rng.normal(size=n)
            y = fourier_pad_upsample(x, r)
            assert np.max(np.abs(y[::r] - x)) <= 1e-9
            f = np.fft.fftshift(np.fft.fft(y))
            kc = np.arange(r * n) - (r * n) // 2
            alias_band = (2 * np.abs(kc) > n)  # outside passband and Nyquist
            assert np.max(np.abs(f[alias_band]) ** 2) <= 1e-18
        # a sub-Nyquist cosine is reconstructed as the same cosine at the
        # higher rate
        for n, r in [(16, 2), (16, 3), (32, 2)]:
            for k in (1, 3, n // 2 - 1):
                for phase in (0.0, 0.7):
                    x = np.cos(2 * np.pi * k * np.arange(n) / n + phase)
                    y = fourier_pad_upsample(x, r)
                    m = np.arange(r * n)
                    expected = np.cos(2 * np.pi * k * m / (r * n) + phase)
                    assert np.max(np.abs(y - expected)) <= 1e-9

    _run(2, "Fourier zero-padding is exact and alias-free", 2.0, body)


def test_03_squared_sinc_response():
    def body():
        freqs, measured = empirical_filter_response("linear", 2, 128)
        # analytic prediction: sinc^2 with its rate-2 replicas folded in
        ell, analytic = filter_response("linear", 2, freqs.size,
                                        include_replicas=True)
        np.testing.assert_allclose(freqs, ell, atol=1e-12)
        assert np.max(np.abs(measured - analytic)) <= 1e-6
        # the closed-form fold really is the sinc^2 replica sum
        literal = truncated_sinc_square_replicas(ell[::4], 2, terms=200_000)
        assert np.max(np.abs(analytic[::4] - literal)) <= 1e-6
        # single-lobe anchor points of the squared sinc
        _, lobe = filter_response("linear", 2, 3)
        assert abs(lobe[0] - 1.0) <= 1e-12 and abs(lobe[2]) <= 1e-12

    _run(3, "linear interpolation measures a squared-sinc response", 1.0, body)


def test_04_checkerboard_condition():
    def body():
        for k in range(1, 17):
            for s in range(1, 9):
                spec = KernelSpec(weights=np.ones(k), stride=s)
                cmap = contribution_map(spec, 8 * s)
                assert cmap.uniform == (k % s == 0), (k, s)
                assert cmap.period == s
                np.testing.assert_array_equal(
                    cmap.counts, np.tile(cmap.counts[:s], 8))

    _run(4, "uniform contributions iff stride divides kernel size", 1.0, body)


def test_05_saturation_curve():
    def body():
        results = dict(residual_sweep(16, 2, [2, 3, 7, 11, 15, 32]))
        residuals = [results[k] for k in (2, 3, 7, 11, 15, 32)]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert results[32] <= 1e-8
        assert results[11] < 0.5 * results[2], (results[11], results[2])

    _run(5, "fit residual saturates with kernel size", 10.0, body)


def test_06_optimizer_agreement():
    def body():
        for k in (3, 7):
            problem = FitProblem(n=8, r=2, k=k)
            closed = fit_closed_form(problem)
            descended = fit_gradient_descent(problem)
            assert abs(closed.residual - descended.residual) <= 1e-6
        # the library's quadratic w.G.w - 2 b.w + c and its gradient
        # 2 (G w - b) against the dense objective and its central finite
        # differences, for both objectives, with and without a small branch
        n, r, k = 8, 2, 5
        rng = np.random.default_rng(106)
        signals = tuple(rng.normal(size=n) for _ in range(3))
        target = ideal_operator(n, r)
        for corpus in ((), signals):
            for small in (None, 3):
                objective = "corpus_lsq" if corpus else "operator_frobenius"
                problem = FitProblem(n=n, r=r, k=k, objective=objective,
                                     corpus=corpus, parallel_small=small)
                gram, rhs, const = _quadratic(problem, _offsets(problem),
                                              _ideal_response(n, r))
                basis = build_basis(n, r, k, small or 0)

                def dense(v):
                    err = sum(vj * bj for vj, bj in zip(v, basis)) - target
                    if corpus:
                        return float(sum(np.sum((err @ x) ** 2) for x in corpus))
                    return float(np.sum(err ** 2))

                w = rng.normal(size=len(basis))
                quadratic = float(w @ gram @ w - 2.0 * rhs @ w + const)
                assert abs(quadratic - dense(w)) <= 1e-12 * dense(w), (objective, small)
                analytic = 2.0 * (gram @ w - rhs)
                step = 1e-6
                for j, e in enumerate(np.eye(len(basis)) * step):
                    fd = (dense(w + e) - dense(w - e)) / (2 * step)
                    rel = abs(analytic[j] - fd) / max(abs(fd), 1e-12)
                    assert rel <= 1e-5, (
                        f"{objective}, small {small}, gradient coordinate {j}: "
                        f"relative error {rel:.2e}")

    _run(6, "gradient descent agrees with the closed form", 10.0, body)


def test_07_alias_suppression_ordering():
    def body():
        n, r = 32, 2
        kernel_11 = fit_closed_form(FitProblem(n=n, r=r, k=11)).kernel
        kernel_3 = fit_closed_form(FitProblem(n=n, r=r, k=3)).kernel
        rng = np.random.default_rng(107)
        slack = 1e-9
        for _ in range(50):
            x = random_bandlimited(n, n // 2 - 1, rng)
            ratio_ideal = alias_energy(fourier_pad_upsample(x, r), r).alias_ratio
            ratio_11 = alias_energy(transposed_conv(x, kernel_11), r).alias_ratio
            ratio_3 = alias_energy(transposed_conv(x, kernel_3), r).alias_ratio
            ratio_nails = alias_energy(bed_of_nails(x, r), r).alias_ratio
            assert ratio_ideal <= ratio_11 + slack
            assert ratio_11 <= ratio_3 + slack
            assert ratio_3 <= ratio_nails + slack

    _run(7, "larger fitted kernels suppress more aliasing", 10.0, body)


def test_08_parallel_branch_containment():
    def body():
        large_only = fit_closed_form(FitProblem(n=16, r=2, k=7))
        joint = lctc_fit(FitProblem(n=16, r=2, k=7, parallel_small=3))
        # both branches cover the large kernel's offsets, no more and no fewer
        assert abs(joint.residual - large_only.residual) <= 1e-12 * large_only.residual

    _run(8, "parallel small branch fits exactly as well as the large kernel", 5.0, body)


def test_09_fitted_kernel_shape():
    def body():
        result = fit_closed_form(FitProblem(n=32, r=2, k=11))
        profile = kernel_edge_profile(result.kernel)
        assert profile.decays_toward_edge
        weights = result.kernel.weights
        off_center = np.delete(weights, weights.size // 2)
        signs = np.sign(off_center[np.abs(off_center) > 1e-9])
        assert np.any(np.diff(signs) != 0), "expected crests and troughs"

    _run(9, "fitted kernel fades toward its border with sign changes", 5.0, body)


def test_10_round_trips_and_determinism(tmp_path):
    def body():
        rng = np.random.default_rng(110)
        channels = [rng.normal(size=(4, 4)) for _ in range(4)]
        restored = pixel_unshuffle(pixel_shuffle(channels, 2), 2)
        for original, back in zip(channels, restored):
            np.testing.assert_array_equal(original, back)
        x = rng.normal(size=37)
        assert np.max(np.abs(idft(dft(x)) - x)) <= 1e-10
        args = ["compare", "--seed", "17", "--n", "32", "--kernel-size", "5",
                "--ops", "bed_of_nails,linear,transposed_conv,fourier_pad"]
        assert cli_main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert cli_main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        for name in ("alias_metrics.csv", "spectrum_bed_of_nails.pgm",
                     "spectrum_linear.pgm", "spectrum_transposed_conv.pgm",
                     "spectrum_fourier_pad.pgm"):
            first = (tmp_path / "a" / name).read_bytes()
            second = (tmp_path / "b" / name).read_bytes()
            assert first == second, f"{name} differs between identical runs"

    _run(10, "round trips hold and artifacts are deterministic", 5.0, body)

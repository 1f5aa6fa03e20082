from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    INT64_MAX,
    MAX_SAMPLES,
    build_basis,
    dense_fit,
    dirichlet_interpolant,
    dirichlet_matrix,
    ideal_operator,
    operator_matrix,
    random_bandlimited,
)
from upspec import (
    DivergenceError,
    FitProblem,
    KernelSpec,
    alias_energy,
    bed_of_nails,
    fit_closed_form,
    fit_gradient_descent,
    kernel_edge_profile,
    kernel_fit,
    lctc_fit,
    residual_sweep,
    transposed_conv,
)
from upspec.generators import bandlimited_noise

# closed-form residuals for N=16, r=2, frozen from an independent
# least-squares solve of the stacked operator system (see test below)
SWEEP_N16_R2 = {
    2: 2.9252471164863,
    3: 1.45400872934891,
    7: 0.869326970654879,
    11: 0.564101768415124,
    15: 0.364166102067833,
}


def lstsq_residual(n, r, k):
    """Oracle: solve the same fit with numpy's generic lstsq machinery."""
    basis = build_basis(n, r, k)
    a = np.stack([b.ravel() for b in basis], axis=1)
    u = ideal_operator(n, r).ravel()
    w, _, _, _ = np.linalg.lstsq(a, u, rcond=None)
    return w, float(np.linalg.norm(a @ w - u))


class TestBuildBasis:
    def test_single_tap_is_zero_insertion(self):
        [b0] = build_basis(4, 2, 1)
        np.testing.assert_array_equal(b0, operator_matrix(lambda x: bed_of_nails(x, 2), 4))

    def test_sum_equals_all_ones_kernel(self):
        basis = build_basis(5, 2, 3)
        rng = np.random.default_rng(0)
        x = rng.normal(size=5)
        summed = sum(b @ x for b in basis)
        k = KernelSpec(weights=np.ones(3), stride=2)
        np.testing.assert_allclose(summed, transposed_conv(x, k), atol=1e-12)

    def test_each_matrix_has_n_ones(self):
        for n, r, k in [(4, 2, 3), (6, 3, 5), (8, 2, 16)]:
            for b in build_basis(n, r, k):
                assert np.count_nonzero(b) == n
                assert set(np.unique(b)) <= {0.0, 1.0}

    def test_weighted_sum_reproduces_operator(self):
        rng = np.random.default_rng(1)
        w = rng.normal(size=5)
        basis = build_basis(6, 2, 5)
        combined = sum(wj * bj for wj, bj in zip(w, basis))
        spec = KernelSpec(weights=w, stride=2)
        x = rng.normal(size=6)
        np.testing.assert_allclose(combined @ x, transposed_conv(x, spec), atol=1e-12)


class TestFitClosedForm:
    def test_full_support_is_exact(self):
        result = fit_closed_form(FitProblem(n=4, r=2, k=8))
        assert result.residual <= 1e-8
        fitted = operator_matrix(
            lambda x: transposed_conv(x, result.kernel), 4)
        np.testing.assert_allclose(fitted, dirichlet_matrix(4, 2), atol=1e-8)

    def test_single_tap_quadratic_minimum(self):
        # 1D quadratic by hand: w* = <B0, U> / <B0, B0>
        [b0] = build_basis(4, 2, 1)
        u = ideal_operator(4, 2)
        w_star = float(np.sum(b0 * u) / np.sum(b0 * b0))
        result = fit_closed_form(FitProblem(n=4, r=2, k=1))
        assert result.kernel.weights[0] == pytest.approx(w_star, abs=1e-12)
        assert result.residual == pytest.approx(
            float(np.linalg.norm(w_star * b0 - u)), abs=1e-12)
        assert result.residual > 0.1

    def test_fitted_taps_are_dirichlet_samples(self):
        # with K <= r*N the Gram matrix is N*I, so each fitted tap equals
        # the ideal periodic-sinc interpolant at its own offset
        from helpers import dirichlet_interpolant
        for n, r, k in [(16, 2, 5), (16, 2, 7), (32, 2, 11)]:
            weights = fit_closed_form(FitProblem(n=n, r=r, k=k)).kernel.weights
            expected = [dirichlet_interpolant(j - k // 2, n, r) for j in range(k)]
            np.testing.assert_allclose(weights, expected, atol=1e-9)

    def test_fitted_kernel_has_crests_and_troughs(self):
        # even offsets hit exact nulls of the periodic sinc, so the first
        # negative lobe appears once the support reaches offset 3 (K >= 7)
        for k in (7, 11):
            weights = fit_closed_form(FitProblem(n=16, r=2, k=k)).kernel.weights
            off_center = np.delete(weights, k // 2)
            assert np.min(off_center) < -1e-6, "expected negative side lobes"
            assert np.max(off_center) > 1e-6

    def test_matches_generic_lstsq(self):
        for n, r, k in [(8, 2, 3), (8, 2, 5), (6, 3, 4)]:
            result = fit_closed_form(FitProblem(n=n, r=r, k=k))
            _, oracle = lstsq_residual(n, r, k)
            assert result.residual == pytest.approx(oracle, abs=1e-9)

    def test_iterations_zero_for_closed_form(self):
        assert fit_closed_form(FitProblem(n=4, r=2, k=2)).iterations == 0


class TestFitGradientDescent:
    @pytest.mark.parametrize("n,k", [(8, 3), (8, 7), (16, 11), (64, 9)])
    def test_converges_to_closed_form(self, n, k):
        # k <= 2n, so G = n I and the step 1/(2n) lands on the solution at once
        problem = FitProblem(n=n, r=2, k=k)
        closed = fit_closed_form(problem)
        descended = fit_gradient_descent(problem)
        assert abs(descended.residual - closed.residual) <= 1e-6
        assert descended.iterations == 1 and descended.converged

    def test_analytic_gradient_matches_finite_differences(self):
        n, r, k = 8, 2, 5
        basis = build_basis(n, r, k)
        target = ideal_operator(n, r)

        def objective(w):
            fitted = sum(wj * bj for wj, bj in zip(w, basis))
            return float(np.sum((fitted - target) ** 2))

        rng = np.random.default_rng(2)
        w = rng.normal(size=k)
        fitted = sum(wj * bj for wj, bj in zip(w, basis))
        analytic = np.array([2.0 * np.sum((fitted - target) * bj) for bj in basis])
        h = 1e-6
        for j in range(k):
            e = np.zeros(k)
            e[j] = h
            fd = (objective(w + e) - objective(w - e)) / (2 * h)
            assert abs(analytic[j] - fd) <= 1e-5 * max(abs(fd), 1e-12)

    def test_objective_history_is_non_increasing(self):
        history = fit_gradient_descent(FitProblem(n=8, r=2, k=3)).objective_history
        assert len(history) >= 2
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))

    def test_divergence_names_the_learning_rate(self):
        with pytest.raises(DivergenceError, match="lr="):
            fit_gradient_descent(FitProblem(n=8, r=2, k=3), lr=10.0)

    def test_rejects_bad_learning_rate(self):
        with pytest.raises(ValueError):
            fit_gradient_descent(FitProblem(n=8, r=2, k=3), lr=-1.0)

    @pytest.mark.parametrize("lr", [float("nan"), 0.0, float("-inf")])
    def test_rejects_nan_and_non_positive_learning_rate(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            fit_gradient_descent(FitProblem(n=8, r=2, k=3), lr=lr)

    @pytest.mark.parametrize("lr", [1e300, float("inf")])
    def test_overflowing_step_is_divergence(self, lr):
        with pytest.raises(DivergenceError, match="lr=.* exceeds 1/lambda_max="):
            fit_gradient_descent(FitProblem(n=8, r=2, k=3), lr=lr)

    @pytest.mark.parametrize("objective", ["operator_frobenius", "corpus_lsq"])
    def test_divergence_is_decided_by_the_top_eigenvalue(self, objective):
        # each step scales the error along lambda by 1 - 2 lr lambda, so a
        # step just above 1/lambda_max diverges and one just below converges;
        # the first raises with no step taken
        corpus = (bandlimited_noise(8, 3, 0),) if objective == "corpus_lsq" else ()
        problem = FitProblem(n=8, r=2, k=7, objective=objective, corpus=corpus,
                             parallel_small=3)
        offsets = kernel_fit._offsets(problem)
        gram, _, _ = kernel_fit._quadratic(problem, offsets,
                                           kernel_fit._ideal_response(8, 2))
        top = float(np.linalg.eigvalsh(gram)[-1])
        with pytest.raises(DivergenceError, match="lr=.* exceeds 1/lambda_max="):
            fit_gradient_descent(problem, lr=1.001 / top, max_iter=0)
        result = fit_gradient_descent(problem, lr=0.999 / top)
        assert result.converged
        assert_matches_oracle(problem, result, 1e-9)

    def test_rejects_negative_iteration_cap(self):
        with pytest.raises(ValueError, match="iteration cap"):
            fit_gradient_descent(FitProblem(n=8, r=2, k=3), max_iter=-1)

    def test_one_eigvalsh_and_no_eigh(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counted(a):
            calls.append(a.shape)
            return eigvalsh(a)

        def forbidden(a):
            raise AssertionError("gradient descent must not call eigh")

        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        corpus = (bandlimited_noise(8, 3, 0),)
        result = fit_gradient_descent(FitProblem(n=8, r=2, k=7, objective="corpus_lsq",
                                                 corpus=corpus, parallel_small=3))
        assert calls == [(10, 10)]
        assert result.converged

    def test_default_step_converges_where_a_power_estimate_diverged(self):
        # twenty power iterations from the all-ones vector estimate
        # lambda_max of this Gram matrix 2.25x too low, and a step of
        # 1/(2 * estimate) diverges
        problem = FitProblem(n=8, r=2, k=4, objective="corpus_lsq",
                             corpus=(bandlimited_noise(8, 3, 0),))
        result = fit_gradient_descent(problem)
        assert result.converged
        closed = fit_closed_form(problem)
        np.testing.assert_allclose(result.kernel.weights, closed.kernel.weights,
                                   rtol=0, atol=1e-9)
        assert result.gram_rank == closed.gram_rank


class TestResidualSweep:
    def test_frozen_values_n16(self):
        results = dict(residual_sweep(16, 2, [2, 3, 7, 11, 15, 32]))
        for k, expected in SWEEP_N16_R2.items():
            assert results[k] == pytest.approx(expected, abs=1e-9)
        assert results[32] <= 1e-8

    def test_monotone_and_saturating(self):
        results = residual_sweep(16, 2, [2, 3, 7, 11, 15, 32])
        residuals = [res for _, res in results]
        assert all(b <= a + 1e-12 for a, b in zip(residuals, residuals[1:]))
        assert residuals[-1] <= 1e-8

    def test_full_support_single_entry(self):
        [(k, res)] = residual_sweep(4, 2, [8])
        assert k == 8 and res <= 1e-8

    def test_repeated_size_is_deterministic(self):
        (k1, r1), (k2, r2) = residual_sweep(8, 2, [3, 3])
        assert k1 == k2 == 3 and r1 == r2

    def test_unsorted_sizes_report_their_own_residuals(self):
        sizes = [11, 3, 32, 7, 3]
        results = residual_sweep(16, 2, sizes)
        assert [k for k, _ in results] == sizes
        for k, residual in results:
            assert residual == fit_closed_form(FitProblem(n=16, r=2, k=k)).residual

    def test_sizes_share_one_ideal_response(self, monkeypatch):
        # h is cached per (n, r) and read-only, so a sweep transforms the
        # impulse once whatever the number of sizes
        kernel_fit._ideal_response.cache_clear()
        h = kernel_fit._ideal_response(16, 2)
        assert not h.flags.writeable
        with pytest.raises(ValueError):
            h[0] = 0.0
        assert kernel_fit._ideal_response(16, 2) is h
        kernel_fit._ideal_response.cache_clear()
        lengths = []
        original = np.fft.rfft
        monkeypatch.setattr(np.fft, "rfft", lambda a, *rest, **kw: lengths.append(np.shape(a)[-1])
                            or original(a, *rest, **kw))
        sizes = [2, 3, 7, 11, 15, 32]
        assert [k for k, _ in residual_sweep(16, 2, sizes)] == sizes
        assert lengths.count(16) == 1


class TestKernelEdgeProfile:
    def test_triangle_decays(self):
        profile = kernel_edge_profile(KernelSpec(weights=[0.5, 1.0, 0.5], stride=2))
        assert profile.center_mass == pytest.approx(1.0)
        assert profile.edge_mass == pytest.approx(0.5)
        assert profile.decays_toward_edge

    def test_flat_kernel_does_not_decay(self):
        profile = kernel_edge_profile(KernelSpec(weights=np.ones(6), stride=2))
        assert profile.center_mass == profile.edge_mass
        assert not profile.decays_toward_edge

    def test_fitted_kernel_fades_toward_border(self):
        result = fit_closed_form(FitProblem(n=32, r=2, k=11))
        assert kernel_edge_profile(result.kernel).decays_toward_edge

    def test_reads_the_placed_kernel(self):
        # the LCTC fit splits the centre taps between the branches; the
        # profile is that of the one kernel they sum to
        lctc = lctc_fit(FitProblem(n=16, r=2, k=7, parallel_small=3)).kernel
        large_only = fit_closed_form(FitProblem(n=16, r=2, k=7)).kernel
        folded = KernelSpec(weights=lctc.effective_weights(), stride=2)
        assert kernel_edge_profile(lctc) == kernel_edge_profile(folded)
        assert kernel_edge_profile(lctc).center_mass == pytest.approx(
            kernel_edge_profile(large_only).center_mass, abs=1e-12)

    def test_requires_three_taps(self):
        with pytest.raises(ValueError):
            kernel_edge_profile(KernelSpec(weights=[1.0, 2.0], stride=2))


class TestLctcFit:
    def test_containment(self):
        large_only = fit_closed_form(FitProblem(n=16, r=2, k=7))
        joint = lctc_fit(FitProblem(n=16, r=2, k=7, parallel_small=3))
        assert joint.residual <= large_only.residual + 1e-12

    def test_rank_deficiency_reported(self):
        joint = lctc_fit(FitProblem(n=16, r=2, k=7, parallel_small=3))
        assert joint.gram_rank < 7 + 3

    def test_deterministic_minimum_norm_solution(self):
        a = lctc_fit(FitProblem(n=16, r=2, k=7, parallel_small=3))
        b = lctc_fit(FitProblem(n=16, r=2, k=7, parallel_small=3))
        np.testing.assert_array_equal(a.kernel.weights, b.kernel.weights)
        np.testing.assert_array_equal(a.kernel.parallel_small, b.kernel.parallel_small)

    def test_combined_operator_matches_residual(self):
        joint = lctc_fit(FitProblem(n=8, r=2, k=5, parallel_small=3))
        fitted = operator_matrix(lambda x: transposed_conv(x, joint.kernel), 8)
        direct = float(np.linalg.norm(fitted - ideal_operator(8, 2)))
        assert joint.residual == pytest.approx(direct, abs=1e-12)

    def test_requires_parallel_branch(self):
        with pytest.raises(ValueError):
            lctc_fit(FitProblem(n=8, r=2, k=7))


class TestFitInvariants:
    def test_gram_matrix_is_symmetric_psd(self):
        for n, r, k in [(8, 2, 5), (6, 3, 7), (8, 2, 16)]:
            basis = build_basis(n, r, k)
            stack = np.stack([b.ravel() for b in basis])
            gram = stack @ stack.T
            np.testing.assert_allclose(gram, gram.T, atol=1e-12)
            evals = np.linalg.eigvalsh(gram)
            assert evals.min() >= -1e-10 * max(evals.max(), 1.0)

    def test_basis_corpus_equals_frobenius_objective(self):
        n, r, k = 8, 2, 5
        frob = fit_closed_form(FitProblem(n=n, r=r, k=k))
        corpus = tuple(np.eye(n)[:, j] for j in range(n))
        lsq = fit_closed_form(FitProblem(n=n, r=r, k=k, objective="corpus_lsq",
                                         corpus=corpus))
        np.testing.assert_allclose(lsq.kernel.weights, frob.kernel.weights, atol=1e-10)

    def test_integral_factor_is_stored_as_int(self):
        expected = fit_closed_form(FitProblem(n=8, r=2, k=3))
        for r in (np.int64(2), 2.0):
            problem = FitProblem(n=8, r=r, k=3)
            assert type(problem.r) is int
            result = fit_closed_form(problem)
            np.testing.assert_array_equal(result.kernel.weights, expected.kernel.weights)
            assert result.residual == expected.residual

    def test_non_integral_factor_is_rejected(self):
        with pytest.raises(ValueError, match="factor must be an integer"):
            FitProblem(n=8, r=2.5, k=3)

    @pytest.mark.parametrize("field, name", [("n", "input length"), ("k", "kernel size"),
                                             ("parallel_small", "parallel kernel size")])
    def test_sizes_must_be_integral(self, field, name):
        # 7.5 is rejected before it reaches an index; 7.0 is stored as the int 7
        sizes = {"n": 16, "k": 7, "parallel_small": 3}
        top = {"n": INT64_MAX, "k": MAX_SAMPLES, "parallel_small": 7}[field]
        with pytest.raises(ValueError, match=f"^{name} must be an integer from 1 to {top}, "
                                             f"got 7.5$"):
            FitProblem(r=2, **{**sizes, field: 7.5})
        problem = FitProblem(r=2, **{**sizes, field: 7.0})
        assert getattr(problem, field) == 7 and type(getattr(problem, field)) is int
        np.testing.assert_array_equal(
            fit_closed_form(problem).kernel.effective_weights(),
            fit_closed_form(FitProblem(r=2, **{**sizes, field: 7})).kernel.effective_weights())

    def test_sweep_sizes_must_be_integral(self):
        with pytest.raises(ValueError, match="kernel size must be an integer"):
            residual_sweep(16, 2, [3, 7.5])
        assert residual_sweep(16, 2, [7.0]) == residual_sweep(16, 2, [7])
        assert type(residual_sweep(16, 2, [7.0])[0][0]) is int

    def test_corpus_objective_requires_corpus(self):
        with pytest.raises(ValueError):
            FitProblem(n=8, r=2, k=3, objective="corpus_lsq")

    def test_operator_objective_rejects_a_corpus(self):
        # the operator objective would ignore it, and its residual divides by 1
        with pytest.raises(ValueError, match="operator_frobenius objective takes no corpus"):
            FitProblem(n=8, r=2, k=3, corpus=(np.ones(8),))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_corpus_signals_must_be_finite(self, bad):
        corpus = (np.ones(8), np.array([0.0] * 7 + [bad]))
        with pytest.raises(ValueError, match="corpus signals must be finite"):
            FitProblem(n=8, r=2, k=3, objective="corpus_lsq", corpus=corpus)

    def test_corpus_signal_length_must_be_n(self):
        corpus = (np.ones(8), np.ones(5))
        with pytest.raises(ValueError, match=r"corpus .*\(8,\).*\(5,\)"):
            FitProblem(n=8, r=2, k=3, objective="corpus_lsq", corpus=corpus)

    def test_fitted_kernels_suppress_aliasing(self):
        rng = np.random.default_rng(3)
        for k in (5, 7, 11):
            kernel = fit_closed_form(FitProblem(n=32, r=2, k=k)).kernel
            for _ in range(5):
                x = random_bandlimited(32, 15, rng)
                fitted_ratio = alias_energy(transposed_conv(x, kernel), 2).alias_ratio
                nails_ratio = alias_energy(bed_of_nails(x, 2), 2).alias_ratio
                assert fitted_ratio < nails_ratio


# ---------------------------------------------------------------------------
# the structured fit against the dense normal-equation oracle

@st.composite
def fit_problems(draw, objective):
    """Small problems over odd and even n, r in {2, 3}, kernels up to
    about twice the full support r*n, and an optional small branch of up
    to k taps; corpus signals are full-band normal draws or
    ``bandlimited_noise``, whose Gram matrices are rank-deficient."""
    n = draw(st.integers(2, 9))
    r = draw(st.integers(2, 3))
    k = draw(st.integers(1, 2 * r * n + 3))
    small = draw(st.none() | st.integers(1, k))
    corpus = ()
    if objective == "corpus_lsq":
        seed = draw(st.integers(0, 2 ** 32 - 1))
        count = draw(st.integers(1, 3))
        if draw(st.booleans()):
            cutoff = draw(st.integers(0, (n - 1) // 2))
            corpus = tuple(bandlimited_noise(n, cutoff, seed + i) for i in range(count))
        else:
            rng = np.random.default_rng(seed)
            corpus = tuple(rng.normal(size=n) for _ in range(count))
    return FitProblem(n=n, r=r, k=k, objective=objective, corpus=corpus,
                      parallel_small=small)


def _weights(result):
    kernel = result.kernel
    if kernel.parallel_small is None:
        return kernel.weights
    return np.concatenate([kernel.weights, kernel.parallel_small])


def _scales(problem):
    """(|h|, scale of the residual): the residual is |h| times the RMS
    input norm (sqrt(n) for the operator norm, the corpus RMS otherwise)."""
    h = np.linalg.norm(ideal_operator(problem.n, problem.r)[:, 0])
    if problem.objective == "operator_frobenius":
        return h, h * np.sqrt(problem.n)
    return h, h * np.sqrt(np.mean([x @ x for x in problem.corpus]))


def assert_matches_oracle(problem, result, rel):
    weights, residual, rank = dense_fit(problem.n, problem.r, problem.k,
                                        problem.parallel_small, problem.corpus)
    h_norm, residual_scale = _scales(problem)
    np.testing.assert_allclose(_weights(result), weights, rtol=0, atol=rel * h_norm)
    assert abs(result.residual - residual) <= rel * residual_scale
    assert result.gram_rank == rank


OBJECTIVE_NAMES = ("operator_frobenius", "corpus_lsq")


class TestStructuredFitAgainstDenseOracle:
    @pytest.mark.parametrize("objective", OBJECTIVE_NAMES)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_closed_form(self, objective, data):
        problem = data.draw(fit_problems(objective))
        assert_matches_oracle(problem, fit_closed_form(problem), 1e-9)

    @pytest.mark.parametrize("objective", OBJECTIVE_NAMES)
    @settings(max_examples=30, deadline=None)
    @given(data=st.data())
    def test_lctc_fit(self, objective, data):
        problem = data.draw(fit_problems(objective).filter(
            lambda p: p.parallel_small is not None))
        assert_matches_oracle(problem, lctc_fit(problem), 1e-9)

    @pytest.mark.parametrize("objective", OBJECTIVE_NAMES)
    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_gradient_descent(self, objective, data):
        problem = data.draw(fit_problems(objective))
        result = fit_gradient_descent(problem)
        assert result.converged
        assert_matches_oracle(problem, result, 1e-9)

    def test_full_support_residual_is_exactly_zero(self):
        for n, r in [(16, 2), (9, 3), (7, 2)]:
            result = fit_closed_form(FitProblem(n=n, r=r, k=r * n))
            assert result.residual == 0.0
            assert result.gram_rank == r * n

    def test_aliased_taps_share_the_target_equally(self):
        # k = 2rN + 1: the anchor offset carries three taps, the rest two
        n, r = 4, 2
        k = 2 * r * n + 1
        weights = fit_closed_form(FitProblem(n=n, r=r, k=k)).kernel.weights
        h = ideal_operator(n, r)[:, 0]
        folded = np.bincount((np.arange(k) - k // 2) % (r * n), weights=weights)
        np.testing.assert_allclose(folded, h, atol=1e-15)
        assert weights[k // 2] == pytest.approx(h[0] / 3, abs=1e-15)
        assert weights[0] == pytest.approx(h[0] / 3, abs=1e-15)
        assert weights[1] == pytest.approx(h[1] / 2, abs=1e-15)


class TestCorpusEntersThroughItsPowerSpectrum:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_sign_flips_and_circular_shifts_keep_the_weights(self, data):
        # both leave every |X_s[q]|^2, so the weights c and the fit
        problem = data.draw(fit_problems("corpus_lsq"))
        size = len(problem.corpus)
        signs = data.draw(st.lists(st.sampled_from((-1.0, 1.0)), min_size=size, max_size=size))
        shifts = data.draw(st.lists(st.integers(0, problem.n - 1), min_size=size,
                                    max_size=size))
        weights = _weights(fit_closed_form(problem))
        flipped = replace(problem, corpus=[s * x for s, x in zip(signs, problem.corpus)])
        np.testing.assert_array_equal(_weights(fit_closed_form(flipped)), weights)
        shifted = replace(problem, corpus=[np.roll(x, t) for t, x in zip(shifts, problem.corpus)])
        h_norm, _ = _scales(problem)
        np.testing.assert_allclose(_weights(fit_closed_form(shifted)), weights,
                                   rtol=0, atol=1e-9 * h_norm)


class TestLargeProblems:
    def test_full_support_at_n4096(self):
        n, r = 4096, 2
        result = fit_closed_form(FitProblem(n=n, r=r, k=r * n))
        assert result.residual == 0.0
        assert result.gram_rank == r * n
        anchor = n  # floor(k/2): the tap at offset 0
        for offset in (0, 1, 3, 100):
            assert result.kernel.weights[anchor + offset] == pytest.approx(
                dirichlet_interpolant(offset, n, r), abs=1e-12)

    def test_residual_sweep_at_n4096(self):
        # ||U||_F^2 = r (n - 1/2) for even n splits into the fitted taps'
        # share n |w|^2 and the residual^2
        n, r = 4096, 2
        sizes = [31, 63, 255, 1023]
        results = residual_sweep(n, r, sizes)
        assert [k for k, _ in results] == sizes
        residuals = [res for _, res in results]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))
        for k, res in results:
            w = fit_closed_form(FitProblem(n=n, r=r, k=k)).kernel.weights
            assert res ** 2 + n * np.sum(w ** 2) == pytest.approx(r * (n - 0.5), rel=1e-12)


class TestGradientDescentConvergence:
    def test_iteration_cap_reports_not_converged(self):
        # a band-limited corpus leaves the Gram matrix ill-conditioned,
        # so descent is far from done after a few hundred steps
        corpus = tuple(bandlimited_noise(64, 20, s) for s in range(4))
        problem = FitProblem(n=64, r=2, k=31, objective="corpus_lsq", corpus=corpus)
        result = fit_gradient_descent(problem, max_iter=300)
        assert result.iterations == 300
        assert not result.converged
        assert result.residual > fit_closed_form(problem).residual

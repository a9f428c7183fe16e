"""GP surrogate: kernel, marginal likelihood, fitting, posterior, sampling.

The analytic likelihood gradient is checked against central finite
differences and against the likelihood's previous arithmetic; the posterior
is checked against closed-form small cases.
"""

import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import LinAlgWarning, cho_solve, cholesky, inv
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dpotrf, dpotrs

from gridcrit.surrogate import (
    THETA_SCALE_CAP,
    GPSurrogate,
    KernelParams,
    NumericalError,
    _chol_with_jitter,
    _inv_softplus,
    _log_marginal_likelihood_and_grad,
    _openblas_thread_setters,
    _single_thread_blas,
    adopter_relevance,
    fit_hyperparameters,
    gram_matrix,
    posterior,
    sample_joint,
)


def random_bits(rng, n, a):
    return rng.integers(0, 2, size=(n, a)).astype(float)


def kernel_eval(params: KernelParams, x1, x2) -> float:
    """Kernel value between two binary scenarios, one pair at a time."""
    a1 = np.asarray(x1, dtype=float)
    a2 = np.asarray(x2, dtype=float)
    if a1.shape != a2.shape or a1.shape != params.theta.shape:
        raise ValueError("scenario lengths do not match")
    mismatch = a1 != a2
    return float(params.eta * np.exp(-params.theta[mismatch].sum() / len(a1)))


def log_marginal_likelihood(params: KernelParams, x: np.ndarray, y: np.ndarray) -> float:
    """LML of standardized outputs under the given hyperparameters."""
    rho = _inv_softplus(params.theta)
    phi = np.concatenate([[np.log(params.eta)], rho, [np.log(params.noise)]])
    neg, _ = _log_marginal_likelihood_and_grad(phi, x, y)
    return -neg


def previous_objective(phi, x, y):
    """The likelihood's previous arithmetic: the Gram matrix from x @ theta,
    the full inverse from dpotrs(L, I) and the gradient from g = alpha alpha' -
    K_y^-1 and h = g o K over the whole matrix."""
    n, a = x.shape
    log_eta, rho, log_noise = phi[0], phi[1:-1], phi[-1]
    theta = np.logaddexp(0.0, rho)
    eta = np.exp(log_eta)
    noise = np.exp(log_noise)
    xt = x @ theta
    k = eta * np.exp(-(xt[:, None] + xt[None, :] - 2.0 * (x * theta) @ x.T) / a)
    ky = k.copy()
    ky.flat[:: n + 1] += noise
    low, info = dpotrf(ky, lower=1)
    if info > 0:
        return 1e12, np.zeros_like(phi)
    alpha, _ = dpotrs(low, y, lower=1)
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.log(np.diag(low)).sum())
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    ky_inv, _ = dpotrs(low, np.eye(n, order="F"), lower=1, overwrite_b=1)
    g = np.outer(alpha, alpha) - ky_inv
    h = g * k
    grad = np.empty_like(phi)
    grad[0] = 0.5 * h.sum()
    row = h.sum(axis=1)
    quad = np.sum(x * (h @ x), axis=0)
    t_j = 2.0 * (x.T @ row) - 2.0 * quad
    sig = 1.0 / (1.0 + np.exp(-rho))
    grad[1:-1] = 0.5 * (-1.0 / a) * t_j * sig
    grad[-1] = 0.5 * noise * np.trace(g)
    return -lml, -grad


def reference_objective(phi, x, y):
    """The likelihood through a validated KernelParams and scipy's checked
    cholesky, cho_solve and inv: the same arithmetic as the LAPACK-level
    objective. G = alpha alpha' - K_y^-1 is kept on its lower triangle, and
    alpha alpha' is subtracted by the same BLAS rank-1 update."""
    n, a = x.shape
    log_eta, rho, log_noise = phi[0], phi[1:-1], phi[-1]
    params = KernelParams(
        eta=np.exp(log_eta), theta=np.logaddexp(0.0, rho), noise=np.exp(log_noise)
    )
    eta, theta, noise = params.eta, params.theta, params.noise
    u, v = np.hstack([x, 1.0 - x]), np.hstack([1.0 - x, x])
    weights = np.concatenate([theta, theta]) * (-1.0 / a)
    e = np.exp(((v * weights) @ u.T).T)  # Fortran order, as LAPACK keeps it
    ky = np.asfortranarray(eta * e + noise * np.eye(n))
    try:
        low = cholesky(ky, lower=True)
    except np.linalg.LinAlgError:
        return 1e12, np.zeros_like(phi)
    alpha = cho_solve((low, True), y)
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.log(np.diag(low)).sum())
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", LinAlgWarning)
        ky_inv = np.asfortranarray(np.tril(inv(ky, assume_a="pos", lower=True)))
    trace_g = float(alpha @ alpha) - float(np.trace(ky_inv))
    neg_g = dsyr(-1.0, alpha, a=ky_inv, lower=1) * e
    grad = np.empty_like(phi)
    grad[0] = -eta * (float(neg_g.sum()) + 0.5 * trace_g)
    t = np.sum(u * (neg_g @ v), axis=0)
    grad[1:-1] = (eta / a) * (t[:a] + t[a:]) / (1.0 + np.exp(-rho))
    grad[-1] = 0.5 * noise * trace_g
    return -lml, -grad


def roundoff_scale(phi, x, y):
    """Magnitude of the sums the likelihood and its gradient cancel in:
    (n eta + noise, a bound on ||K_y||_1) x (alpha'alpha + tr K_y^-1) for
    the value, and eta (|alpha|_1^2 + sum|K_y^-1|) + noise (alpha'alpha +
    tr K_y^-1) for every gradient entry. In every problem tried, roundoff in
    either was a small multiple of eps times these, whatever the
    conditioning of K_y."""
    n = len(y)
    eta, noise = np.exp(phi[0]), np.exp(phi[-1])
    params = KernelParams(eta=eta, theta=np.logaddexp(0.0, phi[1:-1]), noise=noise)
    ky_inv = np.linalg.inv(gram_matrix(params, x) + noise * np.eye(n))
    alpha = ky_inv @ y
    quad = float(alpha @ alpha) + float(np.trace(ky_inv))
    value = (n * eta + noise) * quad
    grad = eta * (np.abs(alpha).sum() ** 2 + np.abs(ky_inv).sum()) + noise * quad
    return value, grad


@st.composite
def likelihood_problems(draw):
    """Training bits, outputs and a phi inside the bounds the fit searches."""
    n = draw(st.integers(2, 40))
    a = draw(st.integers(1, 12))
    x = draw(hnp.arrays(float, (n, a), elements=st.sampled_from([0.0, 1.0])))
    y = draw(hnp.arrays(float, n, elements=st.floats(-3.0, 3.0)))
    rho_cap = float(_inv_softplus(THETA_SCALE_CAP * a))
    phi = np.array(
        [draw(st.floats(np.log(1e-4), np.log(1e4)))]
        + [draw(st.floats(-20.0, rho_cap)) for _ in range(a)]
        + [draw(st.floats(np.log(1e-7), np.log(10.0)))]
    )
    return phi, x, y


def blas_thread_counts() -> list[int]:
    """Thread count of each loaded OpenBLAS, read by setting it and back."""
    counts = []
    for set_local in _openblas_thread_setters():
        count = set_local(1)
        set_local(count)
        counts.append(count)
    return counts


needs_openblas = pytest.mark.skipif(
    not _openblas_thread_setters(),
    reason="no loaded OpenBLAS exports openblas_set_num_threads_local",
)


class TestKernel:
    def test_identical_inputs_give_eta(self):
        params = KernelParams(eta=2.5, theta=np.array([1.0, 3.0]), noise=0.1)
        assert kernel_eval(params, (0, 1), (0, 1)) == pytest.approx(2.5)

    def test_single_mismatch(self):
        params = KernelParams(eta=1.0, theta=np.array([2.0, 4.0]), noise=0.1)
        # Mismatch only in bit 1: exp(-4/2).
        assert kernel_eval(params, (0, 0), (0, 1)) == pytest.approx(np.exp(-2.0))

    def test_length_mismatch(self):
        params = KernelParams(eta=1.0, theta=np.array([1.0, 1.0]), noise=0.1)
        with pytest.raises(ValueError):
            kernel_eval(params, (0, 1, 0), (0, 1))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            KernelParams(eta=0.0, theta=np.array([1.0]), noise=0.1)
        with pytest.raises(ValueError):
            KernelParams(eta=1.0, theta=np.array([-1.0]), noise=0.1)
        with pytest.raises(ValueError):
            KernelParams(eta=1.0, theta=np.array([1.0]), noise=0.0)

    def test_gram_matches_pairwise_eval(self):
        rng = np.random.default_rng(0)
        x = random_bits(rng, 8, 5)
        params = KernelParams(eta=1.7, theta=rng.uniform(0, 5, 5), noise=0.1)
        k = gram_matrix(params, x)
        for i in range(8):
            for j in range(8):
                assert k[i, j] == pytest.approx(kernel_eval(params, x[i], x[j]))

    def test_gram_is_psd(self):
        # The Hamming/ARD kernel must yield a PSD Gram matrix for any
        # binary input set and non-negative weights.
        rng = np.random.default_rng(42)
        for _ in range(100):
            n = int(rng.integers(2, 25))
            a = int(rng.integers(1, 12))
            x = random_bits(rng, n, a)
            params = KernelParams(
                eta=float(rng.uniform(0.1, 5.0)),
                theta=rng.uniform(0.0, 10.0, a),
                noise=0.1,
            )
            eigs = np.linalg.eigvalsh(gram_matrix(params, x))
            assert eigs.min() >= -1e-8


class TestLikelihoodGradient:
    def test_analytic_matches_finite_difference(self):
        rng = np.random.default_rng(3)
        for trial in range(5):
            n, a = 12, 4
            x = random_bits(rng, n, a)
            y = rng.normal(size=n)
            phi = np.concatenate(
                [[rng.normal()], rng.normal(size=a), [rng.uniform(-4, -1)]]
            )
            _, grad = _log_marginal_likelihood_and_grad(phi, x, y)
            eps = 1e-6
            for k in range(len(phi)):
                up, dn = phi.copy(), phi.copy()
                up[k] += eps
                dn[k] -= eps
                f_up, _ = _log_marginal_likelihood_and_grad(up, x, y)
                f_dn, _ = _log_marginal_likelihood_and_grad(dn, x, y)
                fd = (f_up - f_dn) / (2 * eps)
                denom = max(abs(fd), abs(grad[k]), 1e-8)
                assert abs(grad[k] - fd) / denom <= 1e-4

    @given(likelihood_problems())
    @settings(max_examples=200, deadline=None)
    def test_equals_scipy_reference(self, problem):
        phi, x, y = problem
        value, grad = _log_marginal_likelihood_and_grad(phi, x, y)
        ref_value, ref_grad = reference_objective(phi, x, y)
        assert value == ref_value
        np.testing.assert_array_equal(grad, ref_grad)

    @given(likelihood_problems())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_previous_arithmetic(self, problem):
        # Same function, other roundoff: within 1e-10 of the magnitude of the
        # sums it cancels in, where both factorise. Observed: at most 9e-13
        # over 9000 random problems with condition numbers up to 4e12.
        phi, x, y = problem
        value, grad = _log_marginal_likelihood_and_grad(phi, x, y)
        old_value, old_grad = previous_objective(phi, x, y)
        assume(value != 1e12 and old_value != 1e12)
        value_scale, grad_scale = roundoff_scale(phi, x, y)
        assert abs(value - old_value) <= 1e-10 * value_scale
        np.testing.assert_array_less(np.abs(grad - old_grad), 1e-10 * grad_scale)

    def test_not_positive_definite_returns_penalty(self):
        # Repeated rows, near-zero weights and a noise far below the fit's
        # lower bound leave K + noise*I numerically singular.
        rng = np.random.default_rng(6)
        x = np.repeat(random_bits(rng, 10, 5), 3, axis=0)
        y = rng.normal(size=30)
        phi = np.concatenate([[np.log(1e4)], np.full(5, -20.0), [-60.0]])
        value, grad = _log_marginal_likelihood_and_grad(phi, x, y)
        ref_value, ref_grad = reference_objective(phi, x, y)
        assert value == ref_value == 1e12
        np.testing.assert_array_equal(grad, ref_grad)
        np.testing.assert_array_equal(grad, np.zeros_like(phi))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_covariance_raises(self, bad):
        rng = np.random.default_rng(7)
        x = random_bits(rng, 6, 3)
        phi = np.array([bad, 0.0, 0.0, 0.0, -3.0])
        with pytest.raises(ValueError), np.errstate(invalid="ignore"):
            _log_marginal_likelihood_and_grad(phi, x, rng.normal(size=6))

    def test_lml_wrapper_consistent(self):
        rng = np.random.default_rng(5)
        x = random_bits(rng, 10, 3)
        y = rng.normal(size=10)
        params = KernelParams(eta=1.3, theta=np.array([0.5, 2.0, 1.0]), noise=0.05)
        val = log_marginal_likelihood(params, x, y)
        assert np.isfinite(val)
        worse = KernelParams(eta=1e3, theta=params.theta, noise=1e-6)
        assert log_marginal_likelihood(worse, x, y) < val


class TestFit:
    def test_constant_outputs_short_circuit(self):
        x = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        init = KernelParams(eta=1.0, theta=np.array([1.0, 1.0]), noise=0.01)
        fitted = fit_hyperparameters(x, np.full(3, 2.7), init)
        assert fitted.eta > 0
        np.testing.assert_array_equal(fitted.theta, init.theta)

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = random_bits(rng, 20, 5)
        y = rng.normal(size=20)
        init = KernelParams(eta=1.0, theta=np.ones(5), noise=0.01)
        a = fit_hyperparameters(x, y, init, seed=4)
        b = fit_hyperparameters(x, y, init, seed=4)
        assert a.eta == b.eta and a.noise == b.noise
        np.testing.assert_array_equal(a.theta, b.theta)

    def test_relevant_bit_gets_larger_weight(self):
        # Outputs depend only on bit 0; its ARD weight should dominate.
        rng = np.random.default_rng(13)
        x = random_bits(rng, 40, 4)
        y = 3.0 * x[:, 0] + 0.01 * rng.normal(size=40)
        init = KernelParams(eta=1.0, theta=np.ones(4), noise=0.01)
        fitted = fit_hyperparameters(x, y, init, seed=0)
        assert fitted.theta[0] > 3.0 * max(fitted.theta[1:])

    def test_theta_respects_cap(self):
        rng = np.random.default_rng(21)
        x = random_bits(rng, 30, 3)
        y = 100.0 * x[:, 0]
        init = KernelParams(eta=1.0, theta=np.ones(3), noise=0.01)
        fitted = fit_hyperparameters(x, y, init, seed=0)
        assert np.all(fitted.theta <= 1e3 * 3 + 1e-6)

    def test_too_few_points(self):
        init = KernelParams(eta=1.0, theta=np.ones(2), noise=0.01)
        with pytest.raises(ValueError):
            fit_hyperparameters(np.array([[0.0, 1.0]]), np.array([1.0]), init)

    def test_fit_beats_init_likelihood(self):
        rng = np.random.default_rng(30)
        x = random_bits(rng, 25, 4)
        y = x @ np.array([2.0, -1.0, 0.5, 0.0]) + 0.05 * rng.normal(size=25)
        y_std = (y - y.mean()) / y.std()
        init = KernelParams(eta=1.0, theta=np.ones(4), noise=0.01)
        fitted = fit_hyperparameters(x, y, init, seed=2)
        assert log_marginal_likelihood(fitted, x, y_std) >= log_marginal_likelihood(
            init, x, y_std
        ) - 1e-8


class TestSingleThreadBlas:
    @needs_openblas
    def test_cap_reads_one_inside_and_restores_on_exit(self):
        setters = _openblas_thread_setters()
        outer = [set_local(2) for set_local in setters]
        try:
            with _single_thread_blas():
                assert blas_thread_counts() == [1] * len(setters)
            assert blas_thread_counts() == [2] * len(setters)
            with pytest.raises(RuntimeError, match="body failed"):
                with _single_thread_blas():
                    assert blas_thread_counts() == [1] * len(setters)
                    raise RuntimeError("body failed")
            assert blas_thread_counts() == [2] * len(setters)
        finally:
            for set_local, count in zip(setters, outer):
                set_local(count)

    def test_fit_is_unchanged_by_the_cap(self):
        # 80 points and 12 bits, the size of a long search on the benchmark
        # feeders: below OpenBLAS's threading thresholds for every product
        # and solve of the likelihood, so the thread count cannot move a bit.
        rng = np.random.default_rng(12)
        x = random_bits(rng, 80, 12)
        y = x @ rng.normal(size=12) + 0.1 * rng.normal(size=80)
        init = KernelParams(eta=1.0, theta=np.ones(12), noise=1e-4)
        free = fit_hyperparameters(x, y, init, num_restarts=2, seed=3)
        with _single_thread_blas():
            capped = fit_hyperparameters(x, y, init, num_restarts=2, seed=3)
        assert capped.eta == free.eta and capped.noise == free.noise
        np.testing.assert_array_equal(capped.theta, free.theta)

    def test_posterior_under_the_cap_agrees_to_roundoff(self):
        # A 250-candidate covariance is large enough for OpenBLAS to split
        # its products across threads, which sums in another order: the
        # last bits may differ, nothing more.
        rng = np.random.default_rng(14)
        x = random_bits(rng, 80, 12)
        params = KernelParams(eta=1.3, theta=rng.uniform(0.0, 5.0, 12), noise=1e-4)
        gp = GPSurrogate.build(x, rng.normal(size=80), params)
        cands = random_bits(rng, 250, 12)
        free = posterior(gp, cands)
        with _single_thread_blas():
            capped = posterior(gp, cands)
        scale = params.eta * gp.output_scale**2
        np.testing.assert_allclose(capped.mean, free.mean, rtol=0, atol=1e-10 * scale)
        np.testing.assert_allclose(
            capped.covariance, free.covariance, rtol=0, atol=1e-10 * scale
        )


class TestPosterior:
    def test_interpolates_training_data_at_low_noise(self):
        rng = np.random.default_rng(1)
        x = random_bits(rng, 12, 5)
        x = np.unique(x, axis=0)
        y = rng.normal(size=len(x)) * 0.1 + 0.05
        params = KernelParams(eta=1.0, theta=np.full(5, 2.0), noise=1e-6)
        gp = GPSurrogate.build(x, y, params)
        post = posterior(gp, x)
        np.testing.assert_allclose(post.mean, y, atol=1e-3)
        assert np.all(np.diag(post.covariance) < 1e-3)

    def test_reverts_to_prior_far_from_data(self):
        # A candidate differing from every training point in every bit with
        # large theta has kernel ~ 0 to the data: mean -> output mean,
        # variance -> eta on the standardized scale.
        x = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        y = np.array([1.0, 3.0])
        params = KernelParams(eta=2.0, theta=np.full(3, 50.0), noise=1e-4)
        gp = GPSurrogate.build(x, y, params)
        post = posterior(gp, [np.array([1.0, 1.0, 1.0])])
        assert post.mean[0] == pytest.approx(2.0, abs=1e-6)  # mean of y
        assert post.covariance[0, 0] == pytest.approx(
            params.eta * gp.output_scale**2, rel=1e-4
        )

    def test_two_point_closed_form(self):
        # One training point, one candidate: mean = k/(k_xx+noise) * y_std,
        # var = eta - k^2/(k_xx+noise), all on the standardized scale.
        x = np.array([[0.0, 1.0], [1.0, 1.0]])
        y = np.array([0.0, 2.0])  # standardizes to [-1, 1]
        eta, noise = 1.5, 0.01
        theta = np.array([1.0, 2.0])
        params = KernelParams(eta=eta, theta=theta, noise=noise)
        gp = GPSurrogate.build(x, y, params)
        cand = np.array([[0.0, 0.0]])
        post = posterior(gp, cand)
        k_c = np.array([kernel_eval(params, cand[0], xi) for xi in x])
        ky = gram_matrix(params, x) + noise * np.eye(2)
        y_std = (y - 1.0) / 1.0
        mean_std = k_c @ np.linalg.solve(ky, y_std)
        var_std = eta - k_c @ np.linalg.solve(ky, k_c)
        assert post.mean[0] == pytest.approx(1.0 + mean_std, rel=1e-10)
        assert post.covariance[0, 0] == pytest.approx(var_std, rel=1e-6)

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(17)
        x = random_bits(rng, 15, 6)
        y = rng.normal(size=15)
        params = KernelParams(eta=1.2, theta=rng.uniform(0, 4, 6), noise=0.05)
        gp = GPSurrogate.build(x, y, params)
        cands = random_bits(rng, 20, 6)
        post = posterior(gp, cands)
        assert np.all(
            np.diag(post.covariance) <= params.eta * gp.output_scale**2 + 1e-8
        )

    def test_more_data_never_increases_variance(self):
        # With frozen hyperparameters, conditioning on a superset of the data
        # cannot raise the predictive variance anywhere.
        rng = np.random.default_rng(23)
        x = random_bits(rng, 20, 5)
        x = np.unique(x, axis=0)
        y = rng.normal(size=len(x))
        params = KernelParams(eta=1.0, theta=rng.uniform(0.5, 3.0, 5), noise=0.05)
        small = GPSurrogate.build(x[:6], y[:6], params)
        big = GPSurrogate.build(x, y, params)
        cands = random_bits(rng, 15, 5)
        var_small = np.diag(posterior(small, cands).covariance) / small.output_scale**2
        var_big = np.diag(posterior(big, cands).covariance) / big.output_scale**2
        assert np.all(var_big <= var_small + 1e-7)

    def test_empty_candidates_rejected(self):
        x = np.array([[0.0], [1.0]])
        params = KernelParams(eta=1.0, theta=np.array([1.0]), noise=0.01)
        gp = GPSurrogate.build(x, np.array([0.0, 1.0]), params)
        with pytest.raises(ValueError):
            posterior(gp, [])


class TestSampling:
    def test_zero_covariance_returns_mean(self):
        from gridcrit.surrogate import JointPosterior

        post = JointPosterior(
            mean=np.array([1.0, -2.0]),
            covariance=np.zeros((2, 2)),
            chol=np.zeros((2, 2)),
        )
        samples = sample_joint(post, 10, seed=0)
        np.testing.assert_array_equal(samples, np.tile(post.mean, (10, 1)))

    def test_deterministic_per_seed(self):
        from gridcrit.surrogate import JointPosterior

        chol = np.array([[1.0, 0.0], [0.5, 0.8]])
        post = JointPosterior(
            mean=np.zeros(2), covariance=chol @ chol.T, chol=chol
        )
        a = sample_joint(post, 5, seed=9)
        b = sample_joint(post, 5, seed=9)
        c = sample_joint(post, 5, seed=10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sample_moments_match_posterior(self):
        from gridcrit.surrogate import JointPosterior

        chol = np.array([[0.5, 0.0], [0.3, 0.4]])
        cov = chol @ chol.T
        post = JointPosterior(mean=np.array([2.0, -1.0]), covariance=cov, chol=chol)
        n = 100_000
        samples = sample_joint(post, n, seed=77)
        se = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(samples.mean(axis=0) - post.mean) < 4 * se)
        emp_cov = np.cov(samples.T)
        assert np.all(np.abs(emp_cov - cov) < 0.02)


class TestAdopterRelevance:
    def test_zero_weight_zero_relevance(self):
        params = KernelParams(eta=1.0, theta=np.array([0.0, 2.0]), noise=0.1)
        rel = adopter_relevance(params)
        assert rel[0] == 0.0
        assert rel[1] == pytest.approx(1.0 - np.exp(-1.0))

    def test_large_weight_saturates(self):
        params = KernelParams(eta=1.0, theta=np.array([1e6, 0.0]), noise=0.1)
        assert adopter_relevance(params)[0] == pytest.approx(1.0)

    def test_monotone_in_theta(self):
        params = KernelParams(
            eta=1.0, theta=np.array([0.1, 1.0, 5.0, 20.0]), noise=0.1
        )
        rel = adopter_relevance(params)
        assert np.all(np.diff(rel) > 0)
        assert np.all((rel >= 0) & (rel < 1))


class TestNumericalSafety:
    def test_jitter_repairs_marginally_indefinite(self):
        mat = np.eye(3)
        mat[0, 0] = -1e-10  # tiny negative eigenvalue
        low, jitter = _chol_with_jitter(mat)
        assert jitter > 0
        np.testing.assert_array_equal(
            low, cholesky(mat + jitter * np.eye(3), lower=True)
        )
        np.testing.assert_array_equal(mat.diagonal(), [-1e-10, 1.0, 1.0])

    def test_unrepairable_matrix_raises(self):
        mat = -np.eye(3)
        with pytest.raises(NumericalError):
            _chol_with_jitter(mat)

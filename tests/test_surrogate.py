"""GP surrogate: kernel, marginal likelihood, fitting, posterior, sampling.

The analytic likelihood gradient is checked against central finite
differences and against the likelihood's previous arithmetic; the L-BFGS-B
loop against scipy's ``minimize``; the posterior against closed-form small
cases and against its previous arithmetic on the x·theta Gram matrix.
"""

import importlib.machinery
import logging
import sys
import warnings
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg import LinAlgWarning, cho_solve, cholesky, inv, solve_triangular
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dpotrf, dpotrs
from scipy.optimize import minimize
from scipy.optimize._lbfgsb import setulb

from conftest import run_fresh_python
from gridcrit import surrogate
from gridcrit.surrogate import (
    JITTER_MAX,
    JITTER_START,
    NUM_DESCENTS,
    THETA_SCALE_CAP,
    GPSurrogate,
    JointPosterior,
    KernelParams,
    NumericalError,
    _chol_with_jitter,
    _inv_softplus,
    _lbfgsb,
    _log_marginal_likelihood_and_grad,
    _openblas_thread_setters,
    _single_thread_blas,
    adopter_relevance,
    fit_hyperparameters,
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


def gram_matrix(params: KernelParams, x1: np.ndarray, x2: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix between two scenario sets (rows are scenarios), in the
    x·theta form: the weighted mismatch of binary coordinates is u + v - 2uv."""
    x1 = np.asarray(x1, dtype=float)
    x2 = x1 if x2 is None else np.asarray(x2, dtype=float)
    a = x1.shape[1]
    t = params.theta
    w = (x1 @ t)[:, None] + (x2 @ t)[None, :] - 2.0 * (x1 * t) @ x2.T
    return params.eta * np.exp(-w / a)


def reference_chol_with_jitter(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """The previous jitter ladder: a copy of the whole matrix, checked finite,
    factored with jitter 0, then JITTER_START, ten times more each time up to
    JITTER_MAX; returns the factor and its jitter."""
    if np.isfinite(mat).all():
        work, diag = mat.copy(), mat.diagonal()
        jitter = 0.0
        while jitter <= JITTER_MAX:
            low, info = dpotrf(work, lower=1)
            if info == 0:
                return low, jitter
            jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
            np.fill_diagonal(work, diag + jitter)
    raise NumericalError(f"covariance not factorizable after jitter {JITTER_MAX:g}")


def covariance(post) -> np.ndarray:
    """A posterior's covariance, from the lower factor it keeps."""
    return post.chol @ post.chol.T


def reference_posterior(params: KernelParams, x, y, candidates):
    """The previous ``GPSurrogate.build`` and ``posterior`` arithmetic: Gram
    matrices from :func:`gram_matrix`, the full candidate covariance
    symmetrized before its factor. Returns the mean, the covariance (without
    jitter), the factor and its jitter, with the magnitudes of the sums the
    mean and the covariance cancel in, all on the original scale. The x·theta
    form's exponents cancel in sums up to sum(theta) / A, hence the factor
    ``1 + sum(theta) / A`` in both magnitudes."""
    y = np.asarray(y, dtype=float)
    mean, scale = float(np.mean(y)), float(np.std(y))
    if scale < 1e-12:
        scale = 1.0
    low, _ = reference_chol_with_jitter(gram_matrix(params, x) + params.noise * np.eye(len(x)))
    alpha = cho_solve((low, True), (y - mean) / scale)
    k_star = gram_matrix(params, candidates, x)
    v = solve_triangular(low, k_star.T, lower=True)
    cov = gram_matrix(params, candidates) - v.T @ v
    cov = 0.5 * (cov + cov.T)
    chol, jitter = reference_chol_with_jitter(cov)
    exponent = 1.0 + float(params.theta.sum()) / x.shape[1]
    mean_scale = scale * params.eta * float(np.abs(alpha).sum()) * exponent
    cov_scale = scale**2 * (params.eta + float((v**2).sum(axis=0).max())) * exponent
    return SimpleNamespace(
        mean=mean + scale * (k_star @ alpha), covariance=scale**2 * cov, chol=scale * chol,
        jitter=jitter, mean_scale=mean_scale, cov_scale=cov_scale,
    )


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


def fit_bounds(a: int) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper bounds of the fit's (log eta, rho, log noise)."""
    rho_cap = float(_inv_softplus(THETA_SCALE_CAP * a))
    return (
        np.array([np.log(1e-4)] + [-20.0] * a + [np.log(1e-7)]),
        np.array([np.log(1e4)] + [rho_cap] * a + [np.log(10.0)]),
    )


@st.composite
def descent_problems(draw):
    """A likelihood problem, its start moved onto a bound in some coordinates
    or none, and a radius around the start beyond which (in the max norm) the
    likelihood returns its not-positive-definite penalty (1e12 and a zero
    gradient), or no radius."""
    phi, x, y = draw(likelihood_problems())
    lower, upper = fit_bounds(x.shape[1])
    if draw(st.booleans()):
        side = draw(hnp.arrays(np.int8, len(phi), elements=st.sampled_from([-1, 0, 0, 0, 1])))
        phi = np.where(side < 0, lower, np.where(side > 0, upper, phi))
    radius = draw(st.none() | st.floats(0.01, 3.0))
    return phi, x, y, radius


def traced_fit(x, y, init, seed=0, likelihood=_log_marginal_likelihood_and_grad):
    """Fit through pass-through mocks on the likelihood and the L-BFGS-B loop.

    Returns the fit, the (phi, negative LML) of each likelihood call made
    before the first descent (the scored starts, in order) and the (x0,
    result) of each descent, in order. A result has ``_lbfgsb``'s ``x``,
    ``fun`` and ``calls`` and the phi of each likelihood call made during
    the descent (``evaluated``).
    """
    real_lbfgsb = surrogate._lbfgsb
    calls, descents = [], []

    def score(phi, *args):
        value = likelihood(phi, *args)
        calls.append((phi.copy(), value[0]))
        return value

    def descend(fun, x0, *args):
        num_scored, start = len(calls), np.array(x0, copy=True)
        phi, value, num_calls = real_lbfgsb(fun, x0, *args)
        evaluated = [phi_k for phi_k, _ in calls[num_scored:]]
        res = SimpleNamespace(x=phi, fun=value, calls=num_calls, evaluated=evaluated)
        descents.append((num_scored, start, res))
        return phi, value, num_calls

    with mock.patch.object(surrogate, "_log_marginal_likelihood_and_grad", side_effect=score), \
            mock.patch.object(surrogate, "_lbfgsb", side_effect=descend):
        fitted = fit_hyperparameters(x, y, init, seed=seed)
    return fitted, calls[: descents[0][0]], [(x0, res) for _, x0, res in descents]


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
        assert fitted.eta == 1e-6
        assert fitted.noise == init.noise
        np.testing.assert_array_equal(fitted.theta, init.theta)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_default_start(self, seed):
        # Without an init the fit starts from eta 1, every theta 1, noise 1e-4.
        rng = np.random.default_rng(12)
        x = random_bits(rng, 15, 4)
        y = x @ np.array([1.0, -0.5, 0.0, 2.0]) + 0.1 * rng.normal(size=15)
        default = fit_hyperparameters(x, y, seed=seed)
        explicit = fit_hyperparameters(x, y, KernelParams(1.0, np.ones(4), 1e-4), seed=seed)
        assert (default.eta, default.noise) == (explicit.eta, explicit.noise)
        np.testing.assert_array_equal(default.theta, explicit.theta)

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

    @staticmethod
    def linear_problem(rng, n, a):
        x = random_bits(rng, n, a)
        y = x @ rng.normal(size=a) + 0.1 * rng.normal(size=n)
        return x, y, KernelParams(eta=1.0, theta=np.ones(a), noise=1e-3)

    def test_descends_only_from_the_two_best_scored_starts(self):
        x, y, init = self.linear_problem(np.random.default_rng(31), 30, 6)
        _, scored, descents = traced_fit(x, y, init, seed=2)
        assert len(scored) == 5 and len(descents) == NUM_DESCENTS == 2
        best_two = sorted(range(5), key=lambda i: (scored[i][1], i))[:2]
        assert best_two == [3, 2]  # neither is the warm start on this seed
        for (x0, _), i in zip(descents, best_two):
            np.testing.assert_array_equal(x0, scored[i][0])

    @pytest.mark.parametrize("seed, n, a", [(0, 8, 2), (1, 20, 4), (2, 30, 6), (3, 50, 12), (4, 80, 12)])
    def test_fit_is_no_worse_than_the_best_scored_start(self, seed, n, a):
        x, y, init = self.linear_problem(np.random.default_rng(40 + seed), n, a)
        y_std = (y - y.mean()) / y.std()
        fitted, scored, descents = traced_fit(x, y, init, seed=seed)
        best_start = min(nll for _, nll in scored)
        assert min(res.fun for _, res in descents) <= best_start
        assert -log_marginal_likelihood(fitted, x, y_std) <= best_start + 1e-8

    @pytest.mark.parametrize(
        "start_nll, best_two",
        [([1.0] * 5, [0, 1]), ([1.0, 2.0, 0.0, 1.0, 3.0], [2, 0])],
    )
    def test_a_tie_puts_the_warm_start_first(self, start_nll, best_two):
        # The starts score as listed and every later call scores 1, so a
        # descent stops where it starts.
        x, y, init = self.linear_problem(np.random.default_rng(32), 12, 3)
        values = iter(start_nll)

        def likelihood(phi, *args):
            return next(values, 1.0), np.zeros_like(phi)

        _, scored, descents = traced_fit(x, y, init, likelihood=likelihood)
        warm = np.concatenate([[np.log(init.eta)], _inv_softplus(init.theta), [np.log(init.noise)]])
        np.testing.assert_array_equal(scored[0][0], warm)
        assert len(descents) == 2
        for (x0, _), i in zip(descents, best_two):
            np.testing.assert_array_equal(x0, scored[i][0])

    @pytest.mark.parametrize("seed, n, a", [(2, 30, 6), (3, 50, 12)])
    def test_a_descent_reuses_its_start_score(self, seed, n, a):
        # ``_lbfgsb`` gets the start's scored value and gradient, so no
        # likelihood call inside a descent is made at that descent's x0.
        x, y, init = self.linear_problem(np.random.default_rng(40 + seed), n, a)
        _, scored, descents = traced_fit(x, y, init, seed=seed)
        for x0, res in descents:
            assert res.calls == len(res.evaluated) > 0
            assert not any(np.array_equal(phi, x0) for phi in res.evaluated)

    def test_debug_line_names_starts_and_winner(self, caplog):
        x, y, init = self.linear_problem(np.random.default_rng(31), 30, 6)
        with caplog.at_level(logging.DEBUG, logger="gridcrit.surrogate"):
            _, scored, descents = traced_fit(x, y, init, seed=3)
        (record,) = caplog.records
        nll = " ".join(f"{v:.6g}" for _, v in scored)
        calls = ", ".join(str(len(res.evaluated)) for _, res in descents)
        # Start 0 descends second and wins on this seed.
        assert record.getMessage() == (
            f"fit n=30: start nll {nll}, descended [4, 0] ({calls} calls), best from start 0"
        )
        assert descents[1][1].fun < descents[0][1].fun


class TestLbfgsbLoop:
    def test_setulb_has_the_signature_lbfgsb_calls(self):
        # The integer task / ln_task form came with scipy's C port of
        # L-BFGS-B (scipy 1.15); ``_lbfgsb`` passes exactly these arguments.
        assert setulb.__doc__.splitlines()[0] == (
            "setulb(m,x,l,u,nbd,f,g,factr,pgtol,wa,iwa,task,lsave,isave,dsave,maxls,ln_task)"
        )

    @given(descent_problems())
    @settings(max_examples=150, deadline=None)
    def test_equals_scipy_minimize(self, problem):
        # Bit-equal x and fun, and the same likelihood arguments in the same
        # order; minimize evaluates at x0 first, ``_lbfgsb`` is handed it.
        phi0, x, y, radius = problem
        lower, upper = fit_bounds(x.shape[1])

        def objective(phi, *args):
            if radius is not None and np.abs(phi - phi0).max() > radius:
                return 1e12, np.zeros_like(phi)
            return _log_marginal_likelihood_and_grad(phi, *args)

        def recorded(log):
            def fun(phi, *args):
                log.append(phi.tobytes())
                return objective(phi, *args)
            return fun

        ref_calls, calls = [], []
        ref = minimize(
            recorded(ref_calls), phi0, args=(x, y), jac=True, method="L-BFGS-B",
            bounds=list(zip(lower, upper)),
        )
        f0, g0 = objective(phi0, x, y)
        phi, value, num_calls = _lbfgsb(recorded(calls), phi0, f0, g0, lower, upper, (x, y))
        assert ref_calls[0] == phi0.tobytes()
        assert calls == ref_calls[1:] and num_calls == len(calls)
        assert phi.tobytes() == ref.x.tobytes()
        assert value == ref.fun


CAP_BEFORE_FIT = """
import json, sys
if sys.argv[1] == "scipy-first":
    import scipy.linalg, scipy.optimize
import numpy as np
from gridcrit import surrogate

scipy_loaded = any(m == "scipy" or m.startswith("scipy.") for m in sys.modules)
rng = np.random.default_rng(12)
x = rng.integers(0, 2, size=(80, 12)).astype(float)
y = x @ rng.normal(size=12) + 0.1 * rng.normal(size=80)
init = surrogate.KernelParams(eta=1.0, theta=np.ones(12), noise=1e-4)
surrogate.NUM_STARTS = 2
with surrogate._single_thread_blas():
    fit = surrogate.fit_hyperparameters(x, y, init, seed=3)
    cached = len(surrogate._openblas_thread_setters())
    fresh = len(surrogate._openblas_thread_setters.__wrapped__())
print(json.dumps({"scipy_loaded": scipy_loaded, "cached": cached, "fresh": fresh,
                  "fit": [fit.eta.hex(), fit.noise.hex(), [t.hex() for t in fit.theta]]}))
"""


SCIPY_ROUTINES_PROBE = """
import json, sys
from gridcrit import surrogate

routines = surrogate._scipy()
loaded = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
import scipy.linalg.blas, scipy.linalg.lapack, scipy.optimize._lbfgsb

owners = {"dsyr": scipy.linalg.blas, "dsyrk": scipy.linalg.blas, "dtrsm": scipy.linalg.blas,
          "dpotrf": scipy.linalg.lapack, "dpotri": scipy.linalg.lapack,
          "dpotrs": scipy.linalg.lapack, "setulb": scipy.optimize._lbfgsb}
print(json.dumps({"loaded": loaded,
                  "same": {n: getattr(routines, n) is getattr(m, n) for n, m in owners.items()}}))
"""


class TestScipyRoutines:
    """``_scipy()`` loads SciPy's compiled modules from their files, without
    the ``scipy.linalg`` and ``scipy.optimize`` packages."""

    def test_routines_are_the_packages_own(self):
        # A fresh interpreter loads the routines first and the public
        # modules after; the public modules must reuse what was loaded.
        report = run_fresh_python(SCIPY_ROUTINES_PROBE)
        assert report["same"] == dict.fromkeys(report["same"], True)
        assert len(report["same"]) == 7
        assert "scipy" in report["loaded"]
        assert not {"scipy.linalg", "scipy.optimize"} & set(report["loaded"])

    def test_missing_module_file_names_the_module(self, monkeypatch):
        for name in surrogate._SCIPY_ROUTINES:
            monkeypatch.delitem(sys.modules, name, raising=False)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
        with pytest.raises(ImportError, match=r"scipy\.linalg\._fblas") as err:
            surrogate._scipy.__wrapped__()
        assert err.value.name == "scipy.linalg._fblas"


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

    def test_fit_is_unchanged_by_the_cap(self, monkeypatch):
        # 80 points and 12 bits, the size of a long search on the benchmark
        # feeders: below OpenBLAS's threading thresholds for every product
        # and solve of the likelihood, so the thread count cannot move a bit.
        rng = np.random.default_rng(12)
        x = random_bits(rng, 80, 12)
        y = x @ rng.normal(size=12) + 0.1 * rng.normal(size=80)
        init = KernelParams(eta=1.0, theta=np.ones(12), noise=1e-4)
        monkeypatch.setattr(surrogate, "NUM_STARTS", 2)
        free = fit_hyperparameters(x, y, init, seed=3)
        with _single_thread_blas():
            capped = fit_hyperparameters(x, y, init, seed=3)
        assert capped.eta == free.eta and capped.noise == free.noise
        np.testing.assert_array_equal(capped.theta, free.theta)

    def test_cap_entered_before_scipy_covers_its_openblas(self):
        # A search enters the cap before its first fit, and the scan of the
        # loaded OpenBLAS libraries is cached: entering the cap must load
        # SciPy, so that SciPy's OpenBLAS is capped too. Each run is a fresh
        # interpreter; in the first nothing has imported SciPy yet.
        lazy = run_fresh_python(CAP_BEFORE_FIT, "lazy")
        assert not lazy["scipy_loaded"]
        assert lazy["cached"] == lazy["fresh"]
        eager = run_fresh_python(CAP_BEFORE_FIT, "scipy-first")
        assert eager["scipy_loaded"]
        assert lazy["fit"] == eager["fit"]

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
            covariance(capped), covariance(free), rtol=0, atol=1e-10 * scale
        )


@st.composite
def posterior_problems(draw):
    """Training bits and outputs, hyperparameters inside the fit's bounds and
    a candidate set, at the sizes the search uses: up to 120 training
    scenarios of 12 bits and 250 candidates (often with repeats, which need
    jitter)."""
    a = draw(st.integers(1, 12))
    n = draw(st.integers(2, 120))
    m = draw(st.sampled_from([1, 2, 17, 60, 250]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    x = random_bits(rng, n, a)
    cands = random_bits(rng, m, a)
    y = draw(st.floats(0.01, 100.0)) * rng.normal(size=n)
    params = KernelParams(
        eta=float(np.exp(draw(st.floats(np.log(1e-4), np.log(1e4))))),
        theta=np.logaddexp(0.0, rng.uniform(-20.0, float(_inv_softplus(THETA_SCALE_CAP * a)), a)),
        noise=float(np.exp(draw(st.floats(np.log(1e-7), np.log(10.0))))),
    )
    return params, x, y, cands


def traced_posterior(gp, cands):
    """Posterior, the jitter its factor took and the jitter of each
    factorization attempt, in order (0 for the first, in-place attempt)."""
    jitters, attempts = [], []

    def ladder(build):
        def traced_build():
            mat = build()
            attempts.append(mat.diagonal().copy())
            return mat

        low, jitter = _chol_with_jitter(traced_build)
        jitters.append(jitter)
        return low, jitter

    routines = surrogate._scipy()  # where the factorization is looked up
    real_dpotrf = routines.dpotrf

    def factor(mat, **kwargs):
        attempts[-1] = mat.diagonal() - attempts[-1]  # the jitter added
        return real_dpotrf(mat, **kwargs)

    with mock.patch.object(surrogate, "_chol_with_jitter", side_effect=ladder), \
            mock.patch.object(routines, "dpotrf", side_effect=factor):
        post = posterior(gp, cands)
    (jitter,) = jitters
    return post, jitter, [float(np.max(added)) for added in attempts]


class TestPosterior:
    @given(posterior_problems())
    @settings(max_examples=120, deadline=None)
    def test_agrees_with_previous_arithmetic(self, problem):
        # Within 1e-12 of the magnitude of the sums the mean and the
        # covariance cancel in, once each side's jitter is taken out.
        # Observed: at most 1.1e-14 over 1200 random problems with
        # condition numbers of K + noise*I up to 1e11.
        params, x, y, cands = problem
        ref = reference_posterior(params, x, y, cands)
        with _single_thread_blas():
            gp = GPSurrogate.build(x, y, params)
            post, jitter, _ = traced_posterior(gp, cands)
        assert np.abs(post.mean - ref.mean).max() <= 1e-12 * ref.mean_scale
        cov = post.chol @ post.chol.T - jitter * gp.output_scale**2 * np.eye(len(cands))
        assert np.abs(cov - ref.covariance).max() <= 1e-12 * ref.cov_scale
        assert np.all(np.triu(post.chol, 1) == 0.0)

    def test_repeated_candidates_walk_the_same_jitter_ladder(self):
        # Repeated candidates make the posterior covariance singular: the
        # in-place factorization fails, and the ladder goes on to the jitter
        # the previous arithmetic needed, rebuilding the matrix once.
        rng = np.random.default_rng(9)
        x = random_bits(rng, 40, 12)
        y = rng.normal(size=40)
        cands = np.repeat(random_bits(rng, 30, 12), 2, axis=0)
        params = KernelParams(eta=3.0, theta=rng.uniform(0.0, 3.0, 12), noise=1e-4)
        ref = reference_posterior(params, x, y, cands)
        gp = GPSurrogate.build(x, y, params)
        post, jitter, attempts = traced_posterior(gp, cands)
        assert jitter == ref.jitter == JITTER_START
        assert attempts == [0.0, pytest.approx(JITTER_START, rel=1e-6)]
        np.testing.assert_allclose(
            post.chol @ post.chol.T, ref.chol @ ref.chol.T, rtol=0, atol=1e-12 * ref.cov_scale
        )
        np.testing.assert_allclose(post.mean, ref.mean, rtol=0, atol=1e-12 * ref.mean_scale)

    def test_interpolates_training_data_at_low_noise(self):
        rng = np.random.default_rng(1)
        x = random_bits(rng, 12, 5)
        x = np.unique(x, axis=0)
        y = rng.normal(size=len(x)) * 0.1 + 0.05
        params = KernelParams(eta=1.0, theta=np.full(5, 2.0), noise=1e-6)
        gp = GPSurrogate.build(x, y, params)
        post = posterior(gp, x)
        np.testing.assert_allclose(post.mean, y, atol=1e-3)
        assert np.all(np.diag(covariance(post)) < 1e-3)

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
        assert covariance(post)[0, 0] == pytest.approx(
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
        assert covariance(post)[0, 0] == pytest.approx(var_std, rel=1e-6)

    def test_variance_bounded_by_prior(self):
        rng = np.random.default_rng(17)
        x = random_bits(rng, 15, 6)
        y = rng.normal(size=15)
        params = KernelParams(eta=1.2, theta=rng.uniform(0, 4, 6), noise=0.05)
        gp = GPSurrogate.build(x, y, params)
        cands = random_bits(rng, 20, 6)
        post = posterior(gp, cands)
        assert np.all(
            np.diag(covariance(post)) <= params.eta * gp.output_scale**2 + 1e-8
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
        var_small = np.diag(covariance(posterior(small, cands))) / small.output_scale**2
        var_big = np.diag(covariance(posterior(big, cands))) / big.output_scale**2
        assert np.all(var_big <= var_small + 1e-7)

    def test_empty_candidates_rejected(self):
        x = np.array([[0.0], [1.0]])
        params = KernelParams(eta=1.0, theta=np.array([1.0]), noise=0.01)
        gp = GPSurrogate.build(x, np.array([0.0, 1.0]), params)
        with pytest.raises(ValueError):
            posterior(gp, [])


class TestSampling:
    def test_zero_covariance_returns_mean(self):
        post = JointPosterior(mean=np.array([1.0, -2.0]), chol=np.zeros((2, 2)))
        samples = sample_joint(post, 10, seed=0)
        np.testing.assert_array_equal(samples, np.tile(post.mean, (10, 1)))

    def test_deterministic_per_seed(self):
        chol = np.array([[1.0, 0.0], [0.5, 0.8]])
        post = JointPosterior(mean=np.zeros(2), chol=chol)
        a = sample_joint(post, 5, seed=9)
        b = sample_joint(post, 5, seed=9)
        c = sample_joint(post, 5, seed=10)
        np.testing.assert_array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_sample_moments_match_posterior(self):
        chol = np.array([[0.5, 0.0], [0.3, 0.4]])
        cov = chol @ chol.T
        post = JointPosterior(mean=np.array([2.0, -1.0]), chol=chol)
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
        low, jitter = _chol_with_jitter(lambda: mat.copy(order="F"))
        assert jitter > 0
        np.testing.assert_array_equal(
            low, cholesky(mat + jitter * np.eye(3), lower=True)
        )
        np.testing.assert_array_equal(mat.diagonal(), [-1e-10, 1.0, 1.0])
        assert jitter == reference_chol_with_jitter(mat)[1]

    def test_unrepairable_matrix_raises(self):
        mat = -np.eye(3)
        with pytest.raises(NumericalError):
            _chol_with_jitter(lambda: mat.copy(order="F"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_matrix_raises(self, bad):
        mat = np.eye(3)
        mat[2, 1] = mat[1, 2] = bad
        with pytest.raises(NumericalError):
            _chol_with_jitter(lambda: mat.copy(order="F"))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("n", [3, 200])  # 200 takes dpotrf's blocked path
    def test_non_finite_entry_past_an_indefinite_column_raises_at_once(self, bad, n):
        # dpotrf stops at column 0, before it reaches the bad entry; no jitter
        # can mend the matrix, so the ladder must not walk on.
        mat = np.eye(n)
        mat[0, 0] = -1.0
        mat[n - 1, n - 2] = mat[n - 2, n - 1] = bad
        builds = []

        def build():
            builds.append(1)
            return mat.copy(order="F")

        with pytest.raises(NumericalError):
            _chol_with_jitter(build)
        assert len(builds) == 1

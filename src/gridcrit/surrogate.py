"""Gaussian-process surrogates with an ARD categorical (Hamming) kernel.

One independent GP is fit per stress objective on standardized outputs. The
kernel is eta * exp(-(1/A) * sum_j theta_j * 1{x1_j != x2_j}); the per-bit
weights theta_j double as an adopter-relevance measure.
"""

from __future__ import annotations

import ctypes
import functools
import logging
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.linalg import cho_solve, solve_triangular
from scipy.linalg.blas import dsyr
from scipy.linalg.lapack import dpotrf, dpotri, dpotrs
from scipy.optimize import minimize

JITTER_START = 1e-8
JITTER_MAX = 1e-4
THETA_SCALE_CAP = 1e3  # theta upper bound is THETA_SCALE_CAP * A
NUM_DESCENTS = 2  # L-BFGS descents per fit, from the best-scored starts

log = logging.getLogger(__name__)


class NumericalError(RuntimeError):
    """Raised when a covariance cannot be factorized even after max jitter."""


@dataclass(frozen=True)
class KernelParams:
    """Output scale, per-bit ARD weights and noise variance (nugget)."""

    eta: float
    theta: np.ndarray
    noise: float

    def __post_init__(self):
        if self.eta <= 0 or self.noise <= 0:
            raise ValueError("eta and noise must be positive")
        theta = np.asarray(self.theta, dtype=float)
        if np.any(theta < 0) or not np.all(np.isfinite(theta)):
            raise ValueError("theta must be finite and non-negative")
        object.__setattr__(self, "theta", theta)


@dataclass(frozen=True)
class JointPosterior:
    """Joint predictive normal over a candidate set, with a cached factor."""

    mean: np.ndarray
    covariance: np.ndarray
    chol: np.ndarray


def gram_matrix(params: KernelParams, x1: np.ndarray, x2: np.ndarray | None = None) -> np.ndarray:
    """Kernel matrix between two scenario sets (rows are scenarios)."""
    x1 = np.asarray(x1, dtype=float)
    x2 = x1 if x2 is None else np.asarray(x2, dtype=float)
    a = x1.shape[1]
    # Weighted mismatch: m_j = u + v - 2uv for binary coordinates.
    t = params.theta
    w = (x1 @ t)[:, None] + (x2 @ t)[None, :] - 2.0 * (x1 * t) @ x2.T
    return params.eta * np.exp(-w / a)


@functools.cache
def _openblas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every OpenBLAS this process has loaded.

    numpy and scipy each bring their own OpenBLAS. Empty where ``/proc`` or
    the symbol is missing.
    """
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return ()
    setters = {}
    for line in maps.splitlines():
        fields = line.split(maxsplit=5)
        if len(fields) < 6 or fields[5] in setters:
            continue
        if "openblas" not in Path(fields[5]).name.lower():
            continue
        try:
            fn = ctypes.CDLL(fields[5]).openblas_set_num_threads_local
        except (OSError, AttributeError):
            continue
        fn.argtypes = [ctypes.c_int]
        fn.restype = ctypes.c_int
        setters[fields[5]] = fn
    return tuple(setters.values())


@contextmanager
def _single_thread_blas():
    """Run the body with every loaded OpenBLAS capped at one thread.

    The search's GP matrices have at most a few hundred rows; handing them to
    a second BLAS thread costs more in hand-off and spin-waiting than it
    saves. A product OpenBLAS splits across threads sums in another order,
    so the cap also keeps results independent of the core count. The count
    set is the calling thread's where OpenBLAS keeps one per thread and the
    process's in its pthreads builds; either way the previous count is
    restored on exit. A no-op where no loaded OpenBLAS has the symbol.
    """
    setters = _openblas_thread_setters()
    previous = [set_local(1) for set_local in setters]
    try:
        yield
    finally:
        for set_local, count in zip(setters, previous):
            set_local(count)


def _chol_with_jitter(mat: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor with escalating diagonal jitter."""
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


def _mismatch_factors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``u = [x, 1 - x]`` and ``v = [1 - x, x]`` for binary rows ``x`` (n x A).

    Bit j of rows i and k differs iff ``u[i, j] * v[k, j] + u[i, j + A] *
    v[k, j + A]`` is 1, so ``(u * [theta, theta]) @ v.T`` is the weighted
    Hamming distance of every pair, with an exact zero diagonal. The factors
    depend on ``x`` alone; a fit builds them once and shares them across
    every likelihood call, the scoring of its starts and its descents alike.
    """
    return np.hstack([x, 1.0 - x]), np.hstack([1.0 - x, x])


def _log_marginal_likelihood_and_grad(
    phi: np.ndarray,
    x: np.ndarray,
    y: np.ndarray,
    factors: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[float, np.ndarray]:
    """Negative LML and its gradient in (log eta, rho, log noise) coordinates.

    theta = softplus(rho) keeps the ARD weights non-negative while leaving the
    optimizer unconstrained in sign. ``factors`` is ``_mismatch_factors(x)``,
    built here when not given.

    Each gradient entry is tr(G dK) / 2 with G = alpha alpha' - K_y^-1
    (Rasmussen & Williams 2006, eq. 5.9). Only G's lower triangle is formed:
    ``dpotri`` inverts in place from the factor, and a rank-1 update
    subtracts alpha alpha'. Every dK is symmetric, so a sum over all of G
    counts the strict lower triangle twice and the diagonal once.
    """
    n, a = x.shape
    u, v = _mismatch_factors(x) if factors is None else factors
    rho = phi[1:-1]
    theta = np.logaddexp(0.0, rho)  # softplus
    eta = np.exp(phi[0])
    noise = np.exp(phi[-1])
    weights = np.concatenate([theta, theta])
    weights *= -1.0 / a
    # E = exp(-W / A) for the weighted mismatch W, in Fortran order like
    # LAPACK's factor; E_ii = 1 exactly. K = eta * E.
    e = ((v * weights) @ u.T).T
    np.exp(e, out=e)
    ky = np.multiply(e, eta, order="F")
    ky.flat[:: n + 1] += noise
    if not np.isfinite(ky).all():
        raise ValueError("covariance must be finite")
    low, info = dpotrf(ky, lower=1, overwrite_a=1)
    if info > 0:
        return 1e12, np.zeros_like(phi)
    alpha, _ = dpotrs(low, y, lower=1)
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.log(low.diagonal()).sum())
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    # K_y^-1 on the lower triangle; dpotrf left zeros above it.
    neg_g, _ = dpotri(low, lower=1, overwrite_c=1)
    trace_g = float(alpha @ alpha) - float(np.trace(neg_g))
    neg_g = dsyr(-1.0, alpha, a=neg_g, lower=1, overwrite_a=1)
    neg_g *= e  # -G o E on the lower triangle, zeros above
    grad = np.empty_like(phi)
    # d/d log eta: dK = K = eta * E. G o E sums to twice its lower-triangle
    # sum minus tr(G), as E_ii = 1.
    grad[0] = -eta * (float(neg_g.sum()) + 0.5 * trace_g)
    # d/d theta_j: dK = -(eta / A) E o M_j with M_j = u_j v_j' + u_j+A v_j+A'.
    t = np.sum(u * (neg_g @ v), axis=0)
    grad[1:-1] = (eta / a) * (t[:a] + t[a:]) / (1.0 + np.exp(-rho))
    grad[-1] = 0.5 * noise * trace_g  # d/d log noise: dK = noise * I
    return -lml, -grad


def _inv_softplus(x) -> np.ndarray:
    """Stable inverse of softplus; identity in the linear regime."""
    x = np.asarray(x, dtype=float)
    return np.where(x > 30.0, x, np.log(np.expm1(np.clip(x, 1e-12, 30.0))))


def fit_hyperparameters(
    train_inputs,
    train_outputs,
    init: KernelParams,
    num_restarts: int = 5,
    seed: int = 0,
) -> KernelParams:
    """Maximize the log marginal likelihood from the best of several starts.

    The starts are ``init`` and ``num_restarts - 1`` random draws, each
    clipped to the bounds. Every start is scored with one likelihood call,
    and L-BFGS-B descends only from the ``NUM_DESCENTS`` of lowest negative
    LML (ties go to the earlier start, so the warm start wins one); the
    better of those descents is returned. A descent costs tens of likelihood
    calls, so scoring a start costs a small share of descending from it.

    Outputs are standardized internally, so the returned hyperparameters live
    on the standardized scale (the scale :class:`GPSurrogate` fits on).
    Degenerate (constant) outputs short-circuit to the init with a variance
    floor on eta. Deterministic for a fixed seed.

    The fit runs with BLAS capped at one thread: OpenBLAS inverts with
    another summation order when it has more threads (its ``dpotri`` does at
    every size), so the cap keeps the fit independent of the core count.
    """
    x = np.asarray(train_inputs, dtype=float)
    y = np.asarray(train_outputs, dtype=float)
    if x.ndim != 2 or len(y) != x.shape[0] or x.shape[0] < 2:
        raise ValueError("need >= 2 training points with matching shapes")
    n, a = x.shape
    y_std = float(np.std(y))
    if y_std < 1e-12:
        return KernelParams(eta=max(float(np.var(y)), 1e-6), theta=init.theta, noise=init.noise)
    y = (y - float(np.mean(y))) / y_std

    rho_cap = float(_inv_softplus(THETA_SCALE_CAP * a))
    bounds = (
        [(np.log(1e-4), np.log(1e4))]
        + [(-20.0, rho_cap)] * a
        + [(np.log(1e-7), np.log(10.0))]
    )

    rng = np.random.default_rng(seed)
    init_rho = _inv_softplus(init.theta)
    starts = [
        np.concatenate([[np.log(init.eta)], init_rho, [np.log(init.noise)]])
    ]
    for _ in range(num_restarts - 1):
        starts.append(
            np.concatenate(
                [
                    [rng.normal(0.0, 1.0)],
                    rng.normal(0.0, 1.0, size=a),
                    [rng.uniform(np.log(1e-6), np.log(1e-1))],
                ]
            )
        )

    lower, upper = np.array(bounds).T
    starts = [np.clip(phi0, lower, upper) for phi0 in starts]
    factors = _mismatch_factors(x)
    best_phi, best_val, best_start = starts[0], np.inf, 0
    with _single_thread_blas():
        scores = [_log_marginal_likelihood_and_grad(phi0, x, y, factors)[0] for phi0 in starts]
        descended = sorted(range(len(starts)), key=lambda i: (scores[i], i))[:NUM_DESCENTS]
        for i in descended:
            res = minimize(
                _log_marginal_likelihood_and_grad,
                starts[i],
                args=(x, y, factors),
                jac=True,
                method="L-BFGS-B",
                bounds=bounds,
            )
            if res.fun < best_val:
                best_val, best_phi, best_start = res.fun, res.x, i
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "fit n=%d: start nll %s, descended %s, best from start %d",
            n, " ".join(f"{v:.6g}" for v in scores), descended, best_start,
        )
    return KernelParams(
        eta=float(np.exp(best_phi[0])),
        theta=np.logaddexp(0.0, best_phi[1:-1]),
        noise=float(np.exp(best_phi[-1])),
    )


@dataclass(frozen=True)
class GPSurrogate:
    """A fitted zero-mean GP over standardized outputs (immutable)."""

    params: KernelParams
    train_inputs: np.ndarray
    factor: np.ndarray          # lower Cholesky of K + noise*I (+ jitter)
    alpha: np.ndarray           # (K + noise*I)^-1 y, y the standardized outputs
    output_mean: float
    output_scale: float

    @classmethod
    def build(cls, train_inputs, train_outputs, params: KernelParams) -> "GPSurrogate":
        """Factorize the training covariance for the given hyperparameters."""
        x = np.asarray(train_inputs, dtype=float)
        y_raw = np.asarray(train_outputs, dtype=float)
        mean = float(np.mean(y_raw))
        scale = float(np.std(y_raw))
        if scale < 1e-12:
            scale = 1.0
        y = (y_raw - mean) / scale
        ky = gram_matrix(params, x) + params.noise * np.eye(len(x))
        low, _ = _chol_with_jitter(ky)
        alpha = cho_solve((low, True), y)
        return cls(
            params=params,
            train_inputs=x,
            factor=low,
            alpha=alpha,
            output_mean=mean,
            output_scale=scale,
        )


def posterior(gp: GPSurrogate, candidates) -> JointPosterior:
    """Joint predictive distribution over candidates, on the original scale."""
    xc = np.asarray(candidates, dtype=float)
    if xc.ndim != 2 or xc.shape[0] < 1:
        raise ValueError("need at least one candidate")
    k_star = gram_matrix(gp.params, xc, gp.train_inputs)
    mean = k_star @ gp.alpha
    v = solve_triangular(gp.factor, k_star.T, lower=True)
    cov = gram_matrix(gp.params, xc) - v.T @ v
    cov = 0.5 * (cov + cov.T)
    # Factorize on the standardized scale so the stabilizing jitter stays
    # small relative to the data spread after de-standardization.
    low, _ = _chol_with_jitter(cov)
    mean = gp.output_mean + gp.output_scale * mean
    cov = gp.output_scale**2 * cov
    return JointPosterior(mean=mean, covariance=cov, chol=gp.output_scale * low)


def sample_joint(post: JointPosterior, num_samples: int, seed) -> np.ndarray:
    """Draw num_samples x M joint samples; deterministic per seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((num_samples, len(post.mean)))
    return post.mean[None, :] + z @ post.chol.T


def adopter_relevance(params: KernelParams) -> np.ndarray:
    """Per-adopter relevance 1 - exp(-theta_j / A), in [0, 1)."""
    a = len(params.theta)
    return 1.0 - np.exp(-params.theta / a)

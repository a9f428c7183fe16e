"""Gaussian-process surrogates with an ARD categorical (Hamming) kernel.

One independent GP is fit per stress objective on standardized outputs. The
kernel is eta * exp(-(1/A) * sum_j theta_j * 1{x1_j != x2_j}); the per-bit
weights theta_j double as an adopter-relevance measure.
"""

from __future__ import annotations

import ctypes
import functools
import importlib.machinery
import importlib.util
import logging
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np

JITTER_START = 1e-8
JITTER_MAX = 1e-4
THETA_SCALE_CAP = 1e3  # theta upper bound is THETA_SCALE_CAP * A
NUM_STARTS = 5  # likelihood starts per fit: the warm start and random draws
NUM_DESCENTS = 2  # L-BFGS descents per fit, from the best-scored starts

# L-BFGS-B settings: scipy's minimize(method="L-BFGS-B") defaults.
LBFGS_MEMORY = 10  # maxcor
LBFGS_FACTR = 2.2204460492503131e-09 / np.finfo(float).eps  # from ftol
LBFGS_PGTOL = 1e-5
LBFGS_MAXLS = 20
LBFGS_MAX_STEPS = 15000  # both maxiter and maxfun

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
    """Joint predictive normal over a candidate set, held as its lower
    Cholesky factor (stabilizing jitter included)."""

    mean: np.ndarray
    chol: np.ndarray


# SciPy's compiled modules that hold the GP routines, and the routines.
_SCIPY_ROUTINES = {
    "scipy.linalg._fblas": ("dsyr", "dsyrk", "dtrsm"),
    "scipy.linalg._flapack": ("dpotrf", "dpotri", "dpotrs"),
    "scipy.optimize._lbfgsb": ("setulb",),
}


@functools.cache
def _scipy() -> SimpleNamespace:
    """SciPy's BLAS and LAPACK wrappers and its L-BFGS-B step, loaded on
    first use from their compiled modules alone.

    Only the GP routines need SciPy, so the first GP routine to run loads
    it, not ``import gridcrit``. ``import scipy`` loads its subpackages
    lazily; the ``scipy.linalg`` and ``scipy.optimize`` packages would load
    some 300 modules more (~0.3 s, ~44 MB). So each compiled module is
    loaded from its file; its routines are the very objects those packages
    expose.
    """
    import scipy

    root = Path(scipy.__file__).parent
    return SimpleNamespace(**{
        name: getattr(_extension_module(root, module), name)
        for module, names in _SCIPY_ROUTINES.items() for name in names
    })


def _extension_module(root: Path, name: str):
    """The compiled module ``name`` of the package at ``root``: the loaded one,
    else loaded from its file without importing its parent packages.
    ``ImportError`` names the module when no file has an extension suffix."""
    if name in sys.modules:
        return sys.modules[name]
    stem = root.joinpath(*name.split(".")[1:])
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = stem.parent / (stem.name + suffix)
        if path.is_file():
            break
    else:
        raise ImportError(f"no compiled module {name} in {stem.parent}", name=name)
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    # Kept out of sys.modules: a later import of its package then loads it
    # as usual and binds it as the package's attribute, which an entry found
    # there would skip; CPython hands that load the same routines.
    sys.modules.pop(name, None)
    return module


@functools.cache
def _openblas_thread_setters() -> tuple:
    """``openblas_set_num_threads_local`` of every OpenBLAS this process has loaded.

    numpy and scipy each bring their own OpenBLAS; scipy's comes with its
    compiled BLAS and LAPACK modules. Those are loaded before the scan,
    which is cached, so that its OpenBLAS is among them. Empty where
    ``/proc`` or the symbol is missing.
    """
    _scipy()
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

    Not safe to enter from two threads at once. Where the count is the
    process's, one thread's exit restores the old count while another
    thread may still be fitting: that fit then runs on more BLAS threads
    and stops being bit-identical. So fits are to be run in parallel over
    processes, each capping its own BLAS, not over threads.
    """
    setters = _openblas_thread_setters()
    previous = [set_local(1) for set_local in setters]
    try:
        yield
    finally:
        for set_local, count in zip(setters, previous):
            set_local(count)


def _chol_with_jitter(build) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of the lower triangle of ``build()``, with
    escalating diagonal jitter; returns the factor and the jitter it took.

    Each attempt factors a fresh ``build()`` in place, its diagonal raised
    by the jitter: none first, then JITTER_START, ten times more each time
    up to JITTER_MAX. Only a failed attempt builds the matrix again. The
    triangle above the factor is zeroed. A lower triangle with a non-finite
    entry raises after the first attempt, as no jitter can mend it: a failed
    ``dpotrf`` leaves such an entry non-finite wherever it stopped.
    """
    sp = _scipy()
    jitter = 0.0
    while jitter <= JITTER_MAX:
        mat = build()
        if jitter:
            mat.flat[:: len(mat) + 1] += jitter
        low, info = sp.dpotrf(mat, lower=1, overwrite_a=1)
        if info == 0 and np.isfinite(low.diagonal()).all():
            return low, jitter
        if not np.isfinite(low).all():
            break
        jitter = JITTER_START if jitter == 0.0 else jitter * 10.0
    raise NumericalError(f"covariance not factorizable after jitter {JITTER_MAX:g}")


def _mismatch_factors(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``u = [x, 1 - x]`` and ``v = [1 - x, x]`` for binary rows ``x`` (n x A).

    Bit j of rows i and k differs iff ``u[i, j] * v[k, j] + u[i, j + A] *
    v[k, j + A]`` is 1, so ``(u * [theta, theta]) @ v.T`` is the weighted
    Hamming distance of every pair, with an exact zero diagonal. The factors
    depend on ``x`` alone: a fit builds them once for all its likelihood
    calls, and a :class:`GPSurrogate` keeps its training inputs' ``v`` for
    its posteriors.
    """
    return np.hstack([x, 1.0 - x]), np.hstack([1.0 - x, x])


def _correlation(theta: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``exp(-W / A)`` in Fortran order, like LAPACK's factors.

    ``u`` is the first :func:`_mismatch_factors` factor of the row scenarios,
    ``v`` the second of the column scenarios, and W their weighted Hamming
    distances. Where both are of one scenario set the diagonal is exactly 1.
    The kernel is ``eta`` times this.
    """
    weights = np.concatenate([theta, theta])
    weights *= -1.0 / len(theta)
    e = ((v * weights) @ u.T).T
    np.exp(e, out=e)
    return e


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
    sp = _scipy()
    n, a = x.shape
    u, v = _mismatch_factors(x) if factors is None else factors
    rho = phi[1:-1]
    theta = np.logaddexp(0.0, rho)  # softplus
    eta = np.exp(phi[0])
    noise = np.exp(phi[-1])
    e = _correlation(theta, u, v)  # E_ii = 1 exactly; K = eta * E
    ky = np.multiply(e, eta, order="F")
    ky.flat[:: n + 1] += noise
    if not np.isfinite(ky).all():
        raise ValueError("covariance must be finite")
    low, info = sp.dpotrf(ky, lower=1, overwrite_a=1)
    if info > 0:
        return 1e12, np.zeros_like(phi)
    alpha, _ = sp.dpotrs(low, y, lower=1)
    lml = (
        -0.5 * float(y @ alpha)
        - float(np.log(low.diagonal()).sum())
        - 0.5 * n * np.log(2.0 * np.pi)
    )
    # K_y^-1 on the lower triangle; dpotrf left zeros above it.
    neg_g, _ = sp.dpotri(low, lower=1, overwrite_c=1)
    trace_g = float(alpha @ alpha) - float(np.trace(neg_g))
    neg_g = sp.dsyr(-1.0, alpha, a=neg_g, lower=1, overwrite_a=1)
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


def _lbfgsb(fun, x0, f0, g0, lower, upper, args) -> tuple[np.ndarray, float, int]:
    """Minimize ``fun`` from ``x0`` within the box ``[lower, upper]``.

    ``fun(x, *args)`` returns a value and its gradient, and ``f0``, ``g0``
    are those at ``x0``. The loop of scipy's ``minimize(method="L-BFGS-B",
    jac=True)`` at its defaults, iterate for iterate, without its per-call
    wrappers: like scipy it evaluates at a copy of x, answers a request at
    the point last evaluated (``x0`` first) from memory, counts ``x0`` as
    the first evaluation and stops after LBFGS_MAX_STEPS iterations or
    evaluations. Returns scipy's ``res.x`` and ``res.fun`` and the number
    of calls of ``fun``.
    """
    sp = _scipy()
    n, m = len(x0), LBFGS_MEMORY
    x = np.array(x0, dtype=float)
    nbd = np.full(n, 2, dtype=np.int32)  # every parameter bounded on both sides
    wa = np.zeros(2 * m * n + 5 * n + 11 * m * m + 8 * m)
    iwa = np.zeros(3 * n, dtype=np.int32)
    task = np.zeros(2, dtype=np.int32)
    ln_task = np.zeros(2, dtype=np.int32)
    lsave = np.zeros(4, dtype=np.int32)
    isave = np.zeros(44, dtype=np.int32)
    dsave = np.zeros(29)
    x_eval, f, g = x.copy(), f0, g0
    evals, iterations = 1, 0
    while True:
        sp.setulb(m, x, lower, upper, nbd, f, g, LBFGS_FACTR, LBFGS_PGTOL, wa, iwa,
                  task, lsave, isave, dsave, LBFGS_MAXLS, ln_task)
        if task[0] == 3:  # FG: wants the value and gradient at x
            if not np.array_equal(x, x_eval):
                x_eval = x.copy()
                f, g = fun(x_eval, *args)
                evals += 1
        elif task[0] == 1:  # NEW_X: an iteration ended
            iterations += 1
            if iterations >= LBFGS_MAX_STEPS:
                task[:] = 5, 504  # STOP: iteration limit
            elif evals > LBFGS_MAX_STEPS:
                task[:] = 5, 502  # STOP: evaluation limit
        else:
            return x, f, evals - 1


def fit_hyperparameters(
    train_inputs,
    train_outputs,
    init: KernelParams | None = None,
    seed: int = 0,
) -> KernelParams:
    """Maximize the log marginal likelihood from the best of several starts.

    The ``NUM_STARTS`` starts are ``init`` (by default eta 1, every theta 1
    and noise 1e-4) and random draws, each clipped to the bounds. Every
    start is scored with one likelihood call, and L-BFGS-B descends only
    from the ``NUM_DESCENTS`` of lowest negative LML (ties go to the earlier
    start, so the warm start wins one); the better of those descents is
    returned. A descent costs tens of likelihood
    calls, so scoring a start costs a small share of descending from it, and
    the descent reuses its start's score rather than evaluating it again.

    Outputs are standardized internally, so the returned hyperparameters live
    on the standardized scale (the scale :class:`GPSurrogate` fits on).
    Degenerate (constant) outputs short-circuit to eta 1e-6 with the start's
    theta and noise. Deterministic for a fixed seed.

    The fit runs with BLAS capped at one thread: OpenBLAS inverts with
    another summation order when it has more threads (its ``dpotri`` does at
    every size), so the cap keeps the fit independent of the core count.
    """
    x = np.asarray(train_inputs, dtype=float)
    y = np.asarray(train_outputs, dtype=float)
    if x.ndim != 2 or len(y) != x.shape[0] or x.shape[0] < 2:
        raise ValueError("need >= 2 training points with matching shapes")
    n, a = x.shape
    if init is None:
        init = KernelParams(eta=1.0, theta=np.ones(a), noise=1e-4)
    y_std = float(np.std(y))
    if y_std < 1e-12:
        return KernelParams(eta=1e-6, theta=init.theta, noise=init.noise)
    y = (y - float(np.mean(y))) / y_std

    rho_cap = float(_inv_softplus(THETA_SCALE_CAP * a))
    lower = np.array([np.log(1e-4)] + [-20.0] * a + [np.log(1e-7)])
    upper = np.array([np.log(1e4)] + [rho_cap] * a + [np.log(10.0)])

    rng = np.random.default_rng(seed)
    init_rho = _inv_softplus(init.theta)
    starts = [
        np.concatenate([[np.log(init.eta)], init_rho, [np.log(init.noise)]])
    ]
    for _ in range(NUM_STARTS - 1):
        starts.append(
            np.concatenate(
                [
                    [rng.normal(0.0, 1.0)],
                    rng.normal(0.0, 1.0, size=a),
                    [rng.uniform(np.log(1e-6), np.log(1e-1))],
                ]
            )
        )

    starts = [np.clip(phi0, lower, upper) for phi0 in starts]
    args = (x, y, _mismatch_factors(x))
    best_phi, best_val, best_start = starts[0], np.inf, 0
    with _single_thread_blas():
        scored = [_log_marginal_likelihood_and_grad(phi0, *args) for phi0 in starts]
        scores = [value for value, _ in scored]
        descended = sorted(range(len(starts)), key=lambda i: (scores[i], i))[:NUM_DESCENTS]
        calls = []
        for i in descended:
            phi, value, num_calls = _lbfgsb(
                _log_marginal_likelihood_and_grad, starts[i], *scored[i], lower, upper, args
            )
            calls.append(num_calls)
            if value < best_val:
                best_val, best_phi, best_start = value, phi, i
    if log.isEnabledFor(logging.DEBUG):
        log.debug(
            "fit n=%d: start nll %s, descended %s (%s calls), best from start %d",
            n, " ".join(f"{v:.6g}" for v in scores), descended,
            ", ".join(map(str, calls)), best_start,
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
    train_v: np.ndarray         # second _mismatch_factors factor of the inputs
    factor: np.ndarray          # lower Cholesky of K + noise*I (+ jitter)
    alpha: np.ndarray           # (K + noise*I)^-1 y, y the standardized outputs
    output_mean: float
    output_scale: float

    @classmethod
    def build(cls, train_inputs, train_outputs, params: KernelParams) -> "GPSurrogate":
        """Factorize the training covariance for the given hyperparameters,
        built as the likelihood builds it."""
        x = np.asarray(train_inputs, dtype=float)
        y_raw = np.asarray(train_outputs, dtype=float)
        mean = float(np.mean(y_raw))
        scale = float(np.std(y_raw))
        if scale < 1e-12:
            scale = 1.0
        y = (y_raw - mean) / scale
        u, v = _mismatch_factors(x)

        def covariance():
            ky = _correlation(params.theta, u, v)
            ky *= params.eta
            ky.flat[:: len(x) + 1] += params.noise
            return ky

        low, _ = _chol_with_jitter(covariance)
        alpha, _ = _scipy().dpotrs(low, y, lower=1)
        return cls(
            params=params,
            train_v=v,
            factor=low,
            alpha=alpha,
            output_mean=mean,
            output_scale=scale,
        )


def posterior(gp: GPSurrogate, candidates) -> JointPosterior:
    """Joint predictive distribution over candidates, on the original scale.

    With K_* the kernel between candidates and training inputs and L the
    training factor, the covariance K_cc - W W' (W = K_* L^-T) is formed on
    its lower triangle only and factored in place on the standardized scale,
    so the stabilizing jitter stays small relative to the data spread; the
    factor is then scaled in place.
    """
    xc = np.asarray(candidates, dtype=float)
    if xc.ndim != 2 or xc.shape[0] < 1:
        raise ValueError("need at least one candidate")
    p = gp.params
    uc, vc = _mismatch_factors(xc)
    k_star = _correlation(p.theta, uc, gp.train_v)
    k_star *= p.eta
    mean = k_star @ gp.alpha
    sp = _scipy()
    w = sp.dtrsm(1.0, gp.factor, k_star, side=1, lower=1, trans_a=1, overwrite_b=1)

    def covariance():
        k_cc = _correlation(p.theta, uc, vc)
        k_cc *= p.eta
        return sp.dsyrk(-1.0, w, beta=1.0, c=k_cc, lower=1, overwrite_c=1)

    low, _ = _chol_with_jitter(covariance)
    low *= gp.output_scale
    return JointPosterior(mean=gp.output_mean + gp.output_scale * mean, chol=low)


def sample_joint(post: JointPosterior, num_samples: int, seed) -> np.ndarray:
    """Draw num_samples x M joint samples; deterministic per seed."""
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((num_samples, len(post.mean)))
    return post.mean[None, :] + z @ post.chol.T


def adopter_relevance(params: KernelParams) -> np.ndarray:
    """Per-adopter relevance 1 - exp(-theta_j / A), in [0, 1)."""
    a = len(params.theta)
    return 1.0 - np.exp(-params.theta / a)

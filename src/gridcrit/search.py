"""Bayesian-optimization search for Pareto-critical adoption scenarios.

The loop alternates bus and line phases; each phase fits per-objective GPs on
the evaluated stresses, scores candidate scenarios by the Monte Carlo
probability of being non-dominated, evaluates the top batch with the power
flow, expands the simulated search space, and tracks a per-phase stopping
criterion bounding the probability of a missed critical scenario.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from gridcrit.adoption import DiffusionParams, Scenario, simulate_batch
from gridcrit.feeder import Feeder, _check_int, _check_real
from gridcrit.pareto import (
    CriticalFronts,
    critical_fronts,
    critical_indices,
    distinct_rows,
    dominated,
)
from gridcrit.powerflow import (
    PowerFlowConfig,
    ViolationConfig,
    compute_stress,
    solve_power_flow,
    violation_map,
)
from gridcrit.surrogate import (
    GPSurrogate,
    KernelParams,
    _single_thread_blas,
    adopter_relevance,
    fit_hyperparameters,
    posterior,
    sample_joint,
)

log = logging.getLogger(__name__)


class SearchAbort(RuntimeError):
    """Raised when repeated power-flow non-convergence makes results unusable."""


ORACLE_BUDGET = 100_000  # scenarios the brute-force oracle evaluates at most
# Acquisition samples per step at most: 20 times the default. One acquisition
# array holds K x N x M doubles: ~58 MB for 29 objectives and 250 candidates.
MAX_MC_SAMPLES = 1_000


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of the search loop; defaults sized for desk-scale feeders."""

    n0: int = 30
    n_init: int = 220
    n_expand: int = 150
    batch_size: int = 4
    num_mc_samples: int = 50
    num_candidates: int | None = None  # defaults to |S_1| = n0 + n_init
    tau_bar: float = 0.1
    stress_threshold: float = -0.05
    refit_period: int = 5
    seed: int = 0
    max_search_space: int | None = None
    max_steps: int = 500

    def __post_init__(self):
        # A GP fit needs two training points; no more scenarios are simulated
        # at once than the oracle evaluates.
        _check_int("n0", self.n0, 2, ORACLE_BUDGET)
        maxima = {"n_init": ORACLE_BUDGET, "n_expand": ORACLE_BUDGET,
                  "num_mc_samples": MAX_MC_SAMPLES}
        for name in ("n_init", "n_expand", "batch_size", "num_mc_samples",
                     "refit_period", "max_steps", "num_candidates", "max_search_space"):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name), 1, maxima.get(name))
        if self.max_search_space is not None and self.max_search_space < self.n0 + self.n_init:
            raise ValueError("max_search_space must be >= n0 + n_init, the initial pool")
        _check_int("seed", self.seed, 0)
        _check_real("tau_bar", self.tau_bar)
        _check_real("stress_threshold", self.stress_threshold)
        if self.tau_bar <= 0:
            raise ValueError("tau_bar must be positive")
        if self.stress_threshold >= 0:
            raise ValueError("stress_threshold must be negative")


@dataclass
class OracleResult:
    """The evaluated scenarios of a pool and their critical fronts.

    ``bits`` is the pool, a uint8 (S x A) matrix whose row index is the
    scenario id. Row i of ``stress`` and ``violations`` (E x D) belongs to
    scenario ``ids[i]``; ``invalid_ids`` are the scenarios whose power flow
    did not converge."""

    bits: np.ndarray
    ids: np.ndarray
    stress: np.ndarray
    violations: np.ndarray
    invalid_ids: list[int]
    fronts: CriticalFronts


@dataclass
class SearchResult(OracleResult):
    """Everything the search learned, plus traces for reporting.

    The evaluated rows are in evaluation order; ``steps[i]`` is the step that
    evaluated ``ids[i]`` (0 for the initial batch). Row s - 1 of ``tau``
    (steps x 2) is the (bus, line) stopping value after step s; an entry is
    NaN until its phase first runs."""

    steps: np.ndarray
    tau: np.ndarray
    relevance: dict[int, np.ndarray]       # objective index -> adopter relevance
    stop_reason: str

    @property
    def tau_steps(self) -> list[int]:
        # Read only by perfbench/tracing.py, which counts the steps.
        return list(range(1, len(self.tau) + 1))

    @property
    def scenarios(self) -> list[Scenario]:
        # Read only by perfbench/run.py and perfbench/tracing.py; goes once
        # ROADMAP item 2 moves them to ``bits``.
        return [Scenario(bits=tuple(row)) for row in self.bits.tolist()]


def detect_active_objectives(
    stresses: np.ndarray, family: range, stress_threshold: float
) -> list[int]:
    """Objectives of ``family`` whose largest stress exceeds the threshold,
    which is negative, so every objective with a positive stress is active."""
    if stresses.shape[0] < 1:
        raise ValueError("need at least one evaluation")
    return [k for k in family if np.max(stresses[:, k]) > stress_threshold]


def sample_candidates(
    ids: np.ndarray, times_drawn: np.ndarray, m: int, rng: np.random.Generator
) -> np.ndarray:
    """Sample up to m of the ascending ``ids`` without replacement, weight
    1 / (1 + times drawn before); returns them in ascending order.

    Uses exponential sort keys so the draw is a proper weighted sample and
    deterministic for a given generator state.
    """
    if not len(ids):
        raise ValueError("unevaluated search space is exhausted")
    # Divided by the weight: multiplying by 1 + times_drawn rounds
    # differently in the last bit, which can reorder seeded draws.
    keys = rng.exponential(size=len(ids)) / (1.0 / (1.0 + times_drawn))
    return np.sort(ids[np.argsort(keys, kind="stable")[:m]])


# Cap on the violation elements gathered for one block of screen survivors
# (survivors x width x K objectives, the width being the most survivors of
# any one sample): 512 KB of float64 per block; the block's boolean
# comparison arrays hold survivors x width elements.
_MC_BLOCK_ELEMENTS = 1 << 16


def _candidate_nondominated_freq(
    sampled_stress: np.ndarray,
    evaluated_violations: np.ndarray,
    num_bus: int,
    cfg: ViolationConfig,
) -> np.ndarray:
    """Fraction of samples in which each candidate is critical.

    sampled_stress is objective-major, of shape (K, N, M): K active
    objectives, the first ``num_bus`` of them bus objectives, each an (N, M)
    block of N samples of the M candidates. Evaluated violations (already
    mapped, (E, K)) enter each simulated front as fixed points. A candidate
    is critical in a sample iff it has a positive violation and neither an
    evaluated point nor another candidate of that sample dominates it. Only
    positive candidates are tested, and a point that dominates a positive one
    is positive, so a point dominated by an evaluated one is dominated by a
    member of their critical front (``pareto.critical_indices``): that front
    is the one compared against.

    Each sample's candidates are first screened against K + 1 pivots of the
    same sample: the largest row of each objective and the row of largest
    sum. A pivot is one of the sample's rows, so the screen only removes
    candidates that really are dominated. A survivor is then tested against
    the evaluated front and the other survivors of its own sample only,
    padded with -inf rows (which dominate nothing) to the widest sample.
    That is exact: dominance is a strict partial order on finitely many
    rows, so a row dominated by any row of its sample is dominated by a
    non-dominated one, which is positive and passes the screen. Each
    survivor meets at most M rows of its sample, as many as an all-pairs
    test would compare; when few survive, far fewer. Survivors go in blocks
    of at most _MC_BLOCK_ELEMENTS gathered violations.
    """
    k, n_samples, _ = sampled_stress.shape
    # violation_map maps the last axis; its ufuncs keep the layout of their
    # input, so the moved-back result is objective-major again.
    viol = np.moveaxis(violation_map(np.moveaxis(sampled_stress, 0, -1), num_bus, cfg), -1, 0)
    rows = np.moveaxis(viol, 0, -1)  # (N, M, K) view for pareto.dominated
    fixed = evaluated_violations[critical_indices(evaluated_violations)]
    pivot_ids = np.vstack([viol.argmax(axis=2), viol.sum(axis=0).argmax(axis=1)])
    pivots = np.take_along_axis(viol, pivot_ids.T[None], axis=2)  # (K, N, K + 1)
    alive = np.any(viol > 0, axis=0) & ~dominated(rows, np.moveaxis(pivots, 0, -1))
    sample, cand = np.nonzero(alive)  # by sample, then candidate
    counts = np.bincount(sample, minlength=n_samples)
    slot = np.arange(len(sample)) - (np.cumsum(counts) - counts)[sample]
    survivors = np.full((k, n_samples, counts.max(initial=0)), -np.inf)
    points = viol[:, sample, cand]
    survivors[:, sample, slot] = points
    points = points.T
    per_block = max(1, _MC_BLOCK_ELEMENTS // max(1, survivors.shape[2] * k))
    for start in range(0, len(sample), per_block):
        block = slice(start, start + per_block)
        s, p = sample[block], points[block]
        peers = np.moveaxis(survivors[:, s], 0, -1)
        alive[s, cand[block]] = ~(dominated(p, fixed) | dominated(p[:, None], peers)[:, 0])
    return alive.sum(axis=0) / n_samples


def acquisition_alpha_nd(
    gps: dict[int, GPSurrogate],
    candidate_bits: np.ndarray,
    evaluated_stress: np.ndarray,
    num_bus: int,
    cfg: ViolationConfig,
    num_samples: int,
    seed,
) -> np.ndarray:
    """Probability of each candidate being non-dominated (Monte Carlo).

    ``gps`` maps an objective index to its GP; as in ``violation_map``, the
    objectives below the feeder's ``num_bus`` are bus objectives. For every
    objective of ``gps``, joint posterior samples over the candidates are
    drawn, mapped to violations and compared against the realized violations
    of the evaluated rows, whose full stresses ``evaluated_stress`` holds.
    Candidates with zero sampled violations never count as critical.
    """
    if not gps:
        raise ValueError("need at least one active objective")
    keys = sorted(gps)
    active_bus = int(np.searchsorted(keys, num_bus))
    m = candidate_bits.shape[0]
    sampled = np.empty((len(keys), num_samples, m))  # objective-major
    for j, k in enumerate(keys):
        post = posterior(gps[k], candidate_bits)
        child = np.random.SeedSequence((_seed_entropy(seed), j))
        sampled[j] = sample_joint(post, num_samples, child)
    evaluated = violation_map(evaluated_stress[:, keys], active_bus, cfg)
    return _candidate_nondominated_freq(sampled, evaluated, active_bus, cfg)


def _seed_entropy(seed) -> int:
    """Collapse a seed-ish value into an int for SeedSequence composition."""
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def select_batch(
    alpha: np.ndarray, candidate_ids: np.ndarray | list[int], batch_size: int
) -> list[int]:
    """Top-B candidates by alpha; alpha = 0 skipped; ties go to lower ids."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    ids = np.asarray(candidate_ids)
    top = np.lexsort((ids, -alpha))[:batch_size]
    return ids[top[alpha[top] > 0]].tolist()


def evaluate_scenarios(
    feeder: Feeder, bits: np.ndarray, pf: PowerFlowConfig = PowerFlowConfig()
) -> tuple[np.ndarray, np.ndarray]:
    """Stress (S x D) and power-flow convergence (S,) of each row of ``bits``.

    Stresses are taken over the bus groups the feeder carries; a row whose
    sweep did not converge has a meaningless stress. A stress is a function
    of the bits alone, so the distinct rows are solved in one batched power
    flow and duplicates copy their row's result.
    """
    first, inverse = distinct_rows(bits)
    flow = solve_power_flow(feeder, bits[first], tol=pf.tol, max_iter=pf.max_iter,
                            pv_derate=pf.pv_derate)
    stress = compute_stress(feeder, feeder.partition(), flow)
    return stress[inverse], flow.converged[inverse]


def fit_gps(
    train_bits: np.ndarray,
    train_stress: np.ndarray,
    active: list[int],
    fits: dict[int, tuple[KernelParams, int]],
    step: int,
    cfg: SearchConfig,
) -> tuple[dict[int, GPSurrogate], list[int]]:
    """The GP of each ``active`` objective at ``step``, and the objectives
    refit, in ``active`` order.

    ``fits`` maps an objective to its (params, step fitted) and is left as
    it is. An objective with no fit, or one fitted ``cfg.refit_period``
    steps ago, is refit, warm-started from its params and seeded from
    (seed, 4, step, objective); the others keep their params. An objective's
    GP reads only its own stress column and fit, so each one can be built
    apart from the others.
    """
    gps: dict[int, GPSurrogate] = {}
    refit: list[int] = []
    for k in active:
        params, fitted = fits.get(k, (None, 0))
        if params is None or step - fitted >= cfg.refit_period:
            params = fit_hyperparameters(train_bits, train_stress[:, k], init=params,
                                         seed=_seed_entropy((cfg.seed, 4, step, k)))
            refit.append(k)
        gps[k] = GPSurrogate.build(train_bits, train_stress[:, k], params)
        if log.isEnabledFor(logging.DEBUG):
            log.debug("step %d obj %d: eta=%.3g noise=%.3g theta_max=%.3g refit=%s", step, k,
                      params.eta, params.noise, float(np.max(params.theta)), k in refit)
    return gps, refit


def run_search(
    feeder: Feeder,
    diffusion: DiffusionParams,
    viol_cfg: ViolationConfig,
    cfg: SearchConfig,
    pf: PowerFlowConfig = PowerFlowConfig(),
) -> SearchResult:
    """Run the full search loop until the stopping bound or exhaustion."""
    num_bus = feeder.num_groups
    dim = num_bus + feeder.num_lines

    # Every fact about a scenario is an array aligned with the pool, whose
    # row index is the scenario id.
    pool = np.empty((0, feeder.num_adopters), dtype=np.uint8)
    drawn = np.empty(0, dtype=np.intp)  # times drawn as a candidate
    evaluated_at = np.empty(0, dtype=np.intp)  # step that evaluated the row, -1 if none
    row = np.empty(0, dtype=np.intp)  # the row's position in ``stress``, -1 if none
    # Stress is a function of the bits alone, so only the first copy of each
    # bit vector is ever a candidate; Monte Carlo duplicates of an evaluated
    # (or invalid) scenario carry no information. ``firsts`` holds the first
    # copies in the byte order distinct_rows returns, so that its next stable
    # sort starts from nearly sorted rows.
    firsts = np.empty(0, dtype=np.intp)
    stress = np.empty((0, dim))  # the converged evaluations, in evaluation order

    def add_scenarios(batch: np.ndarray) -> None:
        nonlocal pool, drawn, evaluated_at, row, firsts
        # The pool's first copies precede the batch, so a batch row that
        # repeats one of them is not a first copy.
        ids = np.concatenate([firsts, np.arange(len(pool), len(pool) + len(batch))])
        pool = np.concatenate([pool, batch])
        drawn = np.concatenate([drawn, np.zeros(len(batch), dtype=np.intp)])
        evaluated_at = np.concatenate([evaluated_at, np.full(len(batch), -1)])
        row = np.concatenate([row, np.full(len(batch), -1)])
        firsts = ids[distinct_rows(pool[ids])[0]]

    def evaluate_batch(sids: list[int] | np.ndarray, step: int) -> None:
        """Evaluate a batch, then commit its results in batch order."""
        nonlocal stress
        sids = np.asarray(sids, dtype=np.intp)
        new, converged = evaluate_scenarios(feeder, pool[sids], pf)
        # Running counts over the search, as each row of the batch commits.
        attempts = np.count_nonzero(evaluated_at >= 0) + np.arange(1, len(sids) + 1)
        failed = attempts - len(stress) - np.cumsum(converged)
        for i in np.flatnonzero(~converged):
            log.warning("power flow did not converge for scenario %d; excluded", sids[i])
            if attempts[i] >= 10 and failed[i] > 0.1 * attempts[i]:
                raise SearchAbort(
                    f"{failed[i]}/{attempts[i]} power flows failed to converge; "
                    "check feeder data and solver settings"
                )
        evaluated_at[sids] = step
        row[sids[converged]] = len(stress) + np.arange(np.count_nonzero(converged))
        stress = np.concatenate([stress, new[converged]])

    # Initialization: n0 evaluated scenarios, then grow to |S_1|.
    add_scenarios(simulate_batch(feeder, diffusion, cfg.n0, seed=(cfg.seed, 0)))
    evaluate_batch(np.arange(cfg.n0), step=0)
    if len(stress) < 2:
        raise SearchAbort(
            f"{len(stress)} of {cfg.n0} initial power flows converged; "
            "the GP fits need at least two"
        )
    add_scenarios(simulate_batch(feeder, diffusion, cfg.n_init, seed=(cfg.seed, 1)))
    m_cand = cfg.num_candidates or (cfg.n0 + cfg.n_init)

    fits: dict[int, tuple[KernelParams, int]] = {}  # objective -> (params, step fitted)
    tau = np.full(2, np.nan)  # (bus, line); NaN until the phase first runs
    tau_rows: list[np.ndarray] = []
    cand_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2)))
    stop_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 3)))

    def expansion_size() -> int:
        cap = cfg.max_search_space
        room = (cap - len(pool)) if cap is not None else cfg.n_expand
        return min(cfg.n_expand, max(room, 0))

    # The GP matrices are too small to gain from a second BLAS thread.
    with _single_thread_blas():
        step = 0
        while True:
            is_open = np.zeros(len(pool), dtype=bool)
            is_open[firsts] = evaluated_at[firsts] < 0
            open_ids = np.flatnonzero(is_open)  # first copies not yet evaluated
            if np.all(tau < cfg.tau_bar):
                stop_reason = "converged"
                break
            if not len(open_ids) and not expansion_size():
                stop_reason = "exhausted"
                break
            if step == cfg.max_steps:
                stop_reason = "max_steps"
                break
            step += 1
            phase = (step - 1) % 2  # 0: bus, 1: line
            family = range(num_bus, dim) if phase else range(num_bus)
            active = detect_active_objectives(stress, family, cfg.stress_threshold)

            # With no active objective, or nothing left to evaluate, no
            # scenario in the pool can be a missed critical one.
            tau_val = 0.0
            if active and len(open_ids):
                # The GPs train in id order: a fit's roundoff depends on the
                # row order, and seeded results use this one.
                train = np.flatnonzero(row >= 0)
                gps, refit = fit_gps(pool[train], stress[row[train]], active, fits, step, cfg)
                for k in refit:
                    fits[k] = (gps[k].params, step)

                cand_ids = sample_candidates(open_ids, drawn[open_ids], m_cand, cand_rng)
                drawn[cand_ids] += 1
                alpha = acquisition_alpha_nd(gps, pool[cand_ids], stress, num_bus, viol_cfg,
                                             cfg.num_mc_samples, seed=(cfg.seed, 5, step))

                # Stopping subsample: prefer unevaluated scenarios disjoint from the
                # acquisition candidates; top up by reusing candidate alphas.
                rest = np.setdiff1d(open_ids, cand_ids, assume_unique=True)
                take = min(m_cand, len(rest))
                if take > 0:
                    sub = np.sort(stop_rng.choice(rest, size=take, replace=False))
                    sub_alpha = acquisition_alpha_nd(gps, pool[sub], stress, num_bus, viol_cfg,
                                                     cfg.num_mc_samples, seed=(cfg.seed, 6, step))
                    tau_val += float(np.sum(sub_alpha))
                if take < m_cand:
                    reuse = np.lexsort((cand_ids, -alpha))[:m_cand - take]
                    tau_val += float(np.sum(alpha[reuse]))
                if log.isEnabledFor(logging.DEBUG):
                    nz = alpha[alpha > 0]
                    log.debug(
                        "step %d %s: tau=%.3f alpha>0 %d/%d max=%.3f",
                        step, ("bus", "line")[phase], tau_val, len(nz), len(alpha),
                        float(alpha.max()) if len(alpha) else 0.0,
                    )

                batch = select_batch(alpha, cand_ids, cfg.batch_size)
                evaluate_batch(batch, step)

            tau[phase] = tau_val
            tau_rows.append(tau.copy())

            n_new = expansion_size()
            if n_new > 0:
                add_scenarios(simulate_batch(feeder, diffusion, n_new, seed=(cfg.seed, 7, step)))

    evaluated = np.flatnonzero(row >= 0)
    ids = np.empty_like(evaluated)
    ids[row[evaluated]] = evaluated  # in evaluation order, as ``stress`` is
    invalid = np.flatnonzero((evaluated_at >= 0) & (row < 0))
    fields = _result_fields(feeder, viol_cfg, pool, ids, stress, invalid.tolist())
    fronts = fields["fronts"]
    critical = set(fronts.critical_objectives_bus) | set(fronts.critical_objectives_line)
    return SearchResult(
        **fields,
        steps=evaluated_at[ids],
        tau=np.array(tau_rows).reshape(-1, 2),
        relevance={
            k: adopter_relevance(params) for k, (params, _) in fits.items() if k in critical
        },
        stop_reason=stop_reason,
    )


def _result_fields(feeder: Feeder, viol_cfg: ViolationConfig, bits: np.ndarray,
                   ids: np.ndarray, stress: np.ndarray, invalid_ids: list[int]) -> dict:
    """The ``OracleResult`` fields of the evaluated rows ``ids`` of ``bits``."""
    num_bus = feeder.num_groups
    violations = violation_map(stress, num_bus, viol_cfg)
    return dict(bits=bits, ids=ids, stress=stress, violations=violations, invalid_ids=invalid_ids,
                fronts=critical_fronts(ids, violations, num_bus))


def brute_force_oracle(
    feeder: Feeder,
    viol_cfg: ViolationConfig,
    bits: np.ndarray,
    pf: PowerFlowConfig = PowerFlowConfig(),
) -> OracleResult:
    """Evaluate every row of ``bits``; exact critical sets per objective family."""
    if len(bits) > ORACLE_BUDGET:
        raise ValueError(
            f"{len(bits)} scenarios exceed the oracle budget of {ORACLE_BUDGET}"
        )
    stress, converged = evaluate_scenarios(feeder, bits, pf)
    return OracleResult(**_result_fields(
        feeder, viol_cfg, bits, np.flatnonzero(converged), stress[converged],
        np.flatnonzero(~converged).tolist(),
    ))

"""Bayesian-optimization search for Pareto-critical adoption scenarios.

The loop alternates bus and line phases; each phase fits per-objective GPs on
the evaluated stresses, scores candidate scenarios by the Monte Carlo
probability of being non-dominated, evaluates the top batch with the power
flow, expands the simulated search space, and tracks a per-phase stopping
criterion bounding the probability of a missed critical scenario.
"""

from __future__ import annotations

import logging
from collections.abc import Collection
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
        _check_int("n0", self.n0, 2)  # a GP fit needs two training points
        for name in ("n_init", "n_expand", "batch_size", "num_mc_samples",
                     "refit_period", "max_steps", "num_candidates", "max_search_space"):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name), 1)
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
    num_bus_objectives: int
    num_line_objectives: int
    fronts: CriticalFronts

    @property
    def num_evaluations(self) -> int:
        return len(self.ids)


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
    unevaluated_ids: Collection[int],
    counts: dict[int, int],
    m: int,
    rng: np.random.Generator,
) -> list[int]:
    """Sample up to m ids without replacement, weight 1 / (1 + times sampled).

    Uses exponential sort keys so the draw is a proper weighted sample and
    deterministic for a given generator state.
    """
    if not unevaluated_ids:
        raise ValueError("unevaluated search space is exhausted")
    ids = np.asarray(sorted(unevaluated_ids))
    weights = 1.0 / (1.0 + np.array([counts.get(int(i), 0) for i in ids], dtype=float))
    keys = rng.exponential(size=len(ids)) / weights
    take = min(m, len(ids))
    chosen = ids[np.argsort(keys, kind="stable")[:take]]
    return sorted(int(i) for i in chosen)


# Cap on the violation elements gathered for one block of screen survivors
# (survivors x M candidates x K objectives): 512 KB of float64 per block; the
# block's boolean comparison arrays hold survivors x M elements.
_MC_BLOCK_ELEMENTS = 1 << 16


def _candidate_nondominated_freq(
    sampled_stress: np.ndarray,
    evaluated_violations: np.ndarray,
    num_bus: int,
    cfg: ViolationConfig,
) -> np.ndarray:
    """Fraction of samples in which each candidate is critical.

    sampled_stress has shape (N, M, K) over active objectives, the first
    ``num_bus`` of them bus objectives; evaluated violations (already mapped)
    enter each simulated front as fixed points. A candidate is critical in a
    sample iff it has a positive violation and neither an evaluated point nor
    another candidate of that sample dominates it. Only positive candidates
    are tested, and a point that dominates a positive one is positive, so a
    point dominated by an evaluated one is dominated by a member of their
    critical front (``pareto.critical_indices``): that front is the one
    compared against.

    Each sample's candidates are first screened against K + 1 pivots of the
    same sample: the largest row of each objective and the row of largest
    sum. A pivot is one of the sample's rows, so the screen only removes
    candidates that really are dominated; the survivors, usually few, are
    then tested against the evaluated front and all M rows of their sample
    in blocks of at most _MC_BLOCK_ELEMENTS gathered violations.
    """
    n_samples, m, k = sampled_stress.shape
    viol = violation_map(sampled_stress, num_bus, cfg)
    fixed = evaluated_violations[critical_indices(evaluated_violations)]
    rows = np.concatenate([viol.argmax(axis=1), viol.sum(axis=-1).argmax(axis=1)[:, None]],
                          axis=1)
    pivots = np.take_along_axis(viol, rows[..., None], axis=1)
    alive = np.any(viol > 0, axis=-1) & ~dominated(viol, pivots)
    sample, cand = np.nonzero(alive)
    per_block = max(1, _MC_BLOCK_ELEMENTS // (m * k))
    for start in range(0, len(sample), per_block):
        s, c = sample[start:start + per_block], cand[start:start + per_block]
        points = viol[s, c]
        alive[s, c] = ~(dominated(points, fixed) | dominated(points[:, None], viol[s])[:, 0])
    return alive.sum(axis=0) / n_samples


def acquisition_alpha_nd(
    gps: dict[int, GPSurrogate],
    candidate_bits: np.ndarray,
    evaluated_violations: np.ndarray,
    num_bus: int,
    cfg: ViolationConfig,
    num_samples: int,
    seed,
) -> np.ndarray:
    """Probability of each candidate being non-dominated (Monte Carlo).

    For every active objective, joint posterior samples over the candidates
    are drawn, mapped to violations (the first ``num_bus`` objectives, in key
    order, are bus objectives) and compared against the realized
    violations of already-evaluated scenarios. Candidates with zero sampled
    violations never count as critical.
    """
    if not gps:
        raise ValueError("need at least one active objective")
    keys = sorted(gps)
    m = candidate_bits.shape[0]
    sampled = np.empty((num_samples, m, len(keys)))
    for j, k in enumerate(keys):
        post = posterior(gps[k], candidate_bits)
        child = np.random.SeedSequence((_seed_entropy(seed), j))
        sampled[:, :, j] = sample_joint(post, num_samples, child)
    return _candidate_nondominated_freq(sampled, evaluated_violations, num_bus, cfg)


def _seed_entropy(seed) -> int:
    """Collapse a seed-ish value into an int for SeedSequence composition."""
    if isinstance(seed, (int, np.integer)):
        return int(seed)
    return int(np.random.SeedSequence(seed).generate_state(1)[0])


def _rank_by_alpha(alpha: np.ndarray, candidate_ids: list[int]) -> list[int]:
    """Candidate positions by decreasing alpha; ties go to lower ids."""
    return sorted(range(len(candidate_ids)), key=lambda i: (-alpha[i], candidate_ids[i]))


def select_batch(
    alpha: np.ndarray, candidate_ids: list[int], batch_size: int
) -> list[int]:
    """Top-B candidates by alpha; alpha = 0 skipped; ties go to lower ids."""
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = _rank_by_alpha(alpha, candidate_ids)
    return [candidate_ids[i] for i in order[:batch_size] if alpha[i] > 0]


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


_DEFAULT_NOISE = 1e-4


def run_search(
    feeder: Feeder,
    diffusion: DiffusionParams,
    viol_cfg: ViolationConfig,
    cfg: SearchConfig,
    pf: PowerFlowConfig = PowerFlowConfig(),
) -> SearchResult:
    """Run the full search loop until the stopping bound or exhaustion."""
    num_bus = feeder.num_groups
    num_line = feeder.num_lines
    dim = num_bus + num_line
    num_agents = feeder.num_adopters

    pool = np.empty((0, num_agents), dtype=np.uint8)  # row index = scenario id
    counts: dict[int, int] = {}
    # The evaluated rows, in evaluation order.
    eval_ids: list[int] = []
    eval_steps: list[int] = []
    eval_stress: list[np.ndarray] = []
    invalid: list[int] = []
    # Stress is a function of the bits alone, so only the lowest id carrying
    # each bit vector is ever a candidate; Monte Carlo duplicates of an
    # evaluated (or invalid) scenario carry no information.
    seen: set[bytes] = set()  # row bytes of every scenario in the pool
    unevaluated: set[int] = set()

    def add_scenarios(batch: np.ndarray) -> None:
        nonlocal pool
        for sid, row in enumerate(batch, start=len(pool)):
            key = row.tobytes()
            if key not in seen:
                seen.add(key)
                unevaluated.add(sid)
        pool = np.concatenate([pool, batch])

    def evaluate_batch(sids: list[int], step: int) -> None:
        """Evaluate a batch, then commit its results one at a time in batch order."""
        stress, converged = evaluate_scenarios(feeder, pool[sids], pf)
        for sid, row, ok in zip(sids, stress, converged):
            unevaluated.discard(sid)
            if not ok:
                invalid.append(sid)
                log.warning("power flow did not converge for scenario %d; excluded", sid)
                attempts = len(eval_ids) + len(invalid)
                if attempts >= 10 and len(invalid) > 0.1 * attempts:
                    raise SearchAbort(
                        f"{len(invalid)}/{attempts} power flows failed to converge; "
                        "check feeder data and solver settings"
                    )
                continue
            eval_ids.append(sid)
            eval_steps.append(step)
            eval_stress.append(row)

    # Initialization: n0 evaluated scenarios, then grow to |S_1|.
    add_scenarios(simulate_batch(feeder, diffusion, cfg.n0, seed=(cfg.seed, 0)))
    evaluate_batch(list(range(cfg.n0)), step=0)
    if len(eval_ids) < 2:
        raise SearchAbort(
            f"{len(eval_ids)} of {cfg.n0} initial power flows converged; "
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
            if np.all(tau < cfg.tau_bar):
                stop_reason = "converged"
                break
            if not unevaluated and not expansion_size():
                stop_reason = "exhausted"
                break
            if step == cfg.max_steps:
                stop_reason = "max_steps"
                break
            step += 1
            phase = (step - 1) % 2  # 0: bus, 1: line
            family = range(num_bus, dim) if phase else range(num_bus)
            # The GPs train on the rows in ascending id order: a fit's
            # roundoff depends on the row order, and seeded results use this one.
            order = np.argsort(eval_ids)
            train_ids = np.asarray(eval_ids)[order]
            stress_mat = np.array(eval_stress)[order]
            active = detect_active_objectives(stress_mat, family, cfg.stress_threshold)

            # With no active objective, or nothing left to evaluate, no
            # scenario in the pool can be a missed critical one.
            tau_val = 0.0
            if active and unevaluated:
                x_eval = pool[train_ids].astype(float)
                gps: dict[int, GPSurrogate] = {}
                for k in active:
                    params, fitted = fits.get(k, (None, 0))
                    refit = params is None or step - fitted >= cfg.refit_period
                    if refit:
                        params = fit_hyperparameters(
                            x_eval,
                            stress_mat[:, k],
                            init=params or KernelParams(
                                eta=1.0, theta=np.ones(num_agents), noise=_DEFAULT_NOISE),
                            seed=_seed_entropy((cfg.seed, 4, step, k)),
                        )
                        fits[k] = (params, step)
                    gps[k] = GPSurrogate.build(x_eval, stress_mat[:, k], params)
                    if log.isEnabledFor(logging.DEBUG):
                        log.debug(
                            "step %d obj %d: eta=%.3g noise=%.3g theta_max=%.3g refit=%s",
                            step, k, params.eta, params.noise,
                            float(np.max(params.theta)), refit,
                        )

                num_active_bus = 0 if phase else len(active)
                eval_viol = violation_map(stress_mat[:, active], num_active_bus, viol_cfg)

                cand_ids = sample_candidates(unevaluated, counts, m_cand, cand_rng)
                for cid in cand_ids:
                    counts[cid] = counts.get(cid, 0) + 1
                cand_bits = pool[cand_ids].astype(float)
                alpha = acquisition_alpha_nd(gps, cand_bits, eval_viol, num_active_bus, viol_cfg,
                                             cfg.num_mc_samples, seed=(cfg.seed, 5, step))

                # Stopping subsample: prefer unevaluated scenarios disjoint from the
                # acquisition candidates; top up by reusing candidate alphas.
                rest = sorted(unevaluated - set(cand_ids))
                take = min(m_cand, len(rest))
                if take > 0:
                    sub = sorted(
                        int(i) for i in stop_rng.choice(np.asarray(rest), size=take, replace=False)
                    )
                    sub_bits = pool[sub].astype(float)
                    sub_alpha = acquisition_alpha_nd(gps, sub_bits, eval_viol, num_active_bus,
                                                     viol_cfg, cfg.num_mc_samples,
                                                     seed=(cfg.seed, 6, step))
                    tau_val += float(np.sum(sub_alpha))
                if take < m_cand:
                    reuse = _rank_by_alpha(alpha, cand_ids)[:m_cand - take]
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

    fields = _result_fields(
        feeder, viol_cfg, pool, np.asarray(eval_ids), np.array(eval_stress), sorted(invalid)
    )
    fronts = fields["fronts"]
    critical = set(fronts.critical_objectives_bus) | set(fronts.critical_objectives_line)
    return SearchResult(
        **fields,
        steps=np.asarray(eval_steps),
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
                num_bus_objectives=num_bus, num_line_objectives=feeder.num_lines,
                fronts=critical_fronts(ids, violations, num_bus))


ORACLE_BUDGET = 100_000  # scenarios the brute-force oracle evaluates at most


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

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

from gridcrit.adoption import (
    DiffusionParams,
    Scenario,
    _check_int,
    _check_real,
    simulate_batch,
)
from gridcrit.feeder import Feeder
from gridcrit.pareto import CriticalFronts, critical_fronts, dominated, front_indices
from gridcrit.powerflow import (
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
        for name in ("n0", "n_init", "n_expand", "batch_size", "num_mc_samples",
                     "refit_period", "max_steps", "num_candidates", "max_search_space"):
            if getattr(self, name) is not None:
                _check_int(name, getattr(self, name), 1)
        _check_int("seed", self.seed, 0)
        _check_real("tau_bar", self.tau_bar)
        _check_real("stress_threshold", self.stress_threshold)
        if self.tau_bar <= 0:
            raise ValueError("tau_bar must be positive")
        if self.stress_threshold >= 0:
            raise ValueError("stress_threshold must be negative")


@dataclass
class SearchResult:
    """Everything the search learned, plus traces for reporting.

    ``bits`` is the pool, a uint8 (S x A) matrix whose row index is the scenario
    id; ``stresses`` is keyed by the evaluated ids in ``evaluation_log`` order."""

    bits: np.ndarray
    invalid_ids: list[int]
    stresses: dict[int, np.ndarray]
    violations: dict[int, np.ndarray]
    num_bus_objectives: int
    num_line_objectives: int
    fronts: CriticalFronts
    tau_steps: list[int]
    tau_bus_trace: list[float]
    tau_line_trace: list[float]
    evaluation_log: list[tuple[int, int]]  # (step, scenario id)
    relevance: dict[int, np.ndarray]       # objective index -> adopter relevance
    stop_reason: str

    @property
    def num_evaluations(self) -> int:
        return len(self.stresses)

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
    bus_mask: np.ndarray,
    cfg: ViolationConfig,
) -> np.ndarray:
    """Fraction of samples in which each candidate is critical.

    sampled_stress has shape (N, M, K) over active objectives; evaluated
    violations (already mapped) enter each simulated front as fixed points.
    A candidate is critical in a sample iff it has a positive violation and
    neither an evaluated point nor another candidate of that sample dominates
    it. A point dominated by an evaluated one is dominated by a member of
    their front, so only the distinct front members are compared against.

    Each sample's candidates are first screened against K + 1 pivots of the
    same sample: the largest row of each objective and the row of largest
    sum. A pivot is one of the sample's rows, so the screen only removes
    candidates that really are dominated; the survivors, usually few, are
    then tested against the evaluated front and all M rows of their sample
    in blocks of at most _MC_BLOCK_ELEMENTS gathered violations.
    """
    n_samples, m, k = sampled_stress.shape
    viol = violation_map(sampled_stress, bus_mask, cfg)
    fixed = np.unique(evaluated_violations, axis=0)
    fixed = fixed[front_indices(fixed)]
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
    bus_mask: np.ndarray,
    cfg: ViolationConfig,
    num_samples: int,
    seed,
) -> np.ndarray:
    """Probability of each candidate being non-dominated (Monte Carlo).

    For every active objective, joint posterior samples over the candidates
    are drawn, mapped to violations and compared against the realized
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
    return _candidate_nondominated_freq(sampled, evaluated_violations, bus_mask, cfg)


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
    feeder: Feeder,
    bits: np.ndarray,
    pf_tol: float = 1e-8,
    pf_max_iter: int = 50,
    pv_derate: float = 1.0,
) -> tuple[np.ndarray, np.ndarray]:
    """Stress (S x D) and power-flow convergence (S,) of each row of ``bits``.

    Stresses are taken over the bus groups the feeder carries; a row whose
    sweep did not converge has a meaningless stress. A stress is a function
    of the bits alone, so the sorted distinct rows are solved in one batched
    power flow and duplicates copy their row's result.
    """
    distinct, inverse = np.unique(bits, axis=0, return_inverse=True)
    pf = solve_power_flow(feeder, distinct, tol=pf_tol, max_iter=pf_max_iter, pv_derate=pv_derate)
    stress = compute_stress(feeder, feeder.partition(), pf)
    return stress[inverse], pf.converged[inverse]


_DEFAULT_NOISE = 1e-4


def run_search(
    feeder: Feeder,
    diffusion: DiffusionParams,
    viol_cfg: ViolationConfig,
    cfg: SearchConfig,
    pf_tol: float = 1e-8,
    pf_max_iter: int = 50,
    pv_derate: float = 1.0,
) -> SearchResult:
    """Run the full search loop until the stopping bound or exhaustion."""
    num_bus = feeder.num_groups
    num_line = feeder.num_lines
    dim = num_bus + num_line
    num_agents = feeder.num_adopters

    pool = np.empty((0, num_agents), dtype=np.uint8)  # row index = scenario id
    counts: dict[int, int] = {}
    stresses: dict[int, np.ndarray] = {}
    invalid: list[int] = []
    eval_log: list[tuple[int, int]] = []
    attempts = 0
    # Stress is a function of the bits alone, so only the lowest id carrying
    # each bit vector is ever evaluated; Monte Carlo duplicates of an
    # evaluated (or invalid) scenario carry no information.
    representative: dict[bytes, int] = {}  # row bytes -> lowest id
    unevaluated: set[int] = set()

    def add_scenarios(batch: np.ndarray) -> None:
        nonlocal pool
        for sid, row in enumerate(batch, start=len(pool)):
            if representative.setdefault(row.tobytes(), sid) == sid:
                unevaluated.add(sid)
        pool = np.concatenate([pool, batch])

    def evaluate_batch(sids: list[int], step: int) -> None:
        """Evaluate a batch, then commit its results one at a time in batch order."""
        nonlocal attempts
        stress, converged = evaluate_scenarios(feeder, pool[sids], pf_tol, pf_max_iter, pv_derate)
        for sid, row, ok in zip(sids, stress, converged):
            attempts += 1
            unevaluated.discard(representative[pool[sid].tobytes()])
            if not ok:
                invalid.append(sid)
                log.warning("power flow did not converge for scenario %d; excluded", sid)
                if attempts >= 10 and len(invalid) > 0.1 * attempts:
                    raise SearchAbort(
                        f"{len(invalid)}/{attempts} power flows failed to converge; "
                        "check feeder data and solver settings"
                    )
                continue
            stresses[sid] = row
            eval_log.append((step, sid))

    # Initialization: n0 evaluated scenarios, then grow to |S_1|.
    add_scenarios(simulate_batch(feeder, diffusion, cfg.n0, seed=(cfg.seed, 0)))
    evaluate_batch(list(range(cfg.n0)), step=0)
    if not stresses:
        raise SearchAbort("no initial scenario produced a converged power flow")
    add_scenarios(simulate_batch(feeder, diffusion, cfg.n_init, seed=(cfg.seed, 1)))
    m_cand = cfg.num_candidates or (cfg.n0 + cfg.n_init)

    params_cache: dict[int, KernelParams] = {}
    last_fit_step: dict[int, int] = {}
    tau = {"bus": np.inf, "line": np.inf}
    tau_steps: list[int] = []
    tau_bus_trace: list[float] = []
    tau_line_trace: list[float] = []
    cand_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 2)))
    stop_rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 3)))
    stop_reason = "max_steps"

    def default_params() -> KernelParams:
        return KernelParams(eta=1.0, theta=np.ones(num_agents), noise=_DEFAULT_NOISE)

    def expansion_size() -> int:
        cap = cfg.max_search_space
        room = (cap - len(pool)) if cap is not None else cfg.n_expand
        return min(cfg.n_expand, max(room, 0))

    # The GP matrices are too small to gain from a second BLAS thread.
    with _single_thread_blas():
        step = 0
        while step < cfg.max_steps:
            if max(tau["bus"], tau["line"]) < cfg.tau_bar:
                stop_reason = "converged"
                break
            if not unevaluated and not expansion_size():
                stop_reason = "exhausted"
                break
            step += 1
            phase = "bus" if step % 2 == 1 else "line"
            family = range(num_bus) if phase == "bus" else range(num_bus, dim)
            eval_ids = sorted(stresses)
            stress_mat = np.array([stresses[i] for i in eval_ids])
            active = detect_active_objectives(stress_mat, family, cfg.stress_threshold)

            if not active or not unevaluated:
                # No objective is active, or nothing is left to evaluate: no
                # scenario in the pool can be a missed critical one.
                tau[phase] = 0.0
            else:
                x_eval = pool[eval_ids].astype(float)
                gps: dict[int, GPSurrogate] = {}
                for k in active:
                    need_refit = (
                        k not in params_cache
                        or (step - last_fit_step.get(k, 0)) >= cfg.refit_period
                    )
                    if need_refit:
                        params_cache[k] = fit_hyperparameters(
                            x_eval,
                            stress_mat[:, k],
                            init=params_cache.get(k, default_params()),
                            seed=_seed_entropy((cfg.seed, 4, step, k)),
                        )
                        last_fit_step[k] = step
                    gps[k] = GPSurrogate.build(x_eval, stress_mat[:, k], params_cache[k])
                    if log.isEnabledFor(logging.DEBUG):
                        log.debug(
                            "step %d obj %d: eta=%.3g noise=%.3g theta_max=%.3g refit=%s",
                            step, k, params_cache[k].eta, params_cache[k].noise,
                            float(np.max(params_cache[k].theta)), need_refit,
                        )

                bus_mask = np.array([k < num_bus for k in active])
                eval_viol = violation_map(stress_mat[:, active], bus_mask, viol_cfg)

                cand_ids = sample_candidates(unevaluated, counts, m_cand, cand_rng)
                for cid in cand_ids:
                    counts[cid] = counts.get(cid, 0) + 1
                cand_bits = pool[cand_ids].astype(float)
                alpha = acquisition_alpha_nd(
                    gps,
                    cand_bits,
                    eval_viol,
                    bus_mask,
                    viol_cfg,
                    cfg.num_mc_samples,
                    seed=(cfg.seed, 5, step),
                )

                # Stopping subsample: prefer unevaluated scenarios disjoint from the
                # acquisition candidates; top up by reusing candidate alphas.
                rest = sorted(unevaluated - set(cand_ids))
                tau_val = 0.0
                take = min(m_cand, len(rest))
                if take > 0:
                    sub = sorted(
                        int(i) for i in stop_rng.choice(np.asarray(rest), size=take, replace=False)
                    )
                    sub_bits = pool[sub].astype(float)
                    sub_alpha = acquisition_alpha_nd(
                        gps,
                        sub_bits,
                        eval_viol,
                        bus_mask,
                        viol_cfg,
                        cfg.num_mc_samples,
                        seed=(cfg.seed, 6, step),
                    )
                    tau_val += float(np.sum(sub_alpha))
                if take < m_cand:
                    reuse = _rank_by_alpha(alpha, cand_ids)[:m_cand - take]
                    tau_val += float(np.sum(alpha[reuse]))
                tau[phase] = tau_val
                if log.isEnabledFor(logging.DEBUG):
                    nz = alpha[alpha > 0]
                    log.debug(
                        "step %d %s: tau=%.3f alpha>0 %d/%d max=%.3f",
                        step, phase, tau_val, len(nz), len(alpha),
                        float(alpha.max()) if len(alpha) else 0.0,
                    )

                batch = select_batch(alpha, cand_ids, cfg.batch_size)
                evaluate_batch(batch, step)

            tau_steps.append(step)
            tau_bus_trace.append(tau["bus"] if np.isfinite(tau["bus"]) else np.nan)
            tau_line_trace.append(tau["line"] if np.isfinite(tau["line"]) else np.nan)

            n_new = expansion_size()
            if n_new > 0:
                add_scenarios(simulate_batch(feeder, diffusion, n_new, seed=(cfg.seed, 7, step)))

    violations, fronts = _violations_and_fronts(stresses, num_bus, num_line, viol_cfg)
    critical = set(fronts.critical_objectives_bus) | set(fronts.critical_objectives_line)
    return SearchResult(
        bits=pool,
        invalid_ids=sorted(invalid),
        stresses=stresses,
        violations=violations,
        num_bus_objectives=num_bus,
        num_line_objectives=num_line,
        fronts=fronts,
        tau_steps=tau_steps,
        tau_bus_trace=tau_bus_trace,
        tau_line_trace=tau_line_trace,
        evaluation_log=eval_log,
        relevance={
            k: adopter_relevance(p) for k, p in params_cache.items() if k in critical
        },
        stop_reason=stop_reason,
    )


def _violations_and_fronts(
    stresses: dict[int, np.ndarray], num_bus: int, num_line: int, viol_cfg: ViolationConfig
) -> tuple[dict[int, np.ndarray], CriticalFronts]:
    """Violation vector per evaluated scenario, and their critical fronts."""
    ids = list(stresses)
    stress_mat = np.array([stresses[i] for i in ids]).reshape(len(ids), num_bus + num_line)
    viol = violation_map(stress_mat, num_bus, viol_cfg)
    return dict(zip(ids, viol)), critical_fronts(ids, viol, num_bus)


@dataclass
class OracleResult:
    """Exact evaluation of every scenario in a set; ``bits`` as in ``SearchResult``."""

    bits: np.ndarray
    stresses: dict[int, np.ndarray]
    violations: dict[int, np.ndarray]
    invalid_ids: list[int]
    num_bus_objectives: int
    num_line_objectives: int
    fronts: CriticalFronts


ORACLE_BUDGET = 100_000  # scenarios the brute-force oracle evaluates at most


def brute_force_oracle(
    feeder: Feeder,
    viol_cfg: ViolationConfig,
    bits: np.ndarray,
    pf_tol: float = 1e-8,
    pf_max_iter: int = 50,
    pv_derate: float = 1.0,
    max_scenarios: int = ORACLE_BUDGET,
) -> OracleResult:
    """Evaluate every row of ``bits``; exact critical sets per objective family."""
    if len(bits) > max_scenarios:
        raise ValueError(
            f"{len(bits)} scenarios exceed the oracle budget of {max_scenarios}"
        )
    num_bus = feeder.num_groups
    num_line = feeder.num_lines
    stress, converged = evaluate_scenarios(feeder, bits, pf_tol, pf_max_iter, pv_derate)
    valid = np.flatnonzero(converged).tolist()
    stresses = dict(zip(valid, stress[valid]))
    violations, fronts = _violations_and_fronts(stresses, num_bus, num_line, viol_cfg)
    return OracleResult(
        bits=bits,
        stresses=stresses,
        violations=violations,
        invalid_ids=np.flatnonzero(~converged).tolist(),
        num_bus_objectives=num_bus,
        num_line_objectives=num_line,
        fronts=fronts,
    )

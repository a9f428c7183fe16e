"""Acceptance suite: end-to-end quality gates for the scenario search.

Each criterion prints a single PASS/FAIL line. The heavy fixtures (20 seeded
searches on the committed standard feeder, each cross-checked against a
brute-force oracle over that run's final search space) are computed once per
session and shared across criteria.
"""

import itertools
import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import critical_bits, found_bits, recovery_fraction
from gridcrit.adoption import DiffusionParams, Scenario, bitstrings
from gridcrit.cli import main as cli_main
from gridcrit.powerflow import ViolationConfig
from gridcrit.search import SearchConfig, brute_force_oracle, run_search

SPACE_CAP = 4096
NUM_SEEDS_RECOVERY = 10
NUM_SEEDS_GUARANTEE = 20


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"\nacceptance {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"acceptance criterion {num} failed: {detail}"


def _run_one(feeder, diffusion, seed):
    cfg = SearchConfig(seed=seed, max_search_space=SPACE_CAP)
    viol = ViolationConfig()
    t0 = time.perf_counter()
    result = run_search(feeder, diffusion, viol, cfg)
    elapsed = time.perf_counter() - t0
    oracle = brute_force_oracle(feeder, viol, result.bits)
    return result, oracle, elapsed


@pytest.fixture(scope="module")
def standard_runs(standard_feeder, std_diffusion):
    """Seeded searches plus per-run oracles over each final search space."""
    runs = [
        _run_one(standard_feeder, std_diffusion, seed)
        for seed in range(NUM_SEEDS_GUARANTEE)
    ]
    return runs


def test_criterion_1_oracle_recovery(standard_runs):
    runs = standard_runs[:NUM_SEEDS_RECOVERY]
    bus_rec = [recovery_fraction(o, r, "bus") for r, o, _ in runs]
    line_rec = [recovery_fraction(o, r, "line") for r, o, _ in runs]
    full_obj_runs = sum(
        1
        for r, o, _ in runs
        if set(o.fronts.critical_objectives_bus) <= set(r.fronts.critical_objectives_bus)
        and set(o.fronts.critical_objectives_line) <= set(r.fronts.critical_objectives_line)
    )
    search_time = sum(t for _, _, t in runs)
    ok = (
        np.mean(bus_rec) >= 0.80
        and np.mean(line_rec) >= 0.80
        and full_obj_runs >= 9
        and search_time < 300.0
    )
    _report(
        1, ok,
        f"avg recovery bus={np.mean(bus_rec):.3f} line={np.mean(line_rec):.3f} "
        f"(need >=0.80), all critical objectives found in {full_obj_runs}/10 "
        f"runs (need >=9), search time {search_time:.1f}s (need <300s)",
    )


def test_criterion_2_max_violation_fidelity(standard_runs):
    runs = standard_runs[:NUM_SEEDS_RECOVERY]
    good = 0
    for result, oracle, _ in runs:
        search_max = result.fronts.per_objective_max_violation
        oracle_max = oracle.fronts.per_objective_max_violation
        bus_ok = all(
            abs(search_max[k] - oracle_max[k]) <= 0.05 * oracle_max[k]
            for k in oracle.fronts.critical_objectives_bus
        )
        line_ok = all(
            search_max[k] == oracle_max[k]
            for k in oracle.fronts.critical_objectives_line
        )
        good += bus_ok and line_ok
    ok = good >= 9
    _report(
        2, ok,
        f"bus maxima within 5% relative and line bins exact in {good}/10 runs "
        "(need >=9)",
    )


def test_criterion_3_efficiency(standard_runs):
    runs = standard_runs[:NUM_SEEDS_RECOVERY]
    fracs = [len(r.ids) / len(r.bits) for r, _, _ in runs]
    ok = all(f <= 0.25 for f in fracs)
    _report(
        3, ok,
        f"evaluated fraction of final search space max={max(fracs):.3f} "
        "across 10 runs (need <=0.25)",
    )


def test_criterion_4_statistical_guarantee(standard_runs):
    missed = []
    for result, oracle, _ in standard_runs:
        crit = critical_bits(oracle, "bus") | critical_bits(oracle, "line")
        if not crit:
            missed.append(0.0)
            continue
        found = found_bits(result)
        missed.append(len(crit - found) / len(crit))
    ok = np.mean(missed) <= 0.2
    _report(
        4, ok,
        f"avg missed critical fraction over {NUM_SEEDS_GUARANTEE} runs "
        f"= {np.mean(missed):.3f} (need <=0.2 at tau_bar=0.1)",
    )


def test_criterion_5_naive_comparator_gap(adversarial_feeder):
    feeder = adversarial_feeder
    viol = ViolationConfig()
    scen = np.array(list(itertools.product((0, 1), repeat=feeder.num_adopters)),
                    dtype=np.uint8)
    oracle = brute_force_oracle(feeder, viol, scen)
    crit = critical_bits(oracle, "bus") | critical_bits(oracle, "line")
    assert crit, "adversarial feeder must have critical scenarios"

    pv = np.array([b.pv_capacity for b in feeder.buses if b.is_adopter])
    top25 = sorted(
        range(len(scen)), key=lambda i: (-float(np.dot(scen[i], pv)), i)
    )[:25]
    top_bits = set(bitstrings(scen[top25]))
    comparator_missed = len(crit - top_bits) / len(crit)

    diffusion = DiffusionParams(p=0.02, q=0.25, horizon_steps=10, initial_rate=0.0)
    recov = []
    for seed in range(5):
        result = run_search(
            feeder, diffusion, viol,
            SearchConfig(seed=seed, max_search_space=SPACE_CAP),
        )
        recov.append(len(crit & found_bits(result)) / len(crit))
    ok = comparator_missed >= 0.5 and np.mean(recov) >= 0.8
    _report(
        5, ok,
        f"top-25-by-PV comparator missed {comparator_missed:.2f} of "
        f"oracle-critical scenarios (need >=0.5); search recovered "
        f"{np.mean(recov):.2f} avg over 5 seeds (need >=0.8)",
    )


def test_criterion_6_sensitivity_direction(standard_feeder, std_diffusion):
    viol = ViolationConfig()

    def evals(tau_bar):
        cfg = SearchConfig(seed=0, tau_bar=tau_bar, max_search_space=SPACE_CAP)
        return len(run_search(standard_feeder, std_diffusion, viol, cfg).ids)

    def simulated(n_expand):
        cfg = SearchConfig(seed=0, n_expand=n_expand, max_search_space=SPACE_CAP)
        return len(run_search(standard_feeder, std_diffusion, viol, cfg).bits)

    e_tight, e_loose = evals(0.05), evals(0.5)
    s_big, s_small = simulated(400), simulated(50)
    ok = e_tight >= e_loose and s_big > s_small
    _report(
        6, ok,
        f"evaluations: tau_bar=0.05 -> {e_tight}, tau_bar=0.5 -> {e_loose} "
        f"(need >=); simulated: n_expand=400 -> {s_big}, n_expand=50 -> "
        f"{s_small} (need >)",
    )


def test_criterion_7_numerical_property_suites():
    # Compact re-runs of the module-level property checks; every sub-suite
    # must hold for the criterion to pass.
    from test_pareto import oracle_pareto_set
    from test_powerflow import newton_oracle_voltages
    from test_surrogate import gram_matrix

    from conftest import adoption_probability, build_chain_feeder, dominates
    from gridcrit.adoption import simulate_batch
    from gridcrit.feeder import generate_synthetic_feeder
    from gridcrit.pareto import front_indices
    from gridcrit.powerflow import solve_power_flow
    from gridcrit.search import acquisition_alpha_nd
    from gridcrit.surrogate import (
        GPSurrogate,
        KernelParams,
        _log_marginal_likelihood_and_grad,
        posterior,
    )
    from scipy.stats import norm
    from test_powerflow import admittance_matrix, local_sweep_voltages, specified_injections

    checks = {}
    rng = np.random.default_rng(0)

    # Kernel PSD on 100 random Gram matrices.
    psd_ok = True
    for _ in range(100):
        n, a = int(rng.integers(2, 20)), int(rng.integers(1, 10))
        x = rng.integers(0, 2, size=(n, a)).astype(float)
        params = KernelParams(
            eta=float(rng.uniform(0.1, 5)), theta=rng.uniform(0, 10, a), noise=0.1
        )
        psd_ok &= np.linalg.eigvalsh(gram_matrix(params, x)).min() >= -1e-8
    checks["kernel PSD"] = psd_ok

    # GP interpolation and prior reversion.
    x = np.unique(rng.integers(0, 2, size=(14, 5)), axis=0).astype(float)
    y = rng.normal(size=len(x))
    gp = GPSurrogate.build(x, y, KernelParams(eta=1.0, theta=np.full(5, 2.0), noise=1e-6))
    interp = np.allclose(posterior(gp, x).mean, y, atol=1e-3)
    far_gp = GPSurrogate.build(
        np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]]), np.array([1.0, 3.0]),
        KernelParams(eta=2.0, theta=np.full(3, 50.0), noise=1e-4),
    )
    far = posterior(far_gp, [np.array([1.0, 1.0, 1.0])])
    revert = (
        abs(far.mean[0] - 2.0) < 1e-6
        and abs((far.chol @ far.chol.T)[0, 0] - 2.0 * far_gp.output_scale**2) < 1e-3
    )
    checks["GP interpolation/prior reversion"] = interp and revert

    # Likelihood gradient vs central finite differences, 1e-4 relative.
    grad_ok = True
    for _ in range(3):
        xg = rng.integers(0, 2, size=(10, 3)).astype(float)
        yg = rng.normal(size=10)
        phi = np.concatenate([[rng.normal()], rng.normal(size=3), [rng.uniform(-4, -1)]])
        _, grad = _log_marginal_likelihood_and_grad(phi, xg, yg)
        for k in range(len(phi)):
            up, dn = phi.copy(), phi.copy()
            up[k] += 1e-6
            dn[k] -= 1e-6
            fd = (
                _log_marginal_likelihood_and_grad(up, xg, yg)[0]
                - _log_marginal_likelihood_and_grad(dn, xg, yg)[0]
            ) / 2e-6
            grad_ok &= abs(grad[k] - fd) / max(abs(fd), abs(grad[k]), 1e-8) <= 1e-4
    checks["gradient vs finite differences"] = grad_ok

    # Power flow vs Newton oracle and nodal balance, both <= 1e-6 p.u.
    pf_ok, bal_ok = True, True
    for gen_seed in range(3):
        feeder = generate_synthetic_feeder(9, 5, seed=gen_seed)
        bits = tuple(int(b) for b in rng.integers(0, 2, feeder.num_adopters))
        scenario = Scenario(bits=bits)
        pf = solve_power_flow(feeder, scenario, tol=1e-12, max_iter=200)
        pf_ok &= pf.converged and np.allclose(
            pf.voltages, newton_oracle_voltages(feeder, scenario), atol=1e-6
        )
        ybus, pos = admittance_matrix(feeder)
        v = local_sweep_voltages(feeder, scenario)
        bal = v * np.conj(ybus @ v) - specified_injections(feeder, scenario)
        bal[pos[feeder.slack_bus]] = 0.0
        bal_ok &= (
            np.max(np.abs(np.abs(v) - pf.voltages)) < 1e-10
            and np.max(np.abs(bal)) < 1e-6
        )
    checks["power flow vs Newton"] = pf_ok
    checks["nodal balance"] = bal_ok

    # front_indices vs O(n^2) oracle on 200 random instances.
    pareto_ok = True
    for _ in range(200):
        n, d = int(rng.integers(1, 30)), int(rng.integers(1, 5))
        pts = rng.integers(0, 4, size=(n, d)).astype(float)
        pareto_ok &= front_indices(pts).tolist() == oracle_pareto_set(pts)
    checks["pareto vs oracle"] = pareto_ok

    # Dominance axioms on 1e4 random triples.
    dom_ok = True
    for a, b, c in rng.integers(0, 4, size=(10_000, 3, 3)):
        if dominates(a, a) or (dominates(a, b) and dominates(b, a)):
            dom_ok = False
            break
        if dominates(a, b) and dominates(b, c) and not dominates(a, c):
            dom_ok = False
            break
    checks["dominance axioms"] = dom_ok

    # Diffusion one-step marginal within 3 sigma over 1e5 trials.
    feeder3 = build_chain_feeder([0.0, 1.0, 1.0], pv_kw=[0, 5, 5])
    params = DiffusionParams(p=0.23, q=0.0, horizon_steps=1, initial_rate=0.0)
    trials = 100_000
    flips = simulate_batch(feeder3, params, trials, seed=7).astype(float)
    prob = adoption_probability(params, 0, 2)
    sigma = np.sqrt(prob * (1 - prob) / trials)
    checks["diffusion marginal"] = bool(
        np.all(np.abs(flips.mean(axis=0) - prob) < 3 * sigma)
    )

    # Acquisition vs analytic Gaussian tail within 3 Monte Carlo errors.
    v_e, n_mc = 2.5, 4000
    alpha = acquisition_alpha_nd(
        gps={0: far_gp},
        candidate_bits=np.array([[1.0, 1.0, 1.0]]),
        evaluated_stress=np.array([[v_e]]),
        num_bus=1,
        cfg=ViolationConfig(),
        num_samples=n_mc,
        seed=123,
    )
    p_true = norm.sf((v_e - 2.0) / np.sqrt(2.0))
    mcse = np.sqrt(p_true * (1 - p_true) / n_mc)
    checks["acquisition vs Gaussian tail"] = bool(abs(alpha[0] - p_true) <= 3 * mcse)

    failed = [name for name, ok in checks.items() if not ok]
    _report(
        7, not failed,
        "all numerical property suites hold"
        if not failed
        else f"failed sub-suites: {', '.join(failed)}",
    )


def test_criterion_8_manifest_reproducibility(tmp_path):
    runner = CliRunner()
    feeder_path = tmp_path / "feeder.json"
    res = runner.invoke(
        cli_main,
        ["make-feeder", "--buses", "10", "--adopters", "6", "--groups", "2",
         "--seed", "3", "-o", str(feeder_path)],
    )
    assert res.exit_code == 0, res.output
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "schema": 1,
        "feeder": str(feeder_path),
        "seed": 0,
        "diffusion": {"p": 0.05, "q": 0.3, "horizon_steps": 8, "initial_rate": 0.1},
        "search": {"n0": 10, "n_init": 40, "n_expand": 30, "batch_size": 4,
                   "max_search_space": 200},
    }))
    first, rerun = tmp_path / "first", tmp_path / "rerun"
    res = runner.invoke(cli_main, ["search", "--config", str(config_path), "-o", str(first)])
    assert res.exit_code == 0, res.output
    res = runner.invoke(
        cli_main, ["search", "--config", str(first / "manifest.json"), "-o", str(rerun)]
    )
    assert res.exit_code == 0, res.output
    names = sorted(p.name for p in first.iterdir())
    identical = all(
        (first / n).read_bytes() == (rerun / n).read_bytes() for n in names
    )
    _report(
        8, identical,
        f"manifest rerun byte-identical across {len(names)} artifacts",
    )

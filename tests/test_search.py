"""Search loop: candidate sampling, acquisition, stopping and recovery."""

import itertools
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.stats import norm

from conftest import build_chain_feeder, dominates, recovery_fraction
from gridcrit.adoption import DiffusionParams
from gridcrit.powerflow import (
    PowerFlowConfig,
    ViolationConfig,
    compute_stress,
    solve_power_flow,
    violation_map,
)
from gridcrit import search
from gridcrit.search import (
    SearchAbort,
    SearchConfig,
    _candidate_nondominated_freq,
    acquisition_alpha_nd,
    brute_force_oracle,
    detect_active_objectives,
    evaluate_scenarios,
    run_search,
    sample_candidates,
    select_batch,
)
from gridcrit.surrogate import GPSurrogate, KernelParams


def small_feeder():
    """Six-bus chain with enough PV to create violations when adopted."""
    return build_chain_feeder(
        [0.0, 4.0, 4.0, 4.0, 4.0, 4.0],
        pv_kw=[0, 20.0, 0, 24.0, 0, 28.0],
        rating=0.25,
        num_groups=2,
        groups=[1, 1, 1, 2, 2, 2],
    )


def quiet_feeder():
    """Chain with wide limits and tiny PV: no objective ever activates."""
    return build_chain_feeder(
        [0.0, 1.0, 1.0, 1.0],
        pv_kw=[0, 0.5, 0, 0.5],
        rating=5.0,
        bounds=(0.8, 1.2),
    )


FAST_DIFFUSION = DiffusionParams(p=0.1, q=0.4, horizon_steps=6, initial_rate=0.2)
FAST_CONFIG = dict(n0=8, n_init=30, n_expand=20, batch_size=4, max_search_space=120)


class TestDetectActiveObjectives:
    def test_families_and_threshold(self):
        stresses = np.array([[0.2, -0.2, -0.01], [-0.1, -0.3, -0.2]])
        active = detect_active_objectives(stresses, range(3), stress_threshold=-0.05)
        assert active == [0, 2]

    def test_family_slice(self):
        stresses = np.array([[0.2, 0.3]])
        assert detect_active_objectives(stresses, range(1, 2), -0.05) == [1]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            detect_active_objectives(np.empty((0, 2)), range(2), -0.05)


class TestSampleCandidates:
    def test_returns_all_when_m_exceeds_pool(self):
        rng = np.random.default_rng(0)
        out = sample_candidates([5, 3, 9], {}, 10, rng)
        assert out == [3, 5, 9]

    def test_empty_pool_rejected(self):
        with pytest.raises(ValueError):
            sample_candidates([], {}, 5, np.random.default_rng(0))

    def test_deterministic_for_generator_state(self):
        ids = list(range(50))
        a = sample_candidates(ids, {}, 10, np.random.default_rng(7))
        b = sample_candidates(ids, {}, 10, np.random.default_rng(7))
        assert a == b

    def test_unseen_ids_favored(self):
        # Ids sampled many times before should be picked far less often.
        ids = list(range(20))
        counts = {i: 50 for i in range(10)}  # first half heavily sampled
        rng = np.random.default_rng(3)
        picks = np.zeros(20)
        for _ in range(400):
            for i in sample_candidates(ids, counts, 5, rng):
                picks[i] += 1
        assert picks[10:].sum() > 5 * picks[:10].sum()


class TestSelectBatch:
    def test_top_by_alpha_with_id_tiebreak(self):
        alpha = np.array([0.2, 0.9, 0.2, 0.0])
        assert select_batch(alpha, [10, 11, 12, 13], 3) == [11, 10, 12]

    def test_zero_alpha_skipped(self):
        alpha = np.array([0.0, 0.0])
        assert select_batch(alpha, [1, 2], 4) == []

    def test_bad_batch_size(self):
        with pytest.raises(ValueError):
            select_batch(np.array([0.5]), [1], 0)


def per_sample_nondominated_freq(sampled_stress, evaluated_violations, num_bus, cfg):
    """Reference: the acquisition's dominance test one Monte Carlo sample at a
    time, against every evaluated point, with its own violation mapping."""
    n_samples, m, k = sampled_stress.shape
    bus_mask = np.arange(k) < num_bus
    bins = np.asarray(cfg.line_bins)
    pos = np.maximum(sampled_stress, 0.0)
    viol = pos.copy()
    line_idx = np.searchsorted(bins, pos[:, :, ~bus_mask], side="right") - 1
    viol[:, :, ~bus_mask] = np.minimum(line_idx, len(bins) - 1)
    hits = np.zeros(m)
    for i in range(n_samples):
        cand = viol[i]
        pool = np.vstack([cand, evaluated_violations]) if len(evaluated_violations) else cand
        ge = np.all(pool[None, :, :] >= cand[:, None, :], axis=2)
        gt = np.any(pool[None, :, :] > cand[:, None, :], axis=2)
        dominated = np.any(ge & gt, axis=1)
        positive = np.any(cand > 0, axis=1)
        hits += (~dominated) & positive
    return hits / n_samples


@st.composite
def acquisition_inputs(draw):
    """Sampled stresses and evaluated violations with frequent ties."""
    k = draw(st.integers(1, 8))
    n = draw(st.integers(1, 13))
    m = draw(st.integers(1, 9))
    num_bus = draw(st.integers(0, k))
    if draw(st.booleans()):  # integer-valued stresses: many exact ties
        values = st.integers(-2, 3).map(float)
    else:
        values = st.sampled_from([-0.3, -0.05, 0.0, 0.05, 0.1, 0.12, 0.3, 0.6])
    stress = draw(hnp.arrays(np.float64, (n, m, k), elements=values))
    evaluated = draw(hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(k)),
                                elements=values))
    evaluated = np.vstack([evaluated, evaluated[: draw(st.integers(0, 2))]])  # duplicates
    evaluated = np.maximum(evaluated, 0.0)
    evaluated[:, num_bus:] = np.floor(evaluated[:, num_bus:])
    return stress, evaluated, num_bus


@st.composite
def wide_acquisition_inputs(draw):
    """Up to 300 candidates with continuous or few-level stresses, evaluated
    points from the same law, and a block cap of one to four survivors."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 300))
    num_bus = draw(st.integers(0, k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        def values(shape):
            return rng.uniform(-0.2, 0.6, size=shape)
    else:
        def values(shape):
            return rng.choice([-0.1, 0.0, 0.05, 0.2, 0.3], size=shape)
    stress = values((n, m, k))
    evaluated = violation_map(values((draw(st.integers(0, 20)), k)), num_bus,
                              ViolationConfig())
    block_elements = draw(st.integers(1, 4)) * m * k
    return stress, evaluated, num_bus, block_elements


class TestAcquisition:
    @given(acquisition_inputs(), st.integers(1, 400))
    @settings(max_examples=300, deadline=None)
    def test_blocked_matches_per_sample_loop(self, inputs, block_elements):
        # Small element caps give blocks of one or a few samples that
        # rarely divide the sample count.
        stress, evaluated, num_bus = inputs
        cfg = ViolationConfig()
        with mock.patch.object(search, "_MC_BLOCK_ELEMENTS", block_elements):
            got = _candidate_nondominated_freq(stress, evaluated, num_bus, cfg)
        want = per_sample_nondominated_freq(stress, evaluated, num_bus, cfg)
        np.testing.assert_array_equal(got, want)

    @given(wide_acquisition_inputs())
    @settings(max_examples=150, deadline=None)
    def test_screen_matches_per_sample_loop_over_many_candidates(self, inputs):
        # The pivot screen leaves survivors that span several gathered blocks.
        stress, evaluated, num_bus, block_elements = inputs
        cfg = ViolationConfig()
        with mock.patch.object(search, "_MC_BLOCK_ELEMENTS", block_elements):
            got = _candidate_nondominated_freq(stress, evaluated, num_bus, cfg)
        want = per_sample_nondominated_freq(stress, evaluated, num_bus, cfg)
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("rows, want", [
        # 1e16 + 1 rounds to 1e16, so the first row, which the second
        # dominates, is the pivot of largest sum and of the first objective.
        ([(1e16, 0.0), (1e16, 1.0)], [0.0, 1.0]),
        # (1, 1) survives every pivot; only (2, 2) dominates it.
        ([(10.0, 0.0), (0.0, 10.0), (1.0, 1.0), (2.0, 2.0)], [1.0, 1.0, 0.0, 1.0]),
    ])
    def test_dominated_pivot_and_survivor(self, rows, want):
        stress = np.array([rows])
        cfg = ViolationConfig()
        got = _candidate_nondominated_freq(stress, np.empty((0, 2)), 2, cfg)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(
            got, per_sample_nondominated_freq(stress, np.empty((0, 2)), 2, cfg))

    def test_matches_gaussian_tail_oracle(self):
        # One active objective, one candidate far from all training data:
        # the posterior reverts to the prior N(mean(y), eta), and with a
        # single realized violation v_e the candidate is non-dominated iff
        # its sampled violation reaches v_e. alpha must match the normal
        # tail probability within Monte Carlo error.
        x = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        y = np.array([1.0, 3.0])  # mean 2, std 1 -> standardization is benign
        params = KernelParams(eta=2.0, theta=np.full(3, 50.0), noise=1e-6)
        gp = GPSurrogate.build(x, y, params)
        cand = np.array([[1.0, 1.0, 1.0]])
        v_e = 2.5
        n = 4000
        alpha = acquisition_alpha_nd(
            gps={0: gp},
            candidate_bits=cand,
            evaluated_violations=np.array([[v_e]]),
            num_bus=1,
            cfg=ViolationConfig(),
            num_samples=n,
            seed=123,
        )
        sigma = np.sqrt(params.eta)  # output scale is 1
        p_true = norm.sf((v_e - 2.0) / sigma)
        mcse = np.sqrt(p_true * (1 - p_true) / n)
        assert abs(alpha[0] - p_true) <= 3 * mcse

    def test_positivity_required(self):
        # A candidate whose posterior is sharply negative scores zero.
        x = np.array([[0.0, 0.0], [1.0, 1.0]])
        y = np.array([-0.5, -0.4])
        params = KernelParams(eta=0.001, theta=np.full(2, 1.0), noise=1e-6)
        gp = GPSurrogate.build(x, y, params)
        alpha = acquisition_alpha_nd(
            gps={0: gp},
            candidate_bits=np.array([[0.0, 0.0]]),
            evaluated_violations=np.empty((0, 1)),
            num_bus=1,
            cfg=ViolationConfig(),
            num_samples=200,
            seed=0,
        )
        assert alpha[0] == 0.0

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(4)
        x = rng.integers(0, 2, size=(10, 4)).astype(float)
        y = rng.normal(size=10)
        params = KernelParams(eta=1.0, theta=np.ones(4), noise=0.01)
        gp = GPSurrogate.build(x, y, params)
        cands = rng.integers(0, 2, size=(6, 4)).astype(float)
        kwargs = dict(
            gps={0: gp},
            candidate_bits=cands,
            evaluated_violations=np.empty((0, 1)),
            num_bus=1,
            cfg=ViolationConfig(),
            num_samples=100,
        )
        a = acquisition_alpha_nd(seed=9, **kwargs)
        b = acquisition_alpha_nd(seed=9, **kwargs)
        np.testing.assert_array_equal(a, b)

    def test_no_active_objectives_rejected(self):
        with pytest.raises(ValueError):
            acquisition_alpha_nd(
                gps={},
                candidate_bits=np.zeros((1, 2)),
                evaluated_violations=np.empty((0, 0)),
                num_bus=0,
                cfg=ViolationConfig(),
                num_samples=10,
                seed=0,
            )


class TestSearchConfig:
    def test_defaults_valid(self):
        SearchConfig()

    def test_invalid_values(self):
        with pytest.raises(ValueError):
            SearchConfig(n0=0)
        with pytest.raises(ValueError, match="n0 must be >= 2"):
            SearchConfig(n0=1)
        with pytest.raises(ValueError):
            SearchConfig(tau_bar=0.0)
        with pytest.raises(ValueError):
            SearchConfig(stress_threshold=0.0)
        with pytest.raises(ValueError):
            SearchConfig(num_candidates=0)

    def test_search_space_cap_holds_the_initial_pool(self):
        with pytest.raises(ValueError, match="max_search_space must be >= n0 \\+ n_init"):
            SearchConfig(n0=10, n_init=40, max_search_space=49)
        SearchConfig(n0=10, n_init=40, max_search_space=50)

    @pytest.mark.parametrize("field", ["tau_bar", "stress_threshold"])
    @pytest.mark.parametrize("value", [float("nan"), float("-inf"), True])
    def test_non_finite_or_bool_floats_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite number"):
            SearchConfig(**{field: value})


def all_bit_vectors(num_adopters: int) -> np.ndarray:
    """Every 0/1 row of length ``num_adopters``, in lexicographic order."""
    return np.array(list(itertools.product((0, 1), repeat=num_adopters)), dtype=np.uint8)


class TestEvaluateScenarios:
    # Exact stresses in input order are checked through the oracle below.
    def test_unconverged_sweep_marked_and_zero_rows(self):
        feeder = small_feeder()
        bits = np.array([[1, 0, 1], [0, 0, 0]], dtype=np.uint8)
        stress, converged = evaluate_scenarios(feeder, bits, PowerFlowConfig(max_iter=1))
        assert stress.shape == (2, feeder.num_groups + feeder.num_lines)
        assert converged.tolist() == [False, False]
        stress, converged = evaluate_scenarios(feeder, bits[:0])
        assert stress.shape == (0, feeder.num_groups + feeder.num_lines)
        assert converged.shape == (0,)

    @staticmethod
    def count_solves(monkeypatch) -> list:
        """The rows of each solve_power_flow call, as bit tuples."""
        solved = []
        solve = search.solve_power_flow

        def counting(feeder, scenarios, **kwargs):
            solved.append([tuple(int(b) for b in row) for row in scenarios])
            return solve(feeder, scenarios, **kwargs)

        monkeypatch.setattr(search, "solve_power_flow", counting)
        return solved

    def test_each_distinct_vector_solved_once(self, monkeypatch):
        feeder = small_feeder()
        part = feeder.partition()
        bits = np.array([(1, 0, 1), (0, 0, 0), (1, 0, 1), (1, 1, 1), (0, 0, 0), (1, 0, 1)],
                        dtype=np.uint8)
        solved = self.count_solves(monkeypatch)
        stress, converged = evaluate_scenarios(feeder, bits)
        # One batched call; its rows are the sorted distinct vectors.
        assert solved == [[(0, 0, 0), (1, 0, 1), (1, 1, 1)]]
        assert converged.all()
        for r in range(len(bits)):
            direct = compute_stress(feeder, part, solve_power_flow(feeder, bits[r:r + 1]))
            np.testing.assert_array_equal(stress[r], direct[0])

    def test_unconverged_duplicate_marked_everywhere(self, monkeypatch):
        # Four sweeps solve (0, 1, 0) but not (1, 1, 1).
        feeder = small_feeder()
        bits = np.array([(1, 1, 1), (0, 1, 0), (1, 1, 1), (0, 1, 0), (1, 1, 1)],
                        dtype=np.uint8)
        solved = self.count_solves(monkeypatch)
        stress, converged = evaluate_scenarios(feeder, bits, PowerFlowConfig(max_iter=4))
        assert solved == [[(0, 1, 0), (1, 1, 1)]]
        assert converged.tolist() == [False, True, False, True, False]
        np.testing.assert_array_equal(stress[1], stress[3])


class TestBruteForceOracle:
    def test_budget_guard(self, monkeypatch):
        feeder = small_feeder()
        monkeypatch.setattr(search, "ORACLE_BUDGET", 3)
        with pytest.raises(ValueError, match="budget of 3"):
            brute_force_oracle(feeder, ViolationConfig(), all_bit_vectors(3))

    def test_matches_direct_evaluation(self):
        # Cross-module consistency on a full 2^A enumeration: every oracle
        # stress, the per-objective maxima and the critical sets must agree
        # exactly with evaluating each scenario directly through the
        # power-flow stack. Four sweeps leave some scenarios unconverged:
        # their ids are invalid and have no row.
        for max_iter in (50, 4):
            invalid = self.check_against_direct_evaluation(max_iter)
            assert bool(invalid) == (max_iter == 4)

    @staticmethod
    def check_against_direct_evaluation(max_iter: int) -> list[int]:
        """Compare the oracle with a scenario-by-scenario evaluation; returns
        the unconverged ids."""
        feeder = small_feeder()
        part = feeder.partition()
        cfg = ViolationConfig()
        scen = all_bit_vectors(feeder.num_adopters)
        oracle = brute_force_oracle(feeder, cfg, scen, PowerFlowConfig(max_iter=max_iter))
        assert oracle.bits is scen

        direct, invalid = {}, []
        for sid in range(len(scen)):
            pf = solve_power_flow(feeder, scen[sid:sid + 1], max_iter=max_iter)
            if not pf.converged[0]:
                invalid.append(sid)
                continue
            stress = compute_stress(feeder, part, pf)[0]
            direct[sid] = violation_map(stress, part.num_groups, cfg)
            row = len(direct) - 1
            assert oracle.ids[row] == sid
            np.testing.assert_array_equal(oracle.stress[row], stress)
            np.testing.assert_array_equal(oracle.violations[row], direct[sid])
        assert oracle.ids.tolist() == list(direct)
        assert oracle.invalid_ids == invalid
        best = np.max(np.stack(list(direct.values())), axis=0)
        np.testing.assert_array_equal(oracle.fronts.per_objective_max_violation, best)

        # Critical scenarios must be non-dominated among all positives.
        for family, ids, sl in (
            ("bus", oracle.fronts.bus_ids, slice(0, part.num_groups)),
            ("line", oracle.fronts.line_ids, slice(part.num_groups, None)),
        ):
            for cid in ids:
                v = direct[cid][sl]
                assert np.any(v > 0)
                assert not any(
                    dominates(direct[o][sl], v) for o in direct
                ), f"{family} critical {cid} is dominated"
        return invalid

    def test_some_objective_is_critical(self):
        feeder = small_feeder()
        oracle = brute_force_oracle(feeder, ViolationConfig(), all_bit_vectors(3))
        assert oracle.fronts.critical_objectives_bus or oracle.fronts.critical_objectives_line


class TestRunSearch:
    def test_deterministic(self):
        feeder = small_feeder()
        cfg = SearchConfig(seed=5, **FAST_CONFIG)
        kwargs = (feeder, FAST_DIFFUSION, ViolationConfig(), cfg)
        a = run_search(*kwargs)
        b = run_search(*kwargs)
        np.testing.assert_array_equal(a.ids, b.ids)
        np.testing.assert_array_equal(a.steps, b.steps)
        np.testing.assert_array_equal(a.stress, b.stress)
        assert a.stop_reason == b.stop_reason

    def test_evaluated_rows_align_with_their_ids(self, standard_feeder, std_diffusion):
        # Row i of stress and violations belongs to scenario ids[i]; the rows
        # are in evaluation order, the initial batch first, which is not the
        # order of the ids.
        feeder = standard_feeder
        viol_cfg = ViolationConfig()
        cfg = SearchConfig(seed=2, **{**FAST_CONFIG, "max_steps": 8})
        result = run_search(feeder, std_diffusion, viol_cfg, cfg)
        num_evals = result.num_evaluations
        dim = feeder.num_groups + feeder.num_lines
        assert result.ids.shape == result.steps.shape == (num_evals,)
        assert result.stress.shape == result.violations.shape == (num_evals, dim)
        assert len(set(result.ids.tolist())) == num_evals
        for i in range(num_evals):
            stress, converged = evaluate_scenarios(feeder, result.bits[result.ids[i:i + 1]])
            assert converged[0]
            np.testing.assert_array_equal(result.stress[i], stress[0])
        np.testing.assert_array_equal(
            result.violations, violation_map(result.stress, feeder.num_groups, viol_cfg))
        assert np.all(np.diff(result.steps) >= 0)
        assert result.ids.tolist() != sorted(result.ids.tolist())
        initial = [sid for sid in range(cfg.n0) if sid not in result.invalid_ids]
        assert result.ids[result.steps == 0].tolist() == initial

    def test_duplicates_are_evaluated_once_at_their_lowest_id(self):
        # The pool repeats bits (8 distinct vectors among 120 scenarios), and
        # some vectors first arrive with an expansion. After the initial batch
        # only the lowest id carrying each vector is ever evaluated, never a
        # vector evaluated before, and an exhausted search has evaluated every
        # distinct vector in its pool.
        feeder = small_feeder()
        config = {**FAST_CONFIG, "n0": 6, "n_init": 6, "tau_bar": 1e-9, "batch_size": 2}
        cfg = SearchConfig(seed=0, **config)
        result = run_search(feeder, FAST_DIFFUSION, ViolationConfig(), cfg)
        bits = [tuple(row) for row in result.bits.tolist()]
        lowest: dict[tuple, int] = {}
        for sid, b in enumerate(bits):
            lowest.setdefault(b, sid)
        assert len(lowest) < len(bits)
        assert result.stop_reason == "exhausted"
        assert not result.invalid_ids
        initial = {bits[sid] for sid in result.ids[result.steps == 0].tolist()}
        later = result.ids[result.steps > 0].tolist()
        assert any(sid >= cfg.n0 + cfg.n_init for sid in later)
        assert all(lowest[bits[sid]] == sid for sid in later)
        later_bits = [bits[sid] for sid in later]
        assert len(set(later_bits)) == len(later_bits)
        assert not initial & set(later_bits)
        assert initial | set(later_bits) == set(lowest)

    def test_candidates_and_subsample_are_distinct_unevaluated_rows(
        self, monkeypatch, standard_feeder, std_diffusion
    ):
        # Within a step, the acquisition candidates and the stopping
        # subsample are pairwise distinct bit vectors across both sets, and
        # none equals an evaluated one (a row the step's GPs train on).
        trained, steps = [], {}
        build, alpha_nd = GPSurrogate.build.__func__, search.acquisition_alpha_nd

        def recording_build(cls, train_inputs, *args):
            trained.append(np.array(train_inputs))
            return build(cls, train_inputs, *args)

        def recording_alpha(gps, candidate_bits, *args, seed, **kwargs):
            sets, _ = steps.setdefault(seed[2], ([], trained[-1]))
            sets.append(np.array(candidate_bits))
            return alpha_nd(gps, candidate_bits, *args, seed=seed, **kwargs)

        monkeypatch.setattr(GPSurrogate, "build", classmethod(recording_build))
        monkeypatch.setattr(search, "acquisition_alpha_nd", recording_alpha)
        cfg = SearchConfig(seed=0, **{**FAST_CONFIG, "num_candidates": 10, "max_steps": 8})
        run_search(standard_feeder, std_diffusion, ViolationConfig(), cfg)
        assert sum(len(sets) == 2 for sets, _ in steps.values()) >= 4
        for step, (sets, evaluated) in steps.items():
            rows = [tuple(r) for r in np.concatenate(sets).tolist()]
            assert len(set(rows)) == len(rows), step
            assert not set(rows) & {tuple(r) for r in evaluated.tolist()}, step

    def test_exhausted_only_when_the_pool_cannot_grow(self):
        # Step 0 evaluates every distinct vector of the 8-scenario initial
        # pool, far below its cap of 120: the search must go on expanding
        # the pool instead of stopping, and exhaust only at the cap.
        feeder = small_feeder()
        config = {**FAST_CONFIG, "n0": 4, "n_init": 4, "tau_bar": 1e-9, "batch_size": 2}
        cfg = SearchConfig(seed=0, **config)
        result = run_search(feeder, FAST_DIFFUSION, ViolationConfig(), cfg)
        bits = [tuple(row) for row in result.bits.tolist()]
        initial = {bits[sid] for sid in result.ids[result.steps == 0].tolist()}
        assert set(bits[:cfg.n0 + cfg.n_init]) == initial
        assert result.stop_reason == "exhausted"
        assert len(bits) == cfg.max_search_space
        assert {bits[sid] for sid in result.ids.tolist()} == set(bits) != initial

    def test_aborts_at_the_tenth_failed_attempt(self):
        # One sweep never meets the tolerance, so every power flow fails; the
        # initial batch commits in order and aborts at its tenth attempt.
        feeder = small_feeder()
        cfg = SearchConfig(seed=0, **{**FAST_CONFIG, "n0": 12})
        with pytest.raises(SearchAbort, match=r"^10/10 power flows failed to converge; "):
            run_search(feeder, FAST_DIFFUSION, ViolationConfig(), cfg,
                       PowerFlowConfig(max_iter=1))

    def test_aborts_with_fewer_than_two_converged_initial_scenarios(self, monkeypatch):
        # The GP fits need two training points; fewer than ten attempts never
        # reach the failure-rate abort.
        evaluate = search.evaluate_scenarios

        def first_row_converges(*args):
            stress, converged = evaluate(*args)
            return stress, np.arange(len(converged)) == 0

        monkeypatch.setattr(search, "evaluate_scenarios", first_row_converges)
        cfg = SearchConfig(seed=0, **FAST_CONFIG)
        with pytest.raises(SearchAbort, match="^1 of 8 initial power flows converged"):
            run_search(small_feeder(), FAST_DIFFUSION, ViolationConfig(), cfg)

    def test_quiet_feeder_converges_with_empty_archives(self):
        feeder = quiet_feeder()
        cfg = SearchConfig(seed=0, **FAST_CONFIG)
        result = run_search(feeder, FAST_DIFFUSION, ViolationConfig(), cfg)
        assert result.stop_reason == "converged"
        assert result.fronts.bus_ids == ()
        assert result.fronts.line_ids == ()
        assert not result.fronts.critical_objectives_bus
        assert not result.fronts.critical_objectives_line
        assert result.num_evaluations == cfg.n0  # only the initial batch

    def test_reported_criticals_are_nondominated_and_positive(self):
        feeder = small_feeder()
        cfg = SearchConfig(seed=1, **FAST_CONFIG)
        result = run_search(feeder, FAST_DIFFUSION, ViolationConfig(), cfg)
        assert result.stop_reason in ("converged", "exhausted")
        nb = result.num_bus_objectives
        row = {sid: i for i, sid in enumerate(result.ids.tolist())}
        for ids, sl in (
            (result.fronts.bus_ids, slice(0, nb)),
            (result.fronts.line_ids, slice(nb, None)),
        ):
            for sid in ids:
                v = result.violations[row[sid]][sl]
                assert np.any(v > 0)
                assert not any(dominates(o[sl], v) for o in result.violations)

    def test_recovers_enumerated_criticals(self):
        # The oracle over the full 2^A space gives ground truth; a converged
        # search over a sampled space should still evaluate most of the
        # scenarios whose bitstrings are oracle-critical (the diffusion
        # reaches essentially all bitstrings at A=3 adopters).
        feeder = small_feeder()
        oracle = brute_force_oracle(feeder, ViolationConfig(), all_bit_vectors(3))
        cfg = SearchConfig(seed=3, **FAST_CONFIG)
        result = run_search(feeder, FAST_DIFFUSION, ViolationConfig(), cfg)
        assert result.stop_reason == "converged"
        assert recovery_fraction(oracle, result, "bus") >= 0.5
        assert recovery_fraction(oracle, result, "line") >= 0.5

    def test_tau_has_one_row_per_step(self):
        # Step s runs the bus phase when s is odd and the line phase when it
        # is even: each column is NaN exactly before its phase's first step.
        feeder = small_feeder()
        cfg = SearchConfig(seed=4, **FAST_CONFIG)
        result = run_search(feeder, FAST_DIFFUSION, ViolationConfig(), cfg)
        steps = len(result.tau)
        assert steps >= 2
        assert result.tau.shape == (steps, 2)
        assert result.steps.max() <= steps
        assert result.tau_steps == list(range(1, steps + 1))
        first_step = np.array([1, 2])
        step = np.arange(1, steps + 1)[:, None]
        np.testing.assert_array_equal(np.isnan(result.tau), step < first_step)
        converged = bool(np.all(result.tau[-1] < cfg.tau_bar))
        assert (result.stop_reason == "converged") == converged

    def test_bound_met_on_the_last_allowed_step_converges(
        self, standard_feeder, std_diffusion
    ):
        # The stop checks run in the order convergence, exhaustion, step cap:
        # a search capped at the step on which it meets the bound converges,
        # and evaluates the same rows as without the cap.
        config = {"n0": 10, "n_init": 40, "n_expand": 30, "max_search_space": 200, "seed": 0}
        free = run_search(standard_feeder, std_diffusion, ViolationConfig(),
                          SearchConfig(**config))
        assert free.stop_reason == "converged"
        capped = run_search(standard_feeder, std_diffusion, ViolationConfig(),
                            SearchConfig(**config, max_steps=len(free.tau)))
        assert capped.stop_reason == "converged"
        np.testing.assert_array_equal(capped.ids, free.ids)
        np.testing.assert_array_equal(capped.tau, free.tau)

    def test_relevance_reported_for_critical_objectives(self):
        feeder = small_feeder()
        cfg = SearchConfig(seed=6, **FAST_CONFIG)
        result = run_search(feeder, FAST_DIFFUSION, ViolationConfig(), cfg)
        fronts = result.fronts
        crit = set(fronts.critical_objectives_bus) | set(fronts.critical_objectives_line)
        for k, rel in result.relevance.items():
            assert k in crit
            assert rel.shape == (feeder.num_adopters,)
            assert np.all((rel >= 0) & (rel < 1))


class TestRecoveryFraction:
    def test_empty_oracle_critical_set_is_full_recovery(self):
        feeder = quiet_feeder()
        oracle = brute_force_oracle(feeder, ViolationConfig(), all_bit_vectors(2))
        cfg = SearchConfig(seed=0, **FAST_CONFIG)
        result = run_search(feeder, FAST_DIFFUSION, ViolationConfig(), cfg)
        assert recovery_fraction(oracle, result, "bus") == 1.0
        assert recovery_fraction(oracle, result, "line") == 1.0

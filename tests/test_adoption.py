"""Diffusion simulator: transition probability, trajectories, serialization."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import adoption_probability, build_chain_feeder
from gridcrit import adoption
from gridcrit.adoption import (
    DiffusionParams,
    bitstrings,
    load_scenarios,
    save_scenarios,
    simulate_batch,
)


class TestAdoptionProbability:
    def test_no_adopters_gives_innovation_only(self):
        params = DiffusionParams(p=0.01, q=0.164)
        assert adoption_probability(params, 0, 159) == pytest.approx(0.01)

    def test_full_adoption_gives_p_plus_q(self):
        params = DiffusionParams(p=0.01, q=0.164)
        assert adoption_probability(params, 159, 159) == pytest.approx(0.174)

    def test_zero_params(self):
        params = DiffusionParams(p=0.0, q=0.0)
        assert adoption_probability(params, 5, 10) == 0.0

    def test_clamped_to_one(self):
        with pytest.warns(UserWarning):
            params = DiffusionParams(p=0.9, q=0.9)
        assert adoption_probability(params, 10, 10) == 1.0

    def test_out_of_range_count(self):
        params = DiffusionParams(p=0.1, q=0.1)
        with pytest.raises(ValueError):
            adoption_probability(params, 11, 10)

    @given(
        p=st.floats(min_value=0.0, max_value=0.5),
        q=st.floats(min_value=0.0, max_value=0.5),
        k=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=100, deadline=None)
    def test_probability_in_unit_interval(self, p, q, k):
        params = DiffusionParams(p=p, q=q)
        assert 0.0 <= adoption_probability(params, k, 20) <= 1.0


class TestParamValidation:
    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            DiffusionParams(p=-0.1, q=0.1)

    def test_bad_horizon(self):
        with pytest.raises(ValueError):
            DiffusionParams(p=0.1, q=0.1, horizon_steps=0)

    def test_horizon_ceiling(self):
        DiffusionParams(p=0.1, q=0.1, horizon_steps=10_000)
        with pytest.raises(ValueError, match="horizon_steps must be <= 10000"):
            DiffusionParams(p=0.1, q=0.1, horizon_steps=10_001)

    def test_bad_initial_rate(self):
        with pytest.raises(ValueError):
            DiffusionParams(p=0.1, q=0.1, initial_rate=1.5)

    @pytest.mark.parametrize("field", ["p", "q", "initial_rate"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"), True, "0.1"])
    def test_non_finite_or_non_number_rejected(self, field, value):
        with pytest.raises(ValueError, match="finite number"):
            DiffusionParams(**{"p": 0.1, "q": 0.1, field: value})

    def test_p_plus_q_above_one_warns(self):
        with pytest.warns(UserWarning, match="clamped"):
            DiffusionParams(p=0.6, q=0.6)


class TestSimulate:
    def test_no_drivers_stays_all_zero(self, standard_feeder):
        params = DiffusionParams(p=0.0, q=0.0, initial_rate=0.0)
        scenario = simulate_batch(standard_feeder, params, 1, seed=3)[0]
        assert scenario.tolist() == [0] * standard_feeder.num_adopters

    def test_full_initial_rate_is_absorbing(self, standard_feeder):
        params = DiffusionParams(p=0.0, q=0.0, initial_rate=1.0)
        scenario = simulate_batch(standard_feeder, params, 1, seed=3)[0]
        assert scenario.tolist() == [1] * standard_feeder.num_adopters

    def test_deterministic(self, standard_feeder, std_diffusion):
        a = simulate_batch(standard_feeder, std_diffusion, 1, seed=11)[0]
        b = simulate_batch(standard_feeder, std_diffusion, 1, seed=11)[0]
        assert np.array_equal(a, b)

    def test_one_step_expected_count(self):
        # With q=0 and one step, adoption is Binomial(A, p): check the
        # empirical mean against the analytic expectation at 3 sigma.
        from conftest import build_chain_feeder

        feeder = build_chain_feeder([0.0, 1.0, 1.0, 1.0], pv_kw=[0, 5, 5, 5])
        params = DiffusionParams(p=0.5, q=0.0, horizon_steps=1, initial_rate=0.0)
        trials = 100_000
        scenarios = simulate_batch(feeder, params, trials, seed=123)
        counts = scenarios.sum(axis=1)
        expected = 3 * 0.5
        sigma = np.sqrt(3 * 0.5 * 0.5 / trials)
        assert abs(counts.mean() - expected) < 3 * sigma

    def test_one_step_marginal_matches_probability(self):
        # Fresh non-adopters flip with exactly adoption_probability(.., 0, A).
        from conftest import build_chain_feeder

        feeder = build_chain_feeder([0.0, 1.0, 1.0], pv_kw=[0, 5, 5])
        params = DiffusionParams(p=0.23, q=0.0, horizon_steps=1, initial_rate=0.0)
        trials = 100_000
        scenarios = simulate_batch(feeder, params, trials, seed=7)
        flips = scenarios.astype(float)
        prob = adoption_probability(params, 0, 2)
        sigma = np.sqrt(prob * (1 - prob) / trials)
        for j in range(2):
            assert abs(flips[:, j].mean() - prob) < 3 * sigma


class TestBatch:
    def test_count_and_ids(self, standard_feeder, std_diffusion):
        batch = simulate_batch(standard_feeder, std_diffusion, 25, seed=1)
        assert batch.shape == (25, standard_feeder.num_adopters)
        assert batch.dtype == np.uint8

    def test_same_seed_identical(self, standard_feeder, std_diffusion):
        a = simulate_batch(standard_feeder, std_diffusion, 40, seed=9)
        b = simulate_batch(standard_feeder, std_diffusion, 40, seed=9)
        assert np.array_equal(a, b)

    def test_scenarios_vary_across_subseeds(self, standard_feeder, std_diffusion):
        batch = simulate_batch(standard_feeder, std_diffusion, 200, seed=2)
        assert len(np.unique(batch, axis=0)) > 1

    def test_bad_count(self, standard_feeder, std_diffusion):
        with pytest.raises(ValueError):
            simulate_batch(standard_feeder, std_diffusion, 0, seed=0)


def per_scenario_reference(num_agents, params, count, seed):
    """The simulator as first written: one generator and one Python loop per scenario."""
    out = []
    for child in np.random.SeedSequence(seed).spawn(count):
        rng = np.random.default_rng(child)
        state = (rng.random(num_agents) < params.initial_rate).astype(np.int8)
        for _ in range(params.horizon_steps):
            prob = adoption_probability(params, int(state.sum()), num_agents)
            flips = rng.random(num_agents) < prob
            state = np.where(state == 1, 1, flips.astype(np.int8))
        out.append([int(b) for b in state])
    return out


def adopter_feeder(num_agents):
    return build_chain_feeder([0.0] + [1.0] * num_agents, pv_kw=[0] + [5.0] * num_agents)


# Seeds of every shape SeedSequence takes: one word or several, no words, more
# words than its 4-word pool (which takes the extra mixing loop), and nested.
SEEDS = st.one_of(
    st.integers(min_value=0, max_value=2**32),
    st.integers(min_value=2**32, max_value=2**130),
    st.tuples(st.integers(0, 99), st.integers(0, 9), st.integers(0, 500)),
    st.just(()),
    st.lists(st.integers(0, 2**40), min_size=5, max_size=8).map(tuple),
    st.tuples(st.integers(0, 9), st.tuples(st.integers(0, 2**64), st.tuples(st.integers(0, 9)))),
)


class TestBatchMatchesPerScenarioLoop:
    @given(
        num_agents=st.integers(min_value=1, max_value=20),
        horizon=st.integers(min_value=1, max_value=25),
        p=st.floats(min_value=0.0, max_value=1.0),
        q=st.floats(min_value=0.0, max_value=1.0),
        initial_rate=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(0.0, 1.0)),
        count=st.integers(min_value=1, max_value=40),
        seed=SEEDS,
        block=st.sampled_from([1, 7, 64, 300, 1 << 18]),
    )
    @settings(max_examples=150, deadline=None)
    def test_bit_identical(
        self, num_agents, horizon, p, q, initial_rate, count, seed, block
    ):
        # Small draw blocks split both the scenarios and the horizon.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # p + q > 1 is allowed, with a warning
            params = DiffusionParams(p=p, q=q, horizon_steps=horizon, initial_rate=initial_rate)
        feeder = adopter_feeder(num_agents)
        ref = per_scenario_reference(num_agents, params, count, seed)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(adoption, "_DRAW_BLOCK_ELEMENTS", block)
            got = simulate_batch(feeder, params, count, seed)
            one = simulate_batch(feeder, params, 1, seed)[0]
        assert got.tolist() == ref
        assert one.tolist() == ref[0]
        assert got.dtype == np.uint8 and got.shape == (count, num_agents)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_counts_straddling_the_block(self, standard_feeder, std_diffusion, extra):
        steps = std_diffusion.horizon_steps + 1
        rows = adoption._DRAW_BLOCK_ELEMENTS // (steps * standard_feeder.num_adopters)
        count = rows + extra
        got = simulate_batch(standard_feeder, std_diffusion, count, seed=(3, 1))
        ref = per_scenario_reference(standard_feeder.num_adopters, std_diffusion, count, (3, 1))
        assert got.tolist() == ref


class TestChildStates:
    """``_pcg64_states`` against numpy's own children and generators."""

    @given(seed=SEEDS, count=st.integers(1, 40), data=st.data())
    @settings(max_examples=100, deadline=None)
    def test_equal_to_numpy(self, seed, count, data):
        parent = np.random.SeedSequence(seed)
        want = [(state["state"], state["inc"]) for state in
                (np.random.PCG64(child).state["state"] for child in parent.spawn(count))]
        start = data.draw(st.integers(0, count - 1))
        assert adoption._pcg64_states(parent.entropy, 0, count) == want
        assert adoption._pcg64_states(parent.entropy, start, count) == want[start:]

    @pytest.mark.parametrize("seed, error", [(-1, ValueError), (1.5, TypeError),
                                             ((3, -2), ValueError), ((3, 0.5), TypeError)])
    def test_invalid_seed_fails_as_in_numpy(self, standard_feeder, std_diffusion, seed, error):
        with pytest.raises(error):
            np.random.SeedSequence(seed)
        with pytest.raises(error):
            simulate_batch(standard_feeder, std_diffusion, 3, seed=seed)


class TestScenarioFiles:
    def test_round_trip(self, tmp_path, standard_feeder, std_diffusion):
        batch = simulate_batch(standard_feeder, std_diffusion, 30, seed=4)
        path = tmp_path / "scen.txt"
        save_scenarios(path, batch, standard_feeder)
        loaded = load_scenarios(path, standard_feeder)
        assert loaded.dtype == np.uint8
        assert np.array_equal(loaded, batch)

    def test_feeder_hash_mismatch(self, tmp_path, standard_feeder, std_diffusion):
        from gridcrit.feeder import feeder_from_document, feeder_to_document

        batch = simulate_batch(standard_feeder, std_diffusion, 5, seed=4)
        path = tmp_path / "scen.txt"
        save_scenarios(path, batch, standard_feeder)
        doc = feeder_to_document(standard_feeder)
        doc["buses"][0]["load_p"] += 1.0  # same adopters, different content
        altered = feeder_from_document(doc)
        with pytest.raises(ValueError, match="different feeder"):
            load_scenarios(path, altered)

    @pytest.mark.parametrize("line", ["222222222222", "900000000000"])
    def test_bits_other_than_zero_and_one_rejected(self, tmp_path, standard_feeder, line):
        path = tmp_path / "scen.txt"
        save_scenarios(path, np.zeros((0, standard_feeder.num_adopters), np.uint8),
                       standard_feeder)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ValueError, match="must be 0 or 1"):
            load_scenarios(path, standard_feeder)

    @pytest.mark.parametrize("case", ["missing", "directory", "no-adopters-header"])
    def test_unreadable_file_rejected(self, tmp_path, standard_feeder, case):
        path = tmp_path / "scen.txt"
        if case == "directory":
            path.mkdir()
        elif case == "no-adopters-header":
            save_scenarios(path, np.zeros((0, standard_feeder.num_adopters), np.uint8),
                           standard_feeder)
            lines = [ln for ln in path.read_text().splitlines() if "adopters" not in ln]
            path.write_text("\n".join(lines + ["0" * standard_feeder.num_adopters]) + "\n")
        message = "adopters header" if case == "no-adopters-header" else "cannot read"
        with pytest.raises(ValueError, match=message):
            load_scenarios(path)

    def test_missing_header(self, tmp_path):
        path = tmp_path / "scen.txt"
        path.write_text("0101\n")
        with pytest.raises(ValueError, match="schema"):
            load_scenarios(path)

    @pytest.mark.parametrize("key, value", [("adopters", "x"), ("schema", "1.0")])
    def test_header_that_is_not_an_integer_is_named(self, tmp_path, standard_feeder,
                                                   key, value):
        path = tmp_path / "scen.txt"
        save_scenarios(path, np.zeros((1, standard_feeder.num_adopters), np.uint8),
                       standard_feeder)
        text = re.sub(f"^# {key}: .*$", f"# {key}: {value}", path.read_text(), flags=re.M)
        path.write_text(text)
        message = f"scenario file header '{key}' must be an integer, not '{value}'"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            load_scenarios(path, standard_feeder)

    def test_blank_lines_are_skipped(self, tmp_path, standard_feeder, std_diffusion):
        batch = simulate_batch(standard_feeder, std_diffusion, 3, seed=4)
        path = tmp_path / "scen.txt"
        save_scenarios(path, batch, standard_feeder)
        path.write_text("\n" + path.read_text().replace("\n", "\n  \n"))
        assert np.array_equal(load_scenarios(path, standard_feeder), batch)

    def test_row_length_must_match_the_header(self, tmp_path, standard_feeder):
        path = tmp_path / "scen.txt"
        save_scenarios(path, np.zeros((1, standard_feeder.num_adopters), np.uint8),
                       standard_feeder)
        path.write_text(path.read_text() + "0" * (standard_feeder.num_adopters + 1) + "\n")
        with pytest.raises(ValueError, match="does not match header adopter count"):
            load_scenarios(path, standard_feeder)

    def test_header_adopter_count_must_match_the_feeder(self, tmp_path, standard_feeder):
        # Rows and header agree with each other, not with the feeder.
        num_adopters = standard_feeder.num_adopters - 1
        path = tmp_path / "scen.txt"
        save_scenarios(path, np.zeros((2, standard_feeder.num_adopters), np.uint8),
                       standard_feeder)
        text = path.read_text().replace(
            f"# adopters: {standard_feeder.num_adopters}", f"# adopters: {num_adopters}")
        path.write_text(text.replace("0" * standard_feeder.num_adopters, "0" * num_adopters))
        assert load_scenarios(path).shape == (2, num_adopters)
        with pytest.raises(ValueError, match="does not match feeder adopter count"):
            load_scenarios(path, standard_feeder)


class TestScenario:
    # A scenario is a row of a uint8 matrix; files and results show it as a bitstring.
    def test_bitstring_and_count(self):
        rows = np.array([[1, 0, 1, 1], [0, 0, 0, 0], [1, 0, 1, 1]], dtype=np.uint8)
        assert bitstrings(rows) == ["1011", "0000", "1011"]
        assert bitstrings(rows[:0]) == []
        assert bitstrings(np.zeros((2, 0), np.uint8)) == ["", ""]

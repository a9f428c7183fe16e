"""End-to-end CLI tests: artifacts, determinism, manifests and exit codes."""

import gc
import hashlib
import json
import re
import sys
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_chain_feeder, run_fresh_python
from gridcrit import cli
from gridcrit.cli import _Table, _write_json, main
from gridcrit.powerflow import ViolationConfig, violation_map
from gridcrit.search import SearchConfig

DATA_DIR = Path(__file__).parent / "data"


@pytest.fixture
def runner():
    return CliRunner()


def write_feeder(runner, path, buses=10, adopters=6, groups=2, seed=3):
    res = runner.invoke(
        main,
        ["make-feeder", "--buses", str(buses), "--adopters", str(adopters),
         "--groups", str(groups), "--seed", str(seed), "-o", str(path)],
    )
    assert res.exit_code == 0, res.output
    return path


def unconverged_chain():
    """A 40-bus chain of 10 kW loads, 10 of its buses adopters, whose power
    flow converges for no scenario: one bus group and 39 lines."""
    return build_chain_feeder([0.0] + [10.0] * 39,
                              pv_kw=[20.0 if i % 4 == 3 else 0.0 for i in range(40)], r_ohm=0.2)


def write_config(path, feeder_path, **overrides):
    doc = {
        "schema": 1,
        "feeder": str(feeder_path),
        "seed": 0,
        "diffusion": {"p": 0.05, "q": 0.3, "horizon_steps": 8, "initial_rate": 0.1},
        "search": {
            "n0": 10, "n_init": 40, "n_expand": 30, "batch_size": 4,
            "max_search_space": 200,
        },
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


class TestMakeFeeder:
    def test_writes_loadable_feeder(self, runner, tmp_path):
        from gridcrit.feeder import load_feeder

        path = write_feeder(runner, tmp_path / "f.json")
        feeder = load_feeder(path)
        assert feeder.num_buses == 10
        assert feeder.num_adopters == 6
        assert feeder.num_groups == 2

    def test_byte_deterministic(self, runner, tmp_path):
        a = write_feeder(runner, tmp_path / "a.json")
        b = write_feeder(runner, tmp_path / "b.json")
        assert a.read_bytes() == b.read_bytes()

    def test_usage_error_exit_2(self, runner, tmp_path):
        res = runner.invoke(
            main,
            ["make-feeder", "--buses", "3", "--adopters", "5",
             "-o", str(tmp_path / "f.json")],
        )
        assert res.exit_code == 2

    def test_missing_option_exit_2(self, runner):
        res = runner.invoke(main, ["make-feeder", "--buses", "5"])
        assert res.exit_code == 2

    def test_negative_seed_exit_2(self, runner, tmp_path):
        out = tmp_path / "f.json"
        res = runner.invoke(
            main,
            ["make-feeder", "--buses", "10", "--adopters", "6", "--seed", "-1",
             "-o", str(out)],
        )
        assert res.exit_code == 2
        assert "'--seed'" in res.output
        assert not out.exists()

    @pytest.mark.parametrize("args,option", [
        (["--buses", str(10**30), "--adopters", "5"], "'--buses'"),
        (["--buses", str(cli.MAX_FEEDER_BUSES + 1), "--adopters", "5"], "'--buses'"),
        (["--buses", "10", "--adopters", str(10**30)], "'--adopters'"),
        (["--buses", "10", "--adopters", "5", "--groups", str(10**30)], "'--groups'"),
    ], ids=["buses-huge", "buses-above-ceiling", "adopters-huge", "groups-huge"])
    def test_size_above_ceiling_exit_2(self, runner, tmp_path, args, option):
        out = tmp_path / "f.json"
        res = runner.invoke(main, ["make-feeder", *args, "-o", str(out)])
        assert res.exit_code == 2, res.output
        assert option in res.output
        assert not out.exists()

    # 200 buses is a case-study size of the paper's abstract; 5000 is half
    # the ceiling.
    @pytest.mark.parametrize("buses,adopters,groups,seed",
                             [(10, 6, 2, 3), (15, 12, 3, 19), (200, 40, 4, 0),
                              (5000, 1000, 4, 0)])
    def test_documented_sizes_solve(self, runner, tmp_path, buses, adopters, groups, seed):
        path = write_feeder(runner, tmp_path / "f.json", buses, adopters, groups, seed)
        if (buses, adopters, groups, seed) == (15, 12, 3, 19):
            # The committed standard feeder pins the generator, the partition
            # and the writer byte for byte.
            assert path.read_bytes() == (DATA_DIR / "standard_feeder.json").read_bytes()

    def test_unsolvable_feeder_exit_3(self, runner, tmp_path, monkeypatch):
        # A generator whose feeder converges at neither zero nor full adoption.
        monkeypatch.setattr(cli, "generate_synthetic_feeder",
                            lambda buses, adopters, seed: unconverged_chain())
        out = tmp_path / "f.json"
        res = runner.invoke(
            main,
            ["make-feeder", "--buses", "30", "--adopters", "10", "--seed", "0",
             "-o", str(out)],
        )
        assert res.exit_code == 3
        assert "does not converge" in res.output
        assert not out.exists()


class TestSimulateEvaluate:
    def test_round_trip_through_csv(self, runner, tmp_path):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        scen = tmp_path / "scen.txt"
        res = runner.invoke(
            main, ["simulate", "--config", str(config), "--count", "20",
                   "-o", str(scen)],
        )
        assert res.exit_code == 0, res.output
        out = tmp_path / "eval.csv"
        res = runner.invoke(
            main, ["evaluate", "--config", str(config), "--scenarios", str(scen),
                   "-o", str(out)],
        )
        assert res.exit_code == 0, res.output
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 21  # header + 20 rows
        header = lines[0].split(",")
        assert header[0] == "id" and header[-1] == "converged"
        assert all(row.endswith("True") for row in lines[1:])

    def test_simulate_deterministic(self, runner, tmp_path):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            res = runner.invoke(
                main, ["simulate", "--config", str(config), "--count", "15",
                       "-o", str(out)],
            )
            assert res.exit_code == 0, res.output
        assert a.read_bytes() == b.read_bytes()

    def test_q_beyond_c_long_simulates_as_its_float(self, runner, tmp_path):
        # An int q of 2**63 is taken as the float it rounds to, so it simulates
        # as any q far above 1 does: every one-step probability is clamped.
        feeder = write_feeder(runner, tmp_path / "f.json")
        outputs = []
        for name, q in (("int", 2**63), ("float", 1e300)):
            config = write_config(tmp_path / f"{name}.json", feeder, diffusion={"q": q})
            out = tmp_path / f"{name}.txt"
            with pytest.warns(UserWarning, match="clamped"):
                res = runner.invoke(main, ["simulate", "--config", str(config),
                                           "--count", "20", "-o", str(out)])
            assert res.exit_code == 0, res.output
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    HEADER_EDITS = {"text-adopters-header": ("adopters", "x"),
                    "fractional-schema-header": ("schema", "1.0")}

    @pytest.mark.parametrize("case", ["other-feeder", "missing-file", "no-adopters-header",
                                      *HEADER_EDITS])
    @pytest.mark.parametrize("command", ["evaluate", "brute-force"])
    def test_scenario_feeder_mismatch_exit_3(self, runner, tmp_path, command, case):
        feeder_a = write_feeder(runner, tmp_path / "a.json", seed=3)
        feeder_b = write_feeder(runner, tmp_path / "b.json", seed=4)
        cfg_a = write_config(tmp_path / "cfg_a.json", feeder_a)
        cfg_b = write_config(tmp_path / "cfg_b.json", feeder_b)
        scen = tmp_path / "scen.txt"
        if case != "missing-file":
            res = runner.invoke(
                main, ["simulate", "--config", str(cfg_a), "--count", "5",
                       "-o", str(scen)],
            )
            assert res.exit_code == 0, res.output
        if case == "no-adopters-header":
            lines = scen.read_text().splitlines()
            scen.write_text("".join(f"{ln}\n" for ln in lines if "adopters" not in ln))
        if case in self.HEADER_EDITS:
            key, value = self.HEADER_EDITS[case]
            scen.write_text(re.sub(f"^# {key}: .*$", f"# {key}: {value}", scen.read_text(),
                                   flags=re.M))
        res = runner.invoke(
            main, [command, "--config", str(cfg_a if case != "other-feeder" else cfg_b),
                   "--scenarios", str(scen), "-o", str(tmp_path / "x")],
        )
        assert res.exit_code == 3, res.output
        if case in self.HEADER_EDITS:
            assert f"scenario file header '{key}' must be an integer, not '{value}'" in res.output


class TestUnconvergedFeeder:
    """A feeder that make-feeder would refuse: its power flow converges for
    no scenario."""

    @pytest.fixture
    def config(self, tmp_path):
        from gridcrit.feeder import save_feeder

        feeder = tmp_path / "f.json"
        save_feeder(unconverged_chain(), feeder)
        return write_config(tmp_path / "cfg.json", feeder)

    def test_search_exit_4_leaves_no_directory(self, runner, tmp_path, config):
        outdir = tmp_path / "out"
        res = runner.invoke(main, ["search", "--config", str(config), "-o", str(outdir)])
        assert res.exit_code == 4, res.output
        assert "10/10 power flows failed to converge" in res.output
        assert not outdir.exists()

    def test_evaluate_writes_blank_unconverged_rows(self, runner, tmp_path, config):
        scen, out = tmp_path / "scen.txt", tmp_path / "eval.csv"
        res = runner.invoke(main, ["simulate", "--config", str(config), "--count", "5",
                                   "-o", str(scen)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["evaluate", "--config", str(config),
                                   "--scenarios", str(scen), "-o", str(out)])
        assert res.exit_code == 0, res.output
        dim = 1 + 39  # one bus group and 39 lines
        rows = out.read_text().splitlines()[1:]
        assert rows == [",".join([str(i)] + [""] * (2 * dim) + ["False"]) for i in range(5)]

    def test_brute_force_finds_every_scenario_invalid(self, runner, tmp_path, config):
        outdir = tmp_path / "oracle"
        res = runner.invoke(main, ["brute-force", "--config", str(config), "--count", "50",
                                   "-o", str(outdir)])
        assert res.exit_code == 0, res.output
        doc = json.loads((outdir / "result.json").read_text())
        assert doc["num_evaluations"] == 0 and doc["evaluations"] == []
        assert doc["invalid_ids"] == list(range(50))


class TestInputBranches:
    """Inputs refused with their documented exit code before any output."""

    CASES = {
        "config-without-feeder": (3, "config is missing the 'feeder' path"),
        "config-section-not-an-object": (3, "config section 'diffusion' must be an object"),
        "report-objective-count-mismatch": (3, "does not match the feeder's"),
        "make-feeder-zero-groups": (2, "groups must be in [1, buses]"),
        "simulate-zero-count": (2, "count must be >= 1"),
        "simulate-over-budget": (3, "100001 scenarios exceed the oracle budget of 100000"),
        "brute-force-zero-count": (2, "count must be >= 1"),
        "brute-force-scenarios-negative-count": (2, "count must be >= 1"),
        "report-zero-top-n": (2, "top-n must be >= 1"),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_exit_code(self, runner, tmp_path, case):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        simulate = ["simulate", "--config", str(config), "--count", "5"]
        report = ["report", "--feeder", str(feeder), "--search-dir", str(tmp_path / "result")]
        if case == "config-without-feeder":
            config.write_text(json.dumps({"schema": 1, "seed": 0}))
        elif case == "config-section-not-an-object":
            write_config(config, feeder, diffusion=[0.05, 0.3])
        elif case == "report-objective-count-mismatch":
            res = runner.invoke(main, ["brute-force", "--config", str(config), "--count", "20",
                                       "-o", str(tmp_path / "result")])
            assert res.exit_code == 0, res.output
            path = tmp_path / "result" / "result.json"
            doc = json.loads(path.read_text())
            doc["num_bus_objectives"] += 1
            path.write_text(json.dumps(doc))
        elif case == "brute-force-scenarios-negative-count":
            res = runner.invoke(main, [*simulate, "-o", str(tmp_path / "scen.txt")])
            assert res.exit_code == 0, res.output
        args = {
            "config-without-feeder": simulate,
            "config-section-not-an-object": simulate,
            "report-objective-count-mismatch": report,
            "make-feeder-zero-groups": ["make-feeder", "--buses", "10", "--adopters", "6",
                                        "--groups", "0"],
            "simulate-zero-count": [*simulate[:-1], "0"],
            "simulate-over-budget": [*simulate[:-1], "100001"],
            "brute-force-zero-count": ["brute-force", "--config", str(config),
                                       "--count", "0"],
            "brute-force-scenarios-negative-count": [
                "brute-force", "--config", str(config),
                "--scenarios", str(tmp_path / "scen.txt"), "--count", "-5"],
            "report-zero-top-n": [*report, "--top-n", "0"],
        }[case]
        out = tmp_path / "out"
        res = runner.invoke(main, [*args, "-o", str(out)])
        code, message = self.CASES[case]
        assert res.exit_code == code, res.output
        assert message in res.output
        assert not out.exists()


class TestConfigHandling:
    def test_missing_config_exit_3(self, runner, tmp_path):
        res = runner.invoke(
            main, ["simulate", "--config", str(tmp_path / "nope.json"),
                   "--count", "1", "-o", str(tmp_path / "s.txt")],
        )
        assert res.exit_code == 3

    @pytest.mark.parametrize("case", ["directory", "not-utf8"])
    def test_unreadable_config_exit_3(self, runner, tmp_path, case):
        config = tmp_path / "cfg.json"
        if case == "directory":
            config.mkdir()
        else:
            config.write_bytes(b'{"schema": 1, "feeder": "\xff"}')
        res = runner.invoke(
            main, ["simulate", "--config", str(config), "--count", "1",
                   "-o", str(tmp_path / "s.txt")],
        )
        assert res.exit_code == 3, res.output
        assert "config" in res.output

    @pytest.mark.parametrize("command", ["simulate", "evaluate", "search", "brute-force"])
    def test_feeder_without_adopters_exit_3(self, runner, tmp_path, command):
        from gridcrit.adoption import save_scenarios
        from gridcrit.feeder import load_feeder

        doc = json.loads((DATA_DIR / "standard_feeder.json").read_text())
        for bus in doc["buses"]:
            bus.update(is_adopter=False, pv_capacity=0.0)
        feeder = tmp_path / "f.json"
        feeder.write_text(json.dumps(doc))
        scen = tmp_path / "s.txt"
        save_scenarios(scen, np.zeros((3, 0), np.uint8), load_feeder(feeder))
        config = write_config(tmp_path / "cfg.json", feeder)
        args = {
            "simulate": ["--count", "3", "-o", str(tmp_path / "new.txt")],
            "evaluate": ["--scenarios", str(scen), "-o", str(tmp_path / "e.csv")],
            "search": ["-o", str(tmp_path / "out")],
            "brute-force": ["--count", "3", "-o", str(tmp_path / "out")],
        }[command]
        res = runner.invoke(main, [command, "--config", str(config), *args])
        assert res.exit_code == 3, res.output
        assert "no adopters" in res.output

    def test_bad_schema_exit_3(self, runner, tmp_path):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder, schema=9)
        res = runner.invoke(
            main, ["simulate", "--config", str(config), "--count", "1",
                   "-o", str(tmp_path / "s.txt")],
        )
        assert res.exit_code == 3

    @pytest.mark.parametrize("override", [
        {"powerflow": {"tolerance": 1e-3}},
        {"violation": {"line_bin": [0, 1]}},
        {"sede": 7},
        {"diffusion": {"p": 0.05, "q": 0.3, "horizon": 8}},
        {"search": {"n_zero": 10}},
    ], ids=["powerflow", "violation", "top-level", "diffusion", "search"])
    def test_unknown_key_exit_3(self, runner, tmp_path, override):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder, **override)
        res = runner.invoke(
            main, ["search", "--config", str(config), "-o", str(tmp_path / "out")],
        )
        assert res.exit_code == 3
        assert "unknown" in res.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("document", [
        {"seed": "abc"},
        {"seed": 1e400},
        {"seed": 2.7},
        {"seed": True},
        {"seed": -1},
        {"feeder": 5},
        [1, 2],
        {"command": "search", "config": "x"},
        {"feeder": "."},
        {"schema": True},
    ], ids=["seed-text", "seed-inf", "seed-float", "seed-bool", "seed-negative",
            "feeder-number", "array", "manifest-config-text", "feeder-directory",
            "schema-bool"])
    def test_malformed_document_exit_3(self, runner, tmp_path, document):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        if isinstance(document, dict):
            document = {**json.loads(config.read_text()), **document}
        config.write_text(json.dumps(document))
        res = runner.invoke(
            main, ["simulate", "--config", str(config), "--count", "1",
                   "-o", str(tmp_path / "s.txt")],
        )
        assert res.exit_code == 3, res.output
        assert "config" in res.output
        assert not (tmp_path / "s.txt").exists()

    @pytest.mark.parametrize("override", [
        {"search": {"n0": 0}},
        {"search": {"n0": 1}},
        {"search": {"seed": "abc"}},
        {"search": {"seed": True}},
        {"search": {"n0": 2.5}},
        {"search": {"max_search_space": 2.5}},
        {"search": {"n0": 10, "n_init": 40, "max_search_space": 20}},
        {"diffusion": {"horizon_steps": 2.5}},
        {"powerflow": {"tol": "x"}},
        {"powerflow": {"tol": float("nan")}},
        {"powerflow": {"max_iter": 0}},
        {"powerflow": {"max_iter": True}},
        {"powerflow": {"pv_derate": -1.0}},
        {"diffusion": {"p": float("nan")}},
        {"diffusion": {"p": True}},
        {"diffusion": {"q": float("inf")}},
        {"diffusion": {"initial_rate": True}},
        {"search": {"tau_bar": True}},
        {"search": {"tau_bar": float("nan")}},
        {"search": {"stress_threshold": float("-inf")}},
        {"violation": {"line_bins": [0.0, float("nan")]}},
        {"violation": {"line_bins": [0.0, float("inf")]}},
        {"violation": {"line_bins": [False, True]}},
        {"search": {"tau_bar": 10**400}},
        {"diffusion": {"p": 10**400}},
        {"search": {"n0": 10**30}},
        {"search": {"n_init": 10**30}},
        {"search": {"n_expand": 10**30}},
        {"search": {"num_mc_samples": 10**30}},
        {"diffusion": {"horizon_steps": 10**30}},
        {"powerflow": {"max_iter": 10**30, "pv_derate": 1000.0}},
    ], ids=["n0-zero", "n0-one", "seed-text", "seed-bool", "n0-float", "space-float",
            "space-below-initial-pool", "horizon-float", "tol-text", "tol-nan", "max-iter-zero", "max-iter-bool",
            "derate-negative", "p-nan", "p-bool", "q-inf", "initial-rate-bool",
            "tau-bar-bool", "tau-bar-nan", "threshold-inf", "bins-nan", "bins-inf",
            "bins-bool", "tau-bar-beyond-float", "p-beyond-float", "n0-huge", "n-init-huge",
            "n-expand-huge", "mc-samples-huge", "horizon-huge", "max-iter-huge"])
    def test_invalid_search_section_exit_3(self, runner, tmp_path, override):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder, **override)
        res = runner.invoke(
            main, ["search", "--config", str(config), "-o", str(tmp_path / "out")],
        )
        assert res.exit_code == 3, res.output
        assert not (tmp_path / "out").exists()

    def test_sweep_ceiling_exit_3(self, runner, tmp_path):
        # No row converges at this derate, so without the ceiling every
        # power flow would sweep 10**30 times.
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder,
                              powerflow={"max_iter": 10**30, "pv_derate": 1000.0})
        res = runner.invoke(main, ["brute-force", "--config", str(config), "--count", "64",
                                   "-o", str(tmp_path / "out")])
        assert res.exit_code == 3, res.output
        assert "powerflow max_iter must be <= 1000" in res.output
        assert not (tmp_path / "out").exists()

    def test_duplicate_line_ids_exit_3(self, runner, tmp_path):
        feeder = write_feeder(runner, tmp_path / "f.json")
        doc = json.loads(feeder.read_text())
        doc["lines"][1]["id"] = doc["lines"][0]["id"]
        feeder.write_text(json.dumps(doc))
        config = write_config(tmp_path / "cfg.json", feeder)
        res = runner.invoke(
            main, ["simulate", "--config", str(config), "--count", "1",
                   "-o", str(tmp_path / "s.txt")],
        )
        assert res.exit_code == 3, res.output
        assert "duplicate line ids" in res.output
        assert not (tmp_path / "s.txt").exists()

    def test_minimal_config_resolves_documented_defaults(self, runner, tmp_path):
        # The values of the README's config block, as a manifest records them.
        # The search section is recorded as given plus its seed, except by
        # ``search``, which records every setting it ran with.
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"schema": 1, "feeder": str(feeder)}))
        for args in (["simulate", "--count", "5", "-o", str(tmp_path / "s.txt")],
                     ["search", "-o", str(tmp_path / "search")],
                     ["brute-force", "--count", "5", "-o", str(tmp_path / "oracle")]):
            res = runner.invoke(main, [args[0], "--config", str(config), *args[1:]])
            assert res.exit_code == 0, res.output
        sections = {
            "diffusion": {"p": 0.01, "q": 0.164, "horizon_steps": 10, "initial_rate": 0.0},
            "violation": {"line_bins": [0.0, 0.1, 0.25, 0.5]},
            "powerflow": {"tol": 1e-8, "max_iter": 50, "pv_derate": 1.0},
        }
        search = {
            "n0": 30, "n_init": 220, "n_expand": 150, "batch_size": 4,
            "num_mc_samples": 50, "num_candidates": None, "tau_bar": 0.1,
            "stress_threshold": -0.05, "refit_period": 5, "seed": 0,
            "max_search_space": None, "max_steps": 500,
        }
        assert search == asdict(SearchConfig())
        for outdir, search_section in (("search", search), ("oracle", {"seed": 0})):
            got = json.loads((tmp_path / outdir / "manifest.json").read_text())["config"]
            assert set(got) == {"schema", "feeder", "seed", *sections, "search"}
            assert (got["schema"], got["feeder"], got["seed"]) == (1, str(feeder), 0)
            for name, values in sections.items():
                assert got[name] == values, name
            assert got["search"] == search_section


class TestPinnedArtifacts:
    """SHA-256 of every file that ``simulate``, ``evaluate``, ``brute-force``
    and ``report`` write on the small config, the manifest included.

    A change that moves any of these bytes updates its hash here and names
    the file in CHANGES.md. Search artifacts are left out: the GP algebra runs
    through BLAS, whose kernels may round differently on another CPU.
    """

    HASHES = {
        "f.json": "edb47738dd77b3268273b11ee9cdc7844e775b179e388e94937bb3a188ed7c15",
        "scen.txt": "10e4f1fdb66098d2c403fe264644d612d201d08f497f8a92c302ad6a96702478",
        "eval.csv": "ceaee4f18996bd74658f54c0f7bb1ccefb4c293a97577e01aa850ffee45eefdb",
        "oracle/manifest.json": "d5ec969063b92e5d98a1921d26fd35ae470e02b4adcb1f520c26feba1ab96ca1",
        "oracle/result.json": "5bef49f3f002e3abc2d3d621f6124e23cf92ccd82b125cc3a002aafbda279fa7",
        "report/max_violation_comparison.csv":
            "26e90722a23ed508039718ae64d52c86bc3f011fe0137a5326e98eaef5c3dcf0",
        "report/relevance.csv": "58542a66149fcd94494265102d1a9603388d469f3c4aebe157d0c097c9eb7ce6",
        "report/scenarios_by_pv.csv":
            "2398991fb1563ac8ea46a22a45cb8dbc547430f31b7f74bbf94fd7a5001fbcbf",
    }

    def test_bytes(self, runner, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # relative paths keep the manifest's bytes
        write_feeder(runner, Path("f.json"))
        write_config(Path("cfg.json"), "f.json")
        for args in (["simulate", "--config", "cfg.json", "--count", "20", "-o", "scen.txt"],
                     ["evaluate", "--config", "cfg.json", "--scenarios", "scen.txt",
                      "-o", "eval.csv"],
                     ["brute-force", "--config", "cfg.json", "--count", "200", "-o", "oracle"],
                     # A brute-force result carries every field report reads.
                     ["report", "--feeder", "f.json", "--search-dir", "oracle",
                      "--oracle-dir", "oracle", "-o", "report"]):
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
        written = sorted(p for p in tmp_path.rglob("*") if p.is_file() and p.name != "cfg.json")
        got = {p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
               for p in written}
        assert got == self.HASHES


class TestSearchCommand:
    def run_search(self, runner, tmp_path, name="out", **config_overrides):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / f"cfg_{name}.json", feeder, **config_overrides)
        outdir = tmp_path / name
        res = runner.invoke(
            main, ["search", "--config", str(config), "-o", str(outdir)],
        )
        return res, outdir

    def test_writes_all_artifacts(self, runner, tmp_path):
        res, outdir = self.run_search(runner, tmp_path)
        assert res.exit_code == 0, res.output
        for name in ("manifest.json", "result.json", "tau_trace.csv",
                     "evaluation_log.csv"):
            assert (outdir / name).exists(), name
        doc = json.loads((outdir / "result.json").read_text())
        assert doc["stop_reason"] == "converged"
        assert doc["num_evaluations"] >= 10
        assert set(doc["critical_scenarios"]) == {"bus", "line"}
        for key in doc["relevance"]:
            assert (outdir / f"relevance_obj_{key}.csv").exists()

    def test_manifest_rerun_is_byte_identical(self, runner, tmp_path):
        res, outdir = self.run_search(runner, tmp_path)
        assert res.exit_code == 0, res.output
        doc = json.loads((outdir / "result.json").read_text())
        critical = doc["critical_scenarios"]
        summary = (f"converged: {doc['num_evaluations']} evaluations, "
                   f"{len(critical['bus'])} bus-critical, "
                   f"{len(critical['line'])} line-critical -> {{}}\n")
        assert res.output == summary.format(outdir)
        manifest = json.loads((outdir / "manifest.json").read_text())
        assert "threads" not in manifest
        # Manifests of earlier versions carry a top-level thread count.
        old_style = tmp_path / "old_manifest.json"
        old_style.write_text(json.dumps({**manifest, "threads": 1}))
        for config in (outdir / "manifest.json", old_style):
            rerun = tmp_path / f"rerun_{config.stem}"
            res = runner.invoke(
                main, ["search", "--config", str(config), "-o", str(rerun)],
            )
            assert res.exit_code == 0, res.output
            assert res.output == summary.format(rerun)
            for name in sorted(p.name for p in outdir.iterdir()):
                assert (outdir / name).read_bytes() == (rerun / name).read_bytes(), name

    def test_rerun_removes_stale_relevance_files(self, runner, tmp_path):
        # An earlier run into the same directory left a relevance file of an
        # objective this run does not write, and a file of someone else's.
        outdir = tmp_path / "out"
        outdir.mkdir()
        for name in ("relevance_obj_99.csv", "notes.txt"):
            (outdir / name).write_text("earlier\n")
        res, outdir = self.run_search(runner, tmp_path)
        assert res.exit_code == 0, res.output
        doc = json.loads((outdir / "result.json").read_text())
        assert doc["relevance"]
        assert {p.name for p in outdir.glob("relevance_obj_*.csv")} == {
            f"relevance_obj_{k}.csv" for k in doc["relevance"]}
        assert (outdir / "notes.txt").read_text() == "earlier\n"

    def test_threads_option_is_gone(self, runner, tmp_path):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        res = runner.invoke(
            main, ["search", "--config", str(config), "--threads", "2",
                   "-o", str(tmp_path / "out")],
        )
        assert res.exit_code == 2

    def test_exhaustion_exit_5(self, runner, tmp_path):
        # A search space capped below what the loop wants to evaluate, with a
        # high tau_bar impossible to reach before running out of scenarios.
        res, outdir = self.run_search(
            runner, tmp_path, name="exh",
            search={"n0": 4, "n_init": 8, "n_expand": 1, "batch_size": 8,
                    "max_search_space": 12, "tau_bar": 1e-9},
        )
        doc = json.loads((outdir / "result.json").read_text())
        if doc["stop_reason"] == "exhausted":
            assert res.exit_code == 5
        else:
            assert res.exit_code == 0

    def test_exhausted_search_exit_5(self, runner, tmp_path):
        # Three scenarios at most: the loop runs out of open ones before tau
        # meets its bound.
        config = write_config(
            tmp_path / "cfg.json", DATA_DIR / "standard_feeder.json",
            search={"n0": 2, "n_init": 1, "n_expand": 1, "max_search_space": 3},
        )
        outdir = tmp_path / "out"
        res = runner.invoke(main, ["search", "--config", str(config), "-o", str(outdir)])
        assert res.exit_code == 5, res.output
        assert res.output.startswith("exhausted: ")
        doc = json.loads((outdir / "result.json").read_text())
        assert doc["stop_reason"] == "exhausted"

    def test_evaluation_log_consistent_with_result(self, runner, tmp_path):
        import csv

        # Batches of two: the log is not in id order, and a line-critical
        # scenario is evaluated at a later step.
        res, outdir = self.run_search(
            runner, tmp_path,
            search={"n0": 10, "n_init": 40, "n_expand": 30, "batch_size": 2,
                    "max_search_space": 200},
        )
        assert res.exit_code == 0, res.output
        doc = json.loads((outdir / "result.json").read_text())
        with open(outdir / "evaluation_log.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == doc["num_evaluations"]
        steps = [int(r["step"]) for r in rows]
        assert steps == sorted(steps)
        logged = [int(r["id"]) for r in rows]
        assert logged != sorted(logged)
        evaluations = {e["id"]: e for e in doc["evaluations"]}
        assert set(logged) == set(evaluations)

        # Each log row, and each critical scenario, is its id's evaluation.
        num_bus = doc["num_bus_objectives"]
        dim = num_bus + doc["num_line_objectives"]
        for r in rows:
            entry = evaluations[int(r["id"])]
            assert r["bits"] == entry["bits"]
            assert [float(r[f"stress_{k}"]) for k in range(dim)] == entry["stress"]
        for entry in doc["evaluations"]:
            expected = violation_map(np.array(entry["stress"]), num_bus, ViolationConfig())
            assert entry["violations"] == expected.tolist()
        for family, sl in (("bus", slice(0, num_bus)), ("line", slice(num_bus, None))):
            assert doc["critical_scenarios"][family]
            for crit in doc["critical_scenarios"][family]:
                entry = evaluations[crit["id"]]
                assert crit["bits"] == entry["bits"]
                assert crit["violations"] == entry["violations"][sl]


class TestBruteForceAndReport:
    def test_full_pipeline(self, runner, tmp_path):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        search_dir, oracle_dir, report_dir = (
            tmp_path / "search", tmp_path / "oracle", tmp_path / "report"
        )
        res = runner.invoke(
            main, ["search", "--config", str(config), "-o", str(search_dir)],
        )
        assert res.exit_code == 0, res.output
        res = runner.invoke(
            main, ["brute-force", "--config", str(config), "--count", "200",
                   "-o", str(oracle_dir)],
        )
        assert res.exit_code == 0, res.output
        oracle_doc = json.loads((oracle_dir / "result.json").read_text())
        assert oracle_doc["stop_reason"] == "oracle"
        assert oracle_doc["num_evaluations"] == 200

        res = runner.invoke(
            main, ["report", "--feeder", str(feeder),
                   "--search-dir", str(search_dir),
                   "--oracle-dir", str(oracle_dir),
                   "-o", str(report_dir)],
        )
        assert res.exit_code == 0, res.output
        for name in ("scenarios_by_pv.csv", "max_violation_comparison.csv",
                     "relevance.csv"):
            assert (report_dir / name).exists(), name
        header = (report_dir / "max_violation_comparison.csv").read_text().splitlines()[0]
        assert header == "objective,search_max,oracle_max,top25_max"

    def test_result_json_round_trips_at_1024_scenarios(self, runner, tmp_path):
        # Fronts of 100+ records, and rows that repeat across the writer's blocks.
        config = write_config(
            tmp_path / "cfg.json", DATA_DIR / "standard_feeder.json",
            diffusion={"p": 0.02, "q": 0.25, "horizon_steps": 10, "initial_rate": 0.15},
        )
        res = runner.invoke(main, ["brute-force", "--config", str(config), "--count", "1024",
                                   "-o", str(tmp_path / "oracle")])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "oracle" / "result.json").read_text()
        doc = json.loads(text)
        assert min(len(doc["critical_scenarios"][f]) for f in ("bus", "line")) >= 100
        block = cli._TABLE_BLOCK
        bits = [e["bits"] for e in doc["evaluations"]]
        assert set(bits[:block]) & set(bits[block:2 * block])
        assert text == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("source", ["simulated", "scenario-file"])
    def test_manifest_rerun_is_byte_identical(self, runner, tmp_path, source):
        # The manifest records the scenario set, not only the config.
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        if source == "simulated":
            flags, count = ["--count", "64"], 64
        else:
            scen = tmp_path / "scen.txt"
            res = runner.invoke(main, ["simulate", "--config", str(config), "--count", "40",
                                       "-o", str(scen)])
            assert res.exit_code == 0, res.output
            flags, count = ["--scenarios", str(scen)], 40
        summary = f"oracle: {count} evaluations, 4 bus-critical, 4 line-critical -> {{}}\n"
        first, rerun = tmp_path / "a", tmp_path / "b"
        res = runner.invoke(main, ["brute-force", "--config", str(config), *flags,
                                   "-o", str(first)])
        assert res.exit_code == 0, res.output
        assert res.output == summary.format(first)
        res = runner.invoke(main, ["brute-force", "--config", str(first / "manifest.json"),
                                   "-o", str(rerun)])
        assert res.exit_code == 0, res.output
        assert res.output == summary.format(rerun)
        for name in ("result.json", "manifest.json"):
            assert (first / name).read_bytes() == (rerun / name).read_bytes(), name

    def test_count_flag_overrides_manifest(self, runner, tmp_path):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        first, rerun = tmp_path / "a", tmp_path / "b"
        res = runner.invoke(main, ["brute-force", "--config", str(config), "--count", "64",
                                   "-o", str(first)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(main, ["brute-force", "--config", str(first / "manifest.json"),
                                   "--count", "30", "-o", str(rerun)])
        assert res.exit_code == 0, res.output
        assert json.loads((rerun / "result.json").read_text())["num_evaluations"] == 30
        assert json.loads((rerun / "manifest.json").read_text())["count"] == 30

    @pytest.mark.parametrize("recorded", [{"count": 0}, {"count": "64"},
                                          {"scenarios": 5}])
    def test_bad_recorded_scenario_set_exits_3(self, runner, tmp_path, recorded):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        first = tmp_path / "a"
        res = runner.invoke(main, ["brute-force", "--config", str(config), "--count", "20",
                                   "-o", str(first)])
        assert res.exit_code == 0, res.output
        manifest = json.loads((first / "manifest.json").read_text())
        edited = tmp_path / "edited.json"
        edited.write_text(json.dumps({**manifest, **recorded}))
        res = runner.invoke(main, ["brute-force", "--config", str(edited),
                                   "-o", str(tmp_path / "b")])
        assert res.exit_code == 3, res.output
        assert "manifest" in res.output

    def test_report_top_n_covers_all_equals_oracle(self, runner, tmp_path):
        # When top-n spans every evaluated scenario, the naive comparator's
        # maxima must coincide with the oracle maxima.
        import csv

        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        search_dir, oracle_dir, report_dir = (
            tmp_path / "s", tmp_path / "or", tmp_path / "rep"
        )
        for args in (
            ["search", "--config", str(config), "-o", str(search_dir)],
            ["brute-force", "--config", str(config), "--count", "50",
             "-o", str(oracle_dir)],
            ["report", "--feeder", str(feeder), "--search-dir", str(search_dir),
             "--oracle-dir", str(oracle_dir), "--top-n", "50",
             "-o", str(report_dir)],
        ):
            res = runner.invoke(main, args)
            assert res.exit_code == 0, res.output
        with open(report_dir / "max_violation_comparison.csv") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert float(row["top50_max"]) == pytest.approx(float(row["oracle_max"]))

    @pytest.mark.parametrize("case", [
        "missing", "not-json", "not-utf8", "result-directory", "no-num-bus-objectives",
        "other-feeder",
        "feeder-missing", "feeder-directory", "feeder-text-load",
        "no-bits", "evaluations-not-a-list", "no-violations", "short-bits",
        "relevance-key-not-integer", "relevance-key-out-of-range",
        "relevance-not-a-list", "relevance-wrong-length", "relevance-not-numbers",
        "relevance-not-a-dict",
    ])
    def test_report_missing_search_dir_exit_3(self, runner, tmp_path, case):
        feeder = write_feeder(runner, tmp_path / "f.json")
        result_dir = tmp_path / "result"
        if case != "missing":
            # A brute-force result carries every field report reads.
            other = write_feeder(runner, tmp_path / "other.json", buses=12, adopters=8)
            config = write_config(
                tmp_path / "cfg.json", other if case == "other-feeder" else feeder
            )
            res = runner.invoke(
                main, ["brute-force", "--config", str(config), "--count", "20",
                       "-o", str(result_dir)],
            )
            assert res.exit_code == 0, res.output
            path = result_dir / "result.json"

            def adopters(doc):
                return len(doc["evaluations"][0]["bits"])

            edits = {
                "no-num-bus-objectives": lambda doc: doc.pop("num_bus_objectives"),
                "no-bits": lambda doc: doc["evaluations"][0].pop("bits"),
                "evaluations-not-a-list": lambda doc: doc.update(evaluations=5),
                "no-violations": lambda doc: doc["evaluations"][0].update(violations=[]),
                "short-bits": lambda doc: doc["evaluations"][0].update(bits="01"),
                "relevance-key-not-integer": lambda doc: doc.update(
                    relevance={"x": [0.1] * adopters(doc)}),
                "relevance-key-out-of-range": lambda doc: doc.update(
                    relevance={str(len(doc["per_objective_max_violation"])):
                               [0.1] * adopters(doc)}),
                "relevance-not-a-list": lambda doc: doc.update(relevance={"0": 0.1}),
                "relevance-wrong-length": lambda doc: doc.update(
                    relevance={"0": [0.1] * (adopters(doc) + 1)}),
                "relevance-not-numbers": lambda doc: doc.update(
                    relevance={"0": ["0.1"] * adopters(doc)}),
                "relevance-not-a-dict": lambda doc: doc.update(
                    relevance=[[0.1] * adopters(doc)]),
            }
            if case == "not-json":
                path.write_text(path.read_text()[:-10])
            elif case == "not-utf8":
                path.write_bytes(b"\xff\xfe{")
            elif case == "result-directory":
                path.unlink()
                path.mkdir()
            elif case in edits:
                doc = json.loads(path.read_text())
                edits[case](doc)
                path.write_text(json.dumps(doc))
        if case == "feeder-missing":
            feeder = tmp_path / "missing.json"
        elif case == "feeder-directory":
            feeder = tmp_path
        elif case == "feeder-text-load":
            doc = json.loads(feeder.read_text())
            doc["buses"][0]["load_p"] = "abc"
            feeder.write_text(json.dumps(doc))
        res = runner.invoke(
            main, ["report", "--feeder", str(feeder),
                   "--search-dir", str(result_dir),
                   "-o", str(tmp_path / "rep")],
        )
        assert res.exit_code == 3, res.output
        assert not (tmp_path / "rep").exists()

    def test_brute_force_over_the_oracle_budget_exit_3(self, runner, tmp_path):
        from gridcrit.adoption import save_scenarios
        from gridcrit.feeder import load_feeder

        feeder_path = write_feeder(runner, tmp_path / "f.json")
        feeder = load_feeder(feeder_path)
        scen = tmp_path / "scen.txt"
        save_scenarios(scen, np.zeros((100_001, feeder.num_adopters), np.uint8), feeder)
        config = write_config(tmp_path / "cfg.json", feeder_path)
        res = runner.invoke(
            main, ["brute-force", "--config", str(config), "--scenarios", str(scen),
                   "-o", str(tmp_path / "out")],
        )
        assert res.exit_code == 3, res.output
        assert "100001 scenarios exceed the oracle budget of 100000" in res.output
        assert not (tmp_path / "out").exists()

    def test_brute_force_count_over_the_oracle_budget_exit_3(
        self, runner, tmp_path, monkeypatch
    ):
        # --count is checked before any scenario is simulated.
        def no_simulation(*args, **kwargs):
            raise AssertionError("simulated before the budget was checked")

        monkeypatch.setattr(cli, "simulate_batch", no_simulation)
        config = write_config(tmp_path / "cfg.json", write_feeder(runner, tmp_path / "f.json"))
        res = runner.invoke(
            main, ["brute-force", "--config", str(config), "--count", "100001",
                   "-o", str(tmp_path / "out")],
        )
        assert res.exit_code == 3, res.output
        assert "100001 scenarios exceed the oracle budget of 100000" in res.output
        assert not (tmp_path / "out").exists()


SCIPY_PROBE = """
import json, sys
from click.testing import CliRunner
import gridcrit, gridcrit.cli

def scipy_modules():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

report = {"import": [0, scipy_modules()]}
runner = CliRunner()
for name, argv in json.loads(sys.argv[1]):
    res = runner.invoke(gridcrit.cli.main, argv)
    report[name] = [res.exit_code, scipy_modules()]
print(json.dumps(report))
"""


class TestScipyLoading:
    """SciPy is imported by the GP code alone, at its first use, so the
    commands that fit no GP never load it."""

    def test_only_search_loads_scipy(self, runner, tmp_path):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        search_dir = tmp_path / "search"
        res = runner.invoke(main, ["search", "--config", str(config), "-o", str(search_dir)])
        assert res.exit_code == 0, res.output
        scen = tmp_path / "scen.txt"
        commands = [
            ("make-feeder", ["make-feeder", "--buses", "10", "--adopters", "6",
                             "--groups", "2", "--seed", "3", "-o", str(tmp_path / "g.json")]),
            ("simulate", ["simulate", "--config", str(config), "--count", "20",
                          "-o", str(scen)]),
            ("evaluate", ["evaluate", "--config", str(config), "--scenarios", str(scen),
                          "-o", str(tmp_path / "eval.csv")]),
            ("brute-force", ["brute-force", "--config", str(config), "--count", "50",
                             "-o", str(tmp_path / "oracle")]),
            ("report", ["report", "--feeder", str(feeder), "--search-dir", str(search_dir),
                        "--oracle-dir", str(tmp_path / "oracle"),
                        "-o", str(tmp_path / "report")]),
            ("search", ["search", "--config", str(config), "-o", str(tmp_path / "again")]),
        ]
        report = run_fresh_python(SCIPY_PROBE, json.dumps(commands))
        *without, (search_exit, after_search) = report.values()
        assert without == [[0, []]] * 6, report
        assert search_exit == 0 and "scipy" in after_search
        # Only SciPy's compiled modules: not the linalg and optimize packages.
        assert not {"scipy.linalg", "scipy.optimize"} & set(after_search), after_search


class TestNumpyRandomLoading:
    """numpy imports ``numpy.random`` lazily (~20 ms). gridcrit builds its
    generators at first use, so importing the CLI does not load it."""

    def test_import_leaves_numpy_random_unloaded(self):
        loaded = run_fresh_python(
            "import json, sys\nimport gridcrit, gridcrit.cli\n"
            "print(json.dumps('numpy.random' in sys.modules))"
        )
        assert loaded is False


class TestOutputPaths:
    """An output path that cannot be written exits 2 before any work, writing nothing."""

    @pytest.fixture
    def inputs(self, runner, tmp_path, monkeypatch):
        feeder = write_feeder(runner, tmp_path / "f.json")
        config = write_config(tmp_path / "cfg.json", feeder)
        scen = tmp_path / "scen.txt"
        res = runner.invoke(main, ["simulate", "--config", str(config), "--count", "5",
                                   "-o", str(scen)])
        assert res.exit_code == 0, res.output
        (tmp_path / "a_file").write_text("keep")

        def no_work(*args, **kwargs):
            raise AssertionError("work ran before the output path was checked")

        for name in ("generate_synthetic_feeder", "simulate_batch", "evaluate_scenarios",
                     "run_search", "brute_force_oracle"):
            monkeypatch.setattr(cli, name, no_work)
        return {"feeder": str(feeder), "config": str(config), "scen": str(scen)}

    def check_refused(self, runner, tmp_path, args):
        before = sorted(tmp_path.rglob("*"))
        res = runner.invoke(main, args)
        assert res.exit_code == 2, res.output
        assert res.output.startswith("Error: ") and res.output.count("\n") == 1, res.output
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / "a_file").read_text() == "keep"

    @pytest.mark.parametrize("target", ["missing/out", "a_file/out", "."])
    @pytest.mark.parametrize("command", ["make-feeder", "simulate", "evaluate"])
    def test_unwritable_output_file_exit_2(self, runner, tmp_path, inputs, command, target):
        args = {
            "make-feeder": ["make-feeder", "--buses", "10", "--adopters", "6"],
            "simulate": ["simulate", "--config", inputs["config"], "--count", "5"],
            "evaluate": ["evaluate", "--config", inputs["config"],
                         "--scenarios", inputs["scen"]],
        }[command]
        self.check_refused(runner, tmp_path, args + ["-o", str(tmp_path / target)])

    @pytest.mark.parametrize("target", ["a_file", "a_file/out"])
    @pytest.mark.parametrize("command", ["search", "brute-force", "brute-force-scenarios",
                                         "report"])
    def test_unwritable_output_dir_exit_2(self, runner, tmp_path, inputs, command, target):
        args = {
            "search": ["search", "--config", inputs["config"]],
            "brute-force": ["brute-force", "--config", inputs["config"], "--count", "20"],
            "brute-force-scenarios": ["brute-force", "--config", inputs["config"],
                                      "--scenarios", inputs["scen"]],
            "report": ["report", "--feeder", inputs["feeder"],
                       "--search-dir", str(tmp_path / "no_result")],
        }[command]
        self.check_refused(runner, tmp_path, args + ["-o", str(tmp_path / target)])


class TestEmptyScenarioFile:
    """A header-only scenario file is a batch of zero scenarios."""

    @pytest.fixture
    def empty(self, runner, tmp_path):
        from gridcrit.adoption import save_scenarios
        from gridcrit.feeder import load_feeder

        feeder_path = write_feeder(runner, tmp_path / "f.json")
        feeder = load_feeder(feeder_path)
        scen = tmp_path / "empty.txt"
        save_scenarios(scen, np.zeros((0, feeder.num_adopters), np.uint8), feeder)
        assert not [ln for ln in scen.read_text().splitlines() if not ln.startswith("#")]
        return feeder, write_config(tmp_path / "cfg.json", feeder_path), scen

    def test_evaluate_writes_header_only_csv(self, runner, tmp_path, empty):
        feeder, config, scen = empty
        out = tmp_path / "eval.csv"
        res = runner.invoke(main, ["evaluate", "--config", str(config),
                                   "--scenarios", str(scen), "-o", str(out)])
        assert res.exit_code == 0, res.output
        dim = feeder.num_groups + feeder.num_lines
        header = (["id"] + [f"stress_{k}" for k in range(dim)]
                  + [f"violation_{k}" for k in range(dim)] + ["converged"])
        assert out.read_bytes() == (",".join(header) + "\r\n").encode()

    def test_brute_force_writes_zero_evaluations(self, runner, tmp_path, empty):
        feeder, config, scen = empty
        out = tmp_path / "oracle"
        res = runner.invoke(main, ["brute-force", "--config", str(config),
                                   "--scenarios", str(scen), "-o", str(out)])
        assert res.exit_code == 0, res.output
        assert res.output == f"oracle: 0 evaluations, 0 bus-critical, 0 line-critical -> {out}\n"
        expected = {
            "critical_objectives": {"bus": [], "line": []},
            "critical_scenarios": {"bus": [], "line": []},
            "evaluations": [],
            "feeder_hash": feeder.content_hash(),
            "invalid_ids": [],
            "num_bus_objectives": feeder.num_groups,
            "num_evaluations": 0,
            "num_line_objectives": feeder.num_lines,
            "per_objective_max_violation": [0.0] * (feeder.num_groups + feeder.num_lines),
            "schema": 1,
            "search_space_size": 0,
            "stop_reason": "oracle",
        }
        assert (out / "result.json").read_text() == json.dumps(
            expected, indent=2, sort_keys=True) + "\n"


_json_scalars = (
    st.none() | st.booleans() | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True) | st.text()
)
_json_docs = st.recursive(
    _json_scalars,
    lambda children: (
        st.lists(children, max_size=5)
        | st.lists(st.floats(allow_nan=True, allow_infinity=True) | st.integers(), max_size=5)
        | st.dictionaries(st.text(), children, max_size=5)
    ),
    max_leaves=30,
)


_table_numbers = (
    st.sampled_from([0.0, -0.0, 1.0, 1e300, float("nan"), float("inf"), -float("inf")])
    | st.floats(allow_nan=True, allow_infinity=True)
)


@st.composite
def _tables(draw):
    """A table's columns, and the list of records it stands for."""
    rows = draw(st.integers(0, 9))

    def matrix():
        width = draw(st.integers(1, 3))
        cells = draw(st.lists(_table_numbers, min_size=rows * width, max_size=rows * width))
        return np.array(cells, dtype=float).reshape(rows, width)

    columns = {}
    for name in draw(st.lists(st.text(max_size=3), min_size=1, max_size=4, unique=True)):
        kind = draw(st.sampled_from(["ints", "numbers", "text", "matrix", "parts"]))
        if kind == "matrix":
            columns[name] = matrix()
        elif kind == "parts":
            columns[name] = tuple(matrix() for _ in range(draw(st.integers(1, 3))))
        else:
            values = {"ints": st.integers(), "numbers": _table_numbers, "text": st.text()}[kind]
            columns[name] = draw(st.lists(values, min_size=rows, max_size=rows))
    records = [
        {name: col[i] if isinstance(col, list)
         else np.hstack(col)[i].tolist() if isinstance(col, tuple) else col[i].tolist()
         for name, col in columns.items()}
        for i in range(rows)
    ]
    return columns, records


def _written(doc, tmp_path_factory) -> str:
    path = tmp_path_factory.getbasetemp() / "doc.json"
    _write_json(path, doc)
    return path.read_text()


class TestJsonWriter:
    @given(doc=_json_docs)
    @settings(max_examples=500, deadline=None)
    def test_same_text_as_the_indenting_encoder(self, doc, tmp_path_factory):
        assert _written(doc, tmp_path_factory) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @given(table=_tables(), others=st.dictionaries(st.text(), _json_docs, max_size=3),
           nested=st.booleans(), block=st.sampled_from([1, 2, 3, 256]))
    @settings(max_examples=300, deadline=None)
    def test_table_same_text_as_its_records(self, table, others, nested, block,
                                            tmp_path_factory):
        # block: rows per C-encoder call and per write, so that blocks end at any row.
        columns, records = table
        doc, expected = {**others, "t": _Table(**columns)}, {**others, "t": records}
        if nested:
            doc, expected = {"n": doc, "z": 1}, {"n": expected, "z": 1}
        with mock.patch.object(cli, "_TABLE_BLOCK", block):
            text = _written(doc, tmp_path_factory)
        assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_table_special_rows(self, tmp_path_factory):
        # Repeated rows across blocks; -0.0 beside 0.0 stays apart, though the
        # two are equal; NaN and the infinities; one number per row.
        nan, inf = float("nan"), float("inf")
        stress = np.array([[0.0, 1e300], [-0.0, 1e300], [nan, -inf], [0.0, 1e300],
                           [inf, 2.5], [nan, -inf], [-0.0, 1e300]])
        table = _Table(id=list(range(7)), bits=["01", "10", "11", "01", "00", "11", "10"],
                       stress=stress, one=stress[:, :1].copy())
        records = [{"bits": b, "id": i, "one": row[:1], "stress": row}
                   for i, b, row in zip(table.columns["id"], table.columns["bits"],
                                        stress.tolist())]
        for block in (2, 256):
            with mock.patch.object(cli, "_TABLE_BLOCK", block):
                text = _written({"t": table}, tmp_path_factory)
            assert text == json.dumps({"t": records}, indent=2, sort_keys=True) + "\n"
        assert '"-0.0"' not in text and text.count("-0.0") == 4

    def test_table_parts_special_rows(self, tmp_path_factory):
        # A matrix given as column parts, as result.json's violations are:
        # -0.0, NaN and the infinities in either part, a one-column part,
        # rows that repeat in one part only, and a table of no records.
        nan, inf = float("nan"), float("inf")
        bus = np.array([[0.0], [-0.0], [nan], [0.0], [inf], [-inf]])
        line = np.array([[1.0, 2.0], [1.0, 2.0], [-0.0, nan], [3.0, 2.0], [1.0, 2.0],
                         [-inf, 0.0]])
        records = [{"id": i, "v": row} for i, row in enumerate(np.hstack([bus, line]).tolist())]
        for block in (1, 4, 256):
            with mock.patch.object(cli, "_TABLE_BLOCK", block):
                text = _written({"t": _Table(id=list(range(6)), v=(bus, line))},
                                tmp_path_factory)
            assert text == json.dumps({"t": records}, indent=2, sort_keys=True) + "\n"
        assert text.count("-0.0") == 2
        empty = _Table(v=(bus[:0], line[:0]), id=[])
        assert _written({"t": empty}, tmp_path_factory) == '{\n  "t": []\n}\n'

    def test_table_arrays_are_freed_without_the_cyclic_gc(self, tmp_path_factory):
        # A written table must not keep its arrays until a garbage collection:
        # they hold every stress and violation row of a result.
        matrix = np.array([[1.0, 2.0], [1.0, 2.0], [3.0, 4.0]])
        before = sys.getrefcount(matrix)
        gc.disable()
        try:
            _written({"a": _Table(id=[0, 1, 2], x=matrix)}, tmp_path_factory)
            assert sys.getrefcount(matrix) == before
        finally:
            gc.enable()

    def test_escapes_and_special_floats(self, tmp_path_factory):
        doc = {"\u00e9\n\"\\": [float("nan"), float("inf"), -float("inf"), -0.0, 1e300, 3],
               "b": [[], {}, [True, False, None], ["a, b", "x], [y"]], "a": {}}
        assert _written(doc, tmp_path_factory) == json.dumps(doc, indent=2, sort_keys=True) + "\n"

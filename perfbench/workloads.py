"""Workload definitions: the inputs each workload hands the gridcrit CLI.

A run has ``inputs`` configs that differ only in the program seed, derived
from the benchmark seed; everything else is fixed here, so the same benchmark
seed always gives the same inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

DATA_DIR = Path(__file__).resolve().parent / "data"

STD_DIFFUSION = {"p": 0.02, "q": 0.25, "horizon_steps": 10, "initial_rate": 0.15}
ADV_DIFFUSION = {"p": 0.02, "q": 0.25, "horizon_steps": 10, "initial_rate": 0.0}
SPACE_CAP = 4096
# Brute force is timed on 1024-scenario enumerations (~0.7 s each) rather
# than SPACE_CAP (~7 s, superlinear in the Pareto archive), so a run repeats
# each of its inputs several times.
ORACLE_COUNT = 1024

# Smoke-test sizes: a search that converges within a 200-scenario space and a
# 256-scenario enumeration, a few seconds each.
TINY_SEARCH = {"n0": 10, "n_init": 40, "n_expand": 30, "max_search_space": 200}
TINY_COUNT = 256


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # gridcrit CLI command: "search" or "brute-force"
    feeder: str                  # file under perfbench/data
    diffusion: dict
    search: dict = field(default_factory=dict)
    count: int = 0               # brute-force --count
    exhaustive_oracle: bool = False  # gate search against all 2^A bitstrings
    # Program seeds per run. Cost per scenario varies from seed to seed (a
    # search's by ~10 %: short searches are cheaper per scenario than long
    # ones; brute force's with the size of the Pareto archive and the
    # power-flow iterations), so a run averages over several seeds.
    inputs: int = 2
    # Host probe (see harness.py) that resembles the workload's hot path, and
    # its passes after each command: enough to average the host's jitter over
    # ~1 s between long commands, one between short ones.
    probe: str = "vector"
    probe_passes: int = 10

    def tiny(self, **search) -> "Workload":
        """The same workload at smoke-test size; ``search`` overrides more keys."""
        if self.command == "search":
            return replace(self, search={**TINY_SEARCH, **search}, inputs=1)
        return replace(self, count=TINY_COUNT, inputs=1)

    def program_seeds(self, seed: int) -> list[int]:
        """Disjoint for distinct benchmark seeds: inputs*seed ... inputs*seed+inputs-1."""
        return [self.inputs * seed + i for i in range(self.inputs)]

    @property
    def feeder_path(self) -> Path:
        return DATA_DIR / self.feeder

    def write_config(self, seed: int, path: Path) -> Path:
        config = {
            "schema": 1,
            "feeder": str(self.feeder_path),
            "seed": seed,
            "diffusion": dict(self.diffusion),
            "search": dict(self.search),
        }
        path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n")
        return path

    def argv(self, config_path: Path, outdir: Path) -> list[str]:
        args = [self.command, "--config", str(config_path)]
        if self.command == "brute-force":
            args += ["--count", str(self.count)]
        return args + ["--output-dir", str(outdir)]


WORKLOADS = {
    # The paper's main path: acquisition and GP work dominate, power flow is tiny.
    "search-std": Workload(
        "search-std", "search", "standard_feeder.json", STD_DIFFUSION,
        search={"max_search_space": SPACE_CAP}, inputs=3,
    ),
    # Bypasses the surrogate and acquisition entirely: power flow, the Pareto
    # archive and simulation dominate, and many scenarios are duplicate bitstrings.
    "oracle-std": Workload(
        "oracle-std", "brute-force", "standard_feeder.json", STD_DIFFUSION,
        count=ORACLE_COUNT, inputs=8, probe="interp", probe_passes=1,
    ),
    # A 1024-bitstring space: a duplicate-heavy pool, a short stopping
    # subsample (the reuse-candidate-alpha branch) and a larger GP-fit share.
    # Not in BENCHMARK.json (see README.md); run by hand and smoke-tested.
    "search-adv": Workload(
        "search-adv", "search", "adversarial_feeder.json", ADV_DIFFUSION,
        search={"max_search_space": SPACE_CAP}, exhaustive_oracle=True, inputs=6,
    ),
}

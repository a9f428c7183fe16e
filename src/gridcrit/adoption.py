"""Agent-based PV adoption simulator producing binary scenarios."""

from __future__ import annotations

import numbers
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridcrit.feeder import Feeder

SCENARIO_SCHEMA_VERSION = 1


def _check_int(name: str, value, minimum: int) -> None:
    """Raise ValueError unless ``value`` is an integer (not a bool) >= ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, not {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}")


@dataclass(frozen=True)
class DiffusionParams:
    """Innovation/imitation coefficients and horizon of the diffusion model."""

    p: float
    q: float
    horizon_steps: int = 10
    initial_rate: float = 0.0

    def __post_init__(self):
        if self.p < 0 or self.q < 0:
            raise ValueError("p and q must be non-negative")
        if self.p + self.q > 1:
            warnings.warn(
                "p + q > 1: one-step adoption probability will be clamped to 1",
                stacklevel=2,
            )
        _check_int("horizon_steps", self.horizon_steps, 1)
        if not 0.0 <= self.initial_rate <= 1.0:
            raise ValueError("initial_rate must be in [0, 1]")


@dataclass(frozen=True)
class Scenario:
    """Binary adoption vector over the feeder's adopters.

    A scenario's id is its position in the list that holds it.
    """

    bits: tuple[int, ...]

    def bitstring(self) -> str:
        return "".join(str(b) for b in self.bits)


def adoption_probability(
    params: DiffusionParams, adopted_count: int, total_agents: int
) -> float:
    """One-step probability that a non-adopter flips, clamped to [0, 1]."""
    if total_agents < 1:
        raise ValueError("total_agents must be >= 1")
    if not 0 <= adopted_count <= total_agents:
        raise ValueError("adopted_count out of range")
    prob = params.p + params.q * adopted_count / total_agents
    return min(max(prob, 0.0), 1.0)


def _simulate_bits(num_agents: int, params: DiffusionParams, rng: np.random.Generator) -> np.ndarray:
    state = (rng.random(num_agents) < params.initial_rate).astype(np.int8)
    for _ in range(params.horizon_steps):
        # Synchronous update: probability from the state at step start.
        prob = adoption_probability(params, int(state.sum()), num_agents)
        flips = rng.random(num_agents) < prob
        state = np.where(state == 1, 1, flips.astype(np.int8))
    return state


def simulate_scenario(feeder: Feeder, params: DiffusionParams, rng_seed) -> Scenario:
    """Run one diffusion trajectory; adoption is absorbing; seed-deterministic."""
    num_agents = feeder.num_adopters
    if num_agents < 1:
        raise ValueError("feeder has no adopters")
    rng = np.random.default_rng(rng_seed)
    bits = _simulate_bits(num_agents, params, rng)
    return Scenario(bits=tuple(int(b) for b in bits))


def simulate_batch(
    feeder: Feeder,
    params: DiffusionParams,
    count: int,
    seed,
) -> list[Scenario]:
    """Simulate ``count`` independent scenarios with distinct derived sub-seeds.

    Duplicates are allowed (Monte Carlo semantics). Sub-seeds come from
    spawning a ``numpy`` SeedSequence, so batches are reproducible and
    individual trajectories are independent streams.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    children = np.random.SeedSequence(seed).spawn(count)
    return [simulate_scenario(feeder, params, child) for child in children]


def save_scenarios(path, scenarios: list[Scenario], feeder: Feeder) -> None:
    """Write one bitstring per line with a header tying the file to its feeder."""
    lines = [
        f"# schema: {SCENARIO_SCHEMA_VERSION}",
        f"# feeder: {feeder.content_hash()}",
        f"# adopters: {feeder.num_adopters}",
    ]
    lines += [s.bitstring() for s in scenarios]
    Path(path).write_text("\n".join(lines) + "\n")


def load_scenarios(path, feeder: Feeder | None = None) -> list[Scenario]:
    """Read a scenario file; verifies the feeder hash when a feeder is given."""
    header: dict[str, str] = {}
    scenarios: list[Scenario] = []
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
            continue
        if not set(line) <= {"0", "1"}:
            raise ValueError(f"scenario bits must be 0 or 1: {line!r}")
        scenarios.append(Scenario(bits=tuple(int(c) for c in line)))
    if int(header.get("schema", -1)) != SCENARIO_SCHEMA_VERSION:
        raise ValueError("unsupported or missing scenario file schema")
    num_adopters = int(header["adopters"])
    if any(len(s.bits) != num_adopters for s in scenarios):
        raise ValueError("scenario length does not match header adopter count")
    if feeder is not None:
        if feeder.num_adopters != num_adopters:
            raise ValueError("scenario file does not match feeder adopter count")
        if header.get("feeder") != feeder.content_hash():
            raise ValueError("scenario file was generated for a different feeder")
    return scenarios

"""Agent-based PV adoption simulator producing binary scenarios."""

from __future__ import annotations

import math
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


def _check_real(name: str, value) -> None:
    """Raise ValueError unless ``value`` is a finite real number (not a bool)."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or not math.isfinite(value)
    ):
        raise ValueError(f"{name} must be a finite number, not {value!r}")


@dataclass(frozen=True)
class DiffusionParams:
    """Innovation/imitation coefficients and horizon of the diffusion model."""

    p: float
    q: float
    horizon_steps: int = 10
    initial_rate: float = 0.0

    def __post_init__(self):
        for name in ("p", "q", "initial_rate"):
            _check_real(name, getattr(self, name))
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
    """One scenario as a bit tuple. Kept only for perfbench/gates.py and
    ``SearchResult.scenarios``; goes once ROADMAP item 2 moves their readers."""

    bits: tuple[int, ...]


def bitstrings(bits: np.ndarray) -> list[str]:
    """One '0'/'1' string per row of a 0/1 matrix."""
    width = bits.shape[1]
    text = (bits + ord("0")).astype(np.uint8).tobytes().decode("ascii")
    return [text[i * width:(i + 1) * width] for i in range(len(bits))]


# Cap on the uniform draws held at once (2 MB of doubles), so memory stays
# bounded at the oracle's scenario budget and at long horizons.
_DRAW_BLOCK_ELEMENTS = 1 << 18


def _simulate(feeder: Feeder, params: DiffusionParams, seeds: list) -> np.ndarray:
    """One diffusion trajectory per seed, all through one vectorised kernel;
    the final states, one uint8 row per seed.

    Each trajectory draws from its own ``default_rng(seed)``: ``num_agents``
    uniforms for the initial state, then as many for every step. Drawing t
    steps at once yields the same doubles as t single draws, so the result
    does not depend on the blocking.
    """
    num_agents = feeder.num_adopters
    if num_agents < 1:
        raise ValueError("feeder has no adopters")
    steps = params.horizon_steps + 1
    per_block = max(1, _DRAW_BLOCK_ELEMENTS // (steps * num_agents))
    bits = np.empty((len(seeds), num_agents), dtype=np.uint8)
    for start in range(0, len(seeds), per_block):
        rngs = [np.random.default_rng(s) for s in seeds[start:start + per_block]]
        span = max(1, _DRAW_BLOCK_ELEMENTS // (len(rngs) * num_agents))  # steps per draw
        state = None
        for t0 in range(0, steps, span):
            draws = np.empty((len(rngs), min(span, steps - t0), num_agents))
            for rng, own in zip(rngs, draws):
                rng.random(out=own)
            for step_draws in draws.swapaxes(0, 1):
                if state is None:
                    state = step_draws < params.initial_rate
                    continue
                # Synchronous update: probability from the state at step start.
                prob = params.p + params.q * state.sum(axis=1) / num_agents
                state |= step_draws < np.minimum(np.maximum(prob, 0.0), 1.0)[:, None]
        bits[start:start + len(rngs)] = state
    return bits


def simulate_batch(
    feeder: Feeder,
    params: DiffusionParams,
    count: int,
    seed,
) -> np.ndarray:
    """Simulate ``count`` independent scenarios with distinct derived sub-seeds.

    Returns a uint8 (count x A) matrix; row i is scenario i. Duplicates are
    allowed (Monte Carlo semantics). Sub-seeds come from spawning a ``numpy``
    SeedSequence, so batches are reproducible and individual trajectories
    are independent streams.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return _simulate(feeder, params, np.random.SeedSequence(seed).spawn(count))


def save_scenarios(path, bits: np.ndarray, feeder: Feeder) -> None:
    """Write one bitstring per row with a header tying the file to its feeder."""
    lines = [
        f"# schema: {SCENARIO_SCHEMA_VERSION}",
        f"# feeder: {feeder.content_hash()}",
        f"# adopters: {feeder.num_adopters}",
    ]
    lines += bitstrings(bits)
    Path(path).write_text("\n".join(lines) + "\n")


def load_scenarios(path, feeder: Feeder | None = None) -> np.ndarray:
    """Read a scenario file as a uint8 (S x A) matrix; verifies the feeder
    hash when a feeder is given."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"cannot read scenario file: {exc}") from exc
    header: dict[str, str] = {}
    rows: list[str] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line[1:].partition(":")
            header[key.strip()] = value.strip()
            continue
        if not set(line) <= {"0", "1"}:
            raise ValueError(f"scenario bits must be 0 or 1: {line!r}")
        rows.append(line)
    if int(header.get("schema", -1)) != SCENARIO_SCHEMA_VERSION:
        raise ValueError("unsupported or missing scenario file schema")
    if "adopters" not in header:
        raise ValueError("scenario file has no adopters header")
    num_adopters = int(header["adopters"])
    if any(len(row) != num_adopters for row in rows):
        raise ValueError("scenario length does not match header adopter count")
    if feeder is not None:
        if feeder.num_adopters != num_adopters:
            raise ValueError("scenario file does not match feeder adopter count")
        if header.get("feeder") != feeder.content_hash():
            raise ValueError("scenario file was generated for a different feeder")
    text = "".join(rows).encode("ascii")
    return np.frombuffer(text, dtype=np.uint8).reshape(len(rows), num_adopters) - ord("0")

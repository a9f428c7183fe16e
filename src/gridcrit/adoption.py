"""Agent-based PV adoption simulator producing binary scenarios."""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from gridcrit.feeder import Feeder, _check_int, _check_real

SCENARIO_SCHEMA_VERSION = 1


# Longest horizon a config may ask for: 1 000 times the default. Draws stay
# within _DRAW_BLOCK_ELEMENTS whatever the horizon, so only run time grows.
MAX_HORIZON_STEPS = 10_000


@dataclass(frozen=True)
class DiffusionParams:
    """Innovation/imitation coefficients and horizon of the diffusion model.

    ``p``, ``q`` and ``initial_rate`` are stored as floats once checked: an
    int beyond the C long range simulates as the float it rounds to."""

    p: float = 0.01
    q: float = 0.164
    horizon_steps: int = 10
    initial_rate: float = 0.0

    def __post_init__(self):
        for name in ("p", "q", "initial_rate"):
            _check_real(name, getattr(self, name))
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.p < 0 or self.q < 0:
            raise ValueError("p and q must be non-negative")
        if self.p + self.q > 1:
            warnings.warn(
                "p + q > 1: one-step adoption probability will be clamped to 1",
                stacklevel=2,
            )
        _check_int("horizon_steps", self.horizon_steps, 1, MAX_HORIZON_STEPS)
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

# numpy's SeedSequence hash constants and PCG64 multiplier
# (numpy/random/bit_generator.pyx, numpy/random/src/pcg64/pcg64.h).
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK32, _MASK128 = (1 << 32) - 1, (1 << 128) - 1


def _entropy_words(entropy) -> list[int]:
    """A checked SeedSequence entropy as numpy's uint32 words: an int least
    significant word first, a sequence its items' words in order."""
    if isinstance(entropy, (int, np.integer)):
        value = int(entropy)
        words = [value & _MASK32]
        while value := value >> 32:
            words.append(value & _MASK32)
        return words
    return [word for item in entropy for word in _entropy_words(item)]


# SeedSequence's two hash steps, on Python ints or on uint32 arrays, where
# the arithmetic wraps modulo 2**32 as in numpy's C.
def _hashmix(value, hash_const: list[int], mult: int = _MULT_A):
    value = value ^ hash_const[0]
    hash_const[0] = hash_const[0] * mult & _MASK32
    value = value * hash_const[0] & _MASK32
    return value ^ value >> 16


def _mix(x, y):
    result = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _pcg64_states(entropy, start: int, stop: int) -> list[tuple[int, int]]:
    """``PCG64(child).state["state"]`` as ``(state, inc)`` for each child
    ``SeedSequence(entropy).spawn(stop)[start:stop]``, recomputed with
    numpy's own arithmetic instead of building each child and generator.

    A child's entropy is the parent's words, zero-padded to the pool size,
    then its spawn index (below 2**32, so one word). Only that last word
    differs between children, so the words before it are mixed on Python
    ints and it alone on arrays.
    """
    words = _entropy_words(entropy)
    words += [0] * (_POOL_SIZE - len(words))
    words.append(np.arange(start, stop, dtype=np.uint32))
    hash_const = [_INIT_A]
    pool = [_hashmix(word, hash_const) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hash_const))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], _hashmix(word, hash_const))
    # generate_state(4, uint64): eight words cycled from the pool, paired
    # little-endian.
    hash_const = [_INIT_B]
    out = [_hashmix(pool[k % _POOL_SIZE], hash_const, _MULT_B).astype(np.uint64)
           for k in range(8)]
    state_words = [(out[k] | out[k + 1] << 32).tolist() for k in range(0, 8, 2)]
    # pcg64_set_seed: state = 0, inc = seq << 1 | 1, step, state += s, step.
    states = []
    for w0, w1, w2, w3 in zip(*state_words):
        inc = ((w2 << 64 | w3) << 1 | 1) & _MASK128
        states.append(((((w0 << 64 | w1) + inc) * _PCG_MULT + inc) & _MASK128, inc))
    return states


def _simulate(feeder: Feeder, params: DiffusionParams, entropy, count: int) -> np.ndarray:
    """One diffusion trajectory per child of ``SeedSequence(entropy)``, all
    through one vectorised kernel; the final states, one uint8 row per child.

    Trajectory i draws from ``default_rng(SeedSequence(entropy).spawn(count)[i])``:
    ``num_agents`` uniforms for the initial state, then as many for every
    step. One generator serves every trajectory, its state set to each
    child's in turn. Drawing t steps at once yields the same doubles as t
    single draws, so the result does not depend on the blocking.
    """
    num_agents = feeder.num_adopters
    if num_agents < 1:
        raise ValueError("feeder has no adopters")
    steps = params.horizon_steps + 1
    per_block = max(1, _DRAW_BLOCK_ELEMENTS // (steps * num_agents))
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    bits = np.empty((count, num_agents), dtype=np.uint8)
    for start in range(0, count, per_block):
        seeds = _pcg64_states(entropy, start, min(count, start + per_block))
        span = max(1, _DRAW_BLOCK_ELEMENTS // (len(seeds) * num_agents))  # steps per draw
        state = None
        for t0 in range(0, steps, span):
            draws = np.empty((len(seeds), min(span, steps - t0), num_agents))
            for (pcg_state, inc), own in zip(seeds, draws):
                # A block of several trajectories draws its horizon in one span;
                # a lone trajectory keeps its stream from span to span.
                if t0 == 0:
                    bit_generator.state = {
                        "bit_generator": "PCG64",
                        "state": {"state": pcg_state, "inc": inc},
                        "has_uint32": 0,
                        "uinteger": 0,
                    }
                rng.random(out=own)
            for step_draws in draws.swapaxes(0, 1):
                if state is None:
                    state = step_draws < params.initial_rate
                    continue
                # Synchronous update: probability from the state at step start.
                prob = params.p + params.q * state.sum(axis=1) / num_agents
                state |= step_draws < np.minimum(np.maximum(prob, 0.0), 1.0)[:, None]
        bits[start:start + len(seeds)] = state
    return bits


def simulate_batch(
    feeder: Feeder,
    params: DiffusionParams,
    count: int,
    seed,
) -> np.ndarray:
    """Simulate ``count`` independent scenarios with distinct derived sub-seeds.

    Returns a uint8 (count x A) matrix; row i is scenario i. Duplicates are
    allowed (Monte Carlo semantics). Row i draws from
    ``default_rng(SeedSequence(seed).spawn(count)[i])``, so batches are
    reproducible, trajectories are independent streams, and a batch's first
    k rows are the k-row batch. The children's generator states are
    recomputed exactly from numpy's seeding arithmetic; the tests check them
    against numpy's own objects. ``seed`` is checked by ``SeedSequence``: a
    negative int raises ValueError, a float TypeError.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    return _simulate(feeder, params, np.random.SeedSequence(seed).entropy, count)


def save_scenarios(path, bits: np.ndarray, feeder: Feeder) -> None:
    """Write one bitstring per row with a header tying the file to its feeder."""
    lines = [
        f"# schema: {SCENARIO_SCHEMA_VERSION}",
        f"# feeder: {feeder.content_hash()}",
        f"# adopters: {feeder.num_adopters}",
    ]
    lines += bitstrings(bits)
    Path(path).write_text("\n".join(lines) + "\n")


def _header_int(header: dict[str, str], key: str) -> int:
    """The integer a scenario file header line holds; ValueError naming the
    header if it holds none."""
    try:
        return int(header[key])
    except ValueError:
        raise ValueError(
            f"scenario file header '{key}' must be an integer, not {header[key]!r}"
        ) from None


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
    if "schema" not in header or _header_int(header, "schema") != SCENARIO_SCHEMA_VERSION:
        raise ValueError("unsupported or missing scenario file schema")
    if "adopters" not in header:
        raise ValueError("scenario file has no adopters header")
    num_adopters = _header_int(header, "adopters")
    if any(len(row) != num_adopters for row in rows):
        raise ValueError("scenario length does not match header adopter count")
    if feeder is not None:
        if feeder.num_adopters != num_adopters:
            raise ValueError("scenario file does not match feeder adopter count")
        if header.get("feeder") != feeder.content_hash():
            raise ValueError("scenario file was generated for a different feeder")
    text = "".join(rows).encode("ascii")
    return np.frombuffer(text, dtype=np.uint8).reshape(len(rows), num_adopters) - ord("0")

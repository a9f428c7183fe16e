"""Shared fixtures: committed test feeders, common parameter sets, and
scalar references and recovery metrics over the library's results."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gridcrit.adoption import DiffusionParams, bitstrings
from gridcrit.feeder import Bus, Feeder, Line, load_feeder
from gridcrit.pareto import dominated
from gridcrit.powerflow import ViolationConfig

DATA_DIR = Path(__file__).parent / "data"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def standard_feeder() -> Feeder:
    """The committed 15-bus / 12-adopter / 3-group synthetic feeder."""
    return load_feeder(DATA_DIR / "standard_feeder.json")


@pytest.fixture(scope="session")
def adversarial_feeder() -> Feeder:
    """Committed chain feeder with end-of-feeder adopters; worst cases at low adoption."""
    return load_feeder(DATA_DIR / "adversarial_feeder.json")


@pytest.fixture(scope="session")
def std_diffusion() -> DiffusionParams:
    return DiffusionParams(p=0.02, q=0.25, horizon_steps=10, initial_rate=0.15)


@pytest.fixture
def viol_cfg() -> ViolationConfig:
    return ViolationConfig()


def build_chain_feeder(
    loads_kw,
    pv_kw=None,
    r_ohm=0.2,
    x_ohm=0.1,
    rating=1.0,
    bounds=(0.95, 1.05),
    base_voltage=1.0,
    base_power=0.1,
    num_groups=1,
    groups=None,
):
    """A straight chain 0-1-...-(n-1) with slack at bus 0.

    ``loads_kw[i]`` is the real load at bus i; ``pv_kw[i]`` (if given and
    positive) makes bus i an adopter with that capacity.
    """
    n = len(loads_kw)
    pv = pv_kw or [0.0] * n
    groups = groups or [1] * n
    buses = [
        Bus(
            id=i,
            load_p=float(loads_kw[i]),
            load_q=0.3 * float(loads_kw[i]),
            v_lower=bounds[0],
            v_upper=bounds[1],
            group=groups[i],
            is_adopter=pv[i] > 0,
            pv_capacity=float(pv[i]),
        )
        for i in range(n)
    ]
    lines = [
        Line(
            id=n + i - 1,
            from_bus=i - 1,
            to_bus=i,
            resistance=r_ohm,
            reactance=x_ohm,
            rating=rating,
        )
        for i in range(1, n)
    ]
    return Feeder(
        buses, lines, slack_bus=0, base_voltage=base_voltage,
        base_power=base_power, num_groups=num_groups,
    )


def dominates(a, b) -> bool:
    """True iff a >= b componentwise with strict inequality somewhere."""
    return bool(dominated(np.asarray([b], dtype=float), np.asarray([a], dtype=float))[0])


def adoption_probability(
    params: DiffusionParams, adopted_count: int, total_agents: int
) -> float:
    """One-step probability that a non-adopter flips, clamped to [0, 1].

    The scalar reference for the simulator's vectorised update.
    """
    if total_agents < 1:
        raise ValueError("total_agents must be >= 1")
    if not 0 <= adopted_count <= total_agents:
        raise ValueError("adopted_count out of range")
    prob = params.p + params.q * adopted_count / total_agents
    return min(max(prob, 0.0), 1.0)


def found_bits(result) -> set[str]:
    """Bitstrings of the scenarios a search evaluated."""
    return set(bitstrings(result.bits[result.ids]))


def critical_bits(oracle, family: str) -> set[str]:
    """Bitstrings of an oracle's critical scenarios in one objective family."""
    ids = oracle.fronts.bus_ids if family == "bus" else oracle.fronts.line_ids
    return set(bitstrings(oracle.bits[list(ids)]))


def recovery_fraction(oracle, result, family: str) -> float:
    """Fraction of oracle-critical scenarios (by bitstring) the search evaluated."""
    crit = critical_bits(oracle, family)
    if not crit:
        return 1.0
    return len(crit & found_bits(result)) / len(crit)


def run_fresh_python(code: str, *args: str):
    """Run ``code`` in a new interpreter that imports gridcrit from this
    checkout; returns the JSON document on its last line of output."""
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])

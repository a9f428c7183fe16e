"""Correctness gates, run outside the timed region.

The reference here is deliberately plain: the scalar ``solve_power_flow`` and
``compute_stress`` for stresses, a rectify-and-bin loop for violations, and an
O(n^2) dominance test for the fronts. A faster program path (batched power
flow, a single dominance kernel) must agree with it.
"""

from __future__ import annotations

import itertools

import numpy as np

from gridcrit.adoption import Scenario
from gridcrit.powerflow import compute_stress, solve_power_flow

# The sweep stops when max |dV| < tol = 1e-8; stresses are differences of
# voltages and flows, so two correct solvers agree far inside this.
STRESS_TOL = 1e-6
EVALUATED_FRACTION_MAX = 0.25  # acceptance criterion 3, which holds per run


def reference_stresses(feeder, partition, bit_tuples, pf: dict) -> dict:
    """Stress per distinct bitstring with the scalar solver; None if unconverged."""
    out = {}
    for bits in set(bit_tuples):
        res = solve_power_flow(feeder, Scenario(bits=bits), tol=pf["tol"],
                               max_iter=pf["max_iter"], pv_derate=pf["pv_derate"])
        out[bits] = compute_stress(feeder, partition, res) if res.converged else None
    return out


def reference_violations(stress, num_bus: int, line_bins) -> np.ndarray:
    """Bus stresses rectified; line excess binned to the last edge not above it."""
    out = []
    for k, s in enumerate(stress):
        pos = max(float(s), 0.0)
        out.append(pos if k < num_bus else float(sum(b <= pos for b in line_bins) - 1))
    return np.array(out)


def reference_front(points: np.ndarray) -> list[int]:
    """Indices of points with a positive entry that no other point dominates."""
    front = []
    for i, p in enumerate(points):
        if not np.any(p > 0):
            continue
        dominated = np.any(np.all(points >= p, axis=1) & np.any(points > p, axis=1))
        if not dominated:
            front.append(i)
    return front


def _bits(s: str) -> tuple[int, ...]:
    return tuple(int(c) for c in s)


class Gate:
    """Collects failed checks for one command's artifacts."""

    def __init__(self):
        self.problems: list[str] = []

    def check(self, ok, what: str) -> None:
        if not ok:
            self.problems.append(what)


def _check_document(gate: Gate, doc: dict, ref: dict, line_bins) -> None:
    """Stresses, violations, fronts and maxima of a result.json against the reference."""
    nb, nl = doc["num_bus_objectives"], doc["num_line_objectives"]
    evals = doc["evaluations"]
    gate.check(len(evals) == doc["num_evaluations"], "evaluation count mismatch")
    gate.check(len(evals) > 0, "no evaluations")
    viol = np.zeros((len(evals), nb + nl))
    worst_stress_err = 0.0
    unconverged, wrong_violations = [], []
    for row, e in enumerate(evals):
        stress = np.array(e["stress"])
        expect = ref.get(_bits(e["bits"]))
        if expect is None:
            unconverged.append(e["id"])
            continue
        worst_stress_err = max(worst_stress_err, float(np.max(np.abs(stress - expect))))
        viol[row] = reference_violations(stress, nb, line_bins)
        if not np.array_equal(np.array(e["violations"]), viol[row]):
            wrong_violations.append(e["id"])
    gate.check(not unconverged,
               f"{len(unconverged)} scenarios converged but not in the reference, e.g. {unconverged[:3]}")
    gate.check(worst_stress_err <= STRESS_TOL,
               f"stress differs from the scalar solver by {worst_stress_err:.3g}")
    gate.check(not wrong_violations,
               f"violations of {len(wrong_violations)} scenarios differ from the reference "
               f"mapping, e.g. {wrong_violations[:3]}")

    ids = [e["id"] for e in evals]
    for family, lo, hi in (("bus", 0, nb), ("line", nb, nb + nl)):
        want = sorted(ids[i] for i in reference_front(viol[:, lo:hi]))
        got = sorted(c["id"] for c in doc["critical_scenarios"][family])
        gate.check(want == got, f"{family} front differs from the O(n^2) reference")
    best = np.maximum(viol.max(axis=0), 0.0) if len(evals) else np.zeros(nb + nl)
    gate.check(np.array_equal(np.array(doc["per_objective_max_violation"]), best),
               "per-objective maximum violation differs from the evaluations")


def _critical_bits(ref: dict, nb: int, line_bins) -> tuple[set, np.ndarray]:
    """Oracle-critical bitstrings (bus and line fronts) and per-objective maxima."""
    bits = sorted(b for b, s in ref.items() if s is not None)
    viol = np.array([reference_violations(ref[b], nb, line_bins) for b in bits])
    crit = {bits[i] for i in reference_front(viol[:, :nb])}
    crit |= {bits[i] for i in reference_front(viol[:, nb:])}
    return crit, np.maximum(viol.max(axis=0), 0.0)


def gate_search(doc: dict, pool_bits: list, feeder, config: dict,
                exhaustive: bool) -> tuple[Gate, dict]:
    """Gate a search's result.json against an oracle over its own search space.

    With ``exhaustive`` the oracle covers all 2^A bitstrings instead.
    """
    gate = Gate()
    line_bins = config["violation"]["line_bins"]
    nb = doc["num_bus_objectives"]
    gate.check(doc["stop_reason"] == "converged", f"stop reason {doc['stop_reason']}")
    gate.check(doc["search_space_size"] == len(pool_bits),
               "search_space_size differs from the returned scenario pool")
    space = (list(itertools.product((0, 1), repeat=feeder.num_adopters))
             if exhaustive else pool_bits)
    ref = reference_stresses(feeder, feeder.partition(), space, config["powerflow"])
    pool = set(pool_bits)
    gate.check(all(_bits(e["bits"]) in pool for e in doc["evaluations"]),
               "an evaluated scenario is not in the search space")
    _check_document(gate, doc, ref, line_bins)

    fraction = doc["num_evaluations"] / doc["search_space_size"]
    gate.check(fraction <= EVALUATED_FRACTION_MAX,
               f"evaluated fraction {fraction:.3f} > {EVALUATED_FRACTION_MAX}")
    crit, oracle_max = _critical_bits(ref, nb, line_bins)
    found = {_bits(e["bits"]) for e in doc["evaluations"]}
    search_max = np.array(doc["per_objective_max_violation"])
    gaps = [abs(search_max[k] - oracle_max[k]) / oracle_max[k]
            for k in range(len(oracle_max)) if oracle_max[k] > 0]
    quality = {
        "evaluations": doc["num_evaluations"],
        "search_space_size": doc["search_space_size"],
        "evaluated_fraction": fraction,
        "recovery": len(crit & found) / len(crit) if crit else 1.0,
        "max_violation_gap": max(gaps, default=0.0),
        "oracle_critical": len(crit),
        "stop_reason": doc["stop_reason"],
    }
    return gate, quality


def gate_oracle(doc: dict, feeder, config: dict, count: int) -> tuple[Gate, dict]:
    """Gate a brute-force result.json: every stress, violation and both fronts."""
    gate = Gate()
    gate.check(doc["stop_reason"] == "oracle", f"stop reason {doc['stop_reason']}")
    gate.check(doc["search_space_size"] == count, "search space is not --count")
    gate.check(doc["num_evaluations"] == count and not doc["invalid_ids"],
               "not every scenario was evaluated")
    bits = [_bits(e["bits"]) for e in doc["evaluations"]]
    ref = reference_stresses(feeder, feeder.partition(), bits, config["powerflow"])
    _check_document(gate, doc, ref, config["violation"]["line_bins"])
    quality = {
        "evaluations": doc["num_evaluations"],
        "search_space_size": doc["search_space_size"],
        "distinct_bitstrings": len(ref),
        "stop_reason": doc["stop_reason"],
    }
    return gate, quality

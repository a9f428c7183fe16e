"""Backward/forward-sweep power flow and the stress/violation objectives."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from gridcrit.adoption import Scenario
from gridcrit.feeder import BusPartition, Feeder


@dataclass(frozen=True)
class PowerFlowResult:
    """Bus voltages (p.u.) and sending-end line flows (p.u. apparent power)."""

    voltages: np.ndarray
    flows: np.ndarray
    converged: bool
    iterations: int


@dataclass(frozen=True)
class ViolationConfig:
    """Strictly increasing excess-flow thresholds for line severity binning."""

    line_bins: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5)

    def __post_init__(self):
        bins = self.line_bins
        if not bins or bins[0] != 0.0:
            raise ValueError("line_bins must start at 0")
        if any(b2 <= b1 for b1, b2 in zip(bins, bins[1:])):
            raise ValueError("line_bins must be strictly increasing")


class UnconvergedError(RuntimeError):
    """Raised when a downstream computation requires a converged power flow."""


@dataclass(frozen=True)
class _Tree:
    """Feeder topology oriented away from the slack bus (cached per feeder)."""

    order: np.ndarray          # bus positions in BFS order from the slack
    parent: np.ndarray         # parent bus position per bus (-1 for slack)
    parent_line: np.ndarray    # line position feeding each bus (-1 for slack)
    z: np.ndarray              # per-unit series impedance of each line
    adopter_pos: np.ndarray    # bus position per adopter, in scenario bit order


@lru_cache(maxsize=32)
def _build_tree(feeder: Feeder) -> _Tree:
    n = feeder.num_buses
    pos = {b.id: i for i, b in enumerate(feeder.buses)}
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for li, ln in enumerate(feeder.lines):
        a, b = pos[ln.from_bus], pos[ln.to_bus]
        adj[a].append((b, li))
        adj[b].append((a, li))

    parent = np.full(n, -1, dtype=int)
    parent_line = np.full(n, -1, dtype=int)
    order = [pos[feeder.slack_bus]]
    seen = {pos[feeder.slack_bus]}
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v, li in adj[u]:
            if v not in seen:
                seen.add(v)
                parent[v] = u
                parent_line[v] = li
                order.append(v)

    z_base = feeder.base_voltage**2 / feeder.base_power
    z = np.zeros(n, dtype=complex)  # impedance of the line feeding each bus
    for v in range(n):
        li = parent_line[v]
        if li >= 0:
            ln = feeder.lines[li]
            z[v] = (ln.resistance + 1j * ln.reactance) / z_base
    return _Tree(
        order=np.array(order),
        parent=parent,
        parent_line=parent_line,
        z=z,
        adopter_pos=np.array([pos[a] for a in feeder.adopters], dtype=int),
    )


def solve_power_flow(
    feeder: Feeder,
    scenario: Scenario,
    tol: float = 1e-8,
    max_iter: int = 50,
    pv_derate: float = 1.0,
) -> PowerFlowResult:
    """Solve the radial network by backward/forward sweep.

    Net injection at an adopter bus is load minus PV at ``pv_derate`` of
    nameplate, unity power factor. The slack bus is held at 1.0 p.u.; flows
    are sending-end apparent power magnitudes in p.u. of the system base.
    """
    if len(scenario.bits) != feeder.num_adopters:
        raise ValueError("scenario length does not match feeder adopter count")
    tree = _build_tree(feeder)
    n = feeder.num_buses

    s_base_kw = feeder.base_power * 1000.0
    p = np.array([b.load_p for b in feeder.buses]) / s_base_kw
    q = np.array([b.load_q for b in feeder.buses]) / s_base_kw
    pv = np.array([b.pv_capacity for b in feeder.buses]) / s_base_kw
    x = np.zeros(n)
    x[tree.adopter_pos] = scenario.as_array()
    s_load = (p - x * pv * pv_derate) + 1j * q  # consumption positive

    v = np.ones(n, dtype=complex)
    i_branch = np.zeros(n, dtype=complex)  # current into each bus from its parent
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        i_inj = np.conj(s_load / v)
        i_branch = i_inj.copy()
        for u in tree.order[::-1]:
            par = tree.parent[u]
            if par >= 0:
                i_branch[par] += i_branch[u]
        v_new = v.copy()
        slack = tree.order[0]
        v_new[slack] = 1.0 + 0.0j
        for u in tree.order[1:]:
            v_new[u] = v_new[tree.parent[u]] - tree.z[u] * i_branch[u]
        delta = float(np.max(np.abs(v_new - v)))
        v = v_new
        if delta < tol:
            converged = True
            break

    flows = np.zeros(feeder.num_lines)
    for u in range(n):
        li = tree.parent_line[u]
        if li >= 0:
            flows[li] = abs(v[tree.parent[u]] * np.conj(i_branch[u]))
    if not np.all(np.isfinite(np.abs(v))):
        converged = False
    return PowerFlowResult(
        voltages=np.abs(v), flows=flows, converged=converged, iterations=iterations
    )


def compute_stress(
    feeder: Feeder, partition: BusPartition, pf: PowerFlowResult
) -> np.ndarray:
    """Signed distances from limits: P bus-group entries then L line entries."""
    if not pf.converged:
        raise UnconvergedError("stress requires a converged power flow")
    groups = partition.as_dict()
    num_groups = partition.num_groups
    stress = np.empty(num_groups + feeder.num_lines)
    group_vals: list[list[float]] = [[] for _ in range(num_groups)]
    for i, b in enumerate(feeder.buses):
        volt = pf.voltages[i]
        group_vals[groups[b.id] - 1].append(max(volt - b.v_upper, b.v_lower - volt))
    for k in range(num_groups):
        stress[k] = max(group_vals[k])
    for li, ln in enumerate(feeder.lines):
        stress[num_groups + li] = pf.flows[li] - ln.rating
    return stress


def violation_map(stress: np.ndarray, bus, cfg: ViolationConfig) -> np.ndarray:
    """Rectify bus stresses; bin positive line excess flows by severity.

    Objectives run along the last axis of ``stress``. ``bus`` is either the
    number of leading bus objectives or a boolean mask over the last axis
    that is True for bus objectives; the others are line objectives.
    """
    stress = np.asarray(stress, dtype=float)
    bus = np.asarray(bus)
    if bus.dtype != bool:
        bus = np.arange(stress.shape[-1]) < bus
    line = ~bus
    out = np.maximum(stress, 0.0)
    bins = np.asarray(cfg.line_bins)
    # Bin index j with y+ in [c_j, c_{j+1}); values above the last edge map to J.
    idx = np.searchsorted(bins, out[..., line], side="right") - 1
    out[..., line] = np.minimum(idx, len(bins) - 1)
    return out

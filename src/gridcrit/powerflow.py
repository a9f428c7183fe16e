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
    """Per-feeder constants of the sweep and the stress (cached per feeder).

    The topology is oriented away from the slack bus. Impedances are Python
    ``complex``: the sweeps run on lists, whose ``*``, ``+`` and ``abs``
    round exactly like numpy's complex scalars, while numpy's complex *array*
    ``*`` and ``abs`` do not. So the solver never vectorises over buses.
    """

    p: np.ndarray              # per-bus load and PV nameplate, p.u. of the system base
    q: np.ndarray
    pv: np.ndarray
    adopter_pos: np.ndarray    # bus position per adopter, in scenario bit order
    backward: tuple[tuple[int, int], ...]          # (bus, parent), reverse BFS order
    forward: tuple[tuple[int, int, complex], ...]  # (bus, parent, z of its line), BFS order
    line_ends: tuple[tuple[int, int, int], ...]    # (line, receiving bus, sending bus)
    v_lower: np.ndarray        # per-bus voltage limits (p.u.)
    v_upper: np.ndarray
    rating: np.ndarray         # per-line flow rating


@lru_cache(maxsize=32)
def _build_tree(feeder: Feeder) -> _Tree:
    n = feeder.num_buses
    pos = {b.id: i for i, b in enumerate(feeder.buses)}
    adj: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for li, ln in enumerate(feeder.lines):
        a, b = pos[ln.from_bus], pos[ln.to_bus]
        adj[a].append((b, li))
        adj[b].append((a, li))

    slack = pos[feeder.slack_bus]
    order = [slack]
    parent = {slack: (-1, -1)}  # bus -> (parent bus, line feeding it)
    head = 0
    while head < len(order):
        u = order[head]
        head += 1
        for v, li in adj[u]:
            if v not in parent:
                parent[v] = (u, li)
                order.append(v)

    z_base = feeder.base_voltage**2 / feeder.base_power
    forward = []
    line_ends = []
    for u in order[1:]:
        par, li = parent[u]
        ln = feeder.lines[li]
        forward.append((u, par, complex((ln.resistance + 1j * ln.reactance) / z_base)))
        line_ends.append((li, u, par))
    s_base_kw = feeder.base_power * 1000.0
    return _Tree(
        p=np.array([b.load_p for b in feeder.buses]) / s_base_kw,
        q=np.array([b.load_q for b in feeder.buses]) / s_base_kw,
        pv=np.array([b.pv_capacity for b in feeder.buses]) / s_base_kw,
        adopter_pos=np.array([pos[a] for a in feeder.adopters], dtype=int),
        backward=tuple((u, par) for u, par, _ in reversed(forward)),
        forward=tuple(forward),
        line_ends=tuple(line_ends),
        v_lower=np.array([b.v_lower for b in feeder.buses]),
        v_upper=np.array([b.v_upper for b in feeder.buses]),
        rating=np.array([ln.rating for ln in feeder.lines]),
    )


def _magnitude(z: complex) -> float:
    """``abs(z)``, but inf (as numpy gives) where finite parts overflow it."""
    try:
        return abs(z)
    except OverflowError:
        return np.inf


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
    tree = _build_tree(feeder)
    if len(scenario.bits) != len(tree.adopter_pos):
        raise ValueError("scenario length does not match feeder adopter count")
    n = feeder.num_buses

    x = np.zeros(n)
    x[tree.adopter_pos] = scenario.bits
    s_load = (tree.p - x * tree.pv * pv_derate) + 1j * tree.q  # consumption positive

    v = np.ones(n, dtype=complex)
    ib = [0j] * n  # current into each bus from its parent
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        # The division stays an array op: Python's complex division rounds
        # differently from numpy's.
        ib = np.conj(s_load / v).tolist()
        for u, par in tree.backward:
            ib[par] += ib[u]
        vn = [1.0 + 0.0j] * n
        for u, par, z in tree.forward:
            vn[u] = vn[par] - z * ib[u]
        v_new = np.array(vn)
        delta = float(np.abs(v_new - v).max())
        v = v_new
        if delta < tol:
            converged = True
            break

    vl = v.tolist()
    flows = np.zeros(feeder.num_lines)
    for li, u, par in tree.line_ends:
        flows[li] = _magnitude(vl[par] * ib[u].conjugate())
    voltages = np.abs(v)
    if not np.all(np.isfinite(voltages)):
        converged = False
    return PowerFlowResult(
        voltages=voltages, flows=flows, converged=converged, iterations=iterations
    )


def compute_stress(
    feeder: Feeder, partition: BusPartition, pf: PowerFlowResult
) -> np.ndarray:
    """Signed distances from limits: P bus-group entries then L line entries."""
    if not pf.converged:
        raise UnconvergedError("stress requires a converged power flow")
    tree = _build_tree(feeder)
    vm = pf.voltages
    excess = np.maximum(vm - tree.v_upper, tree.v_lower - vm)
    groups = partition.as_dict()
    group = np.array([groups[b.id] for b in feeder.buses])
    worst = [excess[group == k].max() for k in range(1, partition.num_groups + 1)]
    return np.concatenate([worst, pf.flows - tree.rating])


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

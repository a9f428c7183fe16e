"""Backward/forward-sweep power flow and the stress/violation objectives."""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from gridcrit.adoption import Scenario
from gridcrit.feeder import BusPartition, Feeder, _check_int, _check_real


@dataclass(frozen=True)
class PowerFlowResult:
    """Bus voltages (p.u.) and sending-end line flows (p.u. apparent power).

    Of one scenario, or of a batch: then every field has a leading scenario
    axis, and ``converged`` and ``iterations`` are arrays.
    """

    voltages: np.ndarray
    flows: np.ndarray
    converged: bool | np.ndarray
    iterations: int | np.ndarray


@dataclass(frozen=True)
class ViolationConfig:
    """Strictly increasing excess-flow thresholds for line severity binning."""

    line_bins: tuple[float, ...] = (0.0, 0.1, 0.25, 0.5)

    def __post_init__(self):
        bins = tuple(self.line_bins)
        for b in bins:
            _check_real("line_bins entry", b)
        if not bins or bins[0] != 0.0:
            raise ValueError("line_bins must start at 0")
        if any(b2 <= b1 for b1, b2 in zip(bins, bins[1:])):
            raise ValueError("line_bins must be strictly increasing")
        object.__setattr__(self, "line_bins", bins)


@dataclass(frozen=True)
class PowerFlowConfig:
    """Sweep settings: stop when max |dV| < ``tol`` (p.u.) or after
    ``max_iter`` sweeps; PV injects ``pv_derate`` of its nameplate."""

    tol: float = 1e-8
    max_iter: int = 50
    pv_derate: float = 1.0

    def __post_init__(self):
        _check_real("powerflow tol", self.tol)
        if self.tol <= 0:
            raise ValueError("powerflow tol must be > 0")
        _check_int("powerflow max_iter", self.max_iter, 1)
        _check_real("powerflow pv_derate", self.pv_derate)
        if self.pv_derate < 0:
            raise ValueError("powerflow pv_derate must be >= 0")


@dataclass(frozen=True)
class _Tree:
    """Per-feeder constants of the sweep and the stress (cached per feeder).

    ``forward``, ``backward``, ``line_bus`` and ``line_parent`` are read off
    ``Feeder.tree``, the feeder's one orientation away from the slack bus; the
    sweep sums in its BFS order. The sweep runs on separate float64 real and
    imaginary arrays, one row per bus and one column per scenario, and writes
    every complex product out as CPython does, ``(ar*br - ai*bi, ar*bi +
    ai*br)``: numpy's complex-array ``*`` may fuse a multiply and an add and
    so round differently. The division
    ``conj(s_load / v)`` and the ``np.abs`` of the voltages and of their change
    per sweep stay numpy complex-array ops, as in the one-scenario sweep; they
    are element-wise, so they do not depend on the batch. A flow magnitude is
    ``np.hypot``, which rounds as ``abs`` of a complex scalar does. So each
    row is bit for bit the sweep of its scenario alone on complex scalars,
    whatever batch it is solved in.
    """

    p: np.ndarray              # per-bus load and PV nameplate, p.u. of the system base
    q: np.ndarray
    pv: np.ndarray
    adopter_pos: np.ndarray    # bus position per adopter, in scenario bit order
    backward: tuple[tuple[int, int], ...]                # (bus, parent), reverse BFS order
    forward: tuple[tuple[int, int, float, float], ...]   # (bus, parent, Re z, Im z), BFS order
    line_bus: np.ndarray       # per line, in line order: its receiving bus
    line_parent: np.ndarray    # and its sending bus
    v_lower: np.ndarray        # per-bus voltage limits (p.u.)
    v_upper: np.ndarray
    rating: np.ndarray         # per-line flow rating


@lru_cache(maxsize=32)
def _build_tree(feeder: Feeder) -> _Tree:
    z_base = feeder.base_voltage**2 / feeder.base_power
    forward = []
    line_bus = np.zeros(feeder.num_lines, dtype=int)
    line_parent = np.zeros(feeder.num_lines, dtype=int)
    for u, par, li in feeder.tree:
        ln = feeder.lines[li]
        z = complex((ln.resistance + 1j * ln.reactance) / z_base)
        forward.append((u, par, z.real, z.imag))
        line_bus[li], line_parent[li] = u, par
    pos = {b.id: i for i, b in enumerate(feeder.buses)}
    s_base_kw = feeder.base_power * 1000.0
    return _Tree(
        p=np.array([b.load_p for b in feeder.buses]) / s_base_kw,
        q=np.array([b.load_q for b in feeder.buses]) / s_base_kw,
        pv=np.array([b.pv_capacity for b in feeder.buses]) / s_base_kw,
        adopter_pos=np.array([pos[a] for a in feeder.adopters], dtype=int),
        backward=tuple((u, par) for u, par, _, _ in reversed(forward)),
        forward=tuple(forward),
        line_bus=line_bus,
        line_parent=line_parent,
        v_lower=np.array([b.v_lower for b in feeder.buses]),
        v_upper=np.array([b.v_upper for b in feeder.buses]),
        rating=np.array([ln.rating for ln in feeder.lines]),
    )


# Cap on the elements of each (bus, scenario) working array in one block of
# scenarios: 1 MB per complex array.
_PF_BLOCK_ELEMENTS = 1 << 16


def solve_power_flow(
    feeder: Feeder,
    scenarios: Scenario | np.ndarray,
    tol: float = PowerFlowConfig.tol,
    max_iter: int = PowerFlowConfig.max_iter,
    pv_derate: float = PowerFlowConfig.pv_derate,
) -> PowerFlowResult:
    """Solve the radial network by backward/forward sweep.

    ``scenarios`` is a 0/1 matrix with one scenario per row (S x A); the
    result holds voltages (S x n), flows (S x L), ``converged`` (S,) and
    ``iterations`` (S,). A row stops at the sweep where it converges, so its
    result does not depend on the other rows. One ``Scenario`` (kept only for
    perfbench/gates.py until ROADMAP item 2) gives a bool, an int and a row.

    Net injection at an adopter bus is load minus PV at ``pv_derate`` of
    nameplate, unity power factor. The slack bus is held at 1.0 p.u.; flows
    are sending-end apparent power magnitudes in p.u. of the system base.
    """
    tree = _build_tree(feeder)
    single = isinstance(scenarios, Scenario)
    bits = np.atleast_2d(scenarios.bits) if single else np.asarray(scenarios)
    if bits.ndim != 2 or bits.shape[1] != len(tree.adopter_pos):
        raise ValueError("scenario length does not match feeder adopter count")
    count, n = len(bits), feeder.num_buses
    voltages = np.empty((count, n))
    flows = np.empty((count, feeder.num_lines))
    converged = np.zeros(count, dtype=bool)
    iterations = np.zeros(count, dtype=int)
    per_block = max(1, _PF_BLOCK_ELEMENTS // n)
    with np.errstate(all="ignore"):  # a diverging row reports converged=False
        for start in range(0, count, per_block):
            rows = slice(start, start + per_block)
            voltages[rows], flows[rows], converged[rows], iterations[rows] = _sweep(
                tree, bits[rows], tol, max_iter, pv_derate
            )
    if single:
        return PowerFlowResult(
            voltages=voltages[0], flows=flows[0],
            converged=bool(converged[0]), iterations=int(iterations[0]),
        )
    return PowerFlowResult(
        voltages=voltages, flows=flows, converged=converged, iterations=iterations
    )


def _sweep(tree: _Tree, bits: np.ndarray, tol: float, max_iter: int, pv_derate: float):
    """Voltages (S x n), flows (S x L), converged and iterations of one block."""
    n, count = len(tree.p), len(bits)
    x = np.zeros((n, count))
    x[tree.adopter_pos] = bits.T
    # consumption positive
    s_load = (tree.p[:, None] - x * tree.pv[:, None] * pv_derate) + 1j * tree.q[:, None]

    # Final voltage and current per row; a row is written when it converges.
    v_out = np.ones((n, count), dtype=complex)
    ib_out = np.zeros((n, count), dtype=complex)
    iterations = np.zeros(count, dtype=int)
    converged = np.zeros(count, dtype=bool)
    live = np.arange(count)  # rows still sweeping, in block order
    v = v_out.copy()
    ib = ib_out.copy()
    it = 0
    for it in range(1, max_iter + 1):
        if not len(live):
            break
        ib = np.conj(s_load / v)  # current into each bus from its parent
        ir, ii = ib.real, ib.imag
        for u, par in tree.backward:
            ir[par] += ir[u]
            ii[par] += ii[u]
        v_new = np.ones_like(v)
        vr, vi = v_new.real, v_new.imag
        for u, par, zr, zi in tree.forward:
            vr[u] = vr[par] - (zr * ir[u] - zi * ii[u])
            vi[u] = vi[par] - (zr * ii[u] + zi * ir[u])
        done = np.abs(v_new - v).max(axis=0) < tol
        v = v_new
        if done.any():
            rows = live[done]
            v_out[:, rows], ib_out[:, rows] = v[:, done], ib[:, done]
            iterations[rows], converged[rows] = it, True
            keep = ~done
            live, v, ib, s_load = live[keep], v[:, keep], ib[:, keep], s_load[:, keep]
    v_out[:, live], ib_out[:, live] = v, ib
    iterations[live] = it

    # Sending-end power v[parent] * conj(ib[bus]) of each line, as CPython rounds it.
    vr, vi = v_out.real[tree.line_parent], v_out.imag[tree.line_parent]
    ir, nii = ib_out.real[tree.line_bus], -ib_out.imag[tree.line_bus]
    flows = np.hypot(vr * ir - vi * nii, vr * nii + vi * ir)
    voltages = np.abs(v_out)
    converged &= np.isfinite(voltages).all(axis=0)
    return voltages.T, flows.T, converged, iterations


def compute_stress(
    feeder: Feeder, partition: BusPartition, pf: PowerFlowResult
) -> np.ndarray:
    """Signed distances from limits: P bus-group entries then L line entries.

    Works on the last axis, so a batched result gives one row per scenario.
    The stress of a row whose power flow did not converge is meaningless;
    callers mask it by ``pf.converged``.
    """
    tree = _build_tree(feeder)
    vm = pf.voltages
    excess = np.maximum(vm - tree.v_upper, tree.v_lower - vm)
    groups = partition.as_dict()
    group = np.array([groups[b.id] for b in feeder.buses])
    worst = [excess[..., group == k].max(axis=-1) for k in range(1, partition.num_groups + 1)]
    return np.concatenate([np.stack(worst, axis=-1), pf.flows - tree.rating], axis=-1)


def violation_map(stress: np.ndarray, num_bus: int, cfg: ViolationConfig) -> np.ndarray:
    """Rectify bus stresses; bin positive line excess flows by severity.

    Objectives run along the last axis of ``stress``: the first ``num_bus``
    are bus objectives, the others line objectives.
    """
    out = np.maximum(np.asarray(stress, dtype=float), 0.0)
    bins = np.asarray(cfg.line_bins)
    # Bin index j with y+ in [c_j, c_{j+1}); values above the last edge map to J.
    idx = np.searchsorted(bins, out[..., num_bus:], side="right") - 1
    out[..., num_bus:] = np.minimum(idx, len(bins) - 1)
    return out

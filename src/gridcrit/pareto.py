"""Dominance over violation vectors: one kernel and the front builder.

Every dominance test in the package goes through :func:`dominated`. A front is
built from it with a running front over fixed-size blocks of points, so no
N x N comparison array is ever formed (maximal-vector method of Kung, Luccio &
Preparata, J. ACM 22(4), 1975). Dominance is transitive and uses comparisons
only, so testing against a front instead of every point is exact.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Points per block of the running front: a block's comparison arrays hold
# at most _FRONT_BLOCK x (front size + _FRONT_BLOCK) booleans.
_FRONT_BLOCK = 256


def dominated(points, against) -> np.ndarray:
    """Mask over ``points``: True where some row of ``against`` dominates it.

    ``points`` has shape (..., N, K) and ``against`` (..., P, K); leading
    batch axes broadcast. Row a dominates row p iff a >= p in every objective
    and a > p in at least one. Returns a boolean array of shape (..., N).
    """
    p = np.asarray(points)
    a = np.asarray(against)
    if p.shape[-1] != a.shape[-1]:
        raise ValueError("violation vectors have mismatched lengths")
    shape = np.broadcast_shapes(p.shape[:-2], a.shape[:-2]) + (p.shape[-2], a.shape[-2])
    ge = np.ones(shape, dtype=bool)
    gt = np.zeros(shape, dtype=bool)
    for k in range(p.shape[-1]):
        pk = p[..., :, None, k]
        ak = a[..., None, :, k]
        ge &= ak >= pk
        gt |= ak > pk
    ge &= gt
    return ge.any(axis=-1)


def front_indices(points) -> np.ndarray:
    """Sorted indices of the rows of an (N, K) array that no row dominates.

    Rows with identical values are all kept. Blocks of _FRONT_BLOCK rows are
    tested against the running front and themselves; survivors then prune the
    members they dominate.
    """
    pts = np.asarray(points)
    front = np.empty(0, dtype=np.intp)
    for start in range(0, len(pts), _FRONT_BLOCK):
        block = pts[start:start + _FRONT_BLOCK]
        keep = ~dominated(block, pts[front]) & ~dominated(block, block)
        new = start + np.flatnonzero(keep)
        front = np.concatenate([front[~dominated(pts[front], pts[new])], new])
    return np.sort(front)


def distinct_rows(matrix) -> tuple[np.ndarray, np.ndarray]:
    """The first index of each distinct row of a 2-D array, and each row's
    position among them.

    Rows are compared as byte strings, and the distinct rows are in byte
    order: equal bytes mean equal values, and the few equal values with
    other bytes (-0.0, NaN payloads) just stay apart.
    """
    rows = np.ascontiguousarray(matrix)
    if not rows.shape[1]:  # no bytes to compare: every row is the empty row
        return np.zeros(min(len(rows), 1), dtype=np.intp), np.zeros(len(rows), dtype=np.intp)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    return first, inverse


def critical_indices(points) -> np.ndarray:
    """Sorted indices of rows with a positive entry that no row dominates.

    A row without a positive entry cannot dominate one with a positive entry,
    so the front is built over the positive rows alone. Equal rows never
    dominate each other, so it is built over one copy of each distinct row
    and a row is on it iff its copy is.
    """
    pts = np.asarray(points)
    positive = np.flatnonzero(np.any(pts > 0, axis=-1))
    rows = pts[positive]
    first, inverse = distinct_rows(rows)
    on_front = np.zeros(len(first), dtype=bool)
    on_front[front_indices(rows[first])] = True
    return positive[on_front[inverse]]


@dataclass(frozen=True)
class CriticalFronts:
    """Critical scenarios and objectives of a set of evaluated scenarios.

    ``bus_ids`` and ``line_ids`` are the scenarios with a positive violation
    that no other scenario dominates over the bus (resp. line) objectives;
    scenarios with identical violations are all kept.
    """

    bus_ids: tuple[int, ...]
    line_ids: tuple[int, ...]
    critical_objectives_bus: tuple[int, ...]
    critical_objectives_line: tuple[int, ...]
    per_objective_max_violation: np.ndarray


def critical_fronts(ids, violations, num_bus: int) -> CriticalFronts:
    """Fronts of scenarios ``ids`` whose violation vectors are the rows of
    ``violations``; the first ``num_bus`` columns are the bus objectives."""
    ids = np.asarray(ids, dtype=int)
    viol = np.asarray(violations, dtype=float)
    best = np.max(viol, axis=0, initial=0.0)
    crit = np.flatnonzero(best > 0)
    return CriticalFronts(
        bus_ids=tuple(np.sort(ids[critical_indices(viol[:, :num_bus])]).tolist()),
        line_ids=tuple(np.sort(ids[critical_indices(viol[:, num_bus:])]).tolist()),
        critical_objectives_bus=tuple(crit[crit < num_bus].tolist()),
        critical_objectives_line=tuple(crit[crit >= num_bus].tolist()),
        per_objective_max_violation=best,
    )

"""Dominance kernel, Pareto-set extraction and the critical-front builder."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import dominates
from gridcrit import pareto
from gridcrit.pareto import (
    critical_fronts,
    critical_indices,
    distinct_rows,
    dominated,
    front_indices,
)
from gridcrit.powerflow import ViolationConfig, violation_map


def oracle_pareto_set(points):
    """O(n^2) pairwise-dominance reference implementation."""
    pts = np.asarray(points, dtype=float)
    front = []
    for i in range(len(pts)):
        if not any(
            np.all(pts[j] >= pts[i]) and np.any(pts[j] > pts[i])
            for j in range(len(pts))
        ):
            front.append(i)
    return front


def reference_front(points):
    """Rows with a positive entry that no row dominates (O(n^2) reference)."""
    pts = np.asarray(points, dtype=float)
    front = []
    for i, p in enumerate(pts):
        if not np.any(p > 0):
            continue
        if not np.any(np.all(pts >= p, axis=1) & np.any(pts > p, axis=1)):
            front.append(i)
    return front


# Small-valued points, so ties, duplicates and zero rows are common.
tied_points = st.integers(1, 6).flatmap(
    lambda k: hnp.arrays(
        np.float64,
        st.tuples(st.integers(0, 40), st.just(k)),
        elements=st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0, 3.0]),
    )
)

# A few distinct rows, each repeated many times in any order; -0.0 and 0.0
# are equal values with different bytes.
duplicated_points = st.integers(1, 5).flatmap(
    lambda k: st.tuples(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 8), st.just(k)),
            elements=st.sampled_from([-0.0, 0.0, 0.5, 1.0, 2.0]),
        ),
        st.lists(st.integers(0, 7), min_size=1, max_size=120),
    )
).map(lambda drawn: drawn[0][np.array(drawn[1]) % len(drawn[0])])


def pairwise_dominated(points, against):
    """Reference for ``dominated``: one pair of rows at a time, in Python,
    over the broadcast batch axes."""
    p, a = np.asarray(points), np.asarray(against)
    batch = np.broadcast_shapes(p.shape[:-2], a.shape[:-2])
    p = np.broadcast_to(p, batch + p.shape[-2:])
    a = np.broadcast_to(a, batch + a.shape[-2:])
    out = np.zeros(batch + p.shape[-2:-1], dtype=bool)
    for idx in np.ndindex(*batch):
        for i, row in enumerate(p[idx].tolist()):
            out[idx + (i,)] = any(
                all(x >= y for x, y in zip(other, row)) and any(x > y for x, y in zip(other, row))
                for other in a[idx].tolist()
            )
    return out


# (points, against) leading axes that broadcast, B = 3.
BATCH_AXES = [((), ()), ((3,), ()), ((3,), (1,)), ((3,), (3,)), ((), (3,)), ((1, 3), (3,)),
              ((2, 1), (1, 3))]


@st.composite
def broadcast_pairs(draw):
    """Points and rows against them with broadcast leading axes and 0 to 4
    rows each; values tie often, -0.0 meets 0.0 and -inf rows occur."""
    k = draw(st.integers(1, 4))
    lead_p, lead_a = draw(st.sampled_from(BATCH_AXES))
    values = st.sampled_from([-np.inf, -1.0, -0.0, 0.0, 0.5, 1.0, np.inf])
    points = draw(hnp.arrays(np.float64, lead_p + (draw(st.integers(0, 4)), k), elements=values))
    against = draw(hnp.arrays(np.float64, lead_a + (draw(st.integers(0, 4)), k), elements=values))
    if against.shape[-2] and draw(st.booleans()):
        against[..., 0, :] = -np.inf
    if draw(st.booleans()):  # objective-major strides, as the acquisition passes them
        points = np.moveaxis(np.ascontiguousarray(np.moveaxis(points, -1, 0)), 0, -1)
    return points, against


class TestDominatedKernel:
    """``dominated`` over batch axes against a pairwise loop."""

    @given(broadcast_pairs())
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_loop(self, pair):
        points, against = pair
        got = dominated(points, against)
        want = pairwise_dominated(points, against)
        assert got.shape == want.shape and got.dtype == bool
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("lead_p, lead_a", BATCH_AXES)
    @pytest.mark.parametrize("n, p", [(0, 3), (3, 0), (1, 3), (3, 1), (1, 1), (0, 0)])
    def test_empty_and_single_rows(self, lead_p, lead_a, n, p):
        rng = np.random.default_rng(n * 7 + p)
        points = rng.integers(0, 3, size=lead_p + (n, 2)).astype(float)
        against = rng.integers(0, 3, size=lead_a + (p, 2)).astype(float)
        np.testing.assert_array_equal(dominated(points, against),
                                      pairwise_dominated(points, against))

    def test_ties_signed_zero_and_minus_inf(self):
        points = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 0.0], [-np.inf, -np.inf]])
        against = np.array([[-0.0, 1.0], [-np.inf, -np.inf]])
        # Equal rows (-0.0 == 0.0) do not dominate; only the -inf point is dominated.
        assert dominated(points, against).tolist() == [False, False, True, True]
        assert dominated(points[3:], against[1:]).tolist() == [False]


class TestDominates:
    def test_componentwise_greater(self):
        assert dominates((2, 1), (1, 1))

    def test_incomparable(self):
        assert not dominates((2, 0), (0, 2))
        assert not dominates((0, 2), (2, 0))

    def test_irreflexive(self):
        assert not dominates((1, 2), (1, 2))

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3))

    def test_axioms_on_random_triples(self):
        rng = np.random.default_rng(5)
        triples = rng.integers(0, 4, size=(10_000, 3, 3))
        for a, b, c in triples:
            assert not dominates(a, a)  # irreflexive
            if dominates(a, b):
                assert not dominates(b, a)  # antisymmetric
                if dominates(b, c):
                    assert dominates(a, c)  # transitive


class TestParetoSet:
    def test_single_dominating_point(self):
        assert front_indices([(1, 0), (0, 1), (1, 1)]).tolist() == [2]

    def test_incomparable_pair(self):
        assert front_indices([(1, 0), (0, 1)]).tolist() == [0, 1]

    def test_duplicate_front_members_all_retained(self):
        assert front_indices([(2, 2), (1, 1), (2, 2)]).tolist() == [0, 2]

    def test_float_rounding_does_not_hide_a_dominator(self):
        # Both pairs have coordinate sums that round to the same value, so
        # an order by sum cannot tell which point comes first.
        assert front_indices([(0.1, 0.2, 0.3), (0.1, 0.2, 0.3 + 5e-17)]).tolist() == [1]
        assert front_indices([(1e16, 0.0), (1e16, 1.0)]).tolist() == [1]

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(11)
        for trial in range(200):
            n = int(rng.integers(1, 40))
            dim = int(rng.integers(1, 5))
            if trial % 2 == 0:
                pts = rng.integers(0, 4, size=(n, dim)).astype(float)
            else:
                pts = rng.random((n, dim))
            assert front_indices(pts).tolist() == oracle_pareto_set(pts)

    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5), st.integers(0, 5)),
            min_size=1, max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_matches_oracle_property(self, points):
        assert front_indices(points).tolist() == oracle_pareto_set(points)

    @given(tied_points.filter(len), st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_matches_oracle_across_blocks(self, points, block):
        # Blocks of 1-7 rows: most inputs span several blocks.
        with mock.patch.object(pareto, "_FRONT_BLOCK", block):
            assert front_indices(points).tolist() == oracle_pareto_set(points)

    def test_monotone_transform_invariance(self):
        rng = np.random.default_rng(3)
        pts = rng.random((50, 3))
        transformed = np.stack(
            [np.exp(pts[:, 0]), pts[:, 1] ** 3, 2.0 * pts[:, 2] + 1.0], axis=1
        )
        assert front_indices(pts).tolist() == front_indices(transformed).tolist()

    def test_bin_refinement_grows_front(self):
        # Refining the line severity bins can only add Pareto members.
        rng = np.random.default_rng(9)
        stresses = rng.uniform(-0.2, 0.8, size=(60, 4))
        coarse = ViolationConfig(line_bins=(0.0, 0.25, 0.5))
        fine = ViolationConfig(line_bins=(0.0, 0.1, 0.25, 0.4, 0.5))
        v_coarse = np.array([violation_map(s, 0, coarse) for s in stresses])
        v_fine = np.array([violation_map(s, 0, fine) for s in stresses])
        assert set(front_indices(v_coarse).tolist()) <= set(front_indices(v_fine).tolist())


class TestDistinctRows:
    @given(hnp.arrays(np.uint8, st.tuples(st.integers(0, 60), st.integers(0, 5)),
                      elements=st.integers(0, 1)))
    @settings(max_examples=150, deadline=None)
    def test_bit_rows_match_numpy_unique(self, bits):
        # Byte order is value order for uint8 rows, so the distinct rows come
        # sorted, as np.unique(axis=0) gives them.
        first, inverse = distinct_rows(bits)
        rows, want_first, want_inverse = np.unique(
            bits, axis=0, return_index=True, return_inverse=True)
        np.testing.assert_array_equal(bits[first], rows)
        np.testing.assert_array_equal(first, want_first)
        np.testing.assert_array_equal(inverse, want_inverse.ravel())

    def test_rows_keyed_by_bytes(self):
        # -0.0 and 0.0 are equal values with different bytes.
        points = np.array([(0.0, 1.0), (-0.0, 1.0), (0.0, 1.0)])
        first, inverse = distinct_rows(points)
        assert len(first) == 2
        assert inverse[0] == inverse[2] != inverse[1]
        np.testing.assert_array_equal(points[first][inverse], points)


class TestIsCritical:
    def test_all_zero_never_critical(self):
        zeros = [(0.0, 0.0)] * 3
        assert critical_indices(zeros).tolist() == []

    def test_unique_maximum_is_critical(self):
        pts = [(1.0, 1.0), (0.5, 0.2), (0.0, 0.0)]
        assert critical_indices(pts).tolist() == [0]

    def test_dominated_positive_point(self):
        pts = [(1.0, 1.0), (0.5, 0.2)]
        assert 1 not in critical_indices(pts)

    def test_empty_population(self):
        # A positive point with no other point to dominate it.
        assert critical_indices([(0.5, 0.0)]).tolist() == [0]


class TestParetoArchive:
    """The critical-scenario archive the search and the oracle report:
    rows with a positive violation that no row dominates."""

    def test_rejects_zero_violations(self):
        assert critical_indices(np.zeros((3, 2))).tolist() == []
        fronts = critical_fronts([1], [(0.0, 0.0, 0.0)], num_bus=2)
        assert fronts.bus_ids == () and fronts.line_ids == ()
        assert not fronts.critical_objectives_bus
        assert not fronts.critical_objectives_line

    def test_prunes_dominated_members(self):
        fronts = critical_fronts([1, 2], [(0.5, 0.1), (1.0, 0.2)], num_bus=2)
        assert fronts.bus_ids == (2,)

    def test_keeps_incomparable_and_ties(self):
        points = [(1.0, 0.0), (0.0, 1.0), (1.0, 0.0)]  # rows 0 and 2 tie
        fronts = critical_fronts([1, 2, 3], points, num_bus=2)
        assert fronts.bus_ids == (1, 2, 3)

    def test_rejects_dominated_insert(self):
        assert critical_indices([(1.0, 1.0), (0.5, 1.0)]).tolist() == [0]

    def test_length_check(self):
        with pytest.raises(ValueError):
            dominated(np.zeros((1, 2)), np.zeros((1, 3)))

    @given(duplicated_points, st.integers(1, 7))
    @settings(max_examples=200, deadline=None)
    def test_duplicated_rows_match_oracle(self, points, block):
        # The front is built over distinct rows and mapped back to every copy.
        expected = [i for i in oracle_pareto_set(points) if np.any(points[i] > 0)]
        with mock.patch.object(pareto, "_FRONT_BLOCK", block):
            assert critical_indices(points).tolist() == expected

    def test_archive_members_are_mutually_nondominated(self):
        # 600 rows span three blocks of the running front.
        rng = np.random.default_rng(2)
        points = rng.integers(0, 5, size=(600, 3)).astype(float)
        members = critical_indices(points)
        values = points[members]
        for a in values:
            for b in values:
                assert not dominates(a, b) or np.array_equal(a, b)
        assert members.tolist() == reference_front(points)


class TestCriticalFronts:
    @given(tied_points, st.integers(0, 6), st.integers(1, 7))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference_fronts(self, points, num_bus, block):
        num_bus = min(num_bus, points.shape[1])
        ids = 100 + np.arange(len(points))
        with mock.patch.object(pareto, "_FRONT_BLOCK", block):
            fronts = critical_fronts(ids, points, num_bus)
        bus = [100 + i for i in reference_front(points[:, :num_bus])]
        line = [100 + i for i in reference_front(points[:, num_bus:])]
        assert list(fronts.bus_ids) == bus
        assert list(fronts.line_ids) == line
        best = np.max(points, axis=0, initial=0.0)
        np.testing.assert_array_equal(fronts.per_objective_max_violation, best)
        crit = [k for k in range(points.shape[1]) if best[k] > 0]
        assert list(fronts.critical_objectives_bus) == [k for k in crit if k < num_bus]
        assert list(fronts.critical_objectives_line) == [k for k in crit if k >= num_bus]

    def test_continuous_fronts_at_default_block(self):
        rng = np.random.default_rng(8)
        points = np.maximum(rng.normal(size=(1500, 4)), 0.0)
        ids = rng.permutation(5000)[:1500]
        fronts = critical_fronts(ids, points, num_bus=2)
        assert list(fronts.bus_ids) == sorted(ids[reference_front(points[:, :2])])
        assert list(fronts.line_ids) == sorted(ids[reference_front(points[:, 2:])])

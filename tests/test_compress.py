"""Standard-monomial compression: shape, traces and independence root cause."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import box, eval_monomial, rank_of
from shatterbasis.compress import alon_compress, is_downward_closed, trace_size
from shatterbasis.polyring import TermOrder
from shatterbasis.tuples import EmptyPointSetError, PointSet, hamming_sphere

DEGLEX = TermOrder.DEGLEX
LEX = TermOrder.LEX


def point_sets(n, q, max_size=None):
    grid = box(n, q)
    return st.sets(
        st.sampled_from(grid), min_size=1, max_size=max_size or len(grid)
    ).map(lambda pts: PointSet(n, q, pts))


class TestTraceSize:
    def test_empty_coordinate_set(self):
        v = PointSet(2, 3, [(0, 1), (2, 2)])
        assert trace_size(v, []) == 1

    def test_sphere_single_coordinate(self):
        assert trace_size(hamming_sphere(2, 1, 3), [1]) == 3

    def test_diagonal(self):
        v = PointSet(2, 2, [(0, 0), (1, 1)])
        assert trace_size(v, [1, 2]) == 2

    def test_non_integral_coordinates_are_refused(self):
        v = PointSet(2, 2, [(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="are not all integers"):
            trace_size(v, [1.5])


class TestDownwardClosed:
    def test_origin(self):
        assert is_downward_closed(PointSet(2, 2, [(0, 0)]))

    def test_missing_dominated_point(self):
        assert not is_downward_closed(PointSet(2, 2, [(1, 1)]))

    def test_box_is_closed(self):
        assert is_downward_closed(PointSet(2, 3, box(2, 3)))

    def test_staircase(self):
        assert is_downward_closed(PointSet(2, 3, [(0, 0), (0, 1), (1, 0), (0, 2)]))
        assert not is_downward_closed(PointSet(2, 3, [(0, 0), (0, 2)]))


class TestAlonCompress:
    def test_diagonal_example(self):
        result = alon_compress(PointSet(2, 2, [(0, 0), (1, 1)]), DEGLEX)
        assert set(result.compressed) == {(0, 0), (0, 1)}
        assert result.order is DEGLEX

    def test_already_downward_closed_keeps_size(self):
        v = PointSet(2, 2, [(0, 0), (1, 0), (0, 1)])
        result = alon_compress(v, DEGLEX)
        assert len(result.compressed) == 3
        assert is_downward_closed(result.compressed)

    def test_full_grid_is_fixed_point(self):
        for n, q in ((2, 2), (2, 3)):
            v = PointSet(n, q, box(n, q))
            assert set(alon_compress(v, DEGLEX).compressed) == set(box(n, q))

    def test_empty_rejected(self):
        with pytest.raises(EmptyPointSetError):
            alon_compress(PointSet(2, 2, []), DEGLEX)

    def test_traces_cover_all_sets_in_small_dimension(self):
        v = PointSet(3, 2, [(0, 0, 1), (1, 1, 0), (1, 0, 1)])
        result = alon_compress(v, DEGLEX)
        assert len(result.traces) == 8
        for cs, (before, after) in result.traces.items():
            assert after <= before
            assert before == trace_size(v, cs)
            assert after == trace_size(result.compressed, cs)

    def test_requested_trace_sets_only(self):
        v = PointSet(2, 3, [(0, 1), (2, 2), (1, 0)])
        result = alon_compress(v, DEGLEX, trace_sets=[frozenset({1})])
        assert set(result.traces) == {frozenset({1})}

    @given(point_sets(2, 3), st.sampled_from([DEGLEX, LEX]))
    @settings(max_examples=60, deadline=None)
    def test_invariants(self, v, order):
        result = alon_compress(v, order)
        w = result.compressed
        assert len(w) == len(v)
        assert is_downward_closed(w)
        for r in range(3):
            for cs in itertools.combinations(range(1, 3), r):
                assert trace_size(w, cs) <= trace_size(v, cs)

    @given(point_sets(4, 2, max_size=10))
    @settings(max_examples=25, deadline=None)
    def test_invariants_binary(self, v):
        result = alon_compress(v, DEGLEX)
        assert len(result.compressed) == len(v)
        assert is_downward_closed(result.compressed)

    @given(point_sets(2, 3, max_size=7))
    @settings(max_examples=30, deadline=None)
    def test_supported_monomials_independent_on_restriction(self, v):
        # root cause of trace domination: the kept monomials supported on S
        # stay linearly independent as functions on the restriction of V to S
        result = alon_compress(v, DEGLEX)
        for r in range(3):
            for cs in itertools.combinations(range(1, 3), r):
                vectors = [
                    tuple(u[c - 1] for c in cs)
                    for u in result.compressed
                    if all(u[i] == 0 for i in range(2) if (i + 1) not in cs)
                ]
                restricted = sorted(v.restrictions(cs))
                matrix = [
                    [eval_monomial(exp, p) for p in restricted] for exp in vectors
                ]
                assert rank_of(matrix) == len(vectors)

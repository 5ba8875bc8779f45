"""Tuple systems, set families and the named combinatorial constructions."""

import itertools
import random
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import reference_ballot, reference_shattered_sets, reference_shatters
from shatterbasis.polyring import Monomial, TermOrder
from shatterbasis.tuples import (
    EmptyPointSetError,
    PointSet,
    SetFamily,
    ballot_member,
    blow_up,
    classify,
    complete_uniform,
    down_set,
    full_exponent_count,
    hamming_sphere,
    km_extremal,
    level_partition,
    lower_bound_slice,
    minimal_ballot_violators,
    shattered_family,
    shatters,
    subfamily_through,
    support,
)


def point_sets(n=3, q=3, max_size=12):
    grid = sorted(itertools.product(range(q), repeat=n))
    return st.sets(st.sampled_from(grid), min_size=1, max_size=max_size).map(
        lambda pts: PointSet(n, q, pts)
    )


class TestPointSet:
    def test_sorted_and_deduplicated(self):
        v = PointSet(2, 3, [(1, 0), (0, 2), (1, 0)])
        assert v.points == ((0, 2), (1, 0))
        assert len(v) == 2
        assert (1, 0) in v

    def test_membership_and_equality(self):
        rng = random.Random(5)
        grid = list(itertools.product(range(3), repeat=3))
        for _ in range(60):
            pts = rng.sample(grid, rng.randint(0, 12))
            v = PointSet(3, 3, (p for p in pts + pts[:2]))  # a one-shot iterable
            assert [p for p in grid if p in v] == sorted(pts)
            assert (0, 0) not in v and "x" not in v and None not in v
            w = PointSet(3, 3, [list(p) for p in reversed(pts)])
            assert v == w and hash(v) == hash(w)
            assert v != PointSet(3, 4, pts)
            if (2, 2, 2) not in pts:
                assert v != PointSet(3, 3, pts + [(2, 2, 2)])

    def test_empty_is_allowed_as_a_container(self):
        # emptiness errors live on the operations, not the container
        assert len(PointSet(2, 3, [])) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            PointSet(2, 3, [(0, 3)])
        with pytest.raises(ValueError):
            PointSet(2, 3, [(0, -1)])
        with pytest.raises(ValueError):
            PointSet(2, 3, [(0, 0, 0)])
        with pytest.raises(ValueError):
            PointSet(0, 3, [()])
        with pytest.raises(ValueError):
            PointSet(2, 1, [(0, 0)])

    def test_restrictions(self):
        v = PointSet(3, 2, [(0, 0, 1), (1, 0, 1), (0, 1, 0)])
        assert v.restrictions([1, 3]) == {(0, 1), (1, 1), (0, 0)}
        assert v.restrictions([]) == {()}


class TestSetFamily:
    def test_members_normalized(self):
        f = SetFamily(3, [{2, 1}, (1, 2), [3]])
        assert sorted(sorted(m) for m in f) == [[1, 2], [3]]

    def test_range_validated(self):
        with pytest.raises(ValueError):
            SetFamily(2, [{3}])
        with pytest.raises(ValueError):
            SetFamily(2, [{0}])

    def test_characteristic_round_trip(self):
        f = SetFamily(3, [set(), {1, 3}, {2}])
        chars = f.to_point_set()
        assert chars.q == 2
        assert set(chars) == {(0, 0, 0), (1, 0, 1), (0, 1, 0)}
        assert SetFamily.from_point_set(chars) == f

    def test_support_of_characteristic_vector(self):
        assert support((1, 0, 1)) == frozenset({1, 3})
        assert support((0, 0, 0)) == frozenset()


class TestLevelPartition:
    def test_example(self):
        p = level_partition((1, 2, 0), 3)
        assert p.interior == frozenset({1})
        assert p.top == frozenset({2})
        assert p.zero == frozenset({3})

    def test_q2_has_no_interior(self):
        for v in itertools.product(range(2), repeat=3):
            assert level_partition(v, 2).interior == frozenset()

    def test_all_top(self):
        p = level_partition((2, 2), 3)
        assert p.top == frozenset({1, 2})
        assert p.interior == p.zero == frozenset()

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    def test_partitions_coordinates(self, values):
        p = level_partition(values, 4)
        coords = frozenset(range(1, len(values) + 1))
        assert p.interior | p.top | p.zero == coords
        assert not (p.interior & p.top or p.interior & p.zero or p.top & p.zero)


class TestShattering:
    def test_full_grid_shatters_everything(self):
        v = PointSet(2, 2, list(itertools.product(range(2), repeat=2)))
        assert shatters(v, [1])
        assert shatters(v, [1, 2])

    def test_singleton(self):
        v = PointSet(2, 2, [(0, 0)])
        assert not shatters(v, [1])
        assert shatters(v, [])

    def test_hamming_sphere_example(self):
        v = hamming_sphere(2, 1, 3)
        assert shatters(v, [1])
        assert not shatters(v, [1, 2])

    def test_shattered_family_examples(self):
        grid = PointSet(2, 3, list(itertools.product(range(3), repeat=2)))
        assert len(shattered_family(grid)) == 4
        assert shattered_family(PointSet(2, 2, [(0, 0)])) == SetFamily(2, [set()])
        # {0,1}^2 inside a q=3 alphabet shatters nothing: value 2 never occurs
        w = km_extremal(2, 0, 3)
        assert set(w) == set(itertools.product(range(2), repeat=2))
        assert shattered_family(w) == SetFamily(2, [set()])

    @given(point_sets())
    @settings(max_examples=60)
    def test_matches_reference_and_downward_closed(self, v):
        family = shattered_family(v)
        assert set(family) == reference_shattered_sets(v.points, v.q)
        members = set(family)
        for s in members:
            for drop in s:
                assert s - {drop} in members

    @given(point_sets(n=2, q=3, max_size=9))
    @settings(max_examples=40)
    def test_shatters_agrees_with_reference(self, v):
        for r in range(3):
            for cs in itertools.combinations(range(1, 3), r):
                assert shatters(v, cs) == reference_shatters(v.points, v.q, cs)


class TestDownSet:
    def test_yields_each_member_once(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]

            def keep(u):
                return any(all(a <= b for a, b in zip(u, g)) for g in gens)

            for top in (None, 1, 2):
                bound = 3 if top is None else top
                expected = {u for u in itertools.product(range(bound + 1), repeat=n) if keep(u)}
                got = list(down_set(n, keep, top=top))
                assert len(got) == len(set(got))
                assert set(got) == expected

    def test_keyed_walk_is_in_key_order(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]

            def member(u):
                return any(all(a <= b for a, b in zip(u, g)) for g in gens)

            for order in TermOrder:
                for top in (None, 1, 2):
                    seen = []

                    def keep(u):
                        seen.append(u)
                        return member(u)

                    bound = 3 if top is None else top
                    box = itertools.product(range(bound + 1), repeat=n)
                    expected = sorted(filter(member, box), key=order._key)
                    assert list(down_set(n, keep, top=top, key=order._key)) == expected
                    keys = [order._key(u) for u in seen]
                    assert keys == sorted(keys)
                    assert len(set(seen)) == len(seen)

    def test_rejected_zero_vector_yields_nothing(self):
        assert list(down_set(3, lambda u: False)) == []
        assert list(down_set(3, lambda u: any(u), top=1)) == []


class TestClassify:
    def test_uniform_binary(self):
        u = classify(complete_uniform(3, 1, 2))
        assert u.coordinate_sum == 1
        assert u.support_size == 1

    def test_sphere_not_uniform(self):
        u = classify(hamming_sphere(2, 1, 3))
        assert u.support_size == 1
        assert u.coordinate_sum is None

    def test_single_point(self):
        u = classify(PointSet(2, 3, [(2, 2)]))
        assert u.coordinate_sum == 4
        assert u.support_size == 2

    def test_empty_rejected(self):
        with pytest.raises(EmptyPointSetError):
            classify(PointSet(2, 3, []))


class TestConstructions:
    def test_complete_uniform_examples(self):
        assert set(complete_uniform(2, 2, 3)) == {(0, 2), (1, 1), (2, 0)}
        assert set(complete_uniform(3, 0, 3)) == {(0, 0, 0)}
        assert len(complete_uniform(3, 1, 2)) == 3

    def test_complete_uniform_matches_filtered_grid(self):
        # hamming_sphere and km_extremal share the enumerator; check them too
        for n in range(1, 5):
            for q in range(2, 5):
                grid = list(itertools.product(range(q), repeat=n))
                for d in range((q - 1) * n + 1):
                    expected = {p for p in grid if sum(p) == d}
                    assert set(complete_uniform(n, d, q)) == expected
                for d in range(n + 1):
                    expected = {p for p in grid if len(support(p)) == d}
                    assert set(hamming_sphere(n, d, q)) == expected
                for s in range(n + 1):
                    expected = {p for p in grid if p.count(q - 1) <= s}
                    assert set(km_extremal(n, s, q)) == expected

    def test_complete_uniform_out_of_range(self):
        with pytest.raises(ValueError):
            complete_uniform(2, 5, 3)
        with pytest.raises(ValueError):
            complete_uniform(2, -1, 3)

    def test_hamming_sphere_examples(self):
        assert set(hamming_sphere(2, 1, 3)) == {(1, 0), (2, 0), (0, 1), (0, 2)}
        assert set(hamming_sphere(3, 0, 4)) == {(0, 0, 0)}
        assert len(hamming_sphere(4, 2, 3)) == comb(4, 2) * 4

    def test_hamming_sphere_cardinality(self):
        for n in range(1, 5):
            for d in range(n + 1):
                for q in (2, 3):
                    assert len(hamming_sphere(n, d, q)) == comb(n, d) * (q - 1) ** d

    def test_blow_up_examples(self):
        f = SetFamily(2, [{1}])
        assert set(blow_up(f, 3)) == {(1, 0), (2, 0)}
        assert set(blow_up(SetFamily(2, [set()]), 3)) == {(0, 0)}
        g = SetFamily(3, [set(), {1, 3}, {2}])
        assert set(blow_up(g, 2)) == set(g.to_point_set())

    def test_blow_up_cardinality(self):
        members = [frozenset(m) for r in range(4) for m in itertools.combinations(range(1, 4), r)]
        for picks in itertools.combinations(members, 3):
            fam = SetFamily(3, picks)
            expected = sum(2 ** len(m) for m in picks)
            assert len(blow_up(fam, 3)) == expected

    def test_blow_up_support_uniformity(self):
        uniform = SetFamily(3, [{1, 2}, {2, 3}])
        mixed = SetFamily(3, [{1}, {2, 3}])
        assert classify(blow_up(uniform, 3)).support_size == 2
        assert classify(blow_up(mixed, 3)).support_size is None

    def test_subfamily_through(self):
        f = SetFamily(2, [{1}, {1, 2}])
        assert subfamily_through(f, [1]) == f
        assert subfamily_through(f, []) == f
        assert len(subfamily_through(SetFamily(2, [{1}]), [2])) == 0

    def test_km_extremal(self):
        assert len(km_extremal(2, 0, 3)) == 4
        assert set(km_extremal(2, 2, 2)) == set(itertools.product(range(2), repeat=2))
        assert len(km_extremal(3, 1, 2)) == 4

    def test_km_extremal_cardinality(self):
        for n in range(1, 5):
            for q in (2, 3):
                for s in range(n + 1):
                    expected = sum(
                        (q - 1) ** (n - i) * comb(n, i) for i in range(s + 1)
                    )
                    assert len(km_extremal(n, s, q)) == expected


class TestBallot:
    def test_examples(self):
        assert ballot_member((0, 1, 0, 1), 2)
        assert not ballot_member((1, 0, 0), 2)
        assert not ballot_member((2, 0), 3)
        assert ballot_member((0, 2), 3)

    def test_matches_reference(self):
        for n in range(1, 6):
            for q in (2, 3):
                for v in itertools.product(range(q), repeat=n):
                    assert ballot_member(v, q) == reference_ballot(v, q)

    def test_minimal_violators_examples(self):
        assert set(minimal_ballot_violators(1, 4)) == {frozenset({1})}
        assert set(minimal_ballot_violators(2, 4)) == {frozenset({2, 3})}
        assert set(minimal_ballot_violators(3, 6)) == {
            frozenset({2, 4, 5}),
            frozenset({3, 4, 5}),
        }

    def test_minimal_violators_range(self):
        with pytest.raises(ValueError):
            minimal_ballot_violators(0, 4)
        with pytest.raises(ValueError):
            minimal_ballot_violators(3, 5)

    def test_padded_complement_size(self):
        for n in range(2, 9):
            for t in range(1, n // 2 + 1):
                for h in minimal_ballot_violators(t, n):
                    padded = set(h) | set(range(2 * t, n + 1))
                    assert len(set(range(1, n + 1)) - padded) == t - 1

    def test_violators_are_exactly_minimal_non_ballot_sets(self):
        # characteristic vectors at q=2: members of some H(t) fail the ballot
        # condition while every proper subset passes; the construction is
        # defined only for t <= n/2, so compare sets of that size range
        for n in range(1, 9):
            expected = set()
            for t in range(1, n // 2 + 1):
                expected |= set(minimal_ballot_violators(t, n))
            found = set()
            for r in range(n // 2 + 1):
                for cs in itertools.combinations(range(1, n + 1), r):
                    vec = tuple(1 if i in cs else 0 for i in range(1, n + 1))
                    if ballot_member(vec, 2):
                        continue
                    subsets_ok = all(
                        ballot_member(
                            tuple(1 if i in set(cs) - {drop} else 0 for i in range(1, n + 1)),
                            2,
                        )
                        for drop in cs
                    )
                    if subsets_ok:
                        found.add(frozenset(cs))
            assert found == expected


class TestMonomialStrata:
    def test_full_exponent_count(self):
        assert full_exponent_count(Monomial((0, 0)), 3) == 0
        assert full_exponent_count(Monomial((0, 2)), 3) == 1
        assert full_exponent_count(Monomial((1, 1, 1)), 2) == 3

    def test_rejects_out_of_box(self):
        with pytest.raises(ValueError):
            full_exponent_count(Monomial((3, 0)), 3)


class TestLowerBoundSlice:
    def test_example(self):
        d, x = lower_bound_slice(2, 0, 3)
        assert d == 1
        assert set(x) == {(1, 0), (0, 1)}

    def test_tie_breaks_low(self):
        d, x = lower_bound_slice(1, 1, 2)
        assert d == 0
        assert set(x) == {(0,)}

    def test_guarantee_and_uniformity(self):
        for n in range(1, 5):
            for q in (2, 3):
                for s in range(n + 1):
                    w = km_extremal(n, s, q)
                    d, x = lower_bound_slice(n, s, q)
                    assert classify(x).coordinate_sum == d
                    assert len(x) * ((q - 1) * n + 1) >= len(w)
                    assert set(x) <= set(w)
                    assert max(len(m) for m in shattered_family(x)) <= s

"""Tuple systems, set families and the named combinatorial constructions."""

import itertools
import operator
import random
import tracemalloc
from fractions import Fraction
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
    _max_shattered,
    _shatter_bound,
    _shattered_sets,
    _trace_sets,
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

    def test_non_integral_coordinates_are_refused(self):
        for p in [(1.5, 0), (0, Fraction(1, 2)), [1, "0"], (0, 2.000001), (float("inf"), 0), (0, float("nan"))]:
            with pytest.raises(ValueError):
                PointSet(2, 3, [(0, 0), p])
        v = PointSet(2, 3, [(1.0, 0), [Fraction(2), True]])
        assert v.points == ((1, 0), (2, 1))
        assert all(type(c) is int for p in v for c in p)

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

    def test_non_integral_elements_are_refused(self):
        for m in [{1.7}, {1, 2.5}, (Fraction(3, 2),), ["1"]]:
            with pytest.raises(ValueError, match="are not all integers"):
                SetFamily(3, [{1}, m])
        f = SetFamily(3, [{1.0, 3}, (Fraction(2),)])
        assert f.members == {frozenset({1, 3}), frozenset({2})}
        assert all(type(i) is int for m in f for i in m)

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


def random_system(rng, n, q, size):
    pts = set()
    while len(pts) < size:
        pts.add(tuple(rng.randrange(q) for _ in range(n)))
    return PointSet(n, q, pts)


class TestShatteredWalk:
    """The pattern-code walk behind shattered_family, against the one-set
    test shatters and the reference oracle."""

    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_membership_equals_shatters_on_every_set(self, q):
        rng = random.Random(1000 + q)
        for n in range(1, 6):
            for _ in range(8):
                v = random_system(rng, n, q, rng.randint(1, min(q**n, 90)))
                family = shattered_family(v)
                for r in range(n + 1):
                    for cs in itertools.combinations(range(1, n + 1), r):
                        assert (set(cs) in family) == shatters(v, cs), (v.points, cs)

    @pytest.mark.parametrize("n, q", [(8, 2), (9, 2), (10, 2), (11, 2), (12, 2), (13, 2), (10, 3)])
    def test_wide_shapes_match_reference(self, n, q):
        rng = random.Random(n * 10 + q)
        for _ in range(2):
            v = random_system(rng, n, q, rng.randint(10, 30))
            expected = reference_shattered_sets(v.points, q)
            assert set(shattered_family(v)) == expected
            assert _max_shattered(v.n, v.q, v.points) == max(map(len, expected))

    def test_max_shattered_matches_brute_force(self, monkeypatch):
        # the walk ends at the first set of _shatter_bound(q, |V|)
        # coordinates when the points shatter one, and runs out otherwise
        walked = []

        def counted(n, q, pts):
            for cs in _shattered_sets(n, q, pts):
                walked.append(cs)
                yield cs

        monkeypatch.setattr("shatterbasis.tuples._shattered_sets", counted)
        rng = random.Random(31)
        stopped = ran_out = 0
        for _ in range(400):
            n, q = rng.randint(1, 7), rng.randint(2, 4)
            v = random_system(rng, n, q, rng.randint(1, min(30, q**n)))
            walked.clear()
            worst = _max_shattered(v.n, v.q, v.points)
            assert worst == max(map(len, reference_shattered_sets(v.points, q)))
            if worst == _shatter_bound(q, len(v)):
                assert len(walked[-1]) == worst
                stopped += len(walked) < sum(1 for _ in _shattered_sets(v.n, v.q, v.points))
            else:
                ran_out += 1
        assert stopped and ran_out

    def test_max_shattered_of_an_empty_system(self):
        assert list(_shattered_sets(3, 2, ())) == []
        assert _max_shattered(3, 2, ()) == -1

    def test_walk_releases_parent_codes(self):
        # every set of {0,1}^12 is shattered; keeping each member's 4096
        # codes would hold about 150 MiB, the path from the root far less
        v = PointSet(12, 2, itertools.product(range(2), repeat=12))
        tracemalloc.start()
        try:
            count = sum(1 for _ in _shattered_sets(v.n, v.q, v.points))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 2**12
        assert peak < 8 * 2**20


class TestDownSet:
    def test_yields_each_member_once(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 4)
            gens = [tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 3))]

            def keep(u):
                return any(all(a <= b for a, b in zip(u, g)) for g in gens)

            for order in TermOrder:
                for top in (None, 1, 2):
                    bound = 3 if top is None else top
                    expected = {u for u in itertools.product(range(bound + 1), repeat=n) if keep(u)}
                    got = list(down_set(n, keep, order._key, top=top))
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

    def test_keyed_walk_is_closed(self):
        # keep rejects only the leads themselves; closure rejects their
        # multiples, each before keep sees it.  The powers x_i^4 keep the
        # walk without top finite.
        rng = random.Random(16)
        for _ in range(200):
            n = rng.randint(1, 4)
            leads = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(rng.randint(1, 4))}
            leads |= {tuple(4 * (k == i) for k in range(n)) for i in range(n)}
            for order in TermOrder:
                for top in (None, 1, 2):
                    seen = []

                    def keep(u):
                        seen.append(u)
                        return u not in leads

                    bound = 3 if top is None else top
                    box = itertools.product(range(bound + 1), repeat=n)
                    expected = [u for u in box if not any(all(map(operator.le, m, u)) for m in leads)]
                    walk = down_set(n, keep, top=top, key=order._key)
                    assert list(itertools.islice(walk, len(expected) + 1)) == sorted(expected, key=order._key)
                    members = set(expected)
                    for u in seen:
                        parents = [u[:i] + (e - 1,) + u[i + 1 :] for i, e in enumerate(u) if e]
                        assert all(p in members for p in parents), u

    def test_rejected_zero_vector_yields_nothing(self):
        for order in TermOrder:
            assert list(down_set(3, lambda u: False, order._key)) == []
            assert list(down_set(3, lambda u: any(u), order._key, top=1)) == []


def _brute_sets(n, keep):
    """Every sorted coordinate tuple over 1..n that keep accepts."""
    every = (cs for r in range(n + 1) for cs in itertools.combinations(range(1, n + 1), r))
    return {cs for cs in every if keep(cs)}


def _codes(pts, q, cs):
    """Each point's restriction to the coordinates cs read as a base-q number."""
    return [sum(p[c - 1] * q ** (len(cs) - 1 - k) for k, c in enumerate(cs)) for p in pts]


class TestTraceSets:
    def test_keep_sees_every_canonical_child_of_a_member_and_nothing_else(self):
        # gb_blowup records the whole border, so the depth-first walk is not
        # closed: keep also sees the children whose other parents it rejected
        rng = random.Random(16)
        unclosed = 0
        for _ in range(200):
            n, q = rng.randint(1, 5), rng.randint(2, 3)
            pts = random_system(rng, n, q, rng.randint(1, min(8, q**n))).points
            leads = {
                tuple(c for c in range(1, n + 1) if rng.randint(0, 1)) for _ in range(rng.randint(1, 4))
            }
            seen = []

            def keep(cs, codes):
                assert cs == tuple(sorted(set(cs)))
                assert codes == _codes(pts, q, cs)
                seen.append(cs)
                return cs not in leads

            members = list(_trace_sets(n, q, pts, keep))
            children = {cs + (c,) for cs in members for c in range(cs[-1] + 1 if cs else 1, n + 1)}
            children.add(())
            assert sorted(seen) == sorted(children)
            assert len(seen) == len(set(seen))
            assert set(members) == children - leads
            unclosed += sum(1 for cs in members for c in cs if tuple(d for d in cs if d != c) in leads)
        assert unclosed

    def test_yields_each_member_once(self):
        rng = random.Random(11)
        for _ in range(200):
            n = rng.randint(1, 5)
            gens = [{c for c in range(1, n + 1) if rng.randint(0, 1)} for _ in range(rng.randint(1, 3))]

            def member(cs, codes=None):
                return any(set(cs) <= g for g in gens)

            got = list(_trace_sets(n, 2, [(0,) * n], member))
            assert len(got) == len(set(got))
            assert set(got) == _brute_sets(n, member)

    def test_trace_predicates_match_brute_force(self):
        # |trace(u)| only grows with u, so "at most t patterns" is a down-set
        rng = random.Random(19)
        for _ in range(300):
            n, q = rng.randint(1, 6), rng.randint(2, 4)
            v = random_system(rng, n, q, rng.randint(1, min(20, q**n)))
            t = rng.randint(1, len(v))

            got = list(_trace_sets(n, q, v.points, lambda cs, codes: len(set(codes)) <= t))
            assert len(got) == len(set(got))
            assert set(got) == _brute_sets(n, lambda cs: len(v.restrictions(cs)) <= t)
            shattered = _brute_sets(n, lambda cs: len(v.restrictions(cs)) == q ** len(cs))
            assert set(_shattered_sets(n, q, v.points)) == shattered
            clashing = _brute_sets(n, lambda cs: len(v.restrictions(cs)) < len(v))
            # the predicate verify._check_compress passes
            assert set(_trace_sets(n, q, v.points, lambda cs, codes: len(set(codes)) < len(codes))) == clashing

    def test_no_points_yield_nothing(self):
        def keep(cs, codes):
            raise AssertionError("keep called without points")

        assert list(_trace_sets(10**9, 2, (), keep)) == []
        assert list(_shattered_sets(10**9, 3, ())) == []

    def test_bound_cuts_the_walk_at_top_coordinates(self):
        # "at most t patterns" is a down-set; with t near |V| it holds large
        # sets, so the cut at top removes members as well as tests
        rng = random.Random(23)
        cut = 0
        for _ in range(300):
            n, q = rng.randint(1, 7), rng.randint(2, 4)
            v = random_system(rng, n, q, rng.randint(1, min(20, q**n)))
            t = rng.randint(1, len(v))
            top = rng.randint(0, n)
            seen = []

            def keep(cs, codes):
                seen.append(cs)
                return len(set(codes)) <= t

            full = list(_trace_sets(n, q, v.points, lambda cs, codes: len(set(codes)) <= t))
            members = list(_trace_sets(n, q, v.points, keep, top))
            assert max(map(len, seen)) <= top
            assert members == [cs for cs in full if len(cs) <= top]
            children = {cs + (c,) for cs in members for c in range(cs[-1] + 1 if cs else 1, n + 1)}
            assert sorted(seen) == sorted({cs for cs in children if len(cs) <= top} | {()})
            cut += len(members) < len(full)
        assert cut

    def test_shatter_bound_is_the_integer_log(self):
        for q in range(2, 6):
            for size in range(200):
                k = _shatter_bound(q, size)
                assert q ** (k + 1) > size
                assert k == 0 or q**k <= size
        assert _shatter_bound(3, 3**40) == 40
        assert _shatter_bound(3, 3**40 - 1) == 39

    def test_bounded_shattered_walk_equals_the_unbounded_one(self):
        rng = random.Random(29)
        systems = [
            random_system(rng, n, q, rng.randint(1, min(40, q**n)))
            for _ in range(20)
            for n in range(1, 8)
            for q in range(2, 5)
        ]
        # |V| = q^k exactly: 9 points at q = 3 shatter four pairs, and the
        # full grid {0,1}^6 shatters every set, so the walk reaches the bound
        pairs = PointSet(4, 3, [(a, b, a, b) for a in range(3) for b in range(3)])
        grid = PointSet(6, 2, itertools.product(range(2), repeat=6))
        systems += [pairs, grid, random_system(rng, 5, 3, 9), random_system(rng, 7, 2, 16)]
        for v in systems:
            got = list(_shattered_sets(v.n, v.q, v.points))
            assert got == list(_trace_sets(v.n, v.q, v.points, lambda cs, codes: len(set(codes)) == v.q ** len(cs)))
        top = {cs for cs in _shattered_sets(4, 3, pairs.points) if len(cs) == 2}
        assert top == {(1, 2), (1, 4), (2, 3), (3, 4)}
        assert sum(1 for _ in _shattered_sets(6, 2, grid.points)) == 2**6


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

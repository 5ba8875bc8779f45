"""The vanishing-ideal engine against an independent dense-elimination oracle."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference import box, deglex_key, lex_key, reference_basis, reference_order_shattered, reference_sm
from shatterbasis.closedform import gb_blowup
from shatterbasis.ideals import (
    _columns,
    _eliminate,
    _EvaluationTable,
    _first_nonzero,
    certify_groebner,
    interpolate,
    non_shatter_certificate,
    standard_monomials,
    vanishing_basis,
)
from shatterbasis.polyring import (
    Monomial,
    Polynomial,
    TermOrder,
    field_polynomial,
    leading_coefficient,
    leading_monomial,
    normal_form,
    parse_polynomial,
)
from shatterbasis.tuples import (
    EmptyPointSetError,
    PointSet,
    SetFamily,
    blow_up,
    complete_uniform,
    hamming_sphere,
)

DEGLEX = TermOrder.DEGLEX
LEX = TermOrder.LEX
KEYS = {DEGLEX: deglex_key, LEX: lex_key}


def point_sets(n, q, max_size=None):
    grid = box(n, q)
    return st.sets(
        st.sampled_from(grid), min_size=1, max_size=max_size or len(grid)
    ).map(lambda pts: PointSet(n, q, pts))


class TestVanishingBasisExamples:
    def test_origin_singleton(self):
        v = PointSet(2, 2, [(0, 0)])
        gb, sm = vanishing_basis(v, DEGLEX)
        assert sm.exponent_vectors() == {(0, 0)}
        assert set(gb.leading_monomials()) == {Monomial((0, 1)), Monomial((1, 0))}
        assert all(g == Polynomial.variable(i, 2) for g, i in zip(gb.generators, (2, 1)))

    def test_full_grid_gives_field_polynomials(self):
        for n, q in ((1, 4), (2, 2), (2, 3)):
            v = PointSet(n, q, box(n, q))
            gb, sm = vanishing_basis(v, DEGLEX)
            assert sm.exponent_vectors() == set(box(n, q))
            assert set(gb.generators) == {field_polynomial(i, q, n) for i in range(1, n + 1)}

    def test_diagonal_pair(self):
        v = PointSet(2, 2, [(0, 0), (1, 1)])
        gb, sm = vanishing_basis(v, DEGLEX)
        assert sm.exponent_vectors() == {(0, 0), (0, 1)}
        x1, x2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
        assert set(gb.generators) == {x1 - x2, x2 * x2 - x2}

    def test_uniform_binary_example(self):
        v = complete_uniform(3, 1, 2)
        _, sm = vanishing_basis(v, DEGLEX)
        assert sm.exponent_vectors() == {(0, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_empty_rejected(self):
        with pytest.raises(EmptyPointSetError):
            vanishing_basis(PointSet(2, 2, []), DEGLEX)


class TestVanishingBasisProperties:
    @given(point_sets(2, 3))
    @settings(max_examples=80, deadline=None)
    def test_sm_matches_reference_oracle(self, v):
        for order in (DEGLEX, LEX):
            _, sm = vanishing_basis(v, order)
            assert sm.exponent_vectors() == reference_sm(v.points, v.q, KEYS[order])
            assert standard_monomials(v, order) == sm

    @given(point_sets(3, 2))
    @settings(max_examples=40, deadline=None)
    def test_sm_matches_reference_oracle_binary(self, v):
        for order in (DEGLEX, LEX):
            _, sm = vanishing_basis(v, order)
            assert sm.exponent_vectors() == reference_sm(v.points, v.q, KEYS[order])
            assert standard_monomials(v, order) == sm

    @given(point_sets(3, 3, max_size=14))
    @settings(max_examples=30, deadline=None)
    def test_engine_invariants(self, v):
        gb, sm = vanishing_basis(v, DEGLEX)
        assert len(sm) == len(v)
        # standard monomials are downward closed under divisibility
        members = sm.as_set()
        for m in members:
            for i in range(1, v.n + 1):
                e = list(m.exponents)
                if e[i - 1]:
                    e[i - 1] -= 1
                    assert Monomial(tuple(e)) in members
        # generators vanish on V, are monic, and are interreduced
        leads = gb.leading_monomials()
        for g, lm in zip(gb.generators, leads):
            assert all(g.evaluate(p) == 0 for p in v)
            assert leading_coefficient(g, DEGLEX) == 1
            for other in leads:
                if other is not lm:
                    assert not other.divides(lm)
            # tails live in the normal set
            for m in g.monomials():
                if m != lm:
                    assert m in members
        # no standard monomial is divisible by a leading monomial
        for m in members:
            assert not any(lm.divides(m) for lm in leads)
        assert certify_groebner(v, gb, DEGLEX)

    @given(point_sets(2, 4, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_normal_form_collapses_ideal_members(self, v):
        gb, sm = vanishing_basis(v, DEGLEX)
        # NF(f) agrees with f on V and is supported on the standard monomials
        f = Polynomial.variable(1, 2) ** 3 - 2 * Polynomial.variable(2, 2) + 1
        r = normal_form(f, list(gb.generators), DEGLEX)
        members = sm.as_set()
        assert all(m in members for m in r.monomials())
        assert all(r.evaluate(p) == f.evaluate(p) for p in v)

    def test_subset_ideal_containment(self):
        big = PointSet(2, 3, box(2, 3))
        small = PointSet(2, 3, [(0, 0), (1, 2), (2, 1)])
        gb_big, _ = vanishing_basis(big, DEGLEX)
        for g in gb_big.generators:
            assert all(g.evaluate(p) == 0 for p in small)


class TestInterpolate:
    def test_identity_on_line(self):
        v = PointSet(1, 2, [(0,), (1,)])
        f = interpolate(v, {(0,): 0, (1,): 1}, DEGLEX)
        assert f == Polynomial.variable(1, 1)

    def test_constant(self):
        v = PointSet(2, 3, [(0, 1), (2, 2), (1, 0)])
        f = interpolate(v, {p: 1 for p in v}, DEGLEX)
        assert f == Polynomial.constant(1, 2)

    def test_indicator_recovered(self):
        v = PointSet(1, 3, [(0,), (1,), (2,)])
        f = interpolate(v, {(0,): 0, (1,): 1, (2,): 1}, DEGLEX)
        assert f == Polynomial(
            1, {Monomial((1,)): Fraction(3, 2), Monomial((2,)): Fraction(-1, 2)}
        )

    def test_key_mismatch_rejected(self):
        v = PointSet(1, 2, [(0,), (1,)])
        with pytest.raises(ValueError):
            interpolate(v, {(0,): 1}, DEGLEX)
        with pytest.raises(ValueError):
            interpolate(v, {(0,): 1, (1,): 0, (0, 1): 2}, DEGLEX)

    @given(
        point_sets(2, 3, max_size=6),
        st.lists(st.fractions(min_value=-4, max_value=4), min_size=6, max_size=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, v, raw_values):
        values = {p: raw_values[i] for i, p in enumerate(v)}
        f = interpolate(v, values, DEGLEX)
        assert all(f.evaluate(p) == values[p] for p in v)
        _, sm = vanishing_basis(v, DEGLEX)
        assert set(f.monomials()) <= sm.as_set()


def engine_inputs(seed, count):
    """Seeded subsets of {0,1,2}^5 with 20-110 points, like the benchmark's
    engine workload, the first one at 20 points and the last at 110."""
    rng = random.Random(seed)
    grid = box(5, 3)
    sizes = [20] + [rng.randint(21, 109) for _ in range(count - 2)] + [110]
    return [PointSet(5, 3, rng.sample(grid, size)) for size in sizes]


def dense_reduce_against(row, rows):
    """The dense elimination kernel the engine had before its rows were
    compacted, kept as a reference: every row holds all |V| columns, then
    one weight per standard monomial up to its own."""
    for pivot, r in rows:
        b = row[pivot]
        if not b:
            continue
        a = r[pivot]
        g = math.gcd(a, b)
        a //= g
        b //= g
        row = [a * x - b * y for x, y in zip(row, r)] + [a * x for x in row[len(r) :]]
        g = math.gcd(*row)
        if g > 1:
            row = [x // g for x in row]
    return row


def live_columns(rows, size):
    """For each compacted row of _eliminate, the columns its live entries
    stand for, as indices into ``_columns(v)``: all |V| less the pivots of
    the rows before it."""
    columns = list(range(size))
    for pivot, _ in rows:
        yield list(columns)
        del columns[pivot]


def as_terms(g):
    return {m.exponents: c for m, c in g.items()}


class TestEliminationRows:
    """The integer rows of ``_eliminate``: vector on the live columns of V,
    then combination weights."""

    def test_bases_match_the_reference(self):
        # the reference solves dense Fraction systems, so only a few inputs
        inputs = engine_inputs(41, 3)
        cases = [(inputs[0], DEGLEX), (inputs[0], LEX), (inputs[1], LEX), (inputs[2], DEGLEX)]
        for v, order in cases:
            gb, _ = vanishing_basis(v, order)
            expected = reference_basis(v.points, KEYS[order])
            assert [lm.exponents for lm in gb.leading_monomials()] == [e for e, _ in expected]
            assert [as_terms(g) for g in gb] == [terms for _, terms in expected]

    def test_row_invariants(self):
        for v in engine_inputs(42, 6):
            for order in (DEGLEX, LEX):
                standard, rows, _ = _eliminate(v, order)
                size = len(v)
                vectors = [[m.evaluate(p) for p in _columns(v)] for m in standard]
                assert len(rows) == size
                for k, ((pivot, row), columns) in enumerate(zip(rows, live_columns(rows, size))):
                    live, weights = row[: size - k], row[size - k :]
                    assert len(row) == size + 1 and len(weights) == k + 1
                    assert math.gcd(*row) == 1
                    assert pivot < size - k and live[pivot] and not any(live[:pivot])
                    assert weights[-1] != 0
                    rebuilt = [sum(w * vec[i] for w, vec in zip(weights, vectors)) for i in range(size)]
                    assert [rebuilt[i] for i in columns] == live
                    # and zero on the k dropped columns, the pivots of the rows before
                    assert not any(rebuilt[i] for i in range(size) if i not in columns)

    def test_rows_match_the_dense_kernel(self):
        # each compacted row, re-expanded with zeros at its dropped pivot
        # columns, is the row the dense kernel builds, up to sign
        for v in engine_inputs(44, 4):
            for order in (DEGLEX, LEX):
                standard, rows, _ = _eliminate(v, order)
                size = len(v)
                dense: list[tuple[int, list[int]]] = []
                for k, (m, (pivot, row), columns) in enumerate(
                    zip(standard, rows, live_columns(rows, size))
                ):
                    vec = [m.evaluate(p) for p in _columns(v)]
                    expected = dense_reduce_against(vec + [0] * k + [1], dense)
                    dense.append((next(i for i in range(size) if expected[i]), expected))
                    assert columns[pivot] == dense[-1][0]
                    full = [0] * size
                    for i, x in zip(columns, row):
                        full[i] = x
                    full += row[size - k :]
                    assert full in (expected, [-x for x in expected])

    def test_interpolate_against_evaluate(self):
        rng = random.Random(43)
        for v in engine_inputs(43, 6):
            values = {p: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for p in v.points}
            for order in (DEGLEX, LEX):
                f = interpolate(v, values, order)
                assert all(f.evaluate(p) == values[p] for p in v.points)
                _, sm = vanishing_basis(v, order)
                assert set(f.monomials()) <= sm.as_set()


def engine_results(v, values):
    """Every engine output that must not depend on the column order."""
    return (
        vanishing_basis(v, DEGLEX),
        vanishing_basis(v, LEX),
        standard_monomials(v, DEGLEX),
        interpolate(v, values, DEGLEX),
        interpolate(v, values, LEX),
    )


def shuffled_columns(seed):
    """A stand-in for ``_columns``: a seeded random permutation of V's
    points, the same on every call, as ``interpolate`` needs its target
    vector over the columns ``_eliminate`` used."""

    def columns(v):
        points = list(v.points)
        random.Random(seed).shuffle(points)
        return points

    return columns


def spoiled(basis, v, rng):
    """The basis with one generator plus a term that is nonzero at a point
    of V, so that it no longer vanishes there."""
    k = rng.randrange(len(basis))
    p = rng.choice(v.points)
    term = Polynomial.from_monomial(
        Monomial(tuple(rng.randint(0, v.q) if x else 0 for x in p)), rng.choice([-2, -1, 1, Fraction(1, 3)])
    )
    return basis[:k] + [basis[k] + term] + basis[k + 1 :]


def certification_results(v, bases):
    """What certification reports on each basis: the first failure, and the
    verdict in either order."""
    return [
        (_first_nonzero(basis, v), [certify_groebner(v, basis, order) for order in (DEGLEX, LEX)]) for basis in bases
    ]


class TestColumnOrder:
    """The engine's columns are V's points in colex order, a choice made for
    speed alone: the normal set, the reduced basis, the interpolant and what
    certification reports do not depend on it."""

    def test_columns_are_colex(self):
        v = PointSet(3, 3, [(2, 0, 1), (0, 1, 0), (1, 0, 1), (0, 0, 2), (2, 1, 0), (0, 0, 0)])
        assert _columns(v) == [(0, 0, 0), (0, 1, 0), (2, 1, 0), (1, 0, 1), (2, 0, 1), (0, 0, 2)]
        for w in engine_inputs(47, 3):
            assert sorted(_columns(w), key=lambda p: tuple(reversed(p))) == _columns(w)
            assert sorted(_columns(w)) == sorted(w.points)

    def check_independent(self, v, seed, bases=None):
        # the bases vanish on V (by default V's reduced bases), and one
        # spoiled copy of one of them does not
        rng = random.Random(seed)
        values = {p: Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for p in v.points}
        if bases is None:
            bases = [list(vanishing_basis(v, order)[0]) for order in (DEGLEX, LEX)]
        bases = bases + [spoiled(rng.choice(bases), v, rng)]
        expected = engine_results(v, values), certification_results(v, bases)
        assert expected[1][-1][0] is not None
        for k in range(3):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr("shatterbasis.ideals._columns", shuffled_columns(seed * 10 + k))
                assert (engine_results(v, values), certification_results(v, bases)) == expected

    def test_engine_inputs(self):
        for seed, v in enumerate(engine_inputs(48, 3)):
            self.check_independent(v, seed)

    def test_seeded_bases(self):
        for seed, (v, basis) in enumerate(seeded_bases(49)):
            self.check_independent(v, seed, [basis])

    @given(point_sets(3, 3, max_size=15), st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_small_sets(self, v, seed):
        self.check_independent(v, seed)


class TestStandardMonomials:
    """The basis-free route: the lex recursion and the weight-free walk.
    TestVanishingBasisProperties also checks it against the engine and
    the reference oracle on two- and three-variable systems."""

    @given(point_sets(3, 3, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_matches_the_reference_in_three_variables(self, v):
        for order in (DEGLEX, LEX):
            assert standard_monomials(v, order).exponent_vectors() == reference_sm(
                v.points, v.q, KEYS[order]
            )

    def test_matches_the_engine_on_engine_inputs(self):
        for v in engine_inputs(45, 6):
            for order in (DEGLEX, LEX):
                sm = standard_monomials(v, order)
                assert sm == vanishing_basis(v, order)[1]
                assert list(sm) == sorted(sm, key=order.key)

    @given(point_sets(4, 2))
    @settings(max_examples=60, deadline=None)
    def test_binary_lex_normal_set_is_the_order_shattered_sets(self, v):
        # Anstee, Ronyai and Sali: at q=2 with x1 most significant, x_S is a
        # lex standard monomial iff V order-shatters S
        sets = {frozenset(i + 1 for i, e in enumerate(m.exponents) if e) for m in standard_monomials(v, LEX)}
        assert sets == reference_order_shattered(v.points)

    def test_empty_rejected(self):
        for order in (DEGLEX, LEX):
            with pytest.raises(EmptyPointSetError):
                standard_monomials(PointSet(2, 2, []), order)

    def test_weight_free_rows(self):
        # row k keeps only its |V| - k live entries, primitive: the live part
        # of the weighted row with its content stripped
        for v in engine_inputs(46, 4):
            for order in (DEGLEX, LEX):
                standard, rows, generators = _eliminate(v, order)
                free_standard, free_rows, free_generators = _eliminate(v, order, weights=False)
                size = len(v)
                assert free_standard == standard and free_generators == []
                assert len(generators) == len(vanishing_basis(v, order)[0])
                for k, ((pivot, row), (free_pivot, free)) in enumerate(zip(rows, free_rows)):
                    assert len(free) == size - k and math.gcd(*free) == 1
                    assert free_pivot == pivot
                    live = row[: size - k]
                    g = math.gcd(*live)
                    assert free == [x // g for x in live]


class TestCertifyGroebner:
    def test_field_polynomials_certify_the_grid(self):
        for n, q in ((2, 2), (2, 3), (3, 2)):
            v = PointSet(n, q, box(n, q))
            gens = [field_polynomial(i, q, n) for i in range(1, n + 1)]
            assert certify_groebner(v, gens, DEGLEX)

    def test_missing_direction_fails(self):
        v = PointSet(2, 2, [(0, 0)])
        assert not certify_groebner(v, [Polynomial.variable(1, 2)], DEGLEX)

    def test_non_vanishing_generator_fails(self):
        v = PointSet(2, 2, [(0, 0), (1, 1)])
        gens = [Polynomial.variable(1, 2), field_polynomial(2, 2, 2)]
        assert not certify_groebner(v, gens, DEGLEX)

    def test_wrong_count_fails(self):
        # vanishing set too small: box count exceeds |V|
        v = PointSet(2, 2, [(0, 0), (1, 1)])
        gens = [field_polynomial(1, 2, 2), field_polynomial(2, 2, 2)]
        assert not certify_groebner(v, gens, DEGLEX)

    def test_accepts_redundant_basis(self):
        v = PointSet(2, 2, [(0, 0), (1, 1)])
        gb, _ = vanishing_basis(v, DEGLEX)
        x1, x2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
        padded = list(gb.generators) + [(x1 - x2) * x2]
        assert certify_groebner(v, padded, DEGLEX)

    def test_finite_normal_set_outside_the_box_fails(self):
        # 1, x1, x1^2 are free: a finite normal set, but larger than |V|
        v = PointSet(1, 2, [(0,), (1,)])
        x1 = Polynomial.variable(1, 1)
        assert not certify_groebner(v, [x1 * x1 * x1 - x1], DEGLEX)

    def test_agrees_with_box_count(self):
        rng = random.Random(2024)
        outcomes = set()
        for _ in range(300):
            n, q = rng.randint(1, 3), rng.randint(2, 4)
            grid = box(n, q)
            v = PointSet(n, q, rng.sample(grid, rng.randint(1, min(len(grid), 12))))
            order = rng.choice([DEGLEX, LEX])
            gb, _ = vanishing_basis(v, order)
            candidates = list(gb.generators)
            candidates += [field_polynomial(i, q, n) for i in range(1, n + 1)]
            candidates += [Polynomial.variable(i, n) * g for g in gb for i in range(1, n + 1)]
            basis = [g for g in candidates if rng.random() < 0.5]
            expected = box_count_certify(v, basis, order)
            assert certify_groebner(v, basis, order) == expected
            outcomes.add(expected)
        assert outcomes == {True, False}


def box_count_certify(v, basis, order):
    """The counting test over the q^n box: vanishing on V, a leading
    monomial dividing every x_i^q, then exactly |V| free box points."""
    n, q = v.n, v.q
    if any(g.evaluate(p) != 0 for g in basis for p in v):
        return False
    leads = [leading_monomial(g, order) for g in basis if not g.is_zero()]
    for i in range(1, n + 1):
        if not any(lm.divides(Monomial.variable(i, n).power(q)) for lm in leads):
            return False
    free = [e for e in box(n, q) if not any(lm.divides(Monomial(e)) for lm in leads)]
    return len(free) == len(v)


def evaluate_first_nonzero(polys, v):
    """The reference route: Fraction evaluation, point by point."""
    for k, g in enumerate(polys):
        for p in v:
            if g.evaluate(p) != 0:
                return k, p
    return None


def seeded_bases(seed):
    """(V, basis) pairs whose bases vanish on V: reduced engine bases,
    field polynomials and gb_blowup outputs."""
    rng = random.Random(seed)
    for _ in range(40):
        n, q = rng.randint(1, 3), rng.randint(2, 4)
        grid = box(n, q)
        v = PointSet(n, q, rng.sample(grid, rng.randint(1, min(len(grid), 12))))
        gb, _ = vanishing_basis(v, rng.choice([DEGLEX, LEX]))
        yield v, list(gb.generators)
        yield v, [field_polynomial(i, q, n) for i in range(1, n + 1)]
    for n, q in ((2, 3), (3, 2), (3, 3), (2, 4)):
        subsets = [set(c) for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
        for _ in range(6):
            family = SetFamily(n, rng.sample(subsets, rng.randint(1, len(subsets))))
            yield blow_up(family, q), list(gb_blowup(family, q, rng.choice([DEGLEX, LEX])))


class TestIntegerEvaluation:
    """``_first_nonzero`` against ``Polynomial.evaluate``: the same verdict and
    the same first polynomial and point."""

    def test_seeded_bases_vanish(self):
        for v, basis in seeded_bases(11):
            assert _first_nonzero(basis, v) is None
            assert evaluate_first_nonzero(basis, v) is None

    def test_perturbed_generators_fail_at_the_reference_point(self):
        rng = random.Random(12)
        for v, basis in seeded_bases(12):
            k = rng.randrange(len(basis))
            c = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3, 5]))
            # a term nonzero at a point of V, so adding it cannot keep g vanishing
            p = rng.choice(v.points)
            term = Polynomial.from_monomial(
                Monomial(tuple(rng.randint(0, v.q) if x else 0 for x in p)), c
            )
            for spoiled in (basis[k] + c, basis[k] + term):
                perturbed = basis[:k] + [spoiled] + basis[k + 1 :]
                got = _first_nonzero(perturbed, v)
                assert got is not None
                assert got == evaluate_first_nonzero(perturbed, v)
                assert got[0] == k

    def test_mixed_denominators(self):
        v = PointSet(2, 4, [(1, 0), (1, 2), (2, 3)])
        # zero nowhere on V; its numerators alone (x1 - 1) vanish at two points
        g = parse_polynomial("1/2*x1 - 1/3", 2)
        assert _first_nonzero([g], v) == evaluate_first_nonzero([g], v) == (0, (1, 0))
        # on V zero at (2, 3) only; x1 - x2 (numerators alone) is zero nowhere
        h = parse_polynomial("1/2*x1 - 1/3*x2", 2)
        assert evaluate_first_nonzero([h], PointSet(2, 4, [(2, 3)])) is None
        assert _first_nonzero([h], PointSet(2, 4, [(2, 3)])) is None
        assert _first_nonzero([h], v) == evaluate_first_nonzero([h], v) == (0, (1, 0))
        w = PointSet(2, 4, [(0, 0), (2, 3), (3, 3)])
        assert _first_nonzero([h], w) == evaluate_first_nonzero([h], w) == (0, (3, 3))

    def test_zero_polynomial_in_the_list(self):
        v = PointSet(2, 3, [(0, 1), (2, 2)])
        zero = Polynomial.zero(2)
        assert _first_nonzero([zero], v) is None
        assert _first_nonzero([zero, zero, Polynomial.variable(1, 2)], v) == (2, (2, 2))

    def test_nonzero_only_at_the_last_point(self):
        for v, basis in seeded_bases(13):
            last = v.points[-1]
            spike = interpolate(v, {p: int(p == last) for p in v})
            polys = basis + [spike]
            assert _first_nonzero(polys, v) == evaluate_first_nonzero(polys, v) == (len(basis), last)

    def test_large_exponent(self):
        v = PointSet(2, 3, [(0, 2), (1, 1), (2, 2)])
        g = Polynomial(2, {Monomial((0, 4000)): 1, Monomial((0, 3999)): -2})  # x2^3999 (x2 - 2)
        assert _first_nonzero([g], v) == evaluate_first_nonzero([g], v) == (0, (1, 1))

    def test_table_vectors_are_direct_products(self):
        # each vector is built once from a parent's and kept, whatever the
        # order in which monomials are requested
        rng = random.Random(14)
        for _ in range(60):
            n, q = rng.randint(1, 3), rng.randint(2, 4)
            v = PointSet(n, q, {tuple(rng.randrange(q) for _ in range(n)) for _ in range(rng.randint(1, 12))})
            table = _EvaluationTable(v)
            requests = list(itertools.product(range(2 * q + 1), repeat=n))
            rng.shuffle(requests)
            for expo in requests[:60]:
                assert table.vector(expo) == [math.prod(c**e for c, e in zip(p, expo)) for p in _columns(v)]

    def test_no_fraction_evaluation(self, monkeypatch):
        family = SetFamily(3, [set(), {1}, {2, 3}, {1, 2, 3}])
        v = blow_up(family, 3)
        basis = list(gb_blowup(family, 3, DEGLEX))
        spoiled = [basis[0] + 1] + basis[1:]

        def forbidden(*args):
            raise AssertionError("per-point evaluation called")

        monkeypatch.setattr(Polynomial, "evaluate", forbidden)
        monkeypatch.setattr(Monomial, "evaluate", forbidden)
        assert certify_groebner(v, basis, DEGLEX)
        assert not certify_groebner(v, spoiled, DEGLEX)
        _, sm = vanishing_basis(v, DEGLEX)
        assert len(sm) == len(v)


class TestNonShatterCertificate:
    def test_single_coordinate_example(self):
        v = PointSet(2, 2, [(0, 0)])
        g = non_shatter_certificate(v, [1], (1, 0))
        assert g == Polynomial.variable(1, 2)

    def test_sphere_example(self):
        v = hamming_sphere(2, 1, 3)
        g = non_shatter_certificate(v, [1, 2], (1, 1))
        assert leading_monomial(g, DEGLEX) == Monomial((2, 2))
        assert leading_monomial(g, LEX) == Monomial((2, 2))
        assert all(g.evaluate(p) == 0 for p in v)

    def test_reduces_to_zero_against_basis(self):
        v = hamming_sphere(2, 1, 3)
        gb, _ = vanishing_basis(v, DEGLEX)
        g = non_shatter_certificate(v, [1, 2], (1, 1))
        assert normal_form(g, list(gb.generators), DEGLEX).is_zero()

    def test_invalid_witness_rejected(self):
        v = PointSet(2, 2, [(0, 0)])
        with pytest.raises(ValueError):
            non_shatter_certificate(v, [1], (0, 1))  # agrees with (0,0) on {1}
        with pytest.raises(ValueError):
            non_shatter_certificate(v, [3], (0, 0))
        with pytest.raises(ValueError):
            non_shatter_certificate(v, [1], (0,))
        with pytest.raises(ValueError):
            non_shatter_certificate(v, [1], (2, 0))

    def test_non_integral_arguments_are_refused(self):
        v = PointSet(2, 3, [(0, 0)])
        with pytest.raises(ValueError, match="are not all integers"):
            non_shatter_certificate(v, [1.5], (1, 0))
        with pytest.raises(ValueError, match="are not all integers"):
            non_shatter_certificate(v, [1], (1.5, 0))
        g = non_shatter_certificate(v, [1.0], (Fraction(1), 0))
        assert g == non_shatter_certificate(v, [1], (1, 0))
        assert leading_monomial(g, DEGLEX) == Monomial((2, 0))

    @given(point_sets(3, 3, max_size=8), st.randoms(use_true_random=False))
    @settings(max_examples=30, deadline=None)
    def test_vanishes_with_claimed_lead(self, v, rng):
        candidates = []
        for r in range(1, 4):
            for cs in itertools.combinations(range(1, 4), r):
                missing = set(itertools.product(range(3), repeat=r)) - v.restrictions(cs)
                for pattern in sorted(missing):
                    candidates.append((cs, pattern))
        if not candidates:
            return
        cs, pattern = rng.choice(candidates)
        witness = [0, 0, 0]
        for c, value in zip(cs, pattern):
            witness[c - 1] = value
        g = non_shatter_certificate(v, cs, witness)
        assert all(g.evaluate(p) == 0 for p in v)
        expected = Monomial(tuple(2 if i in cs else 0 for i in range(1, 4)))
        assert leading_monomial(g, DEGLEX) == expected
        assert leading_monomial(g, LEX) == expected

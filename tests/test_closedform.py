"""Closed-form normal sets, counting formulas, bounds and certificates."""

import functools
import hashlib
import itertools
import json
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shatterbasis
import shatterbasis.closedform as closedform
from reference import deglex_key, reference_sm
from shatterbasis.closedform import (
    BOUND_NAMES,
    BoundHypothesisError,
    bound,
    count_ballot,
    count_sphere_stratum,
    count_sphere_stratum_capped,
    gb_blowup,
    shatter_cap,
    sm_blowup,
    sm_hamming_sphere,
    sm_uniform_binary,
    uniform_leading_certificate,
)
from shatterbasis.ideals import StandardMonomialSet, certify_groebner, interpolate, vanishing_basis
from shatterbasis.polyring import (
    Monomial,
    Polynomial,
    TermOrder,
    binary_lift,
    field_polynomial,
    leading_coefficient,
    leading_monomial,
    render_polynomial,
)
from shatterbasis.tuples import (
    PointSet,
    SetFamily,
    _trace_sets,
    ballot_member,
    blow_up,
    complete_uniform,
    full_exponent_count,
    hamming_sphere,
    km_extremal,
    level_partition,
    minimal_ballot_violators,
    shattered_family,
    subfamily_through,
    support,
)

DEGLEX = TermOrder.DEGLEX
LEX = TermOrder.LEX


def mono(*exponents):
    return Monomial(tuple(exponents))


def box_sm_hamming_sphere(n, d, q, order):
    """Reference: the qualification rule of sm_hamming_sphere, filtered
    over the whole q^n box."""
    monos = []
    for u in itertools.product(range(q), repeat=n):
        interior = [i for i, e in enumerate(u, start=1) if 0 < e < q - 1]
        c = len(interior)
        if c > d:
            continue
        full = [i for i, e in enumerate(u, start=1) if e == q - 1]
        if len(full) > min(d - c, n - d):
            continue
        rest = sorted(i for i, e in enumerate(u, start=1) if e == 0 or e == q - 1)
        rank = {pos: j for j, pos in enumerate(rest, start=1)}
        if all(rank[pos] >= 2 * i for i, pos in enumerate(full, start=1)):
            monos.append(Monomial(u))
    return StandardMonomialSet(order, tuple(sorted(monos, key=order.key)))


def loop_sm_blowup(family, q, order):
    """Reference: for every coordinate set J with a nonempty subfamily, each
    binary standard monomial of that subfamily with every interior value
    vector placed on J."""
    n = family.n
    monos = []
    for size in range(n + 1 if q > 2 else 1):
        for js in itertools.combinations(range(1, n + 1), size):
            sub = subfamily_through(family, js)
            if not len(sub):
                continue
            _, sm = vanishing_basis(sub.to_point_set(), order)
            for m in sm:
                for values in itertools.product(range(1, q - 1), repeat=size):
                    expo = [0] * n
                    for j, val in zip(js, values):
                        expo[j - 1] = val
                    for i in support(m.exponents):
                        expo[i - 1] = q - 1
                    monos.append(Monomial(tuple(expo)))
    return StandardMonomialSet(order, tuple(sorted(monos, key=order.key)))


def filter_sm_blowup(family, q, order, binary_sm):
    """Reference: the box filter sm_blowup was first defined by.  u is kept
    iff the subfamily through its interior positions is nonempty and its
    full positions are the support of a binary standard monomial of that
    subfamily; binary_sm(point set, order) gives those monomials."""
    monos = []
    for u in itertools.product(range(q), repeat=family.n):
        parts = level_partition(u, q)
        sub = subfamily_through(family, parts.interior)
        if len(sub) and parts.top in {support(m.exponents) for m in binary_sm(sub.to_point_set(), order)}:
            monos.append(Monomial(u))
    return StandardMonomialSet(order, tuple(sorted(monos, key=order.key)))


def union_gb_blowup(family, q, order):
    """Reference: the paper's whole union, as gb_blowup built it before it
    kept only minimal leads: the n alphabet polynomials, x_J times the
    lifted binary generators for every walked J, then the bare x_J for
    every tested J in no member."""
    n = family.n
    out = [field_polynomial(i, q, n) for i in range(1, n + 1)]
    outside = []

    def inside(cs, codes):
        if closedform._inside(cs, codes):
            return True
        outside.append(cs)
        return False

    lifted = {}
    for cs in _trace_sets(n, 2, family.to_point_set().points, inside):
        gb, _ = closedform._binary_basis(subfamily_through(family, cs).to_point_set(), order)
        u = Monomial.squarefree(cs, n).exponents
        for g in gb:
            bar = lifted.get(g)
            if bar is None:
                bar = lifted[g] = binary_lift(g, q)
            shifted = {Monomial(tuple(map(operator.add, m.exponents, u))): c for m, c in bar.items()}
            out.append(Polynomial(n, shifted))
    out += [Polynomial.from_monomial(Monomial.squarefree(cs, n)) for cs in outside]
    return out


def first_of_minimal_leads(gens, order):
    """The first generator of each lead that no other lead divides, in
    list order: pairwise divisibility over the distinct leads."""
    leads = [leading_monomial(g, order).exponents for g in gens]
    distinct = set(leads)
    minimal = {a for a in distinct if not any(b != a and all(map(operator.le, b, a)) for b in distinct)}
    out = []
    for g, lead in zip(gens, leads):
        if lead in minimal:
            out.append(g)
            minimal.remove(lead)
    return out


def border_leads(sm):
    """The minimal monomials outside a normal set: each e_i past a member
    of it whose every one-smaller divisor lies in it."""
    inside = sm.exponent_vectors()
    border = set()
    for u in inside:
        for i in range(len(u)):
            w = u[:i] + (u[i] + 1,) + u[i + 1 :]
            if w not in inside and all(w[:j] + (e - 1,) + w[j + 1 :] in inside for j, e in enumerate(w) if e):
                border.add(w)
    return border


def seeded_families(count, seed):
    """(family, q) pairs with n <= 5, q <= 4 and up to 8 members."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(1, 5)
        q = rng.randint(2, 4)
        subsets = [c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
        yield SetFamily(n, rng.sample(subsets, rng.randint(1, min(8, len(subsets))))), q


def run_python(code):
    """Run code in a fresh interpreter that imports this package; fails on
    a 60 s timeout."""
    src = Path(shatterbasis.__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


class TestUniformBinary:
    def test_small_examples(self):
        assert sm_uniform_binary(3, 1).exponent_vectors() == {
            (0, 0, 0),
            (0, 1, 0),
            (0, 0, 1),
        }
        assert sm_uniform_binary(4, 2).exponent_vectors() == {
            (0, 0, 0, 0),
            (0, 1, 0, 0),
            (0, 0, 1, 0),
            (0, 0, 0, 1),
            (0, 1, 0, 1),
            (0, 0, 1, 1),
        }
        assert sm_uniform_binary(3, 0).exponent_vectors() == {(0, 0, 0)}

    def test_cardinality_is_binomial(self):
        for n in range(1, 8):
            for d in range(n + 1):
                assert len(sm_uniform_binary(n, d)) == comb(n, d)

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            sm_uniform_binary(3, 4)
        with pytest.raises(ValueError):
            sm_uniform_binary(3, -1)

    def test_matches_oracle(self):
        for n in range(1, 6):
            for d in range(n + 1):
                expected = reference_sm(
                    complete_uniform(n, d, 2).points, 2, deglex_key
                )
                assert sm_uniform_binary(n, d).exponent_vectors() == expected

    def test_degree_slice_is_smaller_system(self):
        # the degree <= s part equals the normal set of the s-uniform system
        for n in range(1, 9):
            for d in range(n + 1):
                for s in range(min(d, n - d) + 1):
                    sliced = {
                        m.exponents
                        for m in sm_uniform_binary(n, d)
                        if m.degree() <= s
                    }
                    assert sliced == sm_uniform_binary(n, s).exponent_vectors()


class TestHammingSphere:
    def test_example(self):
        assert sm_hamming_sphere(2, 1, 3).exponent_vectors() == {
            (0, 0),
            (1, 0),
            (0, 1),
            (0, 2),
        }

    def test_excludes_high_first_power(self):
        assert mono(2, 0) not in sm_hamming_sphere(2, 1, 3)

    def test_q2_reduces_to_uniform_binary(self):
        for n in range(1, 6):
            for d in range(n + 1):
                assert (
                    sm_hamming_sphere(n, d, 2).exponent_vectors()
                    == sm_uniform_binary(n, d).exponent_vectors()
                )

    def test_cardinality(self):
        for n in range(1, 5):
            for d in range(n + 1):
                for q in (2, 3, 4):
                    assert len(sm_hamming_sphere(n, d, q)) == comb(n, d) * (q - 1) ** d

    def test_matches_box_filter(self):
        grid = [(n, q) for q in (2, 3) for n in range(1, 7)]
        grid += [(n, q) for q in (4, 5) for n in range(1, 5)]
        for n, q in grid:
            for d in range(n + 1):
                for order in (DEGLEX, LEX):
                    assert sm_hamming_sphere(n, d, q, order) == box_sm_hamming_sphere(n, d, q, order)

    def test_high_dimension_is_output_sensitive(self):
        # the q^n box has 3^16 points; the normal set has 32
        code = (
            "from shatterbasis.closedform import sm_hamming_sphere\n"
            "print(len(sm_hamming_sphere(16, 1, 3)))\n"
        )
        assert run_python(code) == ["32"]

    def test_matches_oracle(self):
        for n, q in ((3, 3), (3, 4), (2, 5)):
            for d in range(n + 1):
                expected = reference_sm(hamming_sphere(n, d, q).points, q, deglex_key)
                assert sm_hamming_sphere(n, d, q).exponent_vectors() == expected


class TestBlowup:
    def test_single_member_example(self):
        fam = SetFamily(2, [{1}])
        assert sm_blowup(fam, 3).exponent_vectors() == {(0, 0), (1, 0)}

    def test_full_family_gives_whole_box(self):
        fam = SetFamily(2, [set(), {1}, {2}, {1, 2}])
        assert sm_blowup(fam, 3).exponent_vectors() == set(
            itertools.product(range(3), repeat=2)
        )

    def test_uniform_family_matches_sphere(self):
        for n, d, q in ((3, 2, 3), (4, 2, 3), (3, 1, 4)):
            fam = SetFamily(n, itertools.combinations(range(1, n + 1), d))
            assert (
                sm_blowup(fam, q).exponent_vectors()
                == sm_hamming_sphere(n, d, q).exponent_vectors()
            )

    def test_cardinality_formula(self):
        fam = SetFamily(3, [set(), {2}, {1, 3}, {1, 2, 3}])
        for q in (2, 3, 4):
            assert len(sm_blowup(fam, q)) == sum(
                (q - 1) ** k for k in (0, 1, 2, 3)
            )

    def test_empty_family_rejected(self):
        with pytest.raises(ValueError):
            sm_blowup(SetFamily(2, []), 3)
        with pytest.raises(ValueError):
            gb_blowup(SetFamily(2, []), 3)

    def test_gb_contains_alphabet_polynomials(self):
        # x1^2 of the lift of x1 - 1 divides x1^3, and x2 divides x2^3
        gens = gb_blowup(SetFamily(2, [{1}]), 3)
        assert [render_polynomial(g) for g in gens] == ["-1/2*x1^2 + 3/2*x1 - 1", "x2"]
        # every 0/1 point is in the binary system, so only x_i^3 bounds x_i
        every = SetFamily(2, [set(), {1}, {2}, {1, 2}])
        for order in (DEGLEX, LEX):
            gens = gb_blowup(every, 3, order)
            assert gens[:2] == [field_polynomial(1, 3, 2), field_polynomial(2, 3, 2)]
            lead_exponents = {leading_monomial(g, order).exponents for g in gens}
            assert (3, 0) in lead_exponents and (0, 3) in lead_exponents

    def test_gb_empty_subfamily_contributes_bare_product(self):
        fam = SetFamily(2, [{1}])
        gens = gb_blowup(fam, 3)
        assert Polynomial.variable(2, 2) in gens

    def test_gb_certifies_small_families(self):
        members = [frozenset(m) for r in range(3) for m in itertools.combinations((1, 2), r)]
        for r in range(1, len(members) + 1):
            for picks in itertools.combinations(members, r):
                fam = SetFamily(2, picks)
                grown = blow_up(fam, 3)
                for order in (DEGLEX, LEX):
                    assert certify_groebner(grown, gb_blowup(fam, 3, order), order)
                    assert (
                        sm_blowup(fam, 3, order).exponent_vectors()
                        == vanishing_basis(grown, order)[1].exponent_vectors()
                    )

    def test_matches_box_filter_on_every_small_family(self):
        @functools.cache
        def binary_sm(v, order):
            return vanishing_basis(v, order)[1]

        for n in (1, 2, 3):
            subsets = [c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
            for r in range(1, len(subsets) + 1):
                for picks in itertools.combinations(subsets, r):
                    family = SetFamily(n, picks)
                    for q in (2, 3, 4):
                        for order in (DEGLEX, LEX):
                            assert sm_blowup(family, q, order) == filter_sm_blowup(family, q, order, binary_sm)

    def test_matches_coordinate_set_loop(self):
        for family, q in seeded_families(240, seed=5):
            for order in (DEGLEX, LEX):
                assert sm_blowup(family, q, order) == loop_sm_blowup(family, q, order)

    def test_gb_bare_generators_sit_just_outside_the_member_down_set(self):
        def inside(js, family):
            return any(js <= m for m in family.members)

        seen = 0
        for family, q in seeded_families(240, seed=6):
            if q == 2:
                continue  # lifted binary generators can be bare monomials too
            bare = [g for g in gb_blowup(family, q) if len(g.monomials()) == 1]
            seen += len(bare)
            for g in bare:
                (m,) = g.monomials()
                assert g == Polynomial.from_monomial(m)
                assert set(m.exponents) <= {0, 1}
                js = support(m.exponents)
                assert not inside(js, family)
                assert any(inside(js - {j}, family) for j in js)
        assert seen

    def test_gb_bare_generators_are_the_tested_sets_in_no_member(self):
        # the trace walk tests each set once, as a set inside a member plus
        # one coordinate past its last; those in no member whose every
        # one-smaller subset lies inside a member become x_J
        for family, q in seeded_families(240, seed=7):
            if q == 2:
                continue  # lifted binary generators can be bare monomials too
            n = family.n
            box = itertools.product(range(2), repeat=n)
            inside = {u for u in box if any(support(u) <= m for m in family.members)}
            tested = {
                u[:i] + (1,) + u[i + 1 :]
                for u in inside
                for i in range(max((k + 1 for k, e in enumerate(u) if e), default=0), n)
            }
            minimal = {
                u for u in tested - inside if all(u[:i] + (0,) + u[i + 1 :] in inside for i in range(n) if u[i])
            }
            bare = [g.monomials()[0].exponents for g in gb_blowup(family, q) if len(g.monomials()) == 1]
            assert sorted(bare) == sorted(minimal)

    def test_gb_certifies_seeded_families(self):
        for family, q in seeded_families(240, seed=5):
            if family.n > 4 or q > 3:
                continue  # certification evaluates every generator on V exactly
            grown = blow_up(family, q)
            for order in (DEGLEX, LEX):
                assert certify_groebner(grown, gb_blowup(family, q, order), order)

    def test_gb_is_the_minimal_sub_basis_on_every_small_family(self):
        cases = 0
        for n in (1, 2, 3):
            subsets = [c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
            for r in range(1, len(subsets) + 1):
                for picks in itertools.combinations(subsets, r):
                    family = SetFamily(n, picks)
                    for q in (2, 3, 4):
                        for order in (DEGLEX, LEX):
                            gens = gb_blowup(family, q, order)
                            assert gens == first_of_minimal_leads(union_gb_blowup(family, q, order), order)
                            reduced, _ = vanishing_basis(blow_up(family, q), order)
                            assert sorted(leading_monomial(g, order).exponents for g in gens) == sorted(
                                m.exponents for m in reduced.leading_monomials()
                            )
                            cases += 1
        assert cases == 1638

    def test_gb_is_the_minimal_sub_basis_on_seeded_families(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(4, 6)
            subsets = [c for r in range(n + 1) for c in itertools.combinations(range(1, n + 1), r)]
            family = SetFamily(n, rng.sample(subsets, rng.randint(1, 10)))
            for q in (2, 3, 4):
                for order in (DEGLEX, LEX):
                    gens = gb_blowup(family, q, order)
                    assert gens == first_of_minimal_leads(union_gb_blowup(family, q, order), order)
                    leads = [leading_monomial(g, order).exponents for g in gens]
                    assert len(set(leads)) == len(leads)
                    assert set(leads) == border_leads(sm_blowup(family, q, order))

    def test_gb_single_member_in_high_dimension(self):
        # the lift of x1 - 1 for J = {}, then bare x_j in the walk's test
        # order, j = 20 down to 2; the union's 78 others have leads these divide
        gens = gb_blowup(SetFamily(20, [{1}]), 3)
        assert len(gens) == 20
        assert [leading_monomial(g, DEGLEX) for g in gens] == [
            Monomial.variable(1, 20).power(2),
            *(Monomial.variable(j, 20) for j in range(20, 1, -1)),
        ]

    def test_gb_lifts_only_the_kept_generators(self, monkeypatch):
        lifts = []
        lift = closedform.binary_lift
        monkeypatch.setattr(closedform, "binary_lift", lambda g, q: lifts.append(g) or lift(g, q))
        seen = 0
        for family, q in seeded_families(120, seed=9):
            if q == 2:
                continue  # lifted binary generators can be bare monomials too
            lifts.clear()
            gens = gb_blowup(family, q)
            alphabet = {field_polynomial(i, q, family.n) for i in range(1, family.n + 1)}
            built = [g for g in gens if g not in alphabet and len(g.monomials()) > 1]
            assert len(lifts) == len(built)
            seen += len(built)
        assert seen

    def test_single_member_in_high_dimension_is_output_sensitive(self):
        code = (
            "from shatterbasis.closedform import gb_blowup, sm_blowup\n"
            "from shatterbasis.ideals import certify_groebner\n"
            "from shatterbasis.polyring import TermOrder\n"
            "from shatterbasis.tuples import SetFamily, blow_up\n"
            "family = SetFamily(24, [{1}])\n"
            "order = TermOrder.DEGLEX\n"
            "gens = gb_blowup(family, 3, order)\n"
            "print(len(sm_blowup(family, 3, order)), len(gens))\n"
            "print(certify_groebner(blow_up(family, 3), gens, order))\n"
        )
        assert run_python(code) == ["2", "24", "True"]

    def test_binary_cache_is_bounded(self, monkeypatch):
        calls = []

        def fake_basis(v, order):
            calls.append(v)
            return object(), v

        monkeypatch.setattr(closedform, "vanishing_basis", fake_basis)
        cache = closedform._binary_basis
        cache.cache_clear()
        try:
            cap = closedform._BINARY_CACHE_CAP
            systems = [PointSet(13, 2, [[(i >> k) & 1 for k in range(13)]]) for i in range(cap + 5)]
            for v in systems:
                cache(v, DEGLEX)
            assert cache.cache_info().currsize == cap
            assert len(calls) == cap + 5
            hit = cache(systems[-1], DEGLEX)
            assert hit is cache(systems[-1], DEGLEX)
            assert cache.cache_info().hits == 2
            assert len(calls) == cap + 5
            # the first key was evicted, so asking for it again computes it anew
            cache(systems[0], DEGLEX)
            assert len(calls) == cap + 6
            assert calls[-1] is systems[0]
        finally:
            cache.cache_clear()


class TestCounting:
    def test_count_ballot_examples(self):
        assert count_ballot(4, 2, 2) == comb(4, 2) - comb(4, 1)
        assert count_ballot(4, 2, 2) == 2
        assert count_ballot(5, 3, 0) == 2**5
        assert count_ballot(4, 3, 1) == 24

    def test_count_ballot_range(self):
        with pytest.raises(ValueError):
            count_ballot(4, 2, 3)
        with pytest.raises(ValueError):
            count_ballot(4, 2, -1)

    def test_count_ballot_matches_enumeration(self):
        for n in range(1, 7):
            for q in (2, 3):
                for i in range(n // 2 + 1):
                    direct = sum(
                        1
                        for v in itertools.product(range(q), repeat=n)
                        if ballot_member(v, q)
                        and sum(1 for c in v if c == q - 1) == i
                    )
                    assert count_ballot(n, q, i) == direct

    def test_sphere_strata_examples(self):
        assert count_sphere_stratum(2, 1, 3, 0) == 2
        assert count_sphere_stratum(2, 1, 3, 1) == 2
        assert sum(count_sphere_stratum(2, 1, 3, i) for i in range(2)) == len(
            hamming_sphere(2, 1, 3)
        )
        assert count_sphere_stratum(4, 2, 2, 1) == 0

    def test_capped_strata_example(self):
        assert count_sphere_stratum_capped(2, 1, 3, 1, 0) == 2
        assert count_sphere_stratum_capped(2, 1, 3, 1, 1) == 2

    def test_strata_count_standard_monomials_by_interior_exponents(self):
        for n, d, q in ((2, 1, 3), (3, 2, 3), (3, 1, 4)):
            sm = sm_hamming_sphere(n, d, q)
            tallies = {}
            for m in sm:
                interior = sum(1 for e in m.exponents if 0 < e < q - 1)
                tallies[interior] = tallies.get(interior, 0) + 1
            for i in range(d + 1):
                assert tallies.get(i, 0) == count_sphere_stratum(n, d, q, i)

    def test_capped_strata_bounded_by_product_claim(self):
        for n in range(1, 11):
            for d in range(n + 1):
                for s in range(n - d + 1):
                    for q in (3, 4):
                        for i in range(d + 1):
                            value = count_sphere_stratum_capped(n, d, q, s, i)
                            assert value <= comb(n, s) * comb(n - s, i) * (q - 2) ** i


class TestBounds:
    def test_pinned_values(self):
        assert bound("uniform", 4, s=1, q=3).value == 40
        assert bound("hamming", 4, d=2, s=2, q=3).value == 24
        assert bound("km", 3, s=1, q=2).value == 4
        assert bound("sauer", 4, s=1).value == 5
        assert bound("frankl_pach", 6, s=2).value == comb(6, 2)
        assert bound("sphere_slice", 4, d=2, s=2, q=3).value == 24

    def test_breadth_of_registry(self):
        assert set(BOUND_NAMES) == {
            "sauer",
            "km",
            "frankl_pach",
            "uniform",
            "hamming",
            "sphere_slice",
        }

    def test_hypothesis_violations_name_the_inequality(self):
        with pytest.raises(BoundHypothesisError, match="s <= n/2"):
            bound("uniform", 3, s=2, q=3)
        with pytest.raises(BoundHypothesisError, match=r"d \+ s <= n"):
            bound("hamming", 3, d=2, s=2, q=3)
        with pytest.raises(BoundHypothesisError, match=r"s \+ 1 <= n/2"):
            bound("frankl_pach", 5, s=2)
        with pytest.raises(BoundHypothesisError, match="q >= 3"):
            bound("sphere_slice", 4, d=1, s=1, q=2)
        with pytest.raises(BoundHypothesisError, match="n >= 3"):
            bound("sphere_slice", 2, d=1, s=1, q=3)

    def test_missing_parameters_rejected(self):
        with pytest.raises(ValueError):
            bound("km", 4, s=1)
        with pytest.raises(ValueError):
            bound("hamming", 4, d=1, q=3)
        with pytest.raises(ValueError):
            bound("nonsense", 4, s=1)

    def test_every_bound_equals_its_comb_sum(self):
        # the reference sums below take a fresh math.comb and power per term;
        # d only bounds the uniform and Frankl-Pach systems, so its two ends stand for it there
        for n in range(1, 61):
            for s in range(n):
                assert bound("sauer", n, s=s).value == sum(comb(n, i) for i in range(s + 1))
                if 2 * (s + 1) <= n:
                    for d in (None, 0, n):
                        assert bound("frankl_pach", n, d=d, s=s).value == comb(n, s)
            for q in range(2, 6):
                km = [(q - 1) ** (n - i) * comb(n, i) for i in range(n)]
                ballot = [
                    (q - 1) ** (n - i) * (comb(n, i) - (comb(n, i - 1) if i else 0)) for i in range(n // 2 + 1)
                ]
                for s in range(n):
                    assert bound("km", n, s=s, q=q).value == sum(km[: s + 1])
                for s in range(n // 2 + 1):
                    for d in (None, 0, (q - 1) * n):
                        assert bound("uniform", n, d=d, s=s, q=q).value == sum(ballot[: s + 1])
                for s in range(n + 1):
                    sphere = itertools.accumulate(comb(n - s, i) * (q - 2) ** i for i in range(n - s + 1))
                    for d, total in enumerate(sphere):
                        assert bound("hamming", n, d=d, s=s, q=q).value == comb(n, s) * total
                        if n >= 3 and q >= 3:
                            assert bound("sphere_slice", n, d=d, s=s, q=q).value == comb(n, s) * total

    def test_km_dominates_uniform(self):
        # dropping the telescoping correction only enlarges the sum
        for n in range(1, 7):
            for q in (2, 3, 4):
                for s in range(n // 2 + 1):
                    if s > n - 1:
                        continue
                    assert (
                        bound("uniform", n, s=s, q=q).value
                        <= bound("km", n, s=s, q=q).value
                    )

    def test_q2_collapse(self):
        for n in range(1, 13):
            for s in range(n // 2 + 1):
                assert bound("uniform", n, s=s, q=2).value == comb(n, s)
            for d in range(n + 1):
                for s in range(n - d + 1):
                    assert bound("hamming", n, d=d, s=s, q=2).value == comb(n, s)

    def test_uniform_bound_counts_capped_ballot_strata(self):
        for n in range(1, 7):
            for q in (2, 3):
                for s in range(n // 2 + 1):
                    expected = sum(count_ballot(n, q, i) for i in range(s + 1))
                    assert bound("uniform", n, s=s, q=q).value == expected

    def test_hamming_bound_attained_by_sphere(self):
        assert len(hamming_sphere(4, 2, 3)) == bound("hamming", 4, d=2, s=2, q=3).value
        assert max(len(m) for m in shattered_family(hamming_sphere(4, 2, 3))) <= 2

    def test_km_bound_attained_by_extremal_system(self):
        for n in range(1, 5):
            for q in (2, 3):
                for s in range(n):
                    assert len(km_extremal(n, s, q)) == bound("km", n, s=s, q=q).value

    def test_to_dict(self):
        report = bound("km", 3, s=1, q=2)
        assert report.to_dict() == {
            "name": "km",
            "parameters": {"n": 3, "s": 1, "q": 2},
            "value": 4,
        }


class TestShatterCap:
    def test_examples(self):
        assert shatter_cap(2, 3) == 1
        assert shatter_cap(0, 5) == 0
        assert shatter_cap(3, 3) == 2
        assert shatter_cap(3, 2) == 3

    def test_no_uniform_system_shatters_beyond_cap(self):
        for n, q in ((3, 3), (2, 4)):
            for d in range((q - 1) * n + 1):
                u = complete_uniform(n, d, q)
                cap = shatter_cap(d, q)
                worst = max(len(m) for m in shattered_family(u))
                assert worst <= cap


class TestUniformLeadingCertificate:
    def test_linear_case(self):
        f = uniform_leading_certificate(3, 1, 2, [1])
        x = [Polynomial.variable(i, 3) for i in (1, 2, 3)]
        assert f == x[0] + x[1] + x[2] - 1
        assert leading_monomial(f, DEGLEX) == mono(1, 0, 0)

    def test_q3_linear_case(self):
        f = uniform_leading_certificate(2, 2, 3, [1])
        assert f == Polynomial.variable(1, 2) + Polynomial.variable(2, 2) - 2
        assert all(f.evaluate(p) == 0 for p in complete_uniform(2, 2, 3))

    def test_leading_coefficient_formula(self):
        for n, d, q, t in ((4, 2, 3, 2), (4, 3, 2, 2), (6, 4, 3, 3)):
            for violator in minimal_ballot_violators(t, n):
                f = uniform_leading_certificate(n, d, q, violator)
                hs = sorted(violator)
                expected_lm = [0] * n
                for h in hs[:-1]:
                    expected_lm[h - 1] = q - 1
                expected_lm[hs[-1] - 1] = 1
                assert leading_monomial(f, DEGLEX) == Monomial(tuple(expected_lm))
                expected_lc = factorial((t - 1) * (q - 1) + 1) // factorial(q - 1) ** (
                    t - 1
                )
                assert leading_coefficient(f, DEGLEX) == expected_lc

    def test_vanishes_on_uniform_system(self):
        for n, d, q, t in ((4, 2, 3, 2), (4, 3, 2, 2), (5, 4, 3, 2)):
            for violator in minimal_ballot_violators(t, n):
                f = uniform_leading_certificate(n, d, q, violator)
                assert all(f.evaluate(p) == 0 for p in complete_uniform(n, d, q))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            uniform_leading_certificate(4, 2, 3, [])
        with pytest.raises(ValueError):
            uniform_leading_certificate(4, 2, 3, [1, 2])  # h_1 < 2
        with pytest.raises(ValueError):
            uniform_leading_certificate(4, 2, 3, [2, 4])  # h_2 not below 2t
        with pytest.raises(ValueError):
            uniform_leading_certificate(3, 2, 3, [2, 3])  # t > n/2
        with pytest.raises(ValueError):
            uniform_leading_certificate(4, 9, 3, [1])  # d out of range

    def test_non_integral_violator_is_refused(self):
        for violator in ([1.5], [Fraction(3, 2)], ["1"]):
            with pytest.raises(ValueError, match="are not all integers"):
                uniform_leading_certificate(4, 2, 3, violator)
        assert uniform_leading_certificate(4, 2, 3, [1.0]) == uniform_leading_certificate(4, 2, 3, [1])


class TestConsistencyAcrossModules:
    @given(st.integers(1, 4), st.integers(2, 3), st.data())
    @settings(max_examples=30, deadline=None)
    def test_uniform_sm_within_ballot_class(self, n, q, data):
        d = data.draw(st.integers(0, (q - 1) * n))
        _, sm = vanishing_basis(complete_uniform(n, d, q), DEGLEX)
        for m in sm:
            assert ballot_member(m.exponents, q)

    def test_sphere_slice_bounds_sm_strata(self):
        # |SM(sphere) with at most s full exponents| <= sphere_slice bound
        for n in (3, 4):
            for q in (3, 4):
                for d in range(n + 1):
                    sm = sm_hamming_sphere(n, d, q)
                    for s in range(n - d + 1):
                        if n < 3:
                            continue
                        count = sum(
                            1 for m in sm if full_exponent_count(m, q) <= s
                        )
                        assert count <= bound("sphere_slice", n, d=d, s=s, q=q).value


def render_poly(g, order):
    terms = sorted(g.items(), key=lambda kv: order.key(kv[0]), reverse=True)
    return [[list(m.exponents), str(c)] for m, c in terms]


def ordered_outputs(order, blowup_basis=gb_blowup):
    """The outputs of the engine and of the closed forms on seeded inputs,
    every list in the order it is returned in; blowup_basis builds the
    blow-up bases."""
    rng = random.Random(8)
    out = []
    for _ in range(12):
        n, q = rng.choice([(2, 4), (3, 3), (4, 2), (4, 3)])
        grid = list(itertools.product(range(q), repeat=n))
        v = PointSet(n, q, rng.sample(grid, rng.randint(1, min(20, len(grid)))))
        gb, sm = vanishing_basis(v, order)
        values = {p: Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for p in v}
        out.append(
            [
                [render_poly(g, order) for g in gb],
                [list(m.exponents) for m in sm],
                render_poly(interpolate(v, values, order), order),
            ]
        )
    for n, d, q in [(3, 1, 3), (4, 2, 3), (4, 2, 4), (5, 3, 2), (5, 2, 3)]:
        out.append([list(m.exponents) for m in sm_hamming_sphere(n, d, q, order)])
    for family, q in seeded_families(8, 12):
        out.append([list(m.exponents) for m in sm_blowup(family, q, order)])
        out.append([render_poly(g, order) for g in blowup_basis(family, q, order)])
    return out


def ordered_digest(blowup_basis):
    payload = json.dumps([ordered_outputs(order, blowup_basis) for order in (DEGLEX, LEX)])
    return hashlib.sha256(payload.encode()).hexdigest()


class TestOrderedOutputs:
    def test_outputs_and_their_order_are_pinned(self):
        # re-pinned when gb_blowup came to keep only the first generator of
        # each minimal lead; every list, its order included, must stay as it is
        assert ordered_digest(gb_blowup) == "26bff12907b106e592fe1a361298572d95e0d40a28e1c191b70cd1dadf516901"

    def test_union_reproduces_the_earlier_pin(self):
        # computed before the engine and the closed forms took their walk in
        # term order from the shared down-set walker, with the whole union
        # as the blow-up basis
        assert ordered_digest(union_gb_blowup) == (
            "a0066919341eea6e15e88049b82131b02d9269878a65d0c8d85409a1bbb5bace"
        )

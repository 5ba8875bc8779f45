"""Exact polynomial arithmetic, term orders, lifts and text round trips."""

import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import shatterbasis.polyring as polyring
from shatterbasis.ideals import vanishing_basis
from shatterbasis.polyring import (
    Monomial,
    Polynomial,
    TermOrder,
    binary_lift,
    field_polynomial,
    indicator_polynomial,
    leading_coefficient,
    leading_monomial,
    normal_form,
    parse_polynomial,
    render_monomial,
    render_polynomial,
)
from shatterbasis.tuples import PointSet

DEGLEX = TermOrder.DEGLEX
LEX = TermOrder.LEX


def mono(*exponents):
    return Monomial(tuple(exponents))


def poly(n, terms):
    return Polynomial(n, {mono(*e): Fraction(c) for e, c in terms.items()})


@st.composite
def polynomials(draw, n=3, max_exp=3, max_terms=4):
    terms = draw(
        st.dictionaries(
            st.tuples(*[st.integers(0, max_exp)] * n),
            st.fractions(min_value=-5, max_value=5).filter(bool),
            min_size=0,
            max_size=max_terms,
        )
    )
    return Polynomial(n, {Monomial(e): c for e, c in terms.items()})


class TestMonomial:
    def test_basics(self):
        m = mono(2, 0, 1)
        assert m.degree() == 3
        assert m.n == 3
        assert render_monomial(m) == "x1^2*x3"
        assert render_monomial(Monomial.unit(2)) == "1"

    def test_divides_and_quotient(self):
        assert mono(1, 0).divides(mono(2, 1))
        assert not mono(2, 1).divides(mono(1, 1))
        assert mono(2, 1).quotient(mono(1, 0)) == mono(1, 1)
        with pytest.raises(ValueError):
            mono(2, 0).quotient(mono(0, 1))

    def test_mul_power(self):
        assert mono(1, 2) * mono(0, 1) == mono(1, 3)
        assert mono(1, 2).power(2) == mono(2, 4)
        assert Monomial.squarefree([1, 3], 3) == mono(1, 0, 1)
        assert Monomial.variable(2, 3) == mono(0, 1, 0)

    def test_squarefree_refuses_non_integral_coordinates(self):
        for cs in ([1.5], [1, Fraction(5, 2)], ["1"]):
            with pytest.raises(ValueError, match="are not all integers"):
                Monomial.squarefree(cs, 3)
        assert Monomial.squarefree([1.0, Fraction(3)], 3) == mono(1, 0, 1)

    def test_evaluate(self):
        assert mono(2, 1).evaluate((3, 2)) == 18
        assert Monomial.unit(2).evaluate((5, 7)) == 1


class TestTermOrder:
    def test_variable_precedence(self):
        # x_2 comes before x_1 in both orders
        assert DEGLEX.compare(mono(0, 1), mono(1, 0)) == -1
        assert LEX.compare(mono(0, 1), mono(1, 0)) == -1

    def test_degree_dominates_in_deglex(self):
        assert DEGLEX.compare(mono(1, 0), mono(0, 2)) == -1

    def test_lex_ignores_degree(self):
        assert LEX.compare(mono(1, 0), mono(0, 2)) == 1

    def test_unit_is_minimum(self):
        unit = Monomial.unit(2)
        for e in itertools.product(range(3), repeat=2):
            if sum(e):
                assert DEGLEX.compare(unit, Monomial(e)) == -1
                assert LEX.compare(unit, Monomial(e)) == -1

    def test_total_multiplicative_order(self):
        # exhaustive: all monomials of degree <= 4 in 3 variables
        monomials = [
            Monomial(e)
            for e in itertools.product(range(5), repeat=3)
            if sum(e) <= 4
        ]
        for order in (DEGLEX, LEX):
            keys = {m: order.key(m) for m in monomials}
            assert len(set(keys.values())) == len(monomials)  # antisymmetry
            a, b, c = mono(1, 0, 2), mono(0, 2, 1), mono(2, 1, 1)
            for x in monomials[:12]:
                for y in monomials[:12]:
                    if keys[x] < keys[y]:
                        assert order.key(x * c) < order.key(y * c)  # multiplicative

    @given(polynomials(n=2), polynomials(n=2))
    def test_leading_monomial_of_product(self, f, g):
        if f.is_zero() or g.is_zero():
            return
        for order in (DEGLEX, LEX):
            assert leading_monomial(f * g, order) == leading_monomial(
                f, order
            ) * leading_monomial(g, order)


class TestPolynomialArithmetic:
    def test_construction_drops_zero_coefficients(self):
        f = poly(2, {(1, 0): 1, (0, 1): 0})
        assert f.monomials() == [mono(1, 0)]

    def test_construction_sums_repeated_monomials(self):
        half = Fraction(1, 2)
        pairs = [(mono(1, 0), half), (mono(0, 1), 2), (mono(1, 0), 3), (mono(0, 1), -2)]
        pairs.append((mono(0, 0), True))
        f = Polynomial(2, pairs)
        assert dict(f.items()) == {mono(1, 0): Fraction(7, 2), mono(0, 0): Fraction(1)}
        assert all(type(c) is Fraction for _, c in f.items())
        with pytest.raises(ValueError):
            Polynomial(2, [(mono(1, 0), 1), (mono(1, 0, 0), 1)])

    def test_add_sub_mul(self):
        x1, x2 = Polynomial.variable(1, 2), Polynomial.variable(2, 2)
        f = (x1 + x2) * (x1 - x2)
        assert f == x1 * x1 - x2 * x2
        assert (f - f).is_zero()
        assert (x1 + 1) * (x1 - 1) == x1**2 - 1

    def test_scalar_ops(self):
        x1 = Polynomial.variable(1, 1)
        assert Fraction(1, 2) * (2 * x1) == x1
        assert (x1 + x1) == 2 * x1
        assert 1 - x1 == -(x1 - 1)

    def test_evaluate_exact(self):
        f = poly(2, {(2, 0): Fraction(-1, 2), (1, 0): Fraction(3, 2)})
        assert f.evaluate((1, 0)) == 1
        assert f.evaluate((2, 0)) == 1
        assert f.evaluate((0, 0)) == 0
        assert f.evaluate((Fraction(1, 3), 0)) == Fraction(-1, 18) + Fraction(1, 2)

    def test_zero_degree(self):
        assert Polynomial.zero(2).degree() == -1
        assert Polynomial.constant(5, 2).degree() == 0

    @given(polynomials(), polynomials(), polynomials())
    @settings(max_examples=60)
    def test_ring_axioms(self, f, g, h):
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) * h == f * h + g * h
        assert f + Polynomial.zero(3) == f

    @given(polynomials(n=2), st.tuples(st.integers(-3, 3), st.integers(-3, 3)))
    @settings(max_examples=60)
    def test_evaluation_is_ring_homomorphism(self, f, point):
        g = f * f - 3 * f + 1
        value = f.evaluate(point)
        assert g.evaluate(point) == value * value - 3 * value + 1


class TestLeadingMonomial:
    def test_single_variable(self):
        f = poly(1, {(2,): 1, (1,): -1})
        assert leading_monomial(f, DEGLEX) == mono(2)
        assert leading_monomial(f, LEX) == mono(2)

    def test_degree_one_tie_prefers_low_index(self):
        f = poly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): -1})
        assert leading_monomial(f, DEGLEX) == mono(1, 0, 0)

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ValueError):
            leading_monomial(Polynomial.zero(2), DEGLEX)

    def test_leading_coefficient(self):
        f = poly(1, {(2,): Fraction(-1, 2), (1,): 3})
        assert leading_coefficient(f, DEGLEX) == Fraction(-1, 2)


class TestNormalForm:
    def test_single_step(self):
        f = poly(1, {(2,): 1})
        g = poly(1, {(2,): 1, (1,): -1})
        assert normal_form(f, [g], DEGLEX) == poly(1, {(1,): 1})

    def test_basis_member_reduces_to_zero(self):
        gens = [field_polynomial(i, 3, 2) for i in (1, 2)]
        for g in gens:
            assert normal_form(g, gens, DEGLEX).is_zero()

    def test_untouched_when_no_divisor(self):
        f = poly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1, (0, 0, 0): -1})
        squares = [poly(3, {tuple(2 if j == i else 0 for j in range(3)): 1,
                            tuple(1 if j == i else 0 for j in range(3)): -1})
                   for i in range(3)]
        assert normal_form(f, squares, DEGLEX) == f

    @given(polynomials(n=2, max_exp=4))
    @settings(max_examples=40)
    def test_idempotent_and_vanishing_difference(self, f):
        gens = [field_polynomial(i, 2, 2) for i in (1, 2)]
        r = normal_form(f, gens, DEGLEX)
        assert normal_form(r, gens, DEGLEX) == r
        # f - r vanishes at every common zero of the basis
        for point in itertools.product(range(2), repeat=2):
            assert f.evaluate(point) == r.evaluate(point)

    @given(polynomials(n=2, max_exp=4), polynomials(n=2, max_exp=4))
    @settings(max_examples=40)
    def test_linearity(self, f, g):
        gens = [field_polynomial(i, 2, 2) for i in (1, 2)]
        left = normal_form(2 * f - 3 * g, gens, DEGLEX)
        right = 2 * normal_form(f, gens, DEGLEX) - 3 * normal_form(g, gens, DEGLEX)
        assert left == right


class TestFieldAndIndicator:
    def test_field_polynomial_q2(self):
        assert field_polynomial(1, 2, 1) == poly(1, {(2,): 1, (1,): -1})

    def test_field_polynomial_q3(self):
        f = field_polynomial(2, 3, 2)
        assert f == poly(2, {(0, 3): 1, (0, 2): -3, (0, 1): 2})

    def test_field_polynomial_vanishes_on_alphabet(self):
        for q in range(2, 6):
            f = field_polynomial(1, q, 1)
            assert all(f.evaluate((j,)) == 0 for j in range(q))
            assert leading_monomial(f, DEGLEX) == mono(q)

    def test_indicator_q2_is_identity(self):
        assert indicator_polynomial(2) == poly(1, {(1,): 1})

    def test_indicator_q3(self):
        p = indicator_polynomial(3)
        assert p == poly(1, {(1,): Fraction(3, 2), (2,): Fraction(-1, 2)})

    def test_indicator_values(self):
        for q in range(2, 7):
            p = indicator_polynomial(q)
            assert p.degree() == q - 1
            assert p.evaluate((0,)) == 0
            assert all(p.evaluate((j,)) == 1 for j in range(1, q))
        with pytest.raises(ValueError):
            indicator_polynomial(1)

    def test_root_product_matches_the_linear_factors(self):
        rng = random.Random(8)
        x = Polynomial.variable(1, 1)
        for _ in range(200):
            roots = [rng.randint(-4, 6) for _ in range(rng.randint(0, 7))]
            prod = Polynomial.constant(1, 1)
            for r in roots:
                prod = prod * (x - r)
            assert polyring._root_product(roots) == [prod.coefficient(mono(k)) for k in range(len(roots) + 1)]

    def test_indicator_values_for_larger_alphabets(self):
        for q in range(7, 12):
            p = indicator_polynomial(q)
            assert leading_monomial(p, DEGLEX) == mono(q - 1)
            assert [p.evaluate((j,)) for j in range(q)] == [0] + [1] * (q - 1)


class TestBinaryLift:
    def test_constant(self):
        one = Polynomial.constant(1, 2)
        assert binary_lift(one, 3) == one

    def test_single_variable_q3(self):
        lifted = binary_lift(Polynomial.variable(1, 2), 3)
        assert lifted == poly(2, {(1, 0): Fraction(3, 2), (2, 0): Fraction(-1, 2)})

    def test_q2_is_identity(self):
        f = poly(2, {(1, 1): 1})
        assert binary_lift(f, 2) == f

    def test_values_factor_through_support(self):
        # lifted g at v equals g at the 0/1 support pattern of v
        g = poly(2, {(1, 1): 2, (1, 0): -1, (0, 0): 3})
        lifted = binary_lift(g, 4)
        for point in itertools.product(range(4), repeat=2):
            binary = tuple(1 if c else 0 for c in point)
            assert lifted.evaluate(point) == g.evaluate(binary)

    @given(polynomials(n=2, max_exp=2), st.integers(2, 4))
    @settings(max_examples=40)
    def test_lift_powers_leading_monomial(self, g, q):
        if g.is_zero():
            return
        lifted = binary_lift(g, q)
        for order in (DEGLEX, LEX):
            assert leading_monomial(lifted, order) == leading_monomial(g, order).power(
                q - 1
            )


def embedding_binary_lift(g, q):
    """``binary_lift`` as it was first written: the indicator re-embedded
    in x_i and its powers rebuilt with ``Polynomial`` products, per call."""
    p = indicator_polynomial(q)
    n = g.n

    def embed(i):
        terms = {}
        for um, c in p.items():
            e = um.exponents[0]
            terms[Monomial(tuple(e if k == i - 1 else 0 for k in range(n)))] = c
        return Polynomial(n, terms)

    powers = {}

    def embedded_power(i, e):
        cache = powers.setdefault(i, [Polynomial.constant(1, n), embed(i)])
        while len(cache) <= e:
            cache.append(cache[-1] * cache[1])
        return cache[e]

    out = Polynomial.zero(n)
    for m, c in g.items():
        term = Polynomial.constant(c, n)
        for i, e in enumerate(m.exponents, start=1):
            if e:
                term = term * embedded_power(i, e)
        out = out + term
    return out


class TestBinaryLiftAgainstEmbedding:
    def test_seeded_binary_bases(self):
        rng = random.Random(31)
        seen = 0
        for _ in range(30):
            n = rng.randint(1, 4)
            grid = list(itertools.product(range(2), repeat=n))
            v = PointSet(n, 2, rng.sample(grid, rng.randint(1, len(grid))))
            gb, _ = vanishing_basis(v, rng.choice([DEGLEX, LEX]))
            for g in gb:
                for q in range(2, 6):
                    assert binary_lift(g, q) == embedding_binary_lift(g, q)
                    seen += 1
        assert seen > 300

    def test_higher_powers_and_rational_coefficients(self):
        g = poly(
            3, {(3, 0, 2): Fraction(-2, 3), (0, 4, 0): 5, (1, 1, 1): Fraction(7, 2), (0, 0, 0): 1}
        )
        for q in range(2, 6):
            assert binary_lift(g, q) == embedding_binary_lift(g, q)

    def test_power_cache_is_bounded(self):
        polyring._indicator_power.cache_clear()
        try:
            for q in range(2, 12):
                for e in range(8):
                    binary_lift(poly(1, {(e,): 1}), q)
            info = polyring._indicator_power.cache_info()
            assert info.maxsize == polyring._INDICATOR_CACHE_CAP
            assert info.currsize == polyring._INDICATOR_CACHE_CAP
        finally:
            polyring._indicator_power.cache_clear()


class TestRenderParse:
    def test_render_matches_documented_format(self):
        f = poly(1, {(2,): Fraction(-1, 2), (1,): Fraction(3, 2)})
        assert render_polynomial(f, DEGLEX) == "-1/2*x1^2 + 3/2*x1"

    def test_render_zero_and_one(self):
        assert render_polynomial(Polynomial.zero(2), DEGLEX) == "0"
        assert render_polynomial(Polynomial.constant(1, 2), DEGLEX) == "1"

    def test_render_descending_terms(self):
        f = poly(2, {(0, 0): 2, (1, 1): 1, (0, 2): 1, (1, 0): -3})
        assert render_polynomial(f, DEGLEX) == "x1*x2 + x2^2 - 3*x1 + 2"

    def test_parse_examples(self):
        assert parse_polynomial("x1^2*x3", 3) == poly(3, {(2, 0, 1): 1})
        assert parse_polynomial("-1/2*x1^2 + 3/2*x1", 1) == poly(
            1, {(2,): Fraction(-1, 2), (1,): Fraction(3, 2)}
        )
        assert parse_polynomial("0", 2).is_zero()

    def test_parse_rejects_bad_input(self):
        with pytest.raises(ValueError):
            parse_polynomial("x4", 3)
        with pytest.raises(ValueError):
            parse_polynomial("x1 +", 2)
        with pytest.raises(ValueError):
            parse_polynomial("x0", 2)

    @given(polynomials(n=3))
    @settings(max_examples=80)
    def test_round_trip(self, f):
        for order in (DEGLEX, LEX):
            assert parse_polynomial(render_polynomial(f, order), 3) == f

    def test_malformed_text_raises_value_error(self):
        # a power or fraction cut off at its operator, and a dangling "*"
        for text in ("x1^", "2/", "3 /", "x1*", "x1 * ", "x1*-x2", "1/2/3"):
            with pytest.raises(ValueError, match="cannot parse polynomial near"):
                parse_polynomial(text, 2)

    def test_kept_error_texts(self):
        for text, message in (
            ("", "empty polynomial text"),
            (" \t ", "empty polynomial text"),
            ("x1 + 2*x3^2", "variable x3 out of range for dimension 2"),
            ("x00", "variable x00 out of range for dimension 2"),
            ("1/0*x1", "bad denominator '0'"),
        ):
            with pytest.raises(ValueError, match=message):
                parse_polynomial(text, 2)

    def test_error_names_the_position(self):
        with pytest.raises(ValueError, match=r"near '\$' \(character 8\)"):
            parse_polynomial("x1 + x2 $", 2)
        with pytest.raises(ValueError, match=r"near 'x2' \(character 3\)"):
            parse_polynomial("x1 x2", 2)
        with pytest.raises(ValueError, match=r"near '\^' \(character 2\)"):
            parse_polynomial("x1^", 2)

    def test_whitespace_before_any_token(self):
        f = parse_polynomial("  -\t3 / 4 * x1 ^ 2*x2  +x2 - 1/2 ", 2)
        assert f == poly(2, {(2, 1): Fraction(-3, 4), (0, 1): 1, (0, 0): Fraction(-1, 2)})

    def test_long_whitespace_fails_fast(self):
        # a failed term match backtracks over whitespace in linear time
        with pytest.raises(ValueError):
            parse_polynomial(" " * 200_000 + "$", 2)
        with pytest.raises(ValueError):
            parse_polynomial("x1" + " " * 200_000 + "*", 2)

    def test_matches_the_reference_parser(self):
        """Random token strings: the same polynomial, or ValueError from both,
        except where the reference fails (IndexError on text cut off at "^"
        or "/") or accepts a dangling "*"; the parser refuses both."""
        tokens = ["+", "-", "*", "/", "^", "x0", "x1", "x2", "x3", "x4", "x01", "0", "1", "2",
                  "3", "12", "007", " ", "  ", "\t", "\u00a0", "$", "y", "x", "\u0663"]
        rng = random.Random(22)
        seen = {"equal": 0, "both refuse": 0, "cut off": 0, "dangling *": 0}
        for _ in range(20_000):
            text = "".join(rng.choice(tokens) for _ in range(rng.randint(0, 9)))
            try:
                expected = reference_parse_polynomial(text, 3)
            except IndexError:
                expected = IndexError
            except ValueError:
                expected = ValueError
            try:
                got = parse_polynomial(text, 3)
            except ValueError:
                got = ValueError
            if expected is IndexError:
                assert got is ValueError, text
                seen["cut off"] += 1
            elif got is ValueError and expected is not ValueError:
                assert text.rstrip().endswith("*"), text
                seen["dangling *"] += 1
            else:
                assert got == expected, text
                seen["both refuse" if got is ValueError else "equal"] += 1
        assert min(seen.values()) >= 50, seen


def reference_parse_polynomial(text, n):
    """The token-and-closure parser the library used before its term pattern,
    kept as a reference.  It raises IndexError on text cut off at "^" or "/"
    and accepts a dangling "*"."""
    tokens = []
    pos = 0
    while pos < len(text):
        match = re.compile(r"\s*(?:(x\d+)|(\d+)|(\^)|(\*)|(/)|(\+)|(-))").match(text, pos)
        if not match:
            if text[pos:].strip():
                raise ValueError(f"cannot parse polynomial near {text[pos:pos + 10]!r}")
            break
        tokens.append(match.group(match.lastindex))
        pos = match.end()
    if not tokens:
        raise ValueError("empty polynomial text")
    pos = 0
    terms = []

    def peek():
        return tokens[pos] if pos < len(tokens) else None

    def take():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        return tok

    def parse_number():
        tok = take()
        if not tok.isdigit():
            raise ValueError(f"expected a number, got {tok!r}")
        value = Fraction(int(tok))
        if peek() == "/":
            take()
            den = take()
            if not den.isdigit() or int(den) == 0:
                raise ValueError(f"bad denominator {den!r}")
            value /= int(den)
        return value

    def parse_term(sign):
        coeff = Fraction(sign)
        expo = [0] * n
        saw_factor = False
        while True:
            tok = peek()
            if tok is None:
                break
            if tok.isdigit():
                coeff *= parse_number()
            elif tok.startswith("x"):
                take()
                idx = int(tok[1:])
                if not 1 <= idx <= n:
                    raise ValueError(f"variable {tok} out of range for dimension {n}")
                e = 1
                if peek() == "^":
                    take()
                    etok = take()
                    if not etok.isdigit():
                        raise ValueError(f"bad exponent {etok!r}")
                    e = int(etok)
                expo[idx - 1] += e
            else:
                raise ValueError(f"unexpected token {tok!r}")
            saw_factor = True
            if peek() == "*":
                take()
                continue
            break
        if not saw_factor:
            raise ValueError("empty term in polynomial text")
        return Monomial(tuple(expo)), coeff

    sign = 1
    if peek() in {"+", "-"}:
        sign = -1 if take() == "-" else 1
    terms.append(parse_term(sign))
    while peek() is not None:
        tok = take()
        if tok == "+":
            sign = 1
        elif tok == "-":
            sign = -1
        else:
            raise ValueError(f"expected '+' or '-', got {tok!r}")
        terms.append(parse_term(sign))
    return Polynomial(n, terms)

"""Vanishing ideals of finite point sets: Groebner bases by evaluation.

For a finite nonempty set V inside {0,...,q-1}^n the vanishing ideal
I(V) in Q[x1,...,xn] has a finite normal set: the standard monomials,
those not divisible by the leading monomial of any ideal element.  The
number of standard monomials always equals |V|.

The construction walks the normal set with ``tuples.down_set`` in the
term order, skipping multiples of the leading monomials found so far.  A
candidate whose evaluation vector on V is independent of the ones found
so far is standard; a dependent candidate yields a monic generator whose
tail is supported on the standard monomials below it.  The generators
collected this way form the reduced Groebner basis of I(V).

All linear algebra is exact.  A row is one primitive integer list: a
vector on V followed by the integer weights that combine the evaluation
vectors of the standard monomials found so far into that vector.  After
each elimination step one gcd over the whole list strips its content; a
division by a positive integer changes neither the row's span nor its
signs, so vector and weights stay in step.  The rational generator
coefficients come from one exact division at the end.  ``interpolate``
shares this kernel: it reduces the integer-scaled value vector, with a
tail of its own, against the same rows, and its coefficients come from
the same single exact division.

Evaluation on V is integer-only as well.  An evaluation table builds each
monomial's vector on V once, as a parent's vector times a power of one
coordinate column; the engine's candidates take their vectors from it,
and checking that polynomials vanish on V scales each one by the lcm of
its denominators and takes integer dot products with those vectors.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .polyring import (
    Monomial,
    Polynomial,
    TermOrder,
    leading_monomial,
)
from .tuples import EmptyPointSetError, Point, PointSet, down_set

__all__ = [
    "GroebnerBasis",
    "StandardMonomialSet",
    "vanishing_basis",
    "interpolate",
    "certify_groebner",
    "non_shatter_certificate",
]


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis, generators sorted by increasing leading
    monomial."""

    order: TermOrder
    generators: tuple[Polynomial, ...]

    def __len__(self) -> int:
        return len(self.generators)

    def __iter__(self) -> Iterator[Polynomial]:
        return iter(self.generators)

    def leading_monomials(self) -> tuple[Monomial, ...]:
        return tuple(leading_monomial(g, self.order) for g in self.generators)


@dataclass(frozen=True)
class StandardMonomialSet:
    """The normal set of an ideal, sorted ascending in its order."""

    order: TermOrder
    monomials: tuple[Monomial, ...]

    def __len__(self) -> int:
        return len(self.monomials)

    def __iter__(self) -> Iterator[Monomial]:
        return iter(self.monomials)

    def __contains__(self, m: object) -> bool:
        return m in self.monomials

    def as_set(self) -> frozenset[Monomial]:
        return frozenset(self.monomials)

    def exponent_vectors(self) -> frozenset[Point]:
        return frozenset(m.exponents for m in self.monomials)


class _EvaluationTable:
    """Integer evaluation vectors of monomials on the points of V, in V's
    order, keyed by exponent tuple.

    A monomial's vector is built once and kept: its parent (the monomial
    with its last nonzero exponent e_i set to 0) times column i raised to
    e_i.  Chains are at most n long and a large exponent costs one power
    column, not one vector per unit of degree.  Vectors are shared, so
    callers must not mutate them.
    """

    __slots__ = ("_points", "_powers", "_vectors")

    def __init__(self, v: PointSet) -> None:
        self._points = v.points
        self._powers: dict[tuple[int, int], list[int]] = {}
        self._vectors: dict[Point, list[int]] = {(0,) * v.n: [1] * len(v)}

    def vector(self, expo: Point) -> list[int]:
        vectors = self._vectors
        missing = []
        while expo not in vectors:
            i = max(k for k, e in enumerate(expo) if e)
            missing.append((expo, i))
            expo = expo[:i] + (0,) * (len(expo) - i)
        vec = vectors[expo]
        for expo, i in reversed(missing):
            vec = vectors[expo] = [a * b for a, b in zip(vec, self._power(i, expo[i]))]
        return vec

    def _power(self, i: int, e: int) -> list[int]:
        column = self._powers.get((i, e))
        if column is None:
            column = self._powers[(i, e)] = [p[i] ** e for p in self._points]
        return column


def _first_nonzero(polys: Sequence[Polynomial], v: PointSet) -> tuple[int, Point] | None:
    """The index of the first polynomial that does not vanish on V, with
    its first point of V (in V's order) where it is nonzero; None when
    every polynomial vanishes on V.

    No Fraction is evaluated: each polynomial is scaled by the lcm of its
    denominators, and its value at a point is the integer dot product of
    the scaled coefficients with the monomials' evaluation vectors, taken
    from one table built for this call.
    """
    table = _EvaluationTable(v)
    for k, g in enumerate(polys):
        terms = list(g.items())
        if not terms:
            continue
        scale = math.lcm(*(c.denominator for _, c in terms))
        weights = [c.numerator * (scale // c.denominator) for _, c in terms]
        vectors = [table.vector(m.exponents) for m, _ in terms]
        for p, values in zip(v.points, zip(*vectors)):
            if sum(map(operator.mul, weights, values)):
                return k, p
    return None


def _divides(a: Point, b: Point) -> bool:
    return all(map(operator.le, a, b))


def _reduce_against(row: list[int], rows: list[tuple[int, list[int]]]) -> list[int]:
    # Every row is zero at the pivots of all rows inserted before it, so a
    # single pass in insertion order clears every pivot position for good.
    # A candidate is at least as long as every row, so its entries past a
    # row's end are only scaled.
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


def _eliminate(
    v: PointSet, order: TermOrder
) -> tuple[list[Monomial], list[tuple[int, list[int]]], list[Polynomial]]:
    """The elimination kernel for a nonempty V: the standard monomials,
    their rows and the reduced Groebner basis generators.

    Row k is (pivot, row), and row is one primitive integer list: its first
    |V| entries are a vector on V, and entry |V| + j is the weight of the
    j-th standard monomial (j <= k) in the combination of evaluation
    vectors that sums to that vector.  The row is zero at the pivots of
    the rows before it.  A candidate enters as its evaluation vector, k
    zeros and a weight of 1 for itself; if it reduces to a zero vector,
    its tail, divided by its own weight, is the generator's tail.

    The candidates come from ``down_set`` in the order; its membership test
    records a row (a standard monomial, which the walk grows) or a generator.
    """
    n, size = v.n, len(v)
    table = _EvaluationTable(v)
    standard: list[Monomial] = []
    rows: list[tuple[int, list[int]]] = []
    generators: list[Polynomial] = []
    leads: list[Point] = []

    def independent(expo: Point) -> bool:
        if any(_divides(lead, expo) for lead in leads):
            return False
        m = Monomial(expo)
        # expo's parent in the table divides it, so it is standard and already built
        row = _reduce_against(table.vector(expo) + [0] * len(standard) + [1], rows)
        pivot = next((i for i in range(size) if row[i]), None)
        if pivot is None:
            terms = {s: Fraction(c, row[-1]) for s, c in zip(standard, row[size:]) if c}
            terms[m] = Fraction(1)
            generators.append(Polynomial(n, terms))
            leads.append(expo)
            return False
        rows.append((pivot, row))
        standard.append(m)
        return True

    found = sum(1 for _ in down_set(n, independent, key=order._key))
    if found != size:
        raise RuntimeError(f"engine error: found {found} standard monomials for {size} points")
    return standard, rows, generators


def vanishing_basis(
    v: PointSet, order: TermOrder = TermOrder.DEGLEX
) -> tuple[GroebnerBasis, StandardMonomialSet]:
    """Reduced Groebner basis and standard monomials of I(V).

    Candidates are visited in increasing order, skipping multiples of the
    leading monomials already found, so the standard monomials come out
    as exactly the |V| order-minimal monomials with independent
    evaluation vectors.
    """
    if not len(v):
        raise EmptyPointSetError("the vanishing ideal of the empty set is the whole ring")
    standard, _, generators = _eliminate(v, order)
    return (
        GroebnerBasis(order, tuple(generators)),
        StandardMonomialSet(order, tuple(standard)),
    )


def interpolate(
    v: PointSet,
    values: Mapping[Point, int | Fraction],
    order: TermOrder = TermOrder.DEGLEX,
) -> Polynomial:
    """The unique polynomial supported on the standard monomials of I(V)
    taking the prescribed value at every point of V."""
    if not len(v):
        raise EmptyPointSetError("cannot interpolate over the empty set")
    keys = {tuple(k) for k in values}
    if keys != set(v.points):
        missing = sorted(set(v.points) - keys)
        extra = sorted(keys - set(v.points))
        raise ValueError(f"values must cover V exactly (missing {missing}, extra {extra})")

    standard, rows, _ = _eliminate(v, order)
    target = [Fraction(values[p]) for p in v.points]
    scale = math.lcm(*(y.denominator for y in target))
    # The |V| rows have |V| distinct pivots, so the reduction clears the
    # scaled values entirely: w * scale * y + sum_k tail[k] * eval(m_k) = 0,
    # with w the weight in the row's last entry.
    row = _reduce_against([int(y * scale) for y in target] + [0] * len(v) + [1], rows)
    alpha = row[-1] * scale
    return Polynomial(v.n, {s: Fraction(-c, alpha) for s, c in zip(standard, row[len(v) :]) if c})


def certify_groebner(v: PointSet, basis: Sequence[Polynomial], order: TermOrder) -> bool:
    """Certify that a list of polynomials is a Groebner basis of I(V).

    The test is the standard counting argument: every element must vanish
    on V (checked in integers, after clearing denominators), and exactly
    |V| monomials must be divisible by no leading monomial.  Those form a
    down-set, grown from 1 and counted only up to |V| + 1, so an infinite
    or too large normal set stops the count early.  Accepts reduced and
    non-reduced bases alike.
    """
    n = v.n
    for g in basis:
        if g.n != n:
            raise ValueError(f"dimension mismatch: {g.n} vs {n}")
    if _first_nonzero(basis, v) is not None:
        return False
    # Only the minimal leads matter: sorted by degree, a lead comes after
    # every lead that divides it, and is dropped when one of them does.
    leads: list[Point] = []
    for lead in sorted({leading_monomial(g, order).exponents for g in basis if g}, key=sum):
        if not any(_divides(m, lead) for m in leads):
            leads.append(lead)

    def free(u: Point) -> bool:
        return not any(_divides(lead, u) for lead in leads)

    free_count = sum(1 for _ in itertools.islice(down_set(n, free), len(v) + 1))
    return free_count == len(v)


def non_shatter_certificate(v: PointSet, coords: Iterable[int], witness: Sequence[int]) -> Polynomial:
    """A polynomial vanishing on V whose leading monomial is the full power
    product over the given coordinates.

    The witness is a pattern no point of V matches on the coordinates; for
    each coordinate j the factor is the product of (x_j - i) over all
    alphabet values i except the witness value, so the product vanishes
    wherever any coordinate avoids the witness value, which is everywhere
    on V.  Its leading monomial under any admissible order is
    prod_j x_j^(q-1).
    """
    n, q = v.n, v.q
    cs = sorted(set(int(c) for c in coords))
    if any(not 1 <= c <= n for c in cs):
        raise ValueError(f"coordinates {cs} out of range 1..{n}")
    if len(witness) != n:
        raise ValueError(f"witness has length {len(witness)}, expected {n}")
    if any(not 0 <= w < q for w in witness):
        raise ValueError(f"witness {tuple(witness)} has coordinates outside 0..{q - 1}")
    for p in v:
        if all(p[c - 1] == witness[c - 1] for c in cs):
            raise ValueError(
                f"witness {tuple(witness)} matches point {p} on coordinates {cs}"
            )

    out = Polynomial.constant(1, n)
    for c in cs:
        x = Polynomial.variable(c, n)
        for i in range(q):
            if i != witness[c - 1]:
                out = out * (x - i)
    return out

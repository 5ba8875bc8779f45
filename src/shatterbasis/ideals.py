"""Vanishing ideals of finite point sets: Groebner bases by evaluation.

For a finite nonempty set V inside {0,...,q-1}^n the vanishing ideal
I(V) in Q[x1,...,xn] has a finite normal set: the standard monomials,
those not divisible by the leading monomial of any ideal element.  The
number of standard monomials always equals |V|.

The construction walks the normal set with ``tuples.down_set`` in the
term order, closed: a candidate is tested once all its divisors are
standard.  One whose evaluation vector on V is independent of the ones
found so far is standard; a dependent one yields a monic generator whose
tail is supported on the standard monomials below it.  The generators
collected this way form the reduced Groebner basis of I(V).

Callers that read only the normal set skip the basis:
``standard_monomials`` keeps no combination weights in deglex, and in lex
needs no linear algebra at all (the Cerlienco-Mureddu recursion).

Every evaluation on V runs over one column order, V's points in colex
order (x_n most significant, ``_columns``).  A row pivots on its first
nonzero live column and a step is skipped where the candidate's pivot
entry is zero; in colex order every fibre that the lex recursion splits
on (the points sharing their last coordinates) is one contiguous block of
columns, so pivots fall fibre by fibre.  Against V's own (lex) order more
steps are skipped and the rows stay sparser, with smaller entries,
chiefly in deglex.  No output depends on the column order; only the time
does.

All linear algebra is exact.  A row is one primitive list of |V| + 1
integers: a vector on V, less the pivot columns of the rows before it
(where it is zero), followed by the integer weights that combine the
evaluation vectors of the standard monomials found so far into that
vector.  ``_reduce_against`` returns ``(residual, w)``: it keeps a
candidate's own weight w as a scalar, deletes each pivot column once the
step has cleared it, and strips the content of the residual and w with
one gcd per step; a division by a positive integer changes neither span
nor signs.  The rational generator coefficients come from one exact
division at the end, in ``vanishing_basis`` alone.  ``interpolate``
shares this kernel: reduced against all |V| rows, its value vector leaves
only weights, divided once the same way.  Rows kept without weights hold
only their live entries; ``_reduce_against`` combines them unchanged,
since ``zip`` drops the weight positions.

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
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

from .polyring import (
    Monomial,
    Polynomial,
    TermOrder,
    _root_product,
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


def _columns(v: PointSet) -> list[Point]:
    """V's points in colex order (x_n most significant): the engine's
    columns.  Every fibre the lex recursion splits on, the points sharing
    their last coordinates, is then one contiguous block of columns."""
    return sorted(v.points, key=lambda p: p[::-1])


class _EvaluationTable:
    """Integer evaluation vectors of monomials on V's columns ``points``
    (``_columns(v)``, the one evaluation order), keyed by exponent tuple.

    A monomial's vector is built once and kept: its parent (the monomial
    with its last nonzero exponent e_i set to 0) times column i raised to
    e_i.  Chains are at most n long and a large exponent costs one power
    column, not one vector per unit of degree.  Vectors are shared, so
    callers must not mutate them.
    """

    __slots__ = ("points", "_powers", "_vectors")

    def __init__(self, v: PointSet) -> None:
        self.points = _columns(v)
        self._powers: dict[tuple[int, int], list[int]] = {}
        self._vectors: dict[Point, list[int]] = {(0,) * v.n: [1] * len(self.points)}

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
            column = self._powers[(i, e)] = [p[i] ** e for p in self.points]
        return column


def _first_nonzero(polys: Sequence[Polynomial], v: PointSet) -> tuple[int, Point] | None:
    """The index of the first polynomial that does not vanish on V, with
    its lex-first point of V where it is nonzero (the least such column,
    whatever the column order); None when every polynomial vanishes on V.

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
        nonzero = [p for p, values in zip(table.points, zip(*vectors)) if sum(map(operator.mul, weights, values))]
        if nonzero:
            return k, min(nonzero)
    return None


def _reduce_against(vec: list[int], rows: list[tuple[int, list[int]]]) -> tuple[list[int], int]:
    # Row k holds |V| - k live columns and k + 1 weights.  With a zero weight
    # for row k's monomial the candidate matches it; the step clears the
    # pivot column, which is deleted.  The own weight w is only scaled.
    row, w = list(vec), 1
    for pivot, r in rows:
        row.append(0)
        b = row[pivot]
        if b:
            a = r[pivot]
            g = math.gcd(a, b)
            a, b = (a // g, b // g) if a > 0 else (-a // g, -b // g)
            if a == 1:
                row = [x - b * y for x, y in zip(row, r)]
            else:
                row = [a * x - b * y for x, y in zip(row, r)]
                w *= a
            g = math.gcd(w, *row)
            if g > 1:
                w //= g
                row = [x // g for x in row]
        del row[pivot]
    return row, w


def _eliminate(
    v: PointSet, order: TermOrder, weights: bool = True
) -> tuple[list[Monomial], list[tuple[int, list[int]]], list[tuple[Point, list[int], int]]]:
    """The elimination kernel for a nonempty V: the standard monomials,
    their rows and the data of the reduced Groebner basis generators.

    The columns are ``_columns(v)``, V's points in colex order, so the
    first-nonzero pivots follow the lex fibres and more steps are skipped.

    Row k is (pivot, row), and row is one primitive list of |V| + 1
    integers: a vector on the |V| - k live columns (those columns, in
    order, that are not pivots of rows 0..k-1), then the weights of the
    standard monomials 0..k whose evaluation vectors combine into the full
    vector, which is zero off the live columns.  The pivot indexes the
    live columns.  A candidate reduces to a residual (live entries, then k
    weights) and its own weight w; a zero live part makes a generator,
    recorded as (lead exponents, weights, w), whose tail is weights / w;
    otherwise the row is the residual then w.

    With weights=False a row is only its |V| - k live entries, made
    primitive, and no generator is recorded: the walk finds the normal
    set alone.

    The candidates, all of whose divisors are standard, come from the closed
    ``down_set`` walk in the order; its membership test reduces each to a
    row (a standard monomial, which the walk grows) or a generator.
    """
    n, size = v.n, len(v)
    table = _EvaluationTable(v)
    standard: list[Monomial] = []
    rows: list[tuple[int, list[int]]] = []
    generators: list[tuple[Point, list[int], int]] = []

    def independent(expo: Point) -> bool:
        # expo's parent in the table divides it, so it is standard and already built
        row, w = _reduce_against(table.vector(expo), rows)
        live = size - len(rows)
        pivot = next((i for i in range(live) if row[i]), None)
        if pivot is None:
            if weights:
                generators.append((expo, row[live:], w))
            return False
        if weights:
            row.append(w)
        else:
            # the residual's trailing entries are zero, and w took part in its gcds
            del row[live:]
            g = math.gcd(*row)
            if g > 1:
                row = [x // g for x in row]
        rows.append((pivot, row))
        standard.append(Monomial(expo))
        return True

    found = sum(1 for _ in down_set(n, independent, key=order._key))
    if found != size:
        raise RuntimeError(f"engine error: found {found} standard monomials for {size} points")
    return standard, rows, generators


def _normal_set(v: PointSet, order: TermOrder) -> StandardMonomialSet:
    """The standard monomials of I(V) for a nonempty V from the elimination
    walk, with rows kept without weights, in either order."""
    return StandardMonomialSet(order, tuple(_eliminate(v, order, weights=False)[0]))


def _lex_standard(points: Sequence[Point]) -> list[Point]:
    """The lex standard monomials of the nonempty distinct points, x1 most
    significant, as exponent tuples sorted ascending.

    The Cerlienco-Mureddu recursion (the lex game of Felszeghy, Rath and
    Ronyai): let U_k be the projections of V away from x1 whose fibre has
    more than k points; then SM(V) is the disjoint union over k of
    x1^k * SM(U_k).  Each U_k is nonempty for k below the largest fibre.
    The recursion is unrolled one coordinate at a time, so its depth is not
    bounded by the interpreter's: each level splits every (prefix, points)
    pair in prefix order, which keeps the prefixes ascending.
    """
    level: list[tuple[Point, Sequence[Point]]] = [((), points)]
    for _ in range(len(points[0])):
        split = []
        for prefix, pts in level:
            fibres = Counter(p[1:] for p in pts)
            for k in range(max(fibres.values())):
                split.append(((*prefix, k), [u for u, c in fibres.items() if c > k]))
        level = split
    return [prefix for prefix, _ in level]


def standard_monomials(v: PointSet, order: TermOrder = TermOrder.DEGLEX) -> StandardMonomialSet:
    """The standard monomials of I(V), sorted ascending, without its
    Groebner basis: the Cerlienco-Mureddu recursion in lex, and the
    elimination walk with rows kept without weights in deglex.  They equal
    ``vanishing_basis(v, order)[1]``."""
    if not len(v):
        raise EmptyPointSetError("the vanishing ideal of the empty set is the whole ring")
    if order is TermOrder.LEX:
        return StandardMonomialSet(order, tuple(map(Monomial, _lex_standard(v.points))))
    return _normal_set(v, order)


def vanishing_basis(
    v: PointSet, order: TermOrder = TermOrder.DEGLEX
) -> tuple[GroebnerBasis, StandardMonomialSet]:
    """Reduced Groebner basis and standard monomials of I(V).

    Candidates are visited in increasing order, each once all its divisors
    are standard, so the standard monomials come out as exactly the |V|
    order-minimal monomials with independent evaluation vectors.
    """
    if not len(v):
        raise EmptyPointSetError("the vanishing ideal of the empty set is the whole ring")
    standard, _, tails = _eliminate(v, order)
    generators = []
    for expo, weights, w in tails:
        terms = {s: Fraction(c, w) for s, c in zip(standard, weights) if c}
        terms[Monomial(expo)] = Fraction(1)
        generators.append(Polynomial(v.n, terms))
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
    target = [Fraction(values[p]) for p in _columns(v)]
    scale = math.lcm(*(y.denominator for y in target))
    # The |V| rows leave no live column, so the residual is all weights:
    # w * scale * y + sum_k tail[k] * eval(m_k) = 0.
    tail, w = _reduce_against([int(y * scale) for y in target], rows)
    alpha = w * scale
    return Polynomial(v.n, {s: Fraction(-c, alpha) for s, c in zip(standard, tail) if c})


def certify_groebner(v: PointSet, basis: Sequence[Polynomial], order: TermOrder) -> bool:
    """Certify that a list of polynomials is a Groebner basis of I(V).

    The test is the standard counting argument: every element must vanish
    on V (checked in integers, after clearing denominators), and exactly
    |V| monomials must be divisible by no leading monomial: the closed walk
    from 1 that rejects the leading monomials, counted only up to |V| + 1,
    so an infinite or too large normal set stops the count early.  Accepts
    reduced and non-reduced bases alike.
    """
    n = v.n
    for g in basis:
        if g.n != n:
            raise ValueError(f"dimension mismatch: {g.n} vs {n}")
    if _first_nonzero(basis, v) is not None:
        return False
    leads = {leading_monomial(g, order).exponents for g in basis if g}
    free = down_set(n, lambda u: u not in leads, key=order._key)
    free_count = sum(1 for _ in itertools.islice(free, len(v) + 1))
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
        x = Monomial.variable(c, n)
        roots = (i for i in range(q) if i != witness[c - 1])
        out = out * Polynomial(n, {x.power(k): a for k, a in enumerate(_root_product(roots))})
    return out

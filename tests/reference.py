"""Independent brute-force oracles used to cross-check the package.

Everything here is deliberately written from scratch against the bare
definitions: dense rational Gaussian elimination over explicit evaluation
matrices, direct restriction counting for shattering, naive prefix scans
for the ballot condition.  No code is shared with the package beyond the
raw point tuples, so agreement is meaningful evidence.
"""

from fractions import Fraction
from itertools import combinations, product


def lex_key(exponents):
    return tuple(exponents)


def deglex_key(exponents):
    return (sum(exponents), tuple(exponents))


def box(n, q):
    return sorted(product(range(q), repeat=n))


def eval_monomial(exponents, point):
    value = 1
    for e, c in zip(exponents, point):
        value *= c**e
    return value


def _eliminate(rows, vec):
    """Reduce vec against echelon rows in place; return the reduced vector."""
    vec = list(vec)
    for pivot, row in rows:
        if vec[pivot]:
            factor = vec[pivot] / row[pivot]
            vec = [a - factor * b for a, b in zip(vec, row)]
    return vec


def reference_sm(points, q, key):
    """Standard monomial exponent vectors of I(points), smallest-first greedy.

    A monomial is standard iff its evaluation vector on the points is
    linearly independent of the evaluation vectors of all order-smaller
    monomials; scanning the box in increasing order and keeping the
    independent ones therefore yields exactly the standard set.
    """
    points = sorted(set(points))
    n = len(points[0])
    rows = []
    kept = []
    for exponents in sorted(product(range(q), repeat=n), key=key):
        vec = [Fraction(eval_monomial(exponents, p)) for p in points]
        reduced = _eliminate(rows, vec)
        pivot = next((i for i, a in enumerate(reduced) if a), None)
        if pivot is not None:
            rows.append((pivot, reduced))
            kept.append(tuple(exponents))
            if len(kept) == len(points):
                break
    return set(kept)


def reference_basis(points, key):
    """The reduced Groebner basis of I(points) under the order of ``key``,
    as a list of (lead exponents, {exponents: Fraction}) sorted by lead.

    The standard monomials come from ``reference_sm``.  The leads are the
    minimal monomials outside them: every one-lower neighbour is standard.
    The generator of a lead m is m minus the unique combination of the
    standard monomials that agrees with m on every point, found by solving
    one dense square system over the rationals (Gauss-Jordan, with every
    lead's evaluation vector as a right-hand side).
    """
    points = sorted(set(points))
    n = len(points[0])
    q = max(max(p) for p in points) + 1
    sm = sorted(reference_sm(points, q, key), key=key)
    standard = set(sm)

    def lower(e, i):
        return e[:i] + (e[i] - 1,) + e[i + 1 :]

    leads = sorted(
        (
            e
            for e in product(range(q + 1), repeat=n)
            if e not in standard
            and all(lower(e, i) in standard for i in range(n) if e[i])
        ),
        key=key,
    )
    # rows: one per point, [eval(s) for s in sm] | [eval(m) for m in leads]
    matrix = [
        [Fraction(eval_monomial(e, p)) for e in sm + leads] for p in points
    ]
    size = len(sm)
    for col in range(size):
        # columns left of col are already zero outside their pivot rows
        pivot = next(r for r in range(col, size) if matrix[r][col])
        matrix[col], matrix[pivot] = matrix[pivot], matrix[col]
        row = matrix[col]
        head = row[col]
        row[col:] = [a / head for a in row[col:]]
        for r, other in enumerate(matrix):
            factor = other[col]
            if r != col and factor:
                other[col:] = [a - factor * b if b else a for a, b in zip(other[col:], row[col:])]
    basis = []
    for k, lead in enumerate(leads):
        terms = {lead: Fraction(1)}
        for row, s in zip(matrix, sm):
            if row[size + k]:
                terms[s] = -row[size + k]
        basis.append((lead, terms))
    return basis


def reference_shatters(points, q, coords):
    coords = sorted(coords)
    seen = {tuple(p[i - 1] for i in coords) for p in points}
    return len(seen) == q ** len(coords)


def reference_shattered_sets(points, q):
    n = len(points[0])
    out = []
    for r in range(n + 1):
        for coords in combinations(range(1, n + 1), r):
            if reference_shatters(points, q, coords):
                out.append(frozenset(coords))
    return set(out)


def reference_order_shattered(points):
    """The coordinate sets S of 1..n that the 0/1 points order-shatter,
    as frozensets, from the recursive definition of Anstee, Ronyai and
    Sali ("Shattering news", 2002).

    The empty set is order-shattered by any nonempty family.  A nonempty S
    with largest element s is order-shattered by F if some pattern T on
    the coordinates above s leaves two subfamilies, the members that match
    T and hold 0 at s and those that match T and hold 1 at s, which, cut
    down to the coordinates below s, both order-shatter S less s.
    """
    n = len(points[0])

    def order_shatters(family, coords):
        if not coords:
            return bool(family)
        s = coords[-1]
        for pattern in {p[s:] for p in family}:
            halves = [[p[: s - 1] for p in family if p[s:] == pattern and p[s - 1] == bit] for bit in (0, 1)]
            if all(order_shatters(half, coords[:-1]) for half in halves):
                return True
        return False

    return {
        frozenset(coords)
        for r in range(n + 1)
        for coords in combinations(range(1, n + 1), r)
        if order_shatters(list(points), coords)
    }


def reference_ballot(values, q):
    full = 0
    for index, value in enumerate(values, start=1):
        if value == q - 1:
            full += 1
        if index % 2 == 1 and full > (index + 1) // 2 - 1:
            return False
    return True


def rank_of(matrix):
    rows = []
    for raw in matrix:
        reduced = _eliminate(rows, [Fraction(a) for a in raw])
        pivot = next((i for i, a in enumerate(reduced) if a), None)
        if pivot is not None:
            rows.append((pivot, reduced))
    return len(rows)

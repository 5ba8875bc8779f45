"""Closed-form normal sets, Groebner bases, counting formulas and bounds.

Each construction here has a matching brute-force route through
``vanishing_basis``; the verification suites diff the two.  The closed
forms cover complete uniform systems over {0,1}, Hamming spheres over a
general alphabet, blow-ups of set families, and the ballot-style counts
that turn them into shattering bounds.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from itertools import islice
from math import comb
from typing import Iterable, Iterator

from .ideals import GroebnerBasis, StandardMonomialSet, vanishing_basis
from .polyring import (
    Monomial,
    Polynomial,
    TermOrder,
    binary_lift,
    field_polynomial,
    normal_form,
)
from .tuples import (
    Point, PointSet, SetFamily, _trace_sets, ballot_member, down_set, level_partition, subfamily_through, support
)

__all__ = [
    "BoundReport",
    "BoundHypothesisError",
    "sm_uniform_binary",
    "sm_hamming_sphere",
    "sm_blowup",
    "gb_blowup",
    "count_ballot",
    "count_sphere_stratum",
    "count_sphere_stratum_capped",
    "bound",
    "BOUND_NAMES",
    "shatter_cap",
    "uniform_leading_certificate",
]


class BoundHypothesisError(ValueError):
    """A bound was requested outside its hypothesis range."""


@dataclass(frozen=True)
class BoundReport:
    name: str
    parameters: dict
    value: int

    def to_dict(self) -> dict:
        return {"name": self.name, "parameters": dict(self.parameters), "value": self.value}


def _terms(m: int, first: int, num: int = 1, den: int = 1) -> Iterator[int]:
    # first * C(m, i) * (num/den)^i for i = 0..m, each from the one before by one
    # multiply and one division, exact while every term is an integer
    for i in range(m + 1):
        yield first
        first = first * ((m - i) * num) // ((i + 1) * den)


def sm_uniform_binary(n: int, d: int, order: TermOrder = TermOrder.DEGLEX) -> StandardMonomialSet:
    """Standard monomials of the complete d-uniform system over {0,1}^n.

    These are the squarefree monomials x_U with U = {u_1 < ... < u_l},
    l <= min(d, n-d) and u_i >= 2i for every i: the q = 2 case of
    sm_hamming_sphere.  The same set works for every admissible order, and
    its size is C(n, d).
    """
    return sm_hamming_sphere(n, d, 2, order)


def sm_hamming_sphere(
    n: int, d: int, q: int, order: TermOrder = TermOrder.DEGLEX
) -> StandardMonomialSet:
    """Standard monomials of the Hamming sphere of radius d in {0..q-1}^n.

    An exponent vector u qualifies iff, writing c for the number of
    interior exponents (strictly between 0 and q-1) and rest for the
    subsequence of the other exponents (equal to 0 or q-1), c <= d, rest
    holds at most min(d - c, n - d) full exponents (equal to q-1), and rest
    satisfies the paper's ballot condition (ballot_member).

    The qualifying vectors form a down-set, walked from the zero vector in
    increasing order.
    The size always comes out as C(n, d) * (q-1)^d.
    """
    if not 0 <= d <= n:
        raise ValueError(f"d={d} out of range 0..{n}")
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")

    def qualifies(u: Point) -> bool:
        rest = [e for e in u if e in (0, q - 1)]
        c = n - len(rest)
        return c <= d and rest.count(q - 1) <= min(d - c, n - d) and ballot_member(rest, q)

    monos = down_set(n, qualifies, top=q - 1, key=order._key)
    return StandardMonomialSet(order, tuple(map(Monomial, monos)))


# Blow-up subproblems are binary vanishing ideals over the full ground set;
# sweeps over many families hit the same subfamily repeatedly, so memoize.
_BINARY_CACHE_CAP = 4096


@functools.lru_cache(maxsize=_BINARY_CACHE_CAP)
def _binary_basis(v: PointSet, order: TermOrder) -> tuple[GroebnerBasis, StandardMonomialSet]:
    return vanishing_basis(v, order)


def _require_family(family: SetFamily, q: int) -> None:
    if not len(family):
        raise ValueError("the family must be nonempty")
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")


def sm_blowup(family: SetFamily, q: int, order: TermOrder = TermOrder.DEGLEX) -> StandardMonomialSet:
    """Standard monomials of the blow-up of a set family.

    An exponent vector belongs iff the subfamily through its interior
    positions is nonempty and the squarefree monomial on its full
    positions is standard for that subfamily's binary vanishing ideal.
    The binary subproblems are solved by the evaluation algorithm, not
    assumed in closed form, once per interior set the walk of the
    down-set meets.
    """
    _require_family(family, q)
    # interior set J -> supports of the binary standard monomials through J;
    # every point through J is 1 at each j in J, so these avoid J
    normal: dict[frozenset[int], set[frozenset[int]]] = {}

    def qualifies(u: Point) -> bool:
        parts = level_partition(u, q)
        js = parts.interior
        if js not in normal:
            sub = subfamily_through(family, js)
            sm = _binary_basis(sub.to_point_set(), order)[1] if len(sub) else ()
            normal[js] = {support(m.exponents) for m in sm}
        return parts.top in normal[js]

    monos = down_set(family.n, qualifies, top=q - 1, key=order._key)
    return StandardMonomialSet(order, tuple(map(Monomial, monos)))


def gb_blowup(family: SetFamily, q: int, order: TermOrder = TermOrder.DEGLEX) -> list[Polynomial]:
    """A (generally non-reduced) Groebner basis for the blow-up's ideal.

    The coordinate sets J inside some member form a down-set.  The basis
    joins the n alphabet polynomials, x_J times the lifted generators of
    the binary ideal of the subfamily through J for every J of that
    down-set, and the bare monomial x_J for every J one element above it
    that the depth-first trace walk of the down-set tests (J inside a
    member iff that member's characteristic vector is all ones on J).
    Those include every minimal J with an empty subfamily, and x_J for any
    larger such J is a multiple of one of them.
    """
    _require_family(family, q)
    n = family.n
    out = [field_polynomial(i, q, n) for i in range(1, n + 1)]
    outside: list[tuple[int, ...]] = []

    def inside(cs: tuple[int, ...], codes: list[int]) -> bool:
        # cs lies inside a member iff that member's pattern on cs is all ones
        if (1 << len(cs)) - 1 in codes:
            return True
        outside.append(cs)
        return False

    lifted: dict[Polynomial, Polynomial] = {}
    for cs in _trace_sets(n, 2, family.to_point_set().points, inside):
        gb, _ = _binary_basis(subfamily_through(family, cs).to_point_set(), order)
        u = Monomial.squarefree(cs, n).exponents
        for g in gb:
            bar = lifted.get(g)
            if bar is None:
                bar = lifted[g] = binary_lift(g, q)
            # x_J * bar: shift every exponent tuple by u
            shifted = {Monomial(tuple(map(operator.add, m.exponents, u))): c for m, c in bar.items()}
            out.append(Polynomial(n, shifted))
    out += [Polynomial.from_monomial(Monomial.squarefree(cs, n)) for cs in outside]
    return out


def count_ballot(n: int, q: int, i: int) -> int:
    """Number of ballot exponent vectors with exactly i full exponents:
    (q-1)^(n-i) * (C(n,i) - C(n,i-1)), valid for 0 <= i <= n/2."""
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")
    if not 0 <= 2 * i <= n:
        raise ValueError(f"i={i} out of range 0..n/2 with n={n}")
    return (q - 1) ** (n - i) * (comb(n, i) - (comb(n, i - 1) if i else 0))


def count_sphere_stratum(n: int, d: int, q: int, i: int) -> int:
    """Number of standard monomials of the radius-d Hamming sphere with
    exactly i interior exponents (strictly between 0 and q-1):
    C(n,i) * (q-2)^i * C(n-i, d-i)."""
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")
    if not 0 <= i <= d <= n:
        raise ValueError(f"need 0 <= i <= d <= n, got i={i}, d={d}, n={n}")
    return comb(n, i) * (q - 2) ** i * comb(n - i, d - i)


def count_sphere_stratum_capped(n: int, d: int, q: int, s: int, i: int) -> int:
    """Size of the i-th interior stratum after keeping only monomials with
    at most s full exponents.

    Equals C(n,s) * C(n-s,i) * (q-2)^i when s <= min(d-i, n-d) and
    C(n,d) * C(d,i) * (q-2)^i (the whole stratum) otherwise.
    """
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")
    if not 0 <= i <= d <= n:
        raise ValueError(f"need 0 <= i <= d <= n, got i={i}, d={d}, n={n}")
    if not 0 <= s <= n:
        raise ValueError(f"s={s} out of range 0..{n}")
    if s <= min(d - i, n - d):
        return comb(n, s) * comb(n - s, i) * (q - 2) ** i
    return comb(n, d) * comb(d, i) * (q - 2) ** i


BOUND_NAMES = ("sauer", "km", "frankl_pach", "uniform", "hamming", "sphere_slice")


def _require(cond: bool, inequality: str, **values: int) -> None:
    if not cond:
        detail = ", ".join(f"{k}={v}" for k, v in values.items())
        raise BoundHypothesisError(f"hypothesis {inequality} violated ({detail})")


def bound(
    name: str,
    n: int,
    d: int | None = None,
    s: int | None = None,
    q: int | None = None,
) -> BoundReport:
    """Upper bounds on tuple systems shattering no (s+1)-element set.

    * ``sauer``: sum_{i<=s} C(n,i), binary systems.
    * ``km``: sum_{i<=s} (q-1)^(n-i) C(n,i), q-ary systems.
    * ``frankl_pach``: C(n,s), binary d-uniform systems, s+1 <= n/2.
    * ``uniform``: sum_{i<=s} (q-1)^(n-i) (C(n,i) - C(n,i-1)), q-ary
      d-uniform systems with s <= n/2.
    * ``hamming``: C(n,s) * sum_{i<=d} C(n-s,i) (q-2)^i, q-ary systems of
      constant support size d with d+s <= n.
    * ``sphere_slice``: the same value bounding the standard monomials of
      the radius-d sphere with at most s full exponents (n >= 3, q >= 3).

    Out-of-hypothesis parameters raise BoundHypothesisError naming the
    violated inequality; nothing is evaluated outside its range.
    """
    if name not in BOUND_NAMES:
        raise ValueError(f"unknown bound {name!r}; expected one of {', '.join(BOUND_NAMES)}")
    _require(n >= 1, "n >= 1", n=n)

    def need(**params: int | None) -> None:
        for k, val in params.items():
            if val is None:
                raise ValueError(f"bound {name!r} needs parameter {k}")

    params: dict[str, int] = {"n": n}
    if name in ("sauer", "km"):  # sauer is the km stream at q = 2
        km = {"q": q} if name == "km" else {}
        need(s=s, **km)
        r = q - 1 if km else 1
        _require(r >= 1, "q >= 2", q=q)
        _require(0 <= s <= n - 1, "0 <= s <= n - 1", s=s, n=n)
        value = sum(islice(_terms(n, r**n, den=r), s + 1))
        params.update(s=s, **km)
    elif name == "frankl_pach":
        need(s=s)
        _require(s >= 0, "s >= 0", s=s)
        _require(2 * (s + 1) <= n, "s + 1 <= n/2", s=s, n=n)
        if d is not None:
            _require(0 <= d <= n, "0 <= d <= n", d=d, n=n)
            params["d"] = d
        value = comb(n, s)
        params["s"] = s
    elif name == "uniform":
        need(s=s, q=q)
        _require(q >= 2, "q >= 2", q=q)
        _require(s >= 0, "s >= 0", s=s)
        _require(2 * s <= n, "s <= n/2", s=s, n=n)
        if d is not None:
            _require(0 <= d <= (q - 1) * n, "0 <= d <= (q - 1)n", d=d, q=q, n=n)
            params["d"] = d
        # the ballot strata telescope to km(s) - km(s-1)/(q-1); each km term holds a q-1
        terms = _terms(n, (q - 1) ** n, den=q - 1)
        below = sum(islice(terms, s))
        value = below + next(terms) - below // (q - 1)
        params.update(s=s, q=q)
    else:  # hamming and sphere_slice
        need(d=d, s=s, q=q)
        if name == "sphere_slice":
            _require(n >= 3, "n >= 3", n=n)
            _require(q >= 3, "q >= 3", q=q)
        _require(q >= 2, "q >= 2", q=q)
        _require(0 <= d <= n, "0 <= d <= n", d=d, n=n)
        _require(s >= 0, "s >= 0", s=s)
        _require(d + s <= n, "d + s <= n", d=d, s=s, n=n)
        value = comb(n, s) * sum(islice(_terms(n - s, 1, num=q - 2), d + 1))
        params.update(d=d, s=s, q=q)
    return BoundReport(name, params, value)


def shatter_cap(d: int, q: int) -> int:
    """Largest size a d-uniform system can shatter: ceil(d / (q-1)).

    A shattered set S needs a point with all coordinates on S equal to
    q-1, forcing (q-1)|S| <= d.
    """
    if d < 0:
        raise ValueError("d must be non-negative")
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")
    return -(-d // (q - 1))


def uniform_leading_certificate(
    n: int,
    d: int,
    q: int,
    violator: Iterable[int],
    order: TermOrder = TermOrder.DEGLEX,
) -> Polynomial:
    """Certificate that a minimal ballot violator indexes a leading monomial
    for the complete d-uniform system.

    Given H = {h_1 < ... < h_t} with h_i >= 2i below t and h_t < 2t, pad
    it with {2t, ..., n} and take the product of (sum of the padded
    variables minus (d - i)) for i = 0 .. (q-1)(t-1).  The product
    vanishes on the complete d-uniform system because every point makes
    the padded sum land in {d - (q-1)(t-1), ..., d}; its normal form
    against the alphabet polynomials has leading monomial
    x_{h_1}^{q-1} ... x_{h_{t-1}}^{q-1} x_{h_t}.
    """
    hs = sorted(set(int(h) for h in violator))
    t = len(hs)
    if t == 0:
        raise ValueError("the violator set must be nonempty")
    if any(not 1 <= h <= n for h in hs):
        raise ValueError(f"violator {hs} not inside 1..{n}")
    if 2 * t > n:
        raise ValueError(f"violator size {t} exceeds n/2 with n={n}")
    for i, h in enumerate(hs[:-1], start=1):
        if h < 2 * i:
            raise ValueError(f"element {h} at position {i} must be at least {2 * i}")
    if hs[-1] >= 2 * t:
        raise ValueError(f"largest element {hs[-1]} must be below {2 * t}")
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")
    if not 0 <= d <= (q - 1) * n:
        raise ValueError(f"d={d} out of range 0..{(q - 1) * n}")

    padded = sorted(set(hs) | set(range(2 * t, n + 1)))
    lin = Polynomial.zero(n)
    for h in padded:
        lin = lin + Polynomial.variable(h, n)
    f = Polynomial.constant(1, n)
    for i in range((q - 1) * (t - 1) + 1):
        f = f * (lin - (d - i))
    alphabet = [field_polynomial(i, q, n) for i in range(1, n + 1)]
    return normal_form(f, alphabet, order)

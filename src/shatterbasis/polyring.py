"""Exact multivariate polynomial arithmetic over the rationals.

Everything lives in Q[x1, ..., xn].  The supported monomial orders refine
the variable precedence xn < ... < x1, so index 1 is always the most
significant variable.  Coefficients are arbitrary-precision rationals kept
in lowest terms; nothing in this module ever rounds.
"""

from __future__ import annotations

import decimal
import functools
import re
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

Scalar = Union[int, Fraction]


def _integral(values: Iterable, make: Callable[[Iterable], tuple | frozenset]) -> tuple | frozenset:
    """``make(values)`` with every value an int, refusing one that int() would change."""
    given = make(values)
    try:
        exact = make(map(int, given))
    except OverflowError:  # int() of an infinity
        exact = None
    if exact != given:
        raise ValueError(f"coordinates {tuple(given)} are not all integers")
    return exact


def _int_text(k: int) -> str:
    """str(k), exact also past the interpreter's limit on the digits of an
    int-to-text conversion (sys.get_int_max_str_digits), left as it is."""
    try:
        return str(k)
    except ValueError:
        return str(decimal.Decimal(k))


def _text_int(digits: str) -> int:
    """int(digits) of a run of decimal digits, exact also past that limit."""
    try:
        return int(digits)
    except ValueError:
        return int(decimal.Decimal(digits))


@dataclass(frozen=True)
class Monomial:
    """A power product x1^e1 * ... * xn^en stored as its exponent vector.

    Slot i-1 of ``exponents`` holds the exponent of x_i.  Exponents are
    non-negative; the empty product (all zeros) is the unit monomial.
    """

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.exponents, tuple):
            object.__setattr__(self, "exponents", tuple(self.exponents))
        for e in self.exponents:
            if not isinstance(e, int) or e < 0:
                raise ValueError(f"exponents must be non-negative integers, got {self.exponents!r}")

    @classmethod
    def unit(cls, n: int) -> "Monomial":
        return cls((0,) * n)

    @classmethod
    def variable(cls, i: int, n: int) -> "Monomial":
        """The monomial x_i (1-based index) in dimension n."""
        (i,) = _integral((i,), tuple)
        if not 1 <= i <= n:
            raise ValueError(f"variable index {i} out of range 1..{n}")
        return cls(tuple(int(j == i - 1) for j in range(n)))

    @classmethod
    def squarefree(cls, coords: Iterable[int], n: int) -> "Monomial":
        """The product of x_j over the 1-based coordinate set ``coords``."""
        cs = _integral(coords, frozenset)
        if any(not 1 <= c <= n for c in cs):
            raise ValueError(f"coordinates {sorted(cs)} out of range 1..{n}")
        return cls(tuple(int(j + 1 in cs) for j in range(n)))

    @property
    def n(self) -> int:
        return len(self.exponents)

    def degree(self) -> int:
        return sum(self.exponents)

    def divides(self, other: "Monomial") -> bool:
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return all(a <= b for a, b in zip(self.exponents, other.exponents))

    def quotient(self, other: "Monomial") -> "Monomial":
        """self / other, defined only when other divides self."""
        if not other.divides(self):
            raise ValueError(f"{other} does not divide {self}")
        return Monomial(tuple(a - b for a, b in zip(self.exponents, other.exponents)))

    def __mul__(self, other: "Monomial") -> "Monomial":
        if self.n != other.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        return Monomial(tuple(a + b for a, b in zip(self.exponents, other.exponents)))

    def power(self, k: int) -> "Monomial":
        """Coordinatewise k-fold power (self**k)."""
        if k < 0:
            raise ValueError("power must be non-negative")
        return Monomial(tuple(e * k for e in self.exponents))

    def evaluate(self, point: Sequence[Scalar]) -> Scalar:
        if len(point) != self.n:
            raise ValueError(f"point has length {len(point)}, expected {self.n}")
        out: Scalar = 1
        for c, e in zip(point, self.exponents):
            if e:
                out *= c ** e
        return out

    def __repr__(self) -> str:
        return f"Monomial({render_monomial(self)!r})"


class TermOrder(str, Enum):
    """Admissible monomial orders; both refine xn < ... < x1."""

    LEX = "lex"
    DEGLEX = "deglex"

    def key(self, m: Monomial):
        """Sort key: monomials sort ascending in the order under this key."""
        return self._key(m.exponents)

    def _key(self, expo: tuple[int, ...]):
        # key on an exponent tuple; it grows along every edge expo -> expo + e_i
        return expo if self is TermOrder.LEX else (sum(expo), expo)

    def compare(self, a: Monomial, b: Monomial) -> int:
        """Three-way comparison: -1 if a < b, 0 if equal, +1 if a > b."""
        if a.n != b.n:
            raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
        ka, kb = self.key(a), self.key(b)
        return (ka > kb) - (ka < kb)


class Polynomial:
    """A sparse polynomial over Q: a finite map from Monomial to nonzero Fraction.

    Instances are immutable by convention; all arithmetic returns new
    objects.  Dimension n is fixed at construction and operands must agree.
    The constructor alone merges terms (repeats summed, zeros dropped).
    """

    __slots__ = ("n", "_terms")

    def __init__(
        self,
        n: int,
        terms: Mapping[Monomial, Scalar] | Iterable[tuple[Monomial, Scalar]] = (),
    ) -> None:
        if n < 1:
            raise ValueError("dimension must be at least 1")
        items = terms.items() if isinstance(terms, Mapping) else terms
        store: dict[Monomial, Fraction] = {}
        for mono, coeff in items:
            if mono.n != n:
                raise ValueError(f"monomial dimension {mono.n} != {n}")
            c = coeff if isinstance(coeff, Fraction) else Fraction(coeff)
            if mono in store:
                c += store[mono]
            if c:
                store[mono] = c
            else:
                store.pop(mono, None)
        self.n = n
        self._terms = store

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    @classmethod
    def constant(cls, c: Scalar, n: int) -> "Polynomial":
        return cls(n, {Monomial.unit(n): c})

    @classmethod
    def variable(cls, i: int, n: int) -> "Polynomial":
        return cls(n, {Monomial.variable(i, n): 1})

    @classmethod
    def from_monomial(cls, m: Monomial, coeff: Scalar = 1) -> "Polynomial":
        return cls(m.n, {m: coeff})

    def is_zero(self) -> bool:
        return not self._terms

    def monomials(self) -> list[Monomial]:
        return list(self._terms)

    def coefficient(self, m: Monomial) -> Fraction:
        return self._terms.get(m, Fraction(0))

    def items(self) -> Iterator[tuple[Monomial, Fraction]]:
        return iter(self._terms.items())

    def degree(self) -> int:
        """Total degree; the zero polynomial has degree -1 by convention."""
        if not self._terms:
            return -1
        return max(m.degree() for m in self._terms)

    def __add__(self, other: "Polynomial | Scalar") -> "Polynomial":
        other = self._coerce(other)
        return Polynomial(self.n, [*self._terms.items(), *other._terms.items()])

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.n, {m: -c for m, c in self._terms.items()})

    def __sub__(self, other: "Polynomial | Scalar") -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other: Scalar) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, (int, Fraction)):
            return Polynomial(self.n, [(m, c * other) for m, c in self._terms.items()])
        if not isinstance(other, Polynomial):
            return NotImplemented
        if other.n != self.n:
            raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
        pairs = other._terms.items()
        return Polynomial(self.n, [(ma * mb, ca * cb) for ma, ca in self._terms.items() for mb, cb in pairs])

    def __rmul__(self, other: Scalar) -> "Polynomial":
        return self * other

    def __pow__(self, k: int) -> "Polynomial":
        if k < 0:
            raise ValueError("power must be non-negative")
        out = Polynomial.constant(1, self.n)
        for _ in range(k):
            out = out * self
        return out

    def evaluate(self, point: Sequence[Scalar]) -> Fraction:
        """Evaluate at a point given as a coordinate sequence."""
        if len(point) != self.n:
            raise ValueError(f"point has length {len(point)}, expected {self.n}")
        total = Fraction(0)
        for m, c in self._terms.items():
            total += c * m.evaluate(point)
        return total

    def _coerce(self, other: "Polynomial | Scalar") -> "Polynomial":
        if isinstance(other, Polynomial):
            if other.n != self.n:
                raise ValueError(f"dimension mismatch: {self.n} vs {other.n}")
            return other
        return Polynomial.constant(other, self.n)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.n == other.n and self._terms == other._terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self._terms.items())))

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __repr__(self) -> str:
        return f"Polynomial({render_polynomial(self)!r})"


def leading_monomial(f: Polynomial, order: TermOrder) -> Monomial:
    """The order-largest monomial of a nonzero polynomial."""
    if f.is_zero():
        raise ValueError("the zero polynomial has no leading monomial")
    return max(f.monomials(), key=order.key)


def leading_coefficient(f: Polynomial, order: TermOrder) -> Fraction:
    return f.coefficient(leading_monomial(f, order))


def normal_form(f: Polynomial, basis: Sequence[Polynomial], order: TermOrder) -> Polynomial:
    """Fully reduce f modulo a list of nonzero polynomials.

    At each step the order-largest reducible monomial of the work
    polynomial is cancelled against the first basis element whose leading
    monomial divides it, so the result is deterministic given the basis
    list order.  The remainder contains no monomial divisible by any
    basis leading monomial.
    """
    leads = []
    for g in basis:
        if g.is_zero():
            raise ValueError("basis elements must be nonzero")
        if g.n != f.n:
            raise ValueError(f"dimension mismatch: {f.n} vs {g.n}")
        lm = leading_monomial(g, order)
        leads.append((lm, g.coefficient(lm), g))

    work = f
    while True:
        monomials = sorted(work.monomials(), key=order.key, reverse=True)
        hit = next(((m, lm, lc, g) for m in monomials for lm, lc, g in leads if lm.divides(m)), None)
        if hit is None:
            return work
        m, lm, lc, g = hit
        factor = Polynomial.from_monomial(m.quotient(lm), work.coefficient(m) / lc)
        work = work - factor * g


def field_polynomial(i: int, q: int, n: int) -> Polynomial:
    """The univariate product (x_i - 0)(x_i - 1)...(x_i - (q-1)) in dimension n.

    These n polynomials vanish exactly on the grid {0,...,q-1}^n and form
    a Groebner basis of its vanishing ideal under any admissible order.
    """
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")
    x = Monomial.variable(i, n)
    return Polynomial(n, {x.power(k): c for k, c in enumerate(_root_product(range(q)))})


def _root_product(roots: Iterable[int]) -> list[int]:
    """The integer coefficients of prod (x - r) over the roots, by increasing degree."""
    coeffs = [1]
    for r in roots:
        coeffs = [low - r * c for low, c in zip([0] + coeffs, coeffs + [0])]
    return coeffs


_INDICATOR_CACHE_CAP = 64


def indicator_polynomial(q: int) -> Polynomial:
    """The unique univariate polynomial of degree q-1 with p(0)=0 and p(i)=1
    for 1 <= i <= q-1.

    For q=2 this is x itself; composing with it collapses {1,...,q-1}
    onto 1 while fixing 0.  Each call builds it afresh; ``binary_lift``
    reads the powers it needs from a cache per (q, e).
    """
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")
    # p = 1 - P / P(0) for P = prod_{0<j<q} (x - j), so the constant terms cancel
    coeffs = _root_product(range(1, q))
    return Polynomial(1, {Monomial((k,)): Fraction(-c, coeffs[0]) for k, c in enumerate(coeffs) if k})


@functools.lru_cache(maxsize=_INDICATOR_CACHE_CAP)
def _indicator_power(q: int, e: int) -> tuple[Fraction, ...]:
    """The coefficients of p^e, p the indicator of q, by increasing degree."""
    power = indicator_polynomial(q) ** e
    return tuple(power.coefficient(Monomial((d,))) for d in range(power.degree() + 1))


def binary_lift(g: Polynomial, q: int) -> Polynomial:
    """Substitute the 0/1 indicator for every variable of g.

    If g vanishes on a set of 0/1 points, the lift vanishes on every grid
    point whose support matches one of them, and its leading monomial is
    the (q-1)-th coordinatewise power of lm(g) under any admissible order.
    Each term c * prod x_i^e_i expands on exponent tuples, one variable at
    a time, with the coefficients of p^e_i built once per (q, e_i).
    """
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")
    n = g.n
    out: dict[tuple[int, ...], Fraction] = {}
    for m, c in g.items():
        terms = {(0,) * n: c}
        for i, e in enumerate(m.exponents):
            if e:
                power = _indicator_power(q, e)
                terms = {
                    u[:i] + (d,) + u[i + 1 :]: a * b
                    for u, a in terms.items()
                    for d, b in enumerate(power)
                    if b
                }
        # merged on exponent tuples, to build one Monomial per distinct term
        for u, a in terms.items():
            out[u] = out.get(u, 0) + a
    return Polynomial(n, {Monomial(u): a for u, a in out.items() if a})


def render_monomial(m: Monomial) -> str:
    """Text form like ``x1^2*x3``; the unit monomial renders as ``1``."""
    parts = []
    for i, e in enumerate(m.exponents, start=1):
        if e == 1:
            parts.append(f"x{i}")
        elif e > 1:
            parts.append(f"x{i}^{e}")
    return "*".join(parts) if parts else "1"


def render_polynomial(f: Polynomial, order: TermOrder = TermOrder.DEGLEX) -> str:
    """Render with terms in decreasing order, e.g. ``-1/2*x1^2 + 3/2*x1``."""
    if f.is_zero():
        return "0"
    pieces = []
    for m in sorted(f.monomials(), key=order.key, reverse=True):
        c = f.coefficient(m)
        mono = render_monomial(m)
        mag = _int_text(abs(c.numerator)) + ("" if c.denominator == 1 else f"/{_int_text(c.denominator)}")
        if mono == "1":
            body = mag
        elif mag == "1":
            body = mono
        else:
            body = f"{mag}*{mono}"
        pieces.append(("-" if c < 0 else "+", body))
    sign, body = pieces[0]
    out = body if sign == "+" else f"-{body}"
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out


# Polynomial text, as render_polynomial writes it, is a regular language:
#   polynomial = [sign] term {sign term}
#   term       = factor {"*" factor}
#   factor     = number ["/" number] | "x" number ["^" number]
# and whitespace may come before any token.  So one pattern matches a whole
# term, and a second finds the factors in it, skipping the "*" between them.
_NUMBER = r"(\d+)(?:\s*/\s*(\d+))?"  # a coefficient with an optional denominator
_POWER = r"x(\d+)(?:\s*\^\s*(\d+))?"  # a variable with an optional exponent
_FACTOR = re.compile(rf"{_NUMBER}|{_POWER}")
# group 1 is the sign, group 2 the factors; no two \s* touch, so a failed
# match backtracks in linear time
_TERM = re.compile(rf"\s*(?:([+-])\s*)?((?:{_FACTOR.pattern})(?:\s*\*\s*(?:{_FACTOR.pattern}))*)")


def parse_polynomial(text: str, n: int) -> Polynomial:
    """Parse the text render_polynomial writes, in dimension n; malformed
    text raises ValueError."""
    pos, end = 0, len(text.rstrip())
    if not end:
        raise ValueError("empty polynomial text")
    terms: list[tuple[Monomial, Fraction]] = []
    while pos < end:
        term = _TERM.match(text, pos)
        if term is None or (pos and not term[1]):  # every later term has a sign
            at = end - len(text[pos:end].lstrip())
            raise ValueError(f"cannot parse polynomial near {text[at:at + 10]!r} (character {at})")
        coeff, expo = Fraction(-1 if term[1] == "-" else 1), [0] * n
        for num, den, var, exp in _FACTOR.findall(term[2]):
            if num:
                divisor = _text_int(den or "1")
                if not divisor:
                    raise ValueError(f"bad denominator {den!r}")
                coeff *= Fraction(_text_int(num), divisor)
            elif 1 <= int(var) <= n:
                expo[int(var) - 1] += int(exp or 1)
            else:
                raise ValueError(f"variable x{var} out of range for dimension {n}")
        terms.append((Monomial(tuple(expo)), coeff))
        pos = term.end()
    return Polynomial(n, terms)

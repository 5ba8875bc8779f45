"""Tuple systems over the alphabet {0, ..., q-1} and their combinatorics.

A tuple system is a finite set of points in {0,...,q-1}^n.  This module
holds the set-system side of the theory: shattering, the standard
constructions (complete uniform slices, Hamming spheres, blow-ups of set
families, bounded-maximal-coordinate systems) and the ballot-style
counting helpers used by the closed-form results.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .polyring import Monomial

Point = tuple[int, ...]


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


class EmptyPointSetError(ValueError):
    """Raised where an operation needs at least one point."""


class PointSet:
    """A finite duplicate-free subset of {0,...,q-1}^n, kept sorted.

    Points are stored lexicographically sorted so equal sets compare and
    render identically no matter how they were assembled.
    """

    __slots__ = ("n", "q", "points", "_members")

    def __init__(self, n: int, q: int, points: Iterable[Sequence[int]] = ()) -> None:
        if n < 1:
            raise ValueError("dimension n must be at least 1")
        if q < 2:
            raise ValueError("alphabet size q must be at least 2")
        members = frozenset(_integral(p, tuple) for p in points)
        cleaned = sorted(members)
        for p in cleaned:
            if len(p) != n:
                raise ValueError(f"point {p} has length {len(p)}, expected {n}")
            for c in p:
                if not 0 <= c < q:
                    raise ValueError(f"coordinate {c} of point {p} out of range 0..{q - 1}")
        self.n = n
        self.q = q
        self.points = tuple(cleaned)
        self._members = members

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)

    def __contains__(self, p: object) -> bool:
        return p in self._members

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PointSet):
            return NotImplemented
        return (self.n, self.q, self.points) == (other.n, other.q, other.points)

    def __hash__(self) -> int:
        return hash((self.n, self.q, self.points))

    def __repr__(self) -> str:
        return f"PointSet(n={self.n}, q={self.q}, {len(self.points)} points)"

    def restrictions(self, coords: Iterable[int]) -> set[Point]:
        """The set of restrictions of the points to the 1-based coordinates."""
        cs = sorted(set(coords))
        if any(not 1 <= c <= self.n for c in cs):
            raise ValueError(f"coordinates {cs} out of range 1..{self.n}")
        return {tuple(p[c - 1] for c in cs) for p in self.points}


class SetFamily:
    """A family of subsets of {1, ..., n}."""

    __slots__ = ("n", "members")

    def __init__(self, n: int, members: Iterable[Iterable[int]] = ()) -> None:
        if n < 1:
            raise ValueError("ground set size n must be at least 1")
        mem = frozenset(_integral(m, frozenset) for m in members)
        for m in mem:
            if any(not 1 <= i <= n for i in m):
                raise ValueError(f"member {sorted(m)} not inside 1..{n}")
        self.n = n
        self.members = mem

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[frozenset[int]]:
        return iter(sorted(self.members, key=lambda m: (len(m), sorted(m))))

    def __contains__(self, m: object) -> bool:
        if isinstance(m, (set, frozenset)):
            return frozenset(m) in self.members
        return False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SetFamily):
            return NotImplemented
        return (self.n, self.members) == (other.n, other.members)

    def __hash__(self) -> int:
        return hash((self.n, self.members))

    def __repr__(self) -> str:
        return f"SetFamily(n={self.n}, {len(self.members)} members)"

    def to_point_set(self) -> PointSet:
        """Characteristic 0/1 vectors of the members, as a q=2 point set."""
        return PointSet(self.n, 2, (tuple([int(i in m) for i in range(1, self.n + 1)]) for m in self.members))

    @classmethod
    def from_point_set(cls, v: PointSet) -> "SetFamily":
        """Inverse of to_point_set; requires a 0/1 point set."""
        for p in v:
            if any(c not in (0, 1) for c in p):
                raise ValueError(f"point {p} is not a characteristic vector")
        return cls(v.n, ({i + 1 for i, c in enumerate(p) if c} for p in v))


@dataclass(frozen=True)
class LevelPartition:
    """Coordinates of a tuple split by value: strictly between 0 and q-1,
    equal to q-1, and equal to 0."""

    interior: frozenset[int]
    top: frozenset[int]
    zero: frozenset[int]


@dataclass(frozen=True)
class Uniformity:
    """Degrees shared by all points of a system, when they exist.

    coordinate_sum is d when every point has coordinate sum d; support_size
    is d when every point has exactly d nonzero coordinates.  Either is
    None when the points disagree.
    """

    coordinate_sum: int | None
    support_size: int | None


def support(v: Sequence[int]) -> frozenset[int]:
    """1-based positions of the nonzero coordinates."""
    return frozenset(i + 1 for i, c in enumerate(v) if c)


def level_partition(v: Sequence[int], q: int) -> LevelPartition:
    """Split the 1-based coordinate positions of v by value class."""
    interior, top, zero = set(), set(), set()
    for i, c in enumerate(v, start=1):
        if not 0 <= c <= q - 1:
            raise ValueError(f"coordinate {c} out of range 0..{q - 1}")
        if c == 0:
            zero.add(i)
        elif c == q - 1:
            top.add(i)
        else:
            interior.add(i)
    return LevelPartition(frozenset(interior), frozenset(top), frozenset(zero))


def shatters(v: PointSet, coords: Iterable[int]) -> bool:
    """Whether restricting v to the coordinates yields all q^|S| patterns."""
    coords = list(coords)
    return len(v.restrictions(coords)) == v.q ** len(set(coords))


def down_set(
    n: int, keep: Callable[[Point], bool], key: Callable[[Point], object], top: int | None = None
) -> Iterator[Point]:
    """The members of a down-set of N^n, given its membership test keep,
    with entries at most top when top is given; not exported.  key must
    grow along every edge u -> u + e_i, as a term order's does.  Each member
    is made once, from its canonical parent (one below it in its last
    nonzero entry), and a heap makes keep see its arguments, and the
    members come out, in increasing key order.  The walk is closed: each
    parent u - e_i has a smaller key and is decided first, so a candidate
    with a non-member parent is rejected unseen.
    """
    members: set[Point] = set()
    zero = (0,) * n
    # (key, vector, position of its last nonzero entry); term order keys never tie
    pending = [(key(zero), zero, 0)]
    while pending:
        _, u, last = heapq.heappop(pending)
        if all(u[:i] + (e - 1,) + u[i + 1 :] in members for i, e in enumerate(u) if e) and keep(u):
            members.add(u)
            yield u
            for i in range(last, n):
                if top is None or u[i] < top:
                    child = u[:i] + (u[i] + 1,) + u[i + 1 :]
                    heapq.heappush(pending, (key(child), child, i))


def _trace_sets(
    n: int,
    q: int,
    pts: Sequence[Point],
    keep: Callable[[tuple[int, ...], list[int]], bool],
    top: int | None = None,
) -> Iterator[tuple[int, ...]]:
    """A down-set of coordinate sets, each a sorted tuple of 1-based
    coordinates, decided from how the points pts of {0..q-1}^n restrict to
    each set, cut at sets of top coordinates when top is given; not
    exported.  keep(cs, codes) gets each point's pattern code on cs, its
    restriction read as a base-q number.  A set cs is tested once, as its
    canonical parent plus one coordinate c past the parent's largest: its
    codes are the parent's times q plus each point's entry at c, so a test
    costs O(|pts| + |cs|) whatever n is.  Children are tested largest c
    first, depth first.  A member of top coordinates pushes no children;
    with no top, keep sees every canonical child of a member, as gb_blowup
    records that whole border.  A stack entry holds (parent, c, parent's
    codes), so at most n + 1 code lists are alive.  No pts yield nothing:
    every caller rejects the empty set with no codes.
    """
    codes = [0] * len(pts)
    if not pts or not keep((), codes):
        return
    yield ()
    stack = [((), c, codes) for c in range(1, n + 1)] if top != 0 else []
    while stack:
        parent, c, codes = stack.pop()
        cs = parent + (c,)
        codes = [code * q + p[c - 1] for code, p in zip(codes, pts)]
        if keep(cs, codes):
            yield cs
            if len(cs) != top:
                stack += [(cs, j, codes) for j in range(c + 1, n + 1)]


def _shatter_bound(q: int, size: int) -> int:
    """The largest k with q^k <= size (0 when size < q): no set of more
    coordinates than this is shattered by size points; not exported."""
    k = 0
    while q ** (k + 1) <= size:
        k += 1
    return k


def _shattered_sets(n: int, q: int, pts: Sequence[Point]) -> Iterator[tuple[int, ...]]:
    """The coordinate sets the distinct points pts of {0..q-1}^n shatter:
    those on which their pattern codes take all q^|cs| values; not exported.
    The walk stops at _shatter_bound(q, |pts|) coordinates, past which no
    set can take that many values."""
    return _trace_sets(
        n, q, pts, lambda cs, codes: len(set(codes)) == q ** len(cs), _shatter_bound(q, len(pts))
    )


def _max_shattered(n: int, q: int, pts: Sequence[Point]) -> int:
    """The size of the largest set the distinct points pts of {0..q-1}^n
    shatter, -1 when there are none.  The walk ends at the first set of
    _shatter_bound(q, |pts|) coordinates, since none is larger."""
    top = _shatter_bound(q, len(pts))
    worst = -1
    for cs in _shattered_sets(n, q, pts):
        worst = max(worst, len(cs))
        if worst == top:
            break
    return worst


def shattered_family(v: PointSet) -> SetFamily:
    """All coordinate sets shattered by v: a down-set holding the empty set.

    Each set is tested by refining its canonical parent's pattern codes
    (see _trace_sets), in O(|v| + |S|) steps and with no restriction
    tuples; shatters stays the independent one-set test.
    """
    return SetFamily(v.n, _shattered_sets(v.n, v.q, v.points))


def classify(v: PointSet) -> Uniformity:
    """Detect shared coordinate sum and shared support size."""
    if not len(v):
        raise EmptyPointSetError("cannot classify an empty point set")
    sums = {sum(p) for p in v}
    sizes = {len(support(p)) for p in v}
    return Uniformity(
        coordinate_sum=sums.pop() if len(sums) == 1 else None,
        support_size=sizes.pop() if len(sizes) == 1 else None,
    )


def _weighted_points(n: int, weights: Sequence[int], lo: int, hi: int) -> Iterator[Point]:
    """The points of {0..q-1}^n, q = len(weights), whose coordinates'
    weights (value c weighs weights[c]) sum into lo..hi, in lex order.

    Iterative depth-first search over one shared prefix, keeping only the
    prefixes some completion extends into the range.  The weights used here
    are consecutive integers, so every sum between the smallest and the
    largest completion is reachable, the pruning is exact and the cost is
    O(n * q) per point.
    """
    low, high = min(weights), max(weights)
    point = [0] * n
    stack: list[tuple[int, int, int]] = []  # (position, value, prefix weight)

    def extend(i: int, total: int) -> None:
        rest = n - 1 - i
        for c in reversed(range(len(weights))):
            t = total + weights[c]
            if lo - rest * high <= t <= hi - rest * low:
                stack.append((i, c, t))

    extend(0, 0)
    while stack:
        i, c, total = stack.pop()
        point[i] = c
        if i + 1 == n:
            yield tuple(point)
        else:
            extend(i + 1, total)


def complete_uniform(n: int, d: int, q: int) -> PointSet:
    """All points of {0..q-1}^n with coordinate sum exactly d."""
    if not 0 <= d <= (q - 1) * n:
        raise ValueError(f"coordinate sum d={d} out of range 0..{(q - 1) * n}")
    return PointSet(n, q, _weighted_points(n, range(q), d, d))


def hamming_sphere(n: int, d: int, q: int) -> PointSet:
    """All points of {0..q-1}^n with exactly d nonzero coordinates."""
    if not 0 <= d <= n:
        raise ValueError(f"support size d={d} out of range 0..{n}")
    return PointSet(n, q, _weighted_points(n, [0] + [1] * (q - 1), d, d))


def blow_up(family: SetFamily, q: int) -> PointSet:
    """All points whose support is a member of the family.

    Each member F contributes the (q-1)^|F| points taking values in
    1..q-1 on F and 0 elsewhere.
    """
    if q < 2:
        raise ValueError("alphabet size q must be at least 2")
    n = family.n
    pts: list[Point] = []
    for m in family:
        coords = sorted(m)
        for values in itertools.product(range(1, q), repeat=len(coords)):
            p = [0] * n
            for c, val in zip(coords, values):
                p[c - 1] = val
            pts.append(tuple(p))
    return PointSet(n, q, pts)


def subfamily_through(family: SetFamily, coords: Iterable[int]) -> SetFamily:
    """Members of the family containing every one of the given coordinates."""
    cs = frozenset(int(c) for c in coords)
    if any(not 1 <= c <= family.n for c in cs):
        raise ValueError(f"coordinates {sorted(cs)} out of range 1..{family.n}")
    return SetFamily(family.n, (m for m in family if cs <= m))


def km_extremal(n: int, s: int, q: int) -> PointSet:
    """All points with at most s coordinates equal to q-1.

    This system is extremal for the Karpovsky-Milman bound: it meets the
    bound with equality and shatters no coordinate set of size s+1.
    """
    if not 0 <= s <= n:
        raise ValueError(f"s={s} out of range 0..{n}")
    return PointSet(n, q, _weighted_points(n, [0] * (q - 1) + [1], 0, s))


def ballot_member(v: Sequence[int], q: int) -> bool:
    """Ballot condition: every odd prefix 1..2t-1 holds at most t-1
    coordinates equal to q-1."""
    count = 0
    for i, c in enumerate(v, start=1):
        if not 0 <= c <= q - 1:
            raise ValueError(f"coordinate {c} out of range 0..{q - 1}")
        if c == q - 1:
            count += 1
        if i % 2 == 1 and count > (i - 1) // 2:
            return False
    return True


def minimal_ballot_violators(t: int, n: int) -> SetFamily:
    """The t-sets whose characteristic vector first violates the q=2 ballot
    condition at prefix 2t-1.

    These are exactly the inclusion-minimal subsets of {1..n} whose
    characteristic vector fails ballot_member at q=2; all of their
    elements are below 2t.
    """
    if not 0 < 2 * t <= n:
        raise ValueError(f"t={t} out of range 1..{n // 2}")
    hits = []
    for combo in itertools.combinations(range(1, 2 * t), t):
        if all(combo[i - 1] >= 2 * i for i in range(1, t)):
            hits.append(combo)
    return SetFamily(n, hits)


def full_exponent_count(m: Monomial, q: int) -> int:
    """Number of exponents equal to q-1; rejects exponents of q or more."""
    for e in m.exponents:
        if e >= q:
            raise ValueError(f"exponent {e} out of range 0..{q - 1}")
    return sum(1 for e in m.exponents if e == q - 1)


def lower_bound_slice(n: int, s: int, q: int) -> tuple[int, PointSet]:
    """The largest constant-coordinate-sum slice of km_extremal(n, s, q).

    Returns (d, X) where X is d-uniform, inherits the no-shattered-
    (s+1)-set property, and by pigeonhole has at least
    |km_extremal(n,s,q)| / ((q-1)n + 1) points.  Ties pick the smallest d.
    """
    w = km_extremal(n, s, q)
    buckets: dict[int, list[Point]] = {}
    for p in w:
        buckets.setdefault(sum(p), []).append(p)
    best_d = min(buckets, key=lambda d: (-len(buckets[d]), d))
    return best_d, PointSet(n, q, buckets[best_d])

"""Compression of a point set onto the exponent vectors of its normal set.

Replacing V by the exponent vectors W of its standard monomials gives a
downward-closed set of the same size whose trace on every coordinate set
is no larger than that of V: the monomials supported inside a coordinate
set S stay linearly independent as functions on the restriction of V to
S, so they cannot outnumber it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable

from .ideals import standard_monomials
from .polyring import TermOrder
from .tuples import PointSet

__all__ = ["CompressionResult", "alon_compress", "trace_size", "is_downward_closed"]

# beyond this dimension the full trace table is exponential; callers must
# name the coordinate sets they care about
_FULL_TRACE_LIMIT = 4


@dataclass(frozen=True)
class CompressionResult:
    """Outcome of a compression: the exponent-vector system, the order used,
    and (source, compressed) trace sizes per requested coordinate set."""

    compressed: PointSet
    order: TermOrder
    traces: dict[frozenset[int], tuple[int, int]]


def trace_size(v: PointSet, coords: Iterable[int]) -> int:
    """Number of distinct restrictions of v to the coordinate set."""
    return len(v.restrictions(coords))


def is_downward_closed(w: PointSet) -> bool:
    """Whether w contains every coordinatewise-dominated tuple of each member.

    Checking single-coordinate decrements suffices: repeated steps reach
    every dominated tuple.
    """
    members = set(w.points)
    for p in members:
        for i, c in enumerate(p):
            if c and p[:i] + (c - 1,) + p[i + 1:] not in members:
                return False
    return True


def alon_compress(
    v: PointSet,
    order: TermOrder = TermOrder.DEGLEX,
    trace_sets: Iterable[Iterable[int]] | None = None,
) -> CompressionResult:
    """Compress v onto the exponent vectors of its standard monomials.

    The result is verified before returning: it must be downward closed,
    have exactly |V| points, and have trace on each requested coordinate
    set no larger than that of v.  A failure of any of these signals a
    bug in the engine and raises RuntimeError rather than returning a
    bad system.  With trace_sets=None all coordinate sets are checked in
    dimension up to 4 and none beyond.
    """
    sm = standard_monomials(v, order)
    w = PointSet(v.n, v.q, sm.exponent_vectors())

    if len(w) != len(v):
        raise RuntimeError(f"compression changed the size: {len(v)} -> {len(w)}")
    if not is_downward_closed(w):
        raise RuntimeError("compressed system is not downward closed")

    if trace_sets is None:
        if v.n <= _FULL_TRACE_LIMIT:
            sets = [
                frozenset(c)
                for r in range(v.n + 1)
                for c in combinations(range(1, v.n + 1), r)
            ]
        else:
            sets = []
    else:
        sets = [frozenset(int(c) for c in s) for s in trace_sets]

    traces: dict[frozenset[int], tuple[int, int]] = {}
    for s in sets:
        source, squeezed = trace_size(v, s), trace_size(w, s)
        if squeezed > source:
            raise RuntimeError(
                f"trace on {sorted(s)} grew from {source} to {squeezed}"
            )
        traces[s] = (source, squeezed)
    return CompressionResult(compressed=w, order=order, traces=traces)

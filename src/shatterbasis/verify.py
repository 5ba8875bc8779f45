"""Verification suites: dual-route checks, sharpness witnesses and searches.

Every suite pits an independent computation path against a claim: closed
forms against the evaluation-driven engine, counting formulas against
enumeration, bounds against exhaustive or sampled extremal searches.
Suites are deterministic; the ones that sample require an explicit seed.
A Report is reproducible bit-for-bit for fixed (suite, params, seed)
apart from its elapsed_ms field.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import multiprocessing
import os
import random
import sys
import time
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Iterator, Sequence

from .closedform import (
    bound,
    count_ballot,
    gb_blowup,
    shatter_cap,
    sm_blowup,
    sm_hamming_sphere,
    sm_uniform_binary,
)
from .compress import alon_compress
from .ideals import (
    StandardMonomialSet,
    _first_nonzero,
    _normal_set,
    certify_groebner,
    non_shatter_certificate,
    standard_monomials,
)
from .polyring import Monomial, TermOrder, leading_monomial
from .tuples import (
    Point,
    PointSet,
    SetFamily,
    _max_shattered,
    _shattered_sets,
    _trace_sets,
    _weighted_points,
    ballot_member,
    blow_up,
    classify,
    complete_uniform,
    full_exponent_count,
    hamming_sphere,
    km_extremal,
    lower_bound_slice,
    shatters,
    support,
)

__all__ = ["Report", "run_suite", "counterexample_search", "oracle_diff", "SUITE_NAMES"]

_BOTH_ORDERS = (TermOrder.DEGLEX, TermOrder.LEX)

# exhaustive sweeps refuse to enumerate more candidate systems than this
_EXHAUSTIVE_CAP = 1 << 20
# family instances are much costlier than subset instances (each one runs a
# full basis construction), so their exhaustive ground set is capped harder
_FAMILY_GROUND_CAP = 3


@dataclass(frozen=True)
class Report:
    suite: str
    params: dict
    checked: int
    failures: tuple
    elapsed_ms: float
    verdict: str

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "params": dict(self.params),
            "checked": self.checked,
            "failures": [dict(f) for f in self.failures],
            "elapsed_ms": self.elapsed_ms,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def canonical(self) -> dict:
        """The reproducible part: everything except wall time."""
        out = self.to_dict()
        del out["elapsed_ms"]
        return out


def _pmap(check: Callable[[tuple], tuple[int, list]], items: Iterable[tuple], jobs: int) -> tuple[int, list]:
    """Run a top-level check on every item (a plain tuple, so that worker
    processes can receive it), in at most one worker process per item and
    per CPU, and sum the (checked, failures) pairs it returns.  One worker
    takes the items lazily, so a long instance stream is never listed.  A
    worker that dies raises RuntimeError instead of leaving the run waiting
    for it."""
    workers = min(jobs, os.cpu_count() or 1)
    if workers > 1:
        items = list(items)
        workers = min(workers, len(items))
    if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
        # imported here: up front it slows every import of the package by about a tenth
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        chunk = -(-len(items) // (4 * workers))  # multiprocessing.Pool.map's default
        try:
            with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork")) as pool:
                results = list(pool.map(check, items, chunksize=chunk))
        except BrokenProcessPool as exc:
            raise RuntimeError(f"a worker process died: {exc}") from exc
    else:
        results = map(check, items)
    checked, failures = 0, []
    for c, f in results:
        checked += c
        failures += f
    return checked, failures


def _ground(n: int, q: int, d: int | None = None, sphere: bool = False) -> tuple[int, Iterable | Callable]:
    """A ground (size, points), sized without listing it.  For d None, the
    grid {0..q-1}^n, its points decoded from their index; it is refused past
    sys.maxsize points, so q^n is computed only for n < 63.  Otherwise the
    complete d-uniform system or the radius-d Hamming sphere, its points
    yielded lazily in lex order."""
    if d is None:
        if n >= 63 or q**n > sys.maxsize:
            raise ValueError(f"the grid {{0..{q - 1}}}^{n} is too large to draw from")
        return q**n, functools.partial(_grid_point, n, q)
    if sphere:
        return comb(n, d) * (q - 1) ** d, _weighted_points(n, [0] + [1] * (q - 1), d, d)
    # inclusion-exclusion over the j coordinates forced to exceed q - 1
    size = sum((-1) ** j * comb(n, j) * comb(d - j * q + n - 1, n - 1) for j in range(min(n, d // q) + 1))
    return size, _weighted_points(n, range(q), d, d)


def _grid_point(n: int, q: int, k: int) -> Point:
    return tuple([k // q ** (n - 1 - i) % q for i in range(n)])


def _refuse(work: int, what: str, remedy: str = "") -> None:
    """The one test of a run's work against the cap, made before that work:
    before the first instance or, for work that depends on the data, before
    that instance's.  Past it, raise "<what> the cap of 1048576; <remedy>"."""
    if work > _EXHAUSTIVE_CAP:
        raise ValueError(f"{what} the cap of {_EXHAUSTIVE_CAP}" + (f"; {remedy}" if remedy else ""))


def _refuse_system(n: int, size: Callable[[], int], remedy: str) -> None:
    """Refuse a suite whose largest system, of size() >= n points, is too big for
    the engine: an elimination holds |V| rows of |V| + 1 integers, so its work is
    |V|^2.  n is tested first, so that size() is called only once n has passed."""
    _refuse(n * n, f"the largest system's elimination, of at least {n}^2 entries, exceeds", remedy)
    points = size()
    _refuse(points**2, f"the largest system's elimination, of {points}^2 entries, exceeds", remedy)


def _instances(
    heads: Iterable[tuple],
    grounds: Iterable[tuple],
    samples: int | None = None,
    max_size: int | None = None,
    rng: random.Random | None = None,
    remedy: str = "use samples= and seed= instead",
    engine: bool = False,
) -> Iterator[tuple]:
    """head + (subset,) per instance of each slice, a slice being a head and
    a ground (size, points), its points sorted or decoded from their index.
    Each slice gives every nonempty subset or, with samples, `samples`
    sorted draws of a uniform size in 1..max_size (default: all), picked by
    index as random.sample picks from any population.  Every refusal comes
    before the first head is read: the first slice whose 2^N - 1 subsets
    exceed the cap, a draw that could, a draw whose elimination would when
    engine is set (|V|^2 entries, as the engine holds |V| rows of |V| + 1),
    or a sampled slice that would be listed past the cap, each told to
    _refuse."""
    slices = []
    for size, points in grounds:
        top = size if max_size is None else min(max_size, size)
        if samples is None:
            what = f"exhaustive enumeration of the 2^{size} - 1 subsets of {size} points exceeds"
            _refuse((1 << min(size, 64)) - 1, what, remedy)
        else:
            draw_remedy = "bound the draw with --max-size (max_size=)"
            _refuse(top, f"a sampled draw of up to {top} points exceeds", draw_remedy)
            if engine and samples:
                _refuse(top**2, f"a sampled draw's elimination, of up to {top}^2 entries, exceeds", draw_remedy)
            if not callable(points):
                _refuse(size, f"listing the {size} points of a sampled slice exceeds", "lower n instead")
        slices.append((size, top, points))
    for head, (size, top, points) in zip(heads, slices):
        pick = points if callable(points) else tuple(points).__getitem__
        if samples is None:
            listed = [pick(k) for k in range(size)]
            for r in range(1, size + 1):
                for subset in itertools.combinations(listed, r):
                    yield head + (subset,)
        else:
            for _ in range(samples):
                ks = sorted(rng.sample(range(size), rng.randint(1, top)))
                yield head + (tuple([pick(k) for k in ks]),)


def _failure(params: dict, expected, actual) -> dict:
    """The one failure record: the instance, the value expected and the value found."""
    return {"params": params, "expected": expected, "actual": actual}


def _listed(points: Iterable[Point]) -> list[list[int]]:
    """Instance points as JSON lists, for a failure record."""
    return [list(p) for p in points]


def _diff_closed_form(
    params: dict,
    v: PointSet,
    closed: Callable[[TermOrder], StandardMonomialSet],
    orders: Sequence[TermOrder] = _BOTH_ORDERS,
) -> list[dict]:
    """One failure per order in which the closed-form normal set differs
    from the engine's normal set of I(v)."""
    fails = []
    for order in orders:
        brute = _normal_set(v, order).exponent_vectors()
        got = closed(order).exponent_vectors()
        if got != brute:
            fails.append(_failure({**params, "order": order.value}, sorted(brute), sorted(got)))
    return fails


def _check_size(item: tuple) -> tuple[int, list[dict]]:
    """For every s from the largest size the instance's points shatter up
    to the last of the limits, they shatter nothing above s, so there may
    be at most limits[s] of them."""
    params, limits, pts = item
    sizes = range(max(_max_shattered(params["n"], params["q"], pts), 0), len(limits))
    return len(sizes), [
        _failure({**params, "s": s, "points": _listed(pts)}, f"at most {limits[s]} points", len(pts))
        for s in sizes
        if len(pts) > limits[s]
    ]


# ---------------------------------------------------------------- suites


def _check_cardinality(item: tuple) -> tuple[int, list[dict]]:
    n, q, pts = item
    v = PointSet(n, q, pts)
    fails = []
    for order in _BOTH_ORDERS:
        sm = _normal_set(v, order)
        if len(sm) != len(v):
            fails.append(_failure({"points": _listed(pts), "order": order.value}, len(v), len(sm)))
        elif order is TermOrder.LEX:
            # a third route: the recursion, which solves no linear system
            got = standard_monomials(v, order)
            if got != sm:
                params = {"points": _listed(pts), "order": order.value, "route": "recursion"}
                fails.append(_failure(params, sorted(sm.exponent_vectors()), sorted(got.exponent_vectors())))
    return 1, fails


def _suite_sm_cardinality(n, q, samples=None, max_size=None, seed=None, jobs=1):
    """|standard monomials| == |V| for subsets of the full grid, both orders;
    in lex the recursion must also find the elimination's normal set."""
    instances = _instances([(n, q)], [_ground(n, q)], samples, max_size, random.Random(seed), engine=True)
    return _pmap(_check_cardinality, instances, jobs)


def _check_uniform_binary(item: tuple) -> tuple[int, list[dict]]:
    n, d = item
    return 1, _diff_closed_form(
        {"n": n, "d": d}, complete_uniform(n, d, 2), lambda order: sm_uniform_binary(n, d, order)
    )


def _suite_uniform_binary(n_max, jobs=1):
    """Closed-form normal set of complete uniform binary systems vs engine."""
    _refuse_system(n_max, lambda: comb(n_max, n_max // 2), "lower n_max instead")
    instances = ((n, d) for n in range(1, n_max + 1) for d in range(n + 1))
    return _pmap(_check_uniform_binary, instances, jobs)


def _check_hamming_sphere(item: tuple) -> tuple[int, list[dict]]:
    n, d, q = item
    return 1, _diff_closed_form(
        {"n": n, "d": d, "q": q},
        hamming_sphere(n, d, q),
        lambda order: sm_hamming_sphere(n, d, q, order),
    )


def _suite_hamming_sphere(n_max, q, jobs=1):
    """Closed-form normal set of Hamming spheres vs engine, both orders."""
    sphere = functools.partial(_ground, n_max, q, sphere=True)
    _refuse_system(n_max, lambda: max(sphere(d)[0] for d in range(n_max + 1)), "lower n_max or q instead")
    instances = ((n, d, q) for n in range(1, n_max + 1) for d in range(n + 1))
    return _pmap(_check_hamming_sphere, instances, jobs)


def _check_blowup(item: tuple) -> tuple[int, list[dict]]:
    n, q, order_values, members = item
    family = SetFamily(n, members)
    grown = blow_up(family, q)
    params = {"members": sorted(sorted(m) for m in members), "q": q}
    orders = [TermOrder(value) for value in order_values]
    fails = _diff_closed_form(params, grown, lambda order: sm_blowup(family, q, order), orders)
    for order in orders:
        if not certify_groebner(grown, gb_blowup(family, q, order), order):
            fails.append(_failure({**params, "order": order.value}, "certified basis", "certification failed"))
    return 1, fails


def _suite_blowup(n, q, samples=None, seed=None, order=None, jobs=1):
    """Blow-up closed forms vs engine plus certification of the basis."""
    order_values = tuple(o.value for o in (_BOTH_ORDERS if order is None else (TermOrder(order),)))
    _refuse(1 << min(n, 64), f"the 2^{n} coordinate sets of a family exceed")
    if samples is None and n > _FAMILY_GROUND_CAP:
        raise ValueError(f"exhaustive families need n <= {_FAMILY_GROUND_CAP}; pass samples= and seed=")
    # the largest system is the blow-up of the family of every set
    _refuse_system(n, lambda: q**n, "lower n or q instead")
    ground = [m for r in range(n + 1) for m in itertools.combinations(range(1, n + 1), r)]
    head = (n, q, order_values)
    if samples is None:
        return _pmap(_check_blowup, _instances([head], [(len(ground), sorted(ground))]), jobs)
    # each set of ground joins a family with chance 1/2, and an empty family is drawn again
    rng = random.Random(seed)
    families = filter(None, iter(lambda: [m for m in ground if rng.random() < 0.5], None))
    return _pmap(_check_blowup, (head + (tuple(sorted(next(families))),) for _ in range(samples)), jobs)


def _check_ballot_count(item: tuple) -> tuple[int, list[dict]]:
    n, q = item
    tallies = [0] * (n + 1)
    for u in itertools.product(range(q), repeat=n):
        if ballot_member(u, q):
            tallies[sum(1 for e in u if e == q - 1)] += 1
    fails = []
    for i in range(n // 2 + 1):
        expected = count_ballot(n, q, i)
        if tallies[i] != expected:
            fails.append(_failure({"n": n, "q": q, "i": i}, expected, tallies[i]))
    leftover = sum(tallies[n // 2 + 1:])
    if leftover:
        fails.append(_failure({"n": n, "q": q}, "no ballot member with more than n/2 full exponents", leftover))
    return n // 2 + 1, fails


def _suite_ballot_count(n_max, q_max, jobs=1):
    """Ballot stratum formula vs direct enumeration of the grid."""

    def instances() -> Iterator[tuple]:
        return ((n, q) for n in range(1, n_max + 1) for q in range(2, q_max + 1))

    # an instance enumerates its q^n grid points; refusing the running total at
    # the instance that passes the cap computes no power far past it
    for total in itertools.accumulate(q**n for n, q in instances()):
        _refuse(total, f"enumerating at least {total} grid points exceeds", "lower n_max or q_max instead")
    return _pmap(_check_ballot_count, instances(), jobs)


def _check_uniform_ballot(item: tuple) -> tuple[int, list[dict]]:
    n, d, q = item
    fails = []
    u = complete_uniform(n, d, q)
    for order in _BOTH_ORDERS:
        sm = _normal_set(u, order)
        bad = [m.exponents for m in sm if not ballot_member(m.exponents, q)]
        if bad:
            params = {"n": n, "d": d, "q": q, "order": order.value}
            fails.append(_failure(params, "all standard monomials satisfy the ballot condition", sorted(bad)))
    return 1, fails


def _suite_uniform_ballot(n_max, q, jobs=1):
    """Standard monomials of complete uniform systems are ballot members."""
    _refuse_system(n_max, lambda: _ground(n_max, q, (q - 1) * n_max // 2)[0], "lower n_max or q instead")
    instances = ((n, d, q) for n in range(1, n_max + 1) for d in range((q - 1) * n + 1))
    return _pmap(_check_uniform_ballot, instances, jobs)


def _check_shatter_implication(item: tuple) -> tuple[int, list[dict]]:
    n, q, pts = item
    v = PointSet(n, q, pts)
    sm = _normal_set(v, TermOrder.DEGLEX)
    full_powers = sorted(
        (sorted(support(e)) for e in sm.exponent_vectors() if any(e) and set(e) <= {0, q - 1}),
        key=lambda cs: (len(cs), cs),
    )
    return 1, [
        _failure({"points": _listed(pts), "coords": cs}, "shattered", "not shattered")
        for cs in full_powers
        if not shatters(v, cs)
    ]


def _draw_outside(rng: random.Random, total: int, taken: list[int]) -> int:
    """A uniform draw from the integers of range(total) outside the sorted
    list taken.  rng.randrange(m) and rng.choice of an m-item sequence both
    call rng._randbelow(m) once, so this is the draw rng.choice would make
    from those integers listed in increasing order."""
    k = rng.randrange(total - len(taken))
    for t in taken:
        if t > k:
            break
        k += 1
    return k


def _set_rank(n: int, cs: Sequence[int]) -> int:
    """The index of the nonempty sorted coordinate set cs among all nonempty
    subsets of 1..n in (size, lex) order, the order of
    itertools.combinations over increasing sizes."""
    r = len(cs)
    before = sum(comb(n, j) for j in range(1, r))
    return before + comb(n, r) - 1 - sum(comb(n - c, r - j) for j, c in enumerate(cs))


def _unrank_set(k: int, n: int) -> tuple[int, ...]:
    """The coordinate set of index k in the order of _set_rank."""
    r = 1
    while k >= comb(n, r):
        k -= comb(n, r)
        r += 1
    cs, c = [], 0
    for left in range(r, 0, -1):
        c += 1
        while k >= comb(n - c, left - 1):
            k -= comb(n - c, left - 1)
            c += 1
        cs.append(c)
    return tuple(cs)


def _certificate_draws(n: int, q: int, rng: random.Random, samples: int, max_size: int) -> Iterator[tuple]:
    """Per drawn V, a coordinate set V does not shatter and a witness point
    whose pattern on it V misses, all drawn from rng in turn.  Both are
    drawn by rank, past the sorted ranks of the shattered sets and of the
    patterns present, so neither all coordinate sets nor all q^|cs|
    patterns are listed.  The certificate on cs expands into
    up to q^|cs| terms, so a drawn cs past the cap is refused."""
    for (pts,) in _instances([()], [_ground(n, q)], samples, max_size, rng):
        shattered = sorted(_set_rank(n, cs) for cs in _shattered_sets(n, q, pts) if cs)
        cs = _unrank_set(_draw_outside(rng, 2**n - 1, shattered), n)
        what = f"the certificate on the {len(cs)} drawn coordinates {list(cs)} expands into up to"
        _refuse(q ** len(cs), f"{what} {q}^{len(cs)} terms, past", "use a smaller --n (n=)")
        present = sorted({functools.reduce(lambda code, c: code * q + p[c - 1], cs, 0) for p in pts})
        witness = [0] * n
        for c, value in zip(cs, _grid_point(len(cs), q, _draw_outside(rng, q ** len(cs), present))):
            witness[c - 1] = value
        yield n, q, pts, cs, witness


def _check_certificate(item: tuple) -> tuple[int, list[dict]]:
    n, q, pts, cs, witness = item
    v = PointSet(n, q, pts)
    cert = non_shatter_certificate(v, cs, witness)
    expected_lead = Monomial(tuple(q - 1 if i in cs else 0 for i in range(1, n + 1)))
    fails = []
    hit = _first_nonzero([cert], v)
    if hit is not None:
        params = {"points": _listed(v), "coords": list(cs), "witness": witness}
        fails.append(_failure(params, "certificate vanishes on V", f"nonzero at {list(hit[1])}"))
    for order in _BOTH_ORDERS:
        lead = leading_monomial(cert, order)
        if lead != expected_lead:
            params = {"coords": list(cs), "witness": witness, "order": order.value}
            fails.append(_failure(params, list(expected_lead.exponents), list(lead.exponents)))
    return 1, fails


def _suite_shatter_certificates(n, q, samples, cert_samples=0, max_size=None, seed=None, jobs=1):
    """Full-power standard monomials force shattering; witness certificates
    vanish and lead with the full power product."""
    rng, grid = random.Random(seed), _ground(n, q)
    top = grid[0] - 1  # keep at least one pattern missing
    max_size = min(max_size or top, top)
    implied = _instances([(n, q)], [grid], samples, max_size, rng, engine=True)
    checked, fails = _pmap(_check_shatter_implication, implied, jobs)
    # drawn only once the implication draws are spent, as rng is shared
    c, f = _pmap(_check_certificate, _certificate_draws(n, q, rng, cert_samples, max_size), jobs)
    return checked + c, fails + f


def _check_sphere_attains(item: tuple) -> tuple[int, list[dict]]:
    n, d, s, q, limit = item
    sphere = hamming_sphere(n, d, q)
    worst = _max_shattered(n, q, sphere.points)
    params = {"n": n, "d": d, "s": s, "q": q}
    fails = []
    if len(sphere) != limit:
        fails.append(_failure(params, limit, len(sphere)))
    if worst > s:
        fails.append(_failure(params, f"no shattered set of size {s + 1}", worst))
    return 2, fails


def _check_gap_subset(item: tuple) -> tuple[int, list[int]]:
    """The size of the subsystem if it shatters nothing above s."""
    n, q, s, pts = item
    return 1, [len(pts)] if _max_shattered(n, q, pts) <= s else []


def _suite_hamming_sharpness(n, d, s, q, jobs=1):
    """The Hamming-system bound is attained by the sphere when n = s + d and
    strictly unattainable when q > 2 and s + d < n (checked exhaustively)."""
    limit = bound("hamming", n, d=d, s=s, q=q).value
    if n == s + d:
        size, _ = _ground(n, q, d, sphere=True)
        _refuse(size, f"the radius-{d} Hamming sphere of {size} points exceeds", "lower n instead")
        return _pmap(_check_sphere_attains, [(n, d, s, q, limit)], jobs)
    if q == 2:
        raise ValueError("the strict-gap check (s + d < n) applies only for q > 2")
    subsets = _instances([(n, q, s)], [_ground(n, q, d, sphere=True)], remedy="lower n instead")
    checked, sizes = _pmap(_check_gap_subset, subsets, jobs)
    best = max(sizes, default=0)
    if best < limit:
        return checked, []
    return checked, [_failure({"n": n, "d": d, "s": s, "q": q}, f"strict gap below {limit}", best)]


def _check_km(item: tuple) -> tuple[int, list[dict]]:
    n, q, s = item
    w = km_extremal(n, s, q)
    problems = []
    limit = bound("km", n, s=s, q=q).value
    if len(w) != limit:
        problems.append(f"size {len(w)} != bound {limit}")
    worst = _max_shattered(n, q, w.points)
    if worst > s:
        problems.append(f"shatters a set of size {worst}")
    d, x = lower_bound_slice(n, s, q)
    if classify(x).coordinate_sum != d:
        problems.append("slice is not d-uniform")
    if len(x) * ((q - 1) * n + 1) < len(w):
        problems.append(f"slice size {len(x)} below pigeonhole guarantee")
    worst = _max_shattered(n, q, x.points)
    if worst > s:
        problems.append(f"slice shatters a set of size {worst}")
    if not problems:
        return 1, []
    return 1, [_failure({"n": n, "s": s, "q": q}, "extremal witness properties", "; ".join(problems))]


def _suite_km_sharpness(n_max, s_max, q_max, jobs=1):
    """Bounded-maximal-coordinate systems attain the q-ary bound, shatter
    nothing too large, and their largest uniform slice keeps both virtues."""

    def instances() -> Iterator[tuple]:
        for n in range(1, n_max + 1):
            for q in range(2, q_max + 1):
                yield from ((n, q, s) for s in range(min(s_max, n - 1) + 1))

    # an instance lists km_extremal's points, as many as the bound, and its shattered walk
    # tests at most the sets of up to s + 1 coordinates, all n coordinates long; refusing the
    # running total at the instance that passes the cap evaluates no bound far past it
    remedy = "lower n_max, s_max or q_max instead"
    for total in itertools.accumulate(
        n * (bound("km", n, s=s, q=q).value + sum(comb(n, i) for i in range(s + 2))) for n, q, s in instances()
    ):
        _refuse(total, f"listing at least {total} coordinates over the instances exceeds", remedy)
    return _pmap(_check_km, instances(), jobs)


def _check_compress(item: tuple) -> tuple[int, list[dict]]:
    n, q, pts = item
    v = PointSet(n, q, pts)
    # alon_compress keeps |W| = |V|, so a trace can grow only on a set where
    # V's restriction is not injective; those sets form a down-set, each one
    # traced on V and W in both orders (4|V| codes), so the walk stops past
    # the cap.  By default alon_compress checks no trace set above n = 4.
    clashing = _trace_sets(n, q, pts, lambda cs, codes: len(set(codes)) < len(codes))
    trace_sets = list(itertools.islice(clashing, _EXHAUSTIVE_CAP // (4 * len(pts)) + 1))
    what = f"tracing at least {len(trace_sets)} non-injective coordinate sets, 4 * {len(pts)} codes each, exceeds"
    _refuse(4 * len(pts) * len(trace_sets), what, "lower n or bound the draw with --max-size (max_size=)")
    trace_sets.sort(key=lambda cs: (len(cs), cs))
    fails = []
    for order in _BOTH_ORDERS:
        try:
            alon_compress(v, order, trace_sets=trace_sets)
        except RuntimeError as exc:
            fails.append(_failure({"points": _listed(pts), "order": order.value}, "invariants hold", str(exc)))
    return 1, fails


def _suite_alon_compress(n, q, samples=None, max_size=None, seed=None, jobs=1):
    """Compression invariants: size kept, downward closed, traces dominated."""
    instances = _instances([(n, q)], [_ground(n, q)], samples, max_size, random.Random(seed), engine=True)
    return _pmap(_check_compress, instances, jobs)


def _check_shatter_cap(item: tuple) -> tuple[int, list[dict]]:
    n, d, q, cap, pts = item
    worst = _max_shattered(n, q, pts)
    if worst <= cap:
        return 1, []
    params = {"n": n, "d": d, "q": q, "points": _listed(pts)}
    return 1, [_failure(params, f"shattered sets of size at most {cap}", worst)]


def _suite_shatter_cap(n, q, jobs=1):
    """No subsystem of a complete d-uniform system shatters a set larger
    than ceil(d / (q-1))."""
    ds = range((q - 1) * n + 1)
    heads = ((n, d, q, shatter_cap(d, q)) for d in ds)
    instances = _instances(heads, (_ground(n, q, d) for d in ds), remedy="lower n instead")
    return _pmap(_check_shatter_cap, instances, jobs)


def _check_q2_bound(item: tuple) -> tuple[int, list[dict]]:
    name, n, d, s = item
    got = bound(name, n, d=d, s=s, q=2).value
    if got == comb(n, s):
        return 1, []
    params = {k: v for k, v in {"n": n, "d": d, "s": s, "name": name}.items() if v is not None}
    return 1, [_failure(params, comb(n, s), got)]


def _suite_q2_consistency(n_max, jobs=1):
    """At q=2 the q-ary uniform and Hamming bounds collapse to C(n, s)."""
    # the sum over n of n // 2 + 1 uniform and (n + 1)(n + 2) / 2 Hamming instances
    count = n_max + n_max**2 // 4 + comb(n_max + 3, 3) - 1
    _refuse(count, f"the {count} instances exceed", "lower n_max instead")
    instances = itertools.chain(
        (("uniform", n, None, s) for n in range(1, n_max + 1) for s in range(n // 2 + 1)),
        (("hamming", n, d, s) for n in range(1, n_max + 1) for d in range(n + 1) for s in range(n - d + 1)),
    )
    return _pmap(_check_q2_bound, instances, jobs)


def _suite_sm_slice(n, q, jobs=1):
    """Any subsystem of a complete uniform system shattering nothing larger
    than s fits inside the standard monomials with at most s full exponents."""
    ds = range((q - 1) * n + 1)
    heads = (({"n": n, "d": d, "q": q}, _full_exponent_limits(n, d, q)) for d in ds)
    instances = _instances(heads, (_ground(n, q, d) for d in ds), remedy="lower n instead")
    return _pmap(_check_size, instances, jobs)


def _full_exponent_limits(n: int, d: int, q: int) -> tuple[int, ...]:
    """limits[s]: the standard monomials of the complete d-uniform system
    with at most s full exponents."""
    counts = [0] * (n + 1)
    for m in _normal_set(complete_uniform(n, d, q), TermOrder.DEGLEX):
        counts[full_exponent_count(m, q)] += 1
    return tuple(itertools.accumulate(counts))


def _suite_search(theorem, n, q, samples=None, max_size=None, seed=None, jobs=1):
    """A counterexample search: no subsystem of a slice of the theorem's
    ambient system may beat its bound."""
    if theorem == "km":  # one slice: the grid, drawn by index and never listed
        ds, grounds = [None], [_ground(n, q)]
    else:
        ds = range(n + 1) if theorem == "hamming" else range((q - 1) * n + 1)
        grounds = (_ground(n, q, d, sphere=theorem == "hamming") for d in ds)
    heads = (({"n": n, "q": q, "d": d}, _bound_limits(theorem, n, d, q)) for d in ds)
    return _pmap(_check_size, _instances(heads, grounds, samples, max_size, random.Random(seed)), jobs)


def _bound_limits(theorem: str, n: int, d: int | None, q: int) -> tuple[int, ...]:
    """limits[s]: the theorem's bound on a subsystem of slice d that
    shatters nothing above s, for every s the theorem allows."""
    s_top = n - 1 if theorem == "km" else n // 2 if theorem == "uniform" else n - d
    return tuple(bound(theorem, n, d=d, s=s, q=q).value for s in range(s_top + 1))


_SUITES: dict[str, Callable[..., tuple[int, list[dict]]]] = {
    "sm-cardinality": _suite_sm_cardinality,
    "uniform-binary": _suite_uniform_binary,
    "hamming-sphere": _suite_hamming_sphere,
    "blowup": _suite_blowup,
    "ballot-count": _suite_ballot_count,
    "uniform-ballot": _suite_uniform_ballot,
    "shatter-certificates": _suite_shatter_certificates,
    "hamming-sharpness": _suite_hamming_sharpness,
    "km-sharpness": _suite_km_sharpness,
    "alon-compress": _suite_alon_compress,
    "shatter-cap": _suite_shatter_cap,
    "q2-consistency": _suite_q2_consistency,
    "sm-slice": _suite_sm_slice,
    "search-uniform": functools.partial(_suite_search, "uniform"),
    "search-hamming": functools.partial(_suite_search, "hamming"),
    "search-km": functools.partial(_suite_search, "km"),
}

SUITE_NAMES = tuple(sorted(_SUITES))

# the least value of each integer suite parameter, None for any integer;
# shatter-certificates may draw certificates alone (samples=0)
_LEAST = {
    "n": 1, "d": 0, "s": 0, "q": 2, "n_max": 1, "s_max": 0, "q_max": 2, "jobs": 1, "seed": None,
    "samples": 1, "cert_samples": 0, "max_size": 1, ("shatter-certificates", "samples"): 0,
}

_DIFF_SUITES = ("uniform-binary", "hamming-sphere", "ballot-count", "blowup")


def run_suite(name: str, **params) -> Report:
    """Run a named suite on its keyword parameters, None counting as not
    given, and wrap its outcome in a Report.  A parameter it does not take,
    a missing one, a bool or non-integer value of an integer parameter or
    one below its least value, or seed or max_size without samples raises
    ValueError."""
    fn = _SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}")
    takes = inspect.signature(fn).parameters
    given = {key: value for key, value in params.items() if value is not None}
    unknown = [key for key in given if key not in takes]
    missing = [key for key, p in takes.items() if p.default is p.empty and key not in given]
    if unknown or missing:
        problem = f" takes no parameter {unknown[0]!r}" if unknown else f": parameter {missing[0]!r} is required"
        raise ValueError(f"suite {name}{problem}; it takes {', '.join(takes) or 'no parameters'}")
    for key, value in given.items():
        if key in _LEAST:
            if isinstance(value, bool) or int(value) != value:
                raise ValueError(f"suite parameter {key}={value!r} must be an integer")
            given[key] = value = int(value)
            least = _LEAST.get((name, key), _LEAST[key])
            if least is not None and value < least:
                raise ValueError(f"suite parameter {key}={value} must be at least {least}")
    if "samples" in given and "seed" not in given:
        raise ValueError("sampling requires an explicit seed parameter")
    for key in ("seed", "max_size"):
        if key in given and "samples" not in given:
            raise ValueError(f"suite {name}: parameter {key!r} applies only to a sampled run; give samples too")
    start = time.perf_counter()
    checked, failures = fn(**given)
    elapsed_ms = round((time.perf_counter() - start) * 1000, 3)
    failures = sorted(failures, key=lambda f: json.dumps(f, sort_keys=True, default=str))
    clean = {k: (v.value if isinstance(v, TermOrder) else v) for k, v in {**params, **given}.items()}
    return Report(
        suite=name,
        params=clean,
        checked=checked,
        failures=tuple(failures),
        elapsed_ms=elapsed_ms,
        verdict="fail" if failures else "pass",
    )


def counterexample_search(theorem: str, **params) -> Report:
    """Search subsystems of the relevant ambient system for bound violations.

    theorem is one of 'uniform', 'hamming' or 'km'.  Without samples= the
    search is exhaustive (and refuses infeasible sizes); with samples= it
    draws seeded random subsystems.
    """
    if theorem not in ("uniform", "hamming", "km"):
        raise ValueError(f"unknown theorem {theorem!r}; expected uniform, hamming or km")
    return run_suite(f"search-{theorem}", **params)


def oracle_diff(name: str, params: dict | None = None) -> Report:
    """Diff a closed form against its brute-force oracle."""
    if name not in _DIFF_SUITES:
        raise ValueError(f"no oracle diff for {name!r}; expected one of {', '.join(_DIFF_SUITES)}")
    return run_suite(name, **(params or {}))

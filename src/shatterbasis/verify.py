"""Verification suites: dual-route checks, sharpness witnesses and searches.

Every suite pits an independent computation path against a claim: closed
forms against the evaluation-driven engine, counting formulas against
enumeration, bounds against exhaustive or sampled extremal searches.
Suites are deterministic; the ones that sample require an explicit seed.
A Report is reproducible bit-for-bit for fixed (suite, params, seed)
apart from its elapsed_ms field.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import random
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .closedform import (
    bound,
    count_ballot,
    gb_blowup,
    sm_blowup,
    sm_hamming_sphere,
    sm_uniform_binary,
)
from .compress import alon_compress
from .ideals import (
    StandardMonomialSet,
    _first_nonzero,
    certify_groebner,
    non_shatter_certificate,
    vanishing_basis,
)
from .polyring import Monomial, TermOrder, leading_monomial
from .tuples import (
    Point,
    PointSet,
    SetFamily,
    ballot_member,
    blow_up,
    classify,
    complete_uniform,
    full_exponent_count,
    hamming_sphere,
    km_extremal,
    lower_bound_slice,
    shatters,
    shattered_family,
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


def _verdict(failures: Sequence[dict]) -> str:
    return "pass" if not failures else "fail"


def _pmap(check: Callable[[tuple], list[dict]], items: Sequence, jobs: int) -> tuple[int, list[dict]]:
    """Run a top-level check on every item (a plain tuple, so that worker
    processes can receive it), in at most one worker process per item and
    per CPU; return the item count and all failures.  A worker that dies
    raises RuntimeError instead of leaving the run waiting for it."""
    items = list(items)
    workers = min(jobs, len(items), os.cpu_count() or 1)
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
        results = [check(item) for item in items]
    return len(items), [f for fs in results for f in fs]


def _int_param(params: dict, name: str, default: int | None = None, minimum: int | None = None) -> int:
    value = params.get(name, default)
    if value is None:
        raise ValueError(f"suite parameter {name!r} is required")
    value = int(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"suite parameter {name}={value} must be at least {minimum}")
    return value


def _jobs_param(params: dict) -> int:
    return _int_param(params, "jobs", default=1, minimum=1)


def _seed_param(params: dict) -> int:
    if "seed" not in params:
        raise ValueError("sampling requires an explicit seed parameter")
    return int(params["seed"])


def _orders_param(params: dict) -> tuple[TermOrder, ...]:
    if "order" in params and params["order"] is not None:
        return (TermOrder(params["order"]),)
    return _BOTH_ORDERS


def _subsets(
    points: Sequence,
    rng: random.Random | None = None,
    samples: int = 0,
    max_size: int | None = None,
) -> Iterator[tuple]:
    """Every nonempty subset of the points, or, given an rng, `samples`
    sorted draws, each of a uniform size in 1..max_size (default: all)."""
    if rng is None:
        # 2^N - 1 subsets exceed the cap exactly when N reaches this bit length
        if len(points) >= (_EXHAUSTIVE_CAP + 1).bit_length():
            raise ValueError(
                f"exhaustive enumeration of the 2^{len(points)} - 1 subsets of {len(points)} "
                f"points exceeds the cap of {_EXHAUSTIVE_CAP}; use samples= and seed= instead"
            )
        for r in range(1, len(points) + 1):
            yield from itertools.combinations(points, r)
        return
    top = len(points) if max_size is None else min(max_size, len(points))
    for _ in range(samples):
        size = rng.randint(1, top)
        yield tuple(sorted(rng.sample(points, size)))


def _grid_subsets(
    n: int, q: int, rng: random.Random | None = None, samples: int = 0, max_size: int | None = None
) -> Iterator[tuple]:
    """_subsets of the grid {0..q-1}^n in lex order, drawn as indices into
    it and decoded in base q, first coordinate most significant, so the
    grid is never listed.  random.sample uses only the population's length,
    so the draws are those of _subsets over the listed grid."""
    if q**n > sys.maxsize:
        raise ValueError(f"the grid {{0..{q - 1}}}^{n} is too large to draw from")
    for ks in _subsets(range(q**n), rng, samples, max_size):
        yield tuple(_grid_point(k, n, q) for k in ks)


def _grid_point(k: int, n: int, q: int) -> Point:
    return tuple(k // q ** (n - 1 - i) % q for i in range(n))


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
        brute = vanishing_basis(v, order)[1].exponent_vectors()
        got = closed(order).exponent_vectors()
        if got != brute:
            fails.append(
                {
                    "params": {**params, "order": order.value},
                    "expected": sorted(brute),
                    "actual": sorted(got),
                }
            )
    return fails


def _check_size(
    v: PointSet, s_top: int, limit: Callable[[int], int], params: dict
) -> tuple[int, list[dict]]:
    """For every s from the largest size v shatters up to s_top, v shatters
    nothing above s, so it may hold at most limit(s) points."""
    checked = 0
    fails = []
    for s in range(max(_max_shattered(v), 0), s_top + 1):
        checked += 1
        allowed = limit(s)
        if len(v) > allowed:
            fails.append(
                {
                    "params": {**params, "s": s, "points": [list(p) for p in v]},
                    "expected": f"at most {allowed} points",
                    "actual": len(v),
                }
            )
    return checked, fails


def _max_shattered(v: PointSet) -> int:
    return max(len(s) for s in shattered_family(v)) if len(v) else -1


# ---------------------------------------------------------------- suites


def _grid_subset_suite(check: Callable[[tuple], list[dict]], params: dict) -> tuple[int, list[dict]]:
    """Run check on (n, q, points) for every nonempty subset of the grid
    {0..q-1}^n, or for samples= seeded draws of 1..max_size points."""
    n = _int_param(params, "n", minimum=1)
    q = _int_param(params, "q", minimum=2)
    jobs = _jobs_param(params)
    if "samples" in params:
        samples = _int_param(params, "samples", minimum=1)
        max_size = _int_param(params, "max_size", default=q**n, minimum=1)
        subsets = _grid_subsets(n, q, random.Random(_seed_param(params)), samples, max_size)
    else:
        subsets = _grid_subsets(n, q)
    return _pmap(check, [(n, q, pts) for pts in subsets], jobs)


def _check_cardinality(item: tuple) -> list[dict]:
    n, q, pts = item
    v = PointSet(n, q, pts)
    fails = []
    for order in _BOTH_ORDERS:
        _, sm = vanishing_basis(v, order)
        if len(sm) != len(v):
            fails.append(
                {
                    "params": {"points": [list(p) for p in pts], "order": order.value},
                    "expected": len(v),
                    "actual": len(sm),
                }
            )
    return fails


def _suite_sm_cardinality(params: dict) -> tuple[int, list[dict]]:
    """|standard monomials| == |V| for subsets of the full grid, both orders."""
    return _grid_subset_suite(_check_cardinality, params)


def _check_uniform_binary(item: tuple) -> list[dict]:
    n, d = item
    return _diff_closed_form(
        {"n": n, "d": d}, complete_uniform(n, d, 2), lambda order: sm_uniform_binary(n, d, order)
    )


def _suite_uniform_binary(params: dict) -> tuple[int, list[dict]]:
    """Closed-form normal set of complete uniform binary systems vs engine."""
    n_max = _int_param(params, "n_max", minimum=1)
    jobs = _jobs_param(params)
    instances = [(n, d) for n in range(1, n_max + 1) for d in range(n + 1)]
    return _pmap(_check_uniform_binary, instances, jobs)


def _check_hamming_sphere(item: tuple) -> list[dict]:
    n, d, q = item
    return _diff_closed_form(
        {"n": n, "d": d, "q": q},
        hamming_sphere(n, d, q),
        lambda order: sm_hamming_sphere(n, d, q, order),
    )


def _suite_hamming_sphere(params: dict) -> tuple[int, list[dict]]:
    """Closed-form normal set of Hamming spheres vs engine, both orders."""
    n_max = _int_param(params, "n_max", minimum=1)
    q = _int_param(params, "q", minimum=2)
    jobs = _jobs_param(params)
    instances = [(n, d, q) for n in range(1, n_max + 1) for d in range(n + 1)]
    return _pmap(_check_hamming_sphere, instances, jobs)


def _check_blowup(item: tuple) -> list[dict]:
    n, q, members, order_values = item
    family = SetFamily(n, members)
    grown = blow_up(family, q)
    params = {"members": sorted(sorted(m) for m in members), "q": q}
    orders = [TermOrder(value) for value in order_values]
    fails = _diff_closed_form(params, grown, lambda order: sm_blowup(family, q, order), orders)
    for order in orders:
        if not certify_groebner(grown, gb_blowup(family, q, order), order):
            fails.append(
                {
                    "params": {**params, "order": order.value},
                    "expected": "certified basis",
                    "actual": "certification failed",
                }
            )
    return fails


def _suite_blowup(params: dict) -> tuple[int, list[dict]]:
    """Blow-up closed forms vs engine plus certification of the basis."""
    n = _int_param(params, "n", minimum=1)
    q = _int_param(params, "q", minimum=2)
    jobs = _jobs_param(params)
    order_values = tuple(o.value for o in _orders_param(params))
    ground = [m for r in range(n + 1) for m in itertools.combinations(range(1, n + 1), r)]
    if "samples" in params:
        samples = _int_param(params, "samples", minimum=1)
        rng = random.Random(_seed_param(params))
        families = []
        for _ in range(samples):
            while True:
                pick = [m for m in ground if rng.random() < 0.5]
                if pick:
                    families.append(tuple(sorted(pick)))
                    break
    else:
        if n > _FAMILY_GROUND_CAP:
            raise ValueError(
                f"exhaustive families need n <= {_FAMILY_GROUND_CAP}; pass samples= and seed="
            )
        families = [tuple(sorted(combo)) for combo in _subsets(ground)]
    instances = [(n, q, members, order_values) for members in families]
    return _pmap(_check_blowup, instances, jobs)


def _suite_ballot_count(params: dict) -> tuple[int, list[dict]]:
    """Ballot stratum formula vs direct enumeration of the grid."""
    n_max = _int_param(params, "n_max", minimum=1)
    q_max = _int_param(params, "q_max", minimum=2)
    checked = 0
    fails = []
    for n in range(1, n_max + 1):
        for q in range(2, q_max + 1):
            tallies = [0] * (n + 1)
            for u in itertools.product(range(q), repeat=n):
                if ballot_member(u, q):
                    tallies[sum(1 for e in u if e == q - 1)] += 1
            for i in range(n // 2 + 1):
                checked += 1
                expected = count_ballot(n, q, i)
                if tallies[i] != expected:
                    fails.append(
                        {
                            "params": {"n": n, "q": q, "i": i},
                            "expected": expected,
                            "actual": tallies[i],
                        }
                    )
            leftover = sum(tallies[n // 2 + 1:])
            if leftover:
                fails.append(
                    {
                        "params": {"n": n, "q": q},
                        "expected": "no ballot member with more than n/2 full exponents",
                        "actual": leftover,
                    }
                )
    return checked, fails


def _check_uniform_ballot(item: tuple) -> list[dict]:
    n, d, q = item
    fails = []
    u = complete_uniform(n, d, q)
    for order in _BOTH_ORDERS:
        _, sm = vanishing_basis(u, order)
        bad = [m.exponents for m in sm if not ballot_member(m.exponents, q)]
        if bad:
            fails.append(
                {
                    "params": {"n": n, "d": d, "q": q, "order": order.value},
                    "expected": "all standard monomials satisfy the ballot condition",
                    "actual": sorted(bad),
                }
            )
    return fails


def _suite_uniform_ballot(params: dict) -> tuple[int, list[dict]]:
    """Standard monomials of complete uniform systems are ballot members."""
    n_max = _int_param(params, "n_max", minimum=1)
    q = _int_param(params, "q", minimum=2)
    jobs = _jobs_param(params)
    instances = [(n, d, q) for n in range(1, n_max + 1) for d in range((q - 1) * n + 1)]
    return _pmap(_check_uniform_ballot, instances, jobs)


def _check_shatter_implication(item: tuple) -> list[dict]:
    n, q, pts = item
    v = PointSet(n, q, pts)
    _, sm = vanishing_basis(v, TermOrder.DEGLEX)
    full_powers = sorted(
        (sorted(support(e)) for e in sm.exponent_vectors() if any(e) and set(e) <= {0, q - 1}),
        key=lambda cs: (len(cs), cs),
    )
    return [
        {
            "params": {"points": [list(p) for p in pts], "coords": cs},
            "expected": "shattered",
            "actual": "not shattered",
        }
        for cs in full_powers
        if not shatters(v, cs)
    ]


def _suite_shatter_certificates(params: dict) -> tuple[int, list[dict]]:
    """Full-power standard monomials force shattering; witness certificates
    vanish and lead with the full power product."""
    n = _int_param(params, "n", minimum=1)
    q = _int_param(params, "q", minimum=2)
    samples = _int_param(params, "samples", minimum=0)
    cert_samples = _int_param(params, "cert_samples", default=0, minimum=0)
    seed = _seed_param(params)
    jobs = _jobs_param(params)
    max_size = _int_param(params, "max_size", default=q**n - 1, minimum=1)
    max_size = min(max_size, q**n - 1)  # keep at least one pattern missing

    rng = random.Random(seed)
    instances = [(n, q, pts) for pts in _grid_subsets(n, q, rng, samples, max_size)]
    _, fails = _pmap(_check_shatter_implication, instances, jobs)

    for pts in _grid_subsets(n, q, rng, cert_samples, max_size):
        v = PointSet(n, q, pts)
        candidates = [
            cs
            for r in range(1, n + 1)
            for cs in itertools.combinations(range(1, n + 1), r)
            if not shatters(v, cs)
        ]
        cs = rng.choice(candidates)
        present = v.restrictions(cs)
        missing = sorted(set(itertools.product(range(q), repeat=len(cs))) - present)
        pattern = rng.choice(missing)
        witness = [0] * n
        for c, value in zip(cs, pattern):
            witness[c - 1] = value
        cert = non_shatter_certificate(v, cs, witness)
        expected_lead = Monomial(tuple(q - 1 if i in cs else 0 for i in range(1, n + 1)))
        hit = _first_nonzero([cert], v)
        if hit is not None:
            fails.append(
                {
                    "params": {"points": [list(p) for p in v], "coords": list(cs), "witness": witness},
                    "expected": "certificate vanishes on V",
                    "actual": f"nonzero at {list(hit[1])}",
                }
            )
        for order in _BOTH_ORDERS:
            lead = leading_monomial(cert, order)
            if lead != expected_lead:
                fails.append(
                    {
                        "params": {"coords": list(cs), "witness": witness, "order": order.value},
                        "expected": list(expected_lead.exponents),
                        "actual": list(lead.exponents),
                    }
                )
    return samples + cert_samples, fails


def _suite_hamming_sharpness(params: dict) -> tuple[int, list[dict]]:
    """The Hamming-system bound is attained by the sphere when n = s + d and
    strictly unattainable when q > 2 and s + d < n (checked exhaustively)."""
    n = _int_param(params, "n", minimum=1)
    d = _int_param(params, "d", minimum=0)
    s = _int_param(params, "s", minimum=0)
    q = _int_param(params, "q", minimum=2)
    limit = bound("hamming", n, d=d, s=s, q=q).value
    sphere = hamming_sphere(n, d, q)
    fails = []
    checked = 0
    if n == s + d:
        checked += 2
        if len(sphere) != limit:
            fails.append(
                {
                    "params": {"n": n, "d": d, "s": s, "q": q},
                    "expected": limit,
                    "actual": len(sphere),
                }
            )
        if _max_shattered(sphere) > s:
            fails.append(
                {
                    "params": {"n": n, "d": d, "s": s, "q": q},
                    "expected": f"no shattered set of size {s + 1}",
                    "actual": _max_shattered(sphere),
                }
            )
    else:
        if q == 2:
            raise ValueError("the strict-gap check (s + d < n) applies only for q > 2")
        best = 0
        for pts in _subsets(sphere.points):
            v = PointSet(n, q, pts)
            checked += 1
            if _max_shattered(v) <= s:
                best = max(best, len(v))
        if best >= limit:
            fails.append(
                {
                    "params": {"n": n, "d": d, "s": s, "q": q},
                    "expected": f"strict gap below {limit}",
                    "actual": best,
                }
            )
    return checked, fails


def _suite_km_sharpness(params: dict) -> tuple[int, list[dict]]:
    """Bounded-maximal-coordinate systems attain the q-ary bound, shatter
    nothing too large, and their largest uniform slice keeps both virtues."""
    n_max = _int_param(params, "n_max", minimum=1)
    s_max = _int_param(params, "s_max", minimum=0)
    q_max = _int_param(params, "q_max", minimum=2)
    checked = 0
    fails = []
    for n in range(1, n_max + 1):
        for q in range(2, q_max + 1):
            for s in range(0, min(s_max, n - 1) + 1):
                checked += 1
                w = km_extremal(n, s, q)
                problems = []
                limit = bound("km", n, s=s, q=q).value
                if len(w) != limit:
                    problems.append(f"size {len(w)} != bound {limit}")
                if _max_shattered(w) > s:
                    problems.append(f"shatters a set of size {_max_shattered(w)}")
                d, x = lower_bound_slice(n, s, q)
                if classify(x).coordinate_sum != d:
                    problems.append("slice is not d-uniform")
                if len(x) * ((q - 1) * n + 1) < len(w):
                    problems.append(f"slice size {len(x)} below pigeonhole guarantee")
                if _max_shattered(x) > s:
                    problems.append(f"slice shatters a set of size {_max_shattered(x)}")
                if problems:
                    fails.append(
                        {
                            "params": {"n": n, "s": s, "q": q},
                            "expected": "extremal witness properties",
                            "actual": "; ".join(problems),
                        }
                    )
    return checked, fails


def _check_compress(item: tuple) -> list[dict]:
    n, q, pts = item
    v = PointSet(n, q, pts)
    # by default alon_compress checks no trace set above n = 4
    every_set = [cs for r in range(n + 1) for cs in itertools.combinations(range(1, n + 1), r)]
    fails = []
    for order in _BOTH_ORDERS:
        try:
            alon_compress(v, order, trace_sets=every_set)
        except RuntimeError as exc:
            fails.append(
                {
                    "params": {"points": [list(p) for p in pts], "order": order.value},
                    "expected": "invariants hold",
                    "actual": str(exc),
                }
            )
    return fails


def _suite_alon_compress(params: dict) -> tuple[int, list[dict]]:
    """Compression invariants: size kept, downward closed, traces dominated."""
    return _grid_subset_suite(_check_compress, params)


def _suite_shatter_cap(params: dict) -> tuple[int, list[dict]]:
    """No subsystem of a complete d-uniform system shatters a set larger
    than ceil(d / (q-1))."""
    from .closedform import shatter_cap

    n = _int_param(params, "n", minimum=1)
    q = _int_param(params, "q", minimum=2)
    checked = 0
    fails = []
    for d in range((q - 1) * n + 1):
        u = complete_uniform(n, d, q)
        cap = shatter_cap(d, q)
        for pts in _subsets(u.points):
            v = PointSet(n, q, pts)
            checked += 1
            worst = _max_shattered(v)
            if worst > cap:
                fails.append(
                    {
                        "params": {"n": n, "d": d, "q": q, "points": [list(p) for p in pts]},
                        "expected": f"shattered sets of size at most {cap}",
                        "actual": worst,
                    }
                )
    return checked, fails


def _suite_q2_consistency(params: dict) -> tuple[int, list[dict]]:
    """At q=2 the q-ary uniform and Hamming bounds collapse to C(n, s)."""
    from math import comb

    n_max = _int_param(params, "n_max", minimum=1)
    checked = 0
    fails = []
    for n in range(1, n_max + 1):
        for s in range(n // 2 + 1):
            checked += 1
            got = bound("uniform", n, s=s, q=2).value
            if got != comb(n, s):
                fails.append(
                    {"params": {"n": n, "s": s, "name": "uniform"}, "expected": comb(n, s), "actual": got}
                )
        for d in range(n + 1):
            for s in range(n - d + 1):
                checked += 1
                got = bound("hamming", n, d=d, s=s, q=2).value
                if got != comb(n, s):
                    fails.append(
                        {
                            "params": {"n": n, "d": d, "s": s, "name": "hamming"},
                            "expected": comb(n, s),
                            "actual": got,
                        }
                    )
    return checked, fails


def _suite_sm_slice(params: dict) -> tuple[int, list[dict]]:
    """Any subsystem of a complete uniform system shattering nothing larger
    than s fits inside the standard monomials with at most s full exponents."""
    n = _int_param(params, "n", minimum=1)
    q = _int_param(params, "q", minimum=2)
    checked = 0
    fails = []
    for d in range((q - 1) * n + 1):
        u = complete_uniform(n, d, q)
        _, sm = vanishing_basis(u, TermOrder.DEGLEX)
        cumulative = [0] * (n + 2)
        for m in sm:
            cumulative[full_exponent_count(m, q)] += 1
        for i in range(1, n + 2):
            cumulative[i] += cumulative[i - 1]
        for pts in _subsets(u.points):
            c, f = _check_size(
                PointSet(n, q, pts), n, lambda s: cumulative[s], {"n": n, "d": d, "q": q}
            )
            checked += c
            fails += f
    return checked, fails


def _suite_search(theorem: str, params: dict) -> tuple[int, list[dict]]:
    n = _int_param(params, "n", minimum=1)
    q = _int_param(params, "q", minimum=2)
    rng, samples = None, 0
    if "samples" in params:
        samples = _int_param(params, "samples", minimum=1)
        rng = random.Random(_seed_param(params))
    # (ambient system, d, largest s the theorem allows) per slice
    if theorem == "uniform":
        slices = [(complete_uniform(n, d, q), d, n // 2) for d in range((q - 1) * n + 1)]
    elif theorem == "hamming":
        slices = [(hamming_sphere(n, d, q), d, n - d) for d in range(n + 1)]
    else:
        slices = [(PointSet(n, q, itertools.product(range(q), repeat=n)), None, n - 1)]
    checked = 0
    fails = []
    for ambient, d, s_top in slices:
        for pts in _subsets(ambient.points, rng, samples):
            c, f = _check_size(
                PointSet(n, q, pts),
                s_top,
                lambda s: bound(theorem, n, d=d, s=s, q=q).value,
                {"n": n, "q": q, "d": d},
            )
            checked += c
            fails += f
    return checked, fails


_SUITES: dict[str, Callable[[dict], tuple[int, list[dict]]]] = {
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
    "search-uniform": lambda params: _suite_search("uniform", params),
    "search-hamming": lambda params: _suite_search("hamming", params),
    "search-km": lambda params: _suite_search("km", params),
}

SUITE_NAMES = tuple(sorted(_SUITES))

_DIFF_SUITES = ("uniform-binary", "hamming-sphere", "ballot-count", "blowup")


def run_suite(name: str, **params) -> Report:
    """Run a named suite and wrap its outcome in a Report."""
    fn = _SUITES.get(name)
    if fn is None:
        raise ValueError(f"unknown suite {name!r}; expected one of {', '.join(SUITE_NAMES)}")
    start = time.perf_counter()
    checked, failures = fn(dict(params))
    elapsed_ms = round((time.perf_counter() - start) * 1000, 3)
    failures = sorted(failures, key=lambda f: json.dumps(f, sort_keys=True, default=str))
    clean = {k: (v.value if isinstance(v, TermOrder) else v) for k, v in params.items()}
    return Report(
        suite=name,
        params=clean,
        checked=checked,
        failures=tuple(failures),
        elapsed_ms=elapsed_ms,
        verdict=_verdict(failures),
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

"""Seeded workloads: input generators, the timed operation, output checks.

Operation ``i`` of a workload depends only on ``(workload, seed, i)``.
One repeat of a workload is its first ``ops`` operations; input sizes follow
a fixed low-discrepancy schedule over the operation index, so the repeat
covers the whole size range and every seed gets the same mix of sizes.
The library only ever sees the generated inputs.

Each workload provides four functions and the number of operations:

* ``spec(seed, i, workdir)`` builds operation ``i`` (outside the timer);
* ``run(lib, spec)`` is the timed call into the library;
* ``check(spec, out)`` returns a list of problems, empty when correct;
* ``canon(spec, out)`` is the canonical JSON-able output for the digest;
* ``ops`` is the number of operations in one repeat, four to ten seconds
  of work on one core of a shared 2-CPU machine.

``lib`` is the namespace returned by ``load_library``: the library modules
are looked up at call time, so that the traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import random
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"

# Fraction of the golden ratio; i * PHI mod 1 spreads any prefix of the
# operation index evenly over [0, 1).
PHI = (math.sqrt(5) - 1) / 2


def load_library() -> SimpleNamespace:
    """Import the package from the source tree of this checkout."""
    if not (SRC / "shatterbasis" / "__init__.py").is_file():
        raise FileNotFoundError(f"library sources not found under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import shatterbasis
    from shatterbasis import cli, closedform, compress, ideals, polyring, tuples, verify

    return SimpleNamespace(
        package=shatterbasis,
        polyring=polyring,
        ideals=ideals,
        tuples=tuples,
        closedform=closedform,
        compress=compress,
        verify=verify,
        cli=cli,
    )


def _rng(workload: str, seed: int, *key) -> random.Random:
    # str seeds hash through sha512, so streams do not depend on PYTHONHASHSEED
    return random.Random(":".join(str(k) for k in (workload, seed, *key)))


def _spread(k: int, lo: int, hi: int) -> int:
    """The k-th value of a low-discrepancy schedule over lo..hi."""
    return lo + int((hi - lo + 1) * ((k * PHI) % 1.0))


def _grid(n: int, q: int) -> list[tuple[int, ...]]:
    return list(itertools.product(range(q), repeat=n))


# ---------------------------------------------------------------- checks


def _downward_closed(expos) -> bool:
    members = {tuple(e) for e in expos}
    for e in members:
        for i, c in enumerate(e):
            if c and e[:i] + (c - 1,) + e[i + 1 :] not in members:
                return False
    return True


def _vanishes(polys, points) -> bool:
    """Whether every polynomial is zero at every point, in integer arithmetic.

    ``polys`` is a list of term lists [(exponent tuple, Fraction)].  Each
    polynomial's denominators are cleared once and each monomial is
    evaluated once per point, so no Fraction arithmetic runs per point.
    """
    index: dict[tuple[int, ...], int] = {}
    scaled = []
    for terms in polys:
        scale = 1
        for _, c in terms:
            scale = scale * c.denominator // math.gcd(scale, c.denominator)
        scaled.append(
            [(index.setdefault(e, len(index)), c.numerator * (scale // c.denominator)) for e, c in terms]
        )
    for p in points:
        values = []
        for e in index:
            v = 1
            for x, k in zip(p, e):
                if k:
                    v *= x**k
            values.append(v)
        for terms in scaled:
            if sum([c * values[j] for j, c in terms]):
                return False
    return True


def _poly_terms(g) -> list[tuple[tuple[int, ...], Fraction]]:
    return [(m.exponents, c) for m, c in g.items()]


def _basis_canon(gb) -> list:
    return sorted(
        sorted([list(e), f"{c.numerator}/{c.denominator}"] for e, c in _poly_terms(g))
        for g in gb.generators
    )


def _check_basis(points, gb, sm) -> list[str]:
    problems = []
    if len(sm) != len(points):
        problems.append(f"{len(sm)} standard monomials for {len(points)} points")
    if not _downward_closed(m.exponents for m in sm):
        problems.append("standard monomials are not downward closed")
    if not _vanishes([_poly_terms(g) for g in gb.generators], points):
        problems.append("a generator does not vanish on V")
    return problems


# ---------------------------------------------------------------- engine

# Blocks of five operations: (a, deglex), (a, lex), (b, deglex), (b, lex)
# on two systems in {0,1,2}^5, then one alon_compress of a system in
# {0,1,2}^4.  Sizes 20..110 put deglex coefficient growth in the tail.
_ENGINE_GRID5 = _grid(5, 3)
_ENGINE_GRID4 = _grid(4, 3)


def engine_spec(seed: int, i: int, workdir: str | None = None) -> dict:
    block, r = divmod(i, 5)
    if r == 4:
        size = _spread(block, 10, 60)
        pts = _rng("engine", seed, "compress", block).sample(_ENGINE_GRID4, size)
        return {"kind": "compress", "n": 4, "q": 3, "points": sorted(pts), "order": "deglex"}
    k = 2 * block + r // 2
    size = _spread(k, 20, 110)
    pts = _rng("engine", seed, "basis", k).sample(_ENGINE_GRID5, size)
    order = "deglex" if r % 2 == 0 else "lex"
    return {"kind": "basis", "n": 5, "q": 3, "points": sorted(pts), "order": order}


def engine_run(lib, spec: dict):
    v = lib.tuples.PointSet(spec["n"], spec["q"], spec["points"])
    order = lib.polyring.TermOrder(spec["order"])
    if spec["kind"] == "compress":
        return lib.compress.alon_compress(v, order)
    return lib.ideals.vanishing_basis(v, order)


def engine_check(spec: dict, out) -> list[str]:
    pts = spec["points"]
    if spec["kind"] == "compress":
        w = out.compressed.points
        problems = []
        if len(w) != len(pts):
            problems.append(f"compressed {len(pts)} points to {len(w)}")
        if not _downward_closed(w):
            problems.append("compressed system is not downward closed")
        if any(after > before for before, after in out.traces.values()):
            problems.append("a trace grew under compression")
        return problems
    gb, sm = out
    return _check_basis(pts, gb, sm)


def engine_canon(spec: dict, out):
    if spec["kind"] == "compress":
        traces = sorted([sorted(c), list(sizes)] for c, sizes in out.traces.items())
        return [spec["kind"], [list(p) for p in out.compressed.points], traces]
    gb, sm = out
    return [spec["order"], [list(m.exponents) for m in sm], _basis_canon(gb)]


# ---------------------------------------------------------------- blowup

# Set families on n=4 blown up at q=3; one operation per (family, order)
# runs the closed form, the engine and certification of the closed-form
# Groebner basis.  The certify box has only 3^4 = 81 points.
_BLOWUP_N = 4
_BLOWUP_Q = 3
_BLOWUP_MEMBERS = [
    frozenset(c)
    for r in range(_BLOWUP_N + 1)
    for c in itertools.combinations(range(1, _BLOWUP_N + 1), r)
]


def blowup_spec(seed: int, i: int, workdir: str | None = None) -> dict:
    k, r = divmod(i, 2)
    # The member sizes, and with them |V|, depend on k alone; the seed picks
    # which members of each size, so every seed gets the same mix of |V|.
    sizes = [len(m) for m in _rng("blowup", "sizes", k).sample(_BLOWUP_MEMBERS, _spread(k, 2, 12))]
    rng = _rng("blowup", seed, k)
    members = []
    for c in sorted(set(sizes)):
        members += rng.sample([sorted(m) for m in _BLOWUP_MEMBERS if len(m) == c], sizes.count(c))
    return {"members": sorted(members, key=lambda m: (len(m), m)), "order": "deglex" if r == 0 else "lex"}


def blowup_run(lib, spec: dict):
    family = lib.tuples.SetFamily(_BLOWUP_N, spec["members"])
    order = lib.polyring.TermOrder(spec["order"])
    v = lib.tuples.blow_up(family, _BLOWUP_Q)
    closed = lib.closedform.sm_blowup(family, _BLOWUP_Q, order)
    gb, sm = lib.ideals.vanishing_basis(v, order)
    gens = lib.closedform.gb_blowup(family, _BLOWUP_Q, order)
    certified = lib.ideals.certify_groebner(v, gens, order)
    return v, closed, gb, sm, certified


def blowup_check(spec: dict, out) -> list[str]:
    v, closed, gb, sm, certified = out
    problems = _check_basis(v.points, gb, sm)
    if {m.exponents for m in closed} != {m.exponents for m in sm}:
        problems.append("closed-form standard monomials differ from the engine's")
    if certified is not True:
        problems.append("the closed-form basis was not certified")
    return problems


def blowup_canon(spec: dict, out):
    v, closed, gb, sm, certified = out
    return [
        spec["order"],
        len(v),
        sorted(list(m.exponents) for m in closed),
        [list(m.exponents) for m in sm],
        _basis_canon(gb),
        certified,
    ]


# ---------------------------------------------------------------- wide

# Sparse systems in high dimension, 10..30 points each, fed through the
# command line in --format json.  Every system is used by four commands.
_WIDE_SHAPES = ((8, 3), (12, 2), (9, 3), (13, 2), (10, 3), (14, 2))
_WIDE_COMMANDS = ("sm", "gb", "certify", "shatter")


def _wide_system(seed: int, k: int) -> tuple[int, int, list[tuple[int, ...]], str]:
    n, q = _WIDE_SHAPES[k % len(_WIDE_SHAPES)]
    size = _spread(k // len(_WIDE_SHAPES), 10, 30)
    rng = _rng("wide", seed, k)
    pts: set[tuple[int, ...]] = set()
    while len(pts) < size:
        pts.add(tuple(rng.randrange(q) for _ in range(n)))
    order = "deglex" if (k // len(_WIDE_SHAPES)) % 2 == 0 else "lex"
    return n, q, sorted(pts), order


def wide_spec(seed: int, i: int, workdir: str | None) -> dict:
    k, r = divmod(i, len(_WIDE_COMMANDS))
    n, q, pts, order = _wide_system(seed, k)
    path = os.path.join(workdir, f"wide-{k}.txt")
    if not os.path.exists(path):
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(f"{n} {q}\n")
            handle.writelines(" ".join(map(str, p)) + "\n" for p in pts)
    command = _WIDE_COMMANDS[r]
    argv = [command, "--in", path, "--format", "json"]
    if command != "shatter":
        argv += ["--order", order]
    return {"command": command, "argv": argv, "n": n, "q": q, "points": pts}


def wide_run(lib, spec: dict):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.dispatch(spec["argv"])
    return code, buf.getvalue()


def wide_check(spec: dict, out) -> list[str]:
    code, text = out
    if code != 0:
        return [f"exit code {code}"]
    try:
        payload = json.loads(text)
    except ValueError:
        return ["output is not JSON"]
    pts, command = spec["points"], spec["command"]
    problems = []
    if command == "sm":
        if len(payload) != len(pts):
            problems.append(f"{len(payload)} standard monomials for {len(pts)} points")
        if not _downward_closed(payload):
            problems.append("standard monomials are not downward closed")
    elif command == "gb":
        polys = [
            [(tuple(t["exponents"]), Fraction(t["coefficient"])) for t in g["terms"]]
            for g in payload
        ]
        if not polys or not _vanishes(polys, pts):
            problems.append("the generators do not vanish on V")
    elif command == "certify":
        if payload.get("certified") is not True:
            problems.append("basis not certified")
        if payload.get("standard_monomials") != len(pts):
            problems.append(
                f"{payload.get('standard_monomials')} standard monomials for {len(pts)} points"
            )
    else:
        family = {frozenset(i for i, c in enumerate(p) if c) for p in payload}
        if frozenset() not in family:
            problems.append("the empty set is not shattered")
        if any(m - {i} not in family for m in family for i in m):
            problems.append("shattered family is not closed under subsets")
    return problems


def wide_canon(spec: dict, out):
    code, text = out
    try:
        payload = json.loads(text)
    except ValueError:
        payload = text
    return [spec["command"], code, payload]


# ---------------------------------------------------------------- sweep

# Many small verification suites, one run_suite call per operation, cycling
# through five suites; the sampled ones get a fresh seed per operation.
_SWEEP_SUITES = (
    ("search-km", {"n": 4, "q": 3, "samples": 40}),
    ("search-hamming", {"n": 5, "q": 3, "samples": 6}),
    ("search-uniform", {"n": 4, "q": 3, "samples": 30}),
    ("shatter-cap", {"n": 3, "q": 3}),
    ("sm-slice", {"n": 3, "q": 3}),
)


def sweep_spec(seed: int, i: int, workdir: str | None = None) -> dict:
    suite, params = _SWEEP_SUITES[i % len(_SWEEP_SUITES)]
    params = dict(params)
    if "samples" in params:
        params["seed"] = _rng("sweep", seed, i).randrange(2**31)
    return {"suite": suite, "params": params}


def sweep_run(lib, spec: dict):
    return lib.verify.run_suite(spec["suite"], **spec["params"])


def sweep_check(spec: dict, out) -> list[str]:
    if out.verdict != "pass":
        return [f"suite {spec['suite']} verdict {out.verdict}"]
    if out.checked < 1:
        return [f"suite {spec['suite']} checked nothing"]
    return []


def sweep_canon(spec: dict, out):
    return out.canonical()


# ---------------------------------------------------------------- registry


WORKLOADS = {
    "engine": SimpleNamespace(
        spec=engine_spec, run=engine_run, check=engine_check, canon=engine_canon, ops=100
    ),
    "blowup": SimpleNamespace(
        spec=blowup_spec, run=blowup_run, check=blowup_check, canon=blowup_canon, ops=60
    ),
    "wide": SimpleNamespace(
        spec=wide_spec, run=wide_run, check=wide_check, canon=wide_canon, ops=48
    ),
    "sweep": SimpleNamespace(
        spec=sweep_spec, run=sweep_run, check=sweep_check, canon=sweep_canon, ops=300
    ),
}

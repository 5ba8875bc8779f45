"""Command-line surface: constructions, bases, bounds, certificates, suites.

Tuple files are the one interchange format: a header line "n q" followed by
one point per line as n space-separated integers.  '#' starts a comment.
Set families travel as q=2 tuple files of characteristic vectors.

Exit codes: 0 success (or verified), 1 verification failure, 2 usage error.
Logging goes to stderr and is controlled by SHATTER_BASIS_LOG={error,info,debug}.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import logging
import os
import sys

from .closedform import BOUND_NAMES, bound
from .compress import alon_compress
from .ideals import certify_groebner, standard_monomials, vanishing_basis
from .polyring import TermOrder, leading_monomial, render_monomial, render_polynomial
from .tuples import (
    PointSet,
    SetFamily,
    blow_up,
    complete_uniform,
    hamming_sphere,
    km_extremal,
    lower_bound_slice,
    shattered_family,
)
from .verify import _SUITES, SUITE_NAMES, _refuse, run_suite

__all__ = ["parse_tuples", "render_tuples", "build_parser", "dispatch", "main"]

log = logging.getLogger("shatterbasis")


# ---------------------------------------------------------------- tuple files


def parse_tuples(text: str) -> PointSet:
    """Parse a tuple file; malformed lines are reported with their number."""
    n = q = None
    points = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            values = [int(part) for part in line.split()]
        except ValueError:
            raise ValueError(f"line {lineno}: expected integers, got {raw.strip()!r}")
        if n is None:
            if len(values) != 2:
                raise ValueError(f"line {lineno}: header must be two integers 'n q'")
            n, q = values
            if n < 1 or q < 2:
                raise ValueError(f"line {lineno}: header needs n >= 1 and q >= 2")
            continue
        if len(values) != n:
            raise ValueError(f"line {lineno}: expected {n} coordinates, got {len(values)}")
        for value in values:
            if not 0 <= value < q:
                raise ValueError(f"line {lineno}: coordinate {value} out of range for q={q}")
        points.append(tuple(values))
    if n is None:
        raise ValueError("empty tuple file: missing 'n q' header")
    return PointSet(n, q, points)


def render_tuples(v: PointSet) -> str:
    lines = [f"{v.n} {v.q}"]
    lines.extend(" ".join(str(c) for c in p) for p in v)
    return "\n".join(lines) + "\n"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _family_from_file(path: str) -> SetFamily:
    chars = parse_tuples(_read_input(path))
    if chars.q != 2:
        raise ValueError("set families are encoded as q=2 characteristic vectors")
    return SetFamily.from_point_set(chars)


# ---------------------------------------------------------------- helpers


def _require(args: argparse.Namespace, command: str, *names: str) -> None:
    for name in names:
        if getattr(args, name, None) is None:
            flag = "in" if name == "infile" else name.replace("_", "-")
            raise ValueError(f"{command} requires --{flag}")


def _order(args: argparse.Namespace) -> TermOrder:
    return TermOrder(args.order or "deglex")


def _emit(text: str) -> None:
    sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(payload) -> None:
    _emit(json.dumps(payload, sort_keys=True))


def _points_payload(v: PointSet) -> dict:
    return {"n": v.n, "q": v.q, "points": [list(p) for p in v]}


def _generator_payload(g, order: TermOrder) -> dict:
    terms = sorted(g.items(), key=lambda kv: order.key(kv[0]), reverse=True)
    return {
        "leading_monomial": list(leading_monomial(g, order).exponents),
        "terms": [
            {"exponents": list(m.exponents), "coefficient": str(c)} for m, c in terms
        ],
    }


# ---------------------------------------------------------------- commands


def _cmd_construct(args: argparse.Namespace) -> int:
    kind = args.kind
    extra: dict = {}
    if kind == "uniform":
        _require(args, "construct uniform", "n", "d", "q")
        v = complete_uniform(args.n, args.d, args.q)
    elif kind == "hamming":
        _require(args, "construct hamming", "n", "d", "q")
        v = hamming_sphere(args.n, args.d, args.q)
    elif kind == "km":
        _require(args, "construct km", "n", "s", "q")
        v = km_extremal(args.n, args.s, args.q)
    elif kind == "blowup":
        _require(args, "construct blowup", "infile", "q")
        v = blow_up(_family_from_file(args.infile), args.q)
    else:
        _require(args, "construct lowerbound", "n", "s", "q")
        d, v = lower_bound_slice(args.n, args.s, args.q)
        extra["d"] = d
    log.info("constructed %s system with %d tuples", kind, len(v))
    if args.format == "json":
        _emit_json({**_points_payload(v), **extra})
    else:
        prefix = "".join(f"# {k} = {val}\n" for k, val in extra.items())
        _emit(prefix + render_tuples(v))
    return 0


def _cmd_sm(args: argparse.Namespace) -> int:
    v = parse_tuples(_read_input(args.infile))
    order = _order(args)
    sm = standard_monomials(v, order)  # ascending in the order
    log.info("%d standard monomials for %d tuples", len(sm), len(v))
    if args.format == "json":
        _emit_json([list(m.exponents) for m in sm])
    else:
        _emit("\n".join(render_monomial(m) for m in sm))
    return 0


def _cmd_gb(args: argparse.Namespace) -> int:
    v = parse_tuples(_read_input(args.infile))
    order = _order(args)
    basis, _ = vanishing_basis(v, order)  # by increasing leading monomial
    log.info("reduced basis with %d generators", len(basis))
    if args.format == "json":
        _emit_json([_generator_payload(g, order) for g in basis])
    else:
        _emit("\n".join(render_polynomial(g, order) for g in basis))
    return 0


def _cmd_shatter(args: argparse.Namespace) -> int:
    v = parse_tuples(_read_input(args.infile))
    chars = shattered_family(v).to_point_set()
    log.info("%d shattered sets", len(chars))
    if args.format == "json":
        _emit_json([list(p) for p in chars])
    else:
        _emit(render_tuples(chars))
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    _require(args, "bounds", "n")
    report = bound(args.name, args.n, d=args.d, s=args.s, q=args.q)
    shown = ", ".join(f"{k}={report.parameters[k]}" for k in ("n", "d", "s", "q") if k in report.parameters)
    # int -> str takes time quadratic in the digits, so count them first: a
    # value of b bits has at least floor((b - 1) log10 2) + 1, and
    # 0.30102999566 is just under log10 2
    digits = (report.value.bit_length() - 1) * 30102999566 // 10**11 + 1
    _refuse(digits, f"printing a value of at least {digits} decimal digits exceeds", "lower n or q instead")
    # the exact value may have more digits than int -> str allows by default
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            _emit_json(report.to_dict())
        else:
            _emit(f"{report.name}({shown}) = {report.value}")
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return 0


def _cmd_certify(args: argparse.Namespace) -> int:
    v = parse_tuples(_read_input(args.infile))
    order = _order(args)
    basis, sm = vanishing_basis(v, order)
    ok = certify_groebner(v, basis, order)
    payload = {
        "order": order.value,
        "generators": len(basis.generators),
        "standard_monomials": len(sm),
        "certified": ok,
    }
    if args.format == "json":
        _emit_json(payload)
    else:
        verdict = "certified" if ok else "certification FAILED"
        _emit(
            f"{verdict}: {payload['generators']} generators, "
            f"{payload['standard_monomials']} standard monomials"
        )
    return 0 if ok else 1


def _cmd_compress(args: argparse.Namespace) -> int:
    v = parse_tuples(_read_input(args.infile))
    order = _order(args)
    result = alon_compress(v, order)
    if args.format == "json":
        traces = [
            {"coords": sorted(cs), "before": before, "after": after}
            for cs, (before, after) in sorted(
                result.traces.items(), key=lambda kv: (len(kv[0]), sorted(kv[0]))
            )
        ]
        _emit_json(
            {
                **_points_payload(result.compressed),
                "order": order.value,
                "traces": traces,
            }
        )
    else:
        _emit(render_tuples(result.compressed))
    return 0


# every suite's integer parameters, each once; --order and --jobs are flags of their own
_SUITE_PARAMS = tuple(
    key
    for key in dict.fromkeys(k for fn in _SUITES.values() for k in inspect.signature(fn).parameters)
    if key not in ("jobs", "order")
)


def _cmd_verify(args: argparse.Namespace) -> int:
    params = {
        name: getattr(args, name)
        for name in _SUITE_PARAMS
        if getattr(args, name, None) is not None
    }
    if args.order is not None:
        params["order"] = args.order
    if args.jobs != 1:
        params["jobs"] = args.jobs
    report = run_suite(args.suite, **params)
    if args.format == "json":
        _emit(report.to_json())
    else:
        shown = " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
        lines = [
            f"suite: {report.suite}",
            f"params: {shown}" if shown else "params:",
            f"checked: {report.checked}",
            f"failures: {len(report.failures)}",
            f"elapsed_ms: {report.elapsed_ms}",
            f"verdict: {report.verdict}",
        ]
        lines.extend("failure: " + json.dumps(f, sort_keys=True) for f in report.failures)
        _emit("\n".join(lines))
    return 0 if report.verdict == "pass" else 1


# ---------------------------------------------------------------- parser


def _add_common(sub: argparse.ArgumentParser, *, order: bool = True) -> None:
    sub.add_argument("--format", choices=("text", "json"), default="text")
    if order:
        sub.add_argument("--order", choices=("lex", "deglex"), default=None)


def _add_params(sub: argparse.ArgumentParser, *names: str) -> None:
    for name in names:
        sub.add_argument(f"--{name.replace('_', '-')}", dest=name, type=int, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="shatterbasis",
        description="Standard monomials, Groebner bases and shattering bounds "
        "for finite multivalued tuple systems.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    construct = commands.add_parser("construct", help="build a named tuple system")
    construct.add_argument(
        "kind", choices=("uniform", "hamming", "km", "blowup", "lowerbound")
    )
    _add_params(construct, "n", "d", "s", "q")
    construct.add_argument("--in", dest="infile", default=None, metavar="FILE")
    _add_common(construct, order=False)

    for name in ("sm", "gb", "shatter", "certify", "compress"):
        sub = commands.add_parser(name, help=f"{name} of the system in --in")
        sub.add_argument("--in", dest="infile", required=True, metavar="FILE")
        _add_common(sub, order=name != "shatter")

    bounds = commands.add_parser("bounds", help="evaluate a named bound")
    bounds.add_argument("--name", choices=BOUND_NAMES, required=True)
    _add_params(bounds, "n", "d", "s", "q")
    _add_common(bounds, order=False)

    verify = commands.add_parser("verify", help="run a verification suite")
    verify.add_argument("--suite", choices=SUITE_NAMES, required=True)
    _add_params(verify, *_SUITE_PARAMS)
    verify.add_argument("--jobs", type=int, default=1)
    _add_common(verify)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # built once per process: building takes far longer than one parse
    return build_parser()


def _configure_logging() -> None:
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    name = os.environ.get("SHATTER_BASIS_LOG", "error").lower()
    logging.basicConfig(
        level=levels.get(name, logging.ERROR),
        stream=sys.stderr,
        format="%(levelname)s %(name)s: %(message)s",
    )


def dispatch(argv=None) -> int:
    """Run one invocation; returns the process exit code instead of exiting."""
    _configure_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    # looked up at call time, not kept in the shared parser
    handler = globals()[f"_cmd_{args.command}"]
    try:
        return handler(args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())

"""Per-layer tracing from outside the library.

``Tracer.install`` replaces the public functions of each library module,
and a few named methods, by timing wrappers.  A function imported into
another module is replaced there too, since the importer holds its own
reference.  Every call records a span (name, parent, start, end) in flat
arrays that stay in memory until ``metrics`` aggregates them at the end of
the run.  A layer is the module that defines the function; its self time
is the time of its spans minus the time of their child spans, so the self
times of all layers add up to the time of the root spans.

Monomial methods and the private helpers of the library are not wrapped.
"""

from __future__ import annotations

import inspect
import json
import time
from array import array
from collections import Counter

LAYERS = ("polyring", "ideals", "tuples", "closedform", "compress", "verify", "cli")

# (layer, class, method, span name) wrapped besides the module functions
_METHODS = (
    ("polyring", "Polynomial", "evaluate", "polyring.Polynomial.evaluate"),
    ("polyring", "Polynomial", "__mul__", "polyring.Polynomial.__mul__"),
    ("tuples", "PointSet", "__init__", "tuples.PointSet"),
)

# The per-layer metrics a traced run reports, with their units.
METRICS = (
    ("ideals.vanishing_basis.deglex.calls", "count"),
    ("ideals.vanishing_basis.deglex.busy_s", "s"),
    ("ideals.vanishing_basis.lex.calls", "count"),
    ("ideals.vanishing_basis.lex.busy_s", "s"),
    ("ideals.vanishing_basis.points", "count"),
    ("ideals.vanishing_basis.generators", "count"),
    ("ideals.vanishing_basis.coeff_bits_max", "bits"),
    ("ideals.certify_groebner.calls", "count"),
    ("ideals.certify_groebner.busy_s", "s"),
    ("ideals.certify_groebner.box_points", "count"),
    ("ideals.certify_groebner.useful_ratio", "ratio"),
    ("polyring.Polynomial.evaluate.calls", "count"),
    ("polyring.Polynomial.evaluate.busy_s", "s"),
    ("polyring.Polynomial.__mul__.calls", "count"),
    ("polyring.Polynomial.__mul__.busy_s", "s"),
    ("polyring.binary_lift.calls", "count"),
    ("polyring.binary_lift.busy_s", "s"),
    ("polyring.indicator_polynomial.calls", "count"),
    ("closedform.sm_blowup.busy_s", "s"),
    ("closedform.gb_blowup.busy_s", "s"),
    ("closedform.bound.calls", "count"),
    ("closedform.binary_cache.hit_ratio", "ratio"),
    ("tuples.shatters.calls", "count"),
    ("tuples.shatters.busy_s", "s"),
    ("tuples.PointSet.calls", "count"),
    ("tuples.PointSet.busy_s", "s"),
    ("tuples.shattered_family.calls", "count"),
    ("tuples.shattered_family.busy_s", "s"),
    ("tuples.shattered_family.sets_tested", "count"),
    ("tuples.shattered_family.useful_ratio", "ratio"),
    ("compress.alon_compress.calls", "count"),
    ("compress.alon_compress.busy_s", "s"),
    ("verify.run_suite.calls", "count"),
    ("verify.run_suite.busy_s", "s"),
    ("verify.checked", "count"),
    ("cli.dispatch.calls", "count"),
    ("cli.dispatch.busy_s", "s"),
    *((f"{layer}.{kind}", unit) for layer in LAYERS for kind, unit in (("self_s", "s"), ("errors", "count"))),
    ("trace.busy_s", "s"),
    ("trace.overhead_frac", "ratio"),
)


def _order_tag(args, kwargs) -> str:
    order = args[1] if len(args) > 1 else kwargs.get("order", "deglex")
    return getattr(order, "value", order)


def _coeff_bits(gb) -> int:
    bits = 0
    for g in gb.generators:
        for _, c in g.items():
            bits = max(bits, c.numerator.bit_length(), c.denominator.bit_length())
    return bits


class Tracer:
    """Spans of every wrapped call, plus counts read from arguments and results."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("l")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_nested = bytearray()  # 1 when an enclosing span has the same name
        self.errors: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._active: Counter[int] = Counter()
        self._bases: list = []
        self._restore: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording

    def _name_id(self, name: str, layer: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
        return nid

    def wrap(self, fn, name: str, layer: str, tag=None, observe=None):
        """A wrapper recording one span per call of fn.

        ``tag(args, kwargs)`` appends a suffix to the span name;
        ``observe(args, kwargs, result, parent)`` runs after the span ends.
        """
        nid = self._name_id(name, layer)
        names, parents = self.span_name, self.span_parent
        starts, ends, nested = self.span_start, self.span_end, self.span_nested
        stack, active, errors = self._stack, self._active, self.errors
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(names)
            call_id = nid if tag is None else self._name_id(f"{name}.{tag(args, kwargs)}", layer)
            depth = active[call_id]
            names.append(call_id)
            parents.append(stack[-1])
            nested.append(1 if depth else 0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(sid)
            active[call_id] = depth + 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                active[call_id] = depth
                stack.pop()
                starts[sid] = start
                ends[sid] = end
            if observe is not None:
                observe(args, kwargs, result, stack[-1])
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------ install

    def install(self, lib) -> None:
        """Wrap the public functions and the named methods of every layer."""
        modules = [getattr(lib, layer) for layer in LAYERS]
        holders = modules + [lib.package]
        observers = {
            "ideals.vanishing_basis": self._observe_basis,
            "ideals.certify_groebner": self._observe_certify,
            "tuples.subfamily_through": self._observe_subfamily,
            "tuples.shattered_family": self._observe_shattered,
            "verify.run_suite": self._observe_suite,
        }
        for layer, module in zip(LAYERS, modules):
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                name = f"{layer}.{attr}"
                wrapped = self.wrap(
                    fn,
                    name,
                    layer,
                    tag=_order_tag if name == "ideals.vanishing_basis" else None,
                    observe=observers.get(name),
                )
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._restore.append((holder, key, fn))
                            setattr(holder, key, wrapped)
        for layer, cls_name, method, name in _METHODS:
            cls = getattr(getattr(lib, layer), cls_name)
            fn = vars(cls)[method]
            self._restore.append((cls, method, fn))
            setattr(cls, method, self.wrap(fn, name, layer))

    def uninstall(self) -> None:
        for holder, key, fn in reversed(self._restore):
            setattr(holder, key, fn)
        self._restore.clear()

    # ------------------------------------------------------------ observers

    def _parent_layer(self, parent: int) -> str | None:
        return None if parent < 0 else self.layer_of[self.span_name[parent]]

    def _observe_basis(self, args, kwargs, result, parent) -> None:
        v = args[0]
        self.counts["ideals.vanishing_basis.points"] += len(v)
        self.counts["ideals.vanishing_basis.generators"] += len(result[0])
        # coefficient sizes are read once, when the run ends
        self._bases.append(result[0])
        if self._parent_layer(parent) == "closedform":
            self.counts["closedform.engine_calls"] += 1

    def _observe_certify(self, args, kwargs, result, parent) -> None:
        v = args[0]
        self.counts["ideals.certify_groebner.box_points"] += v.q**v.n
        self.counts["ideals.certify_groebner.points"] += len(v)

    def _observe_subfamily(self, args, kwargs, result, parent) -> None:
        if len(result) and self._parent_layer(parent) == "closedform":
            self.counts["closedform.nonempty_subfamilies"] += 1

    def _observe_shattered(self, args, kwargs, result, parent) -> None:
        self.counts["tuples.shattered_family.sets_tested"] += 2 ** args[0].n
        self.counts["tuples.shattered_family.found"] += len(result)

    def _observe_suite(self, args, kwargs, result, parent) -> None:
        self.counts["verify.checked"] += result.checked

    # ------------------------------------------------------------ results

    def span_totals(self) -> tuple[dict[str, int], dict[str, float], dict[str, float], float]:
        """Calls and busy time per span name, self time per layer, root time.

        Busy time is inclusive and counts only the outermost of nested
        spans with the same name.
        """
        calls: Counter[str] = Counter()
        busy: Counter[str] = Counter()
        self_s = dict.fromkeys(LAYERS, 0.0)
        child = [0.0] * len(self.span_name)
        roots = 0.0
        for sid in range(len(self.span_name) - 1, -1, -1):
            nid = self.span_name[sid]
            name = self.names[nid]
            dur = self.span_end[sid] - self.span_start[sid]
            calls[name] += 1
            if not self.span_nested[sid]:
                busy[name] += dur
            self_s[self.layer_of[nid]] += dur - child[sid]
            parent = self.span_parent[sid]
            if parent < 0:
                roots += dur
            else:
                child[parent] += dur
        return dict(calls), dict(busy), self_s, roots

    def metrics(self) -> dict[str, float]:
        """Every metric of METRICS except trace.overhead_frac, which needs
        an untraced run to compare with."""
        calls, busy, self_s, roots = self.span_totals()
        out: dict[str, float] = {}
        for metric, _ in METRICS:
            base, _, kind = metric.rpartition(".")
            if kind == "calls":
                out[metric] = calls.get(base, 0)
            elif kind == "busy_s":
                out[metric] = busy.get(base, 0.0)
            elif kind == "self_s" and base in LAYERS:
                out[metric] = self_s[base]
            elif kind == "errors" and base in LAYERS:
                out[metric] = self.errors[base]
        c = self.counts
        out.update(
            {
                "ideals.vanishing_basis.points": c["ideals.vanishing_basis.points"],
                "ideals.vanishing_basis.generators": c["ideals.vanishing_basis.generators"],
                "ideals.vanishing_basis.coeff_bits_max": max(map(_coeff_bits, self._bases), default=0),
                "ideals.certify_groebner.box_points": c["ideals.certify_groebner.box_points"],
                "ideals.certify_groebner.useful_ratio": _ratio(
                    c["ideals.certify_groebner.points"], c["ideals.certify_groebner.box_points"]
                ),
                "closedform.binary_cache.hit_ratio": (
                    1 - _ratio(c["closedform.engine_calls"], c["closedform.nonempty_subfamilies"])
                    if c["closedform.nonempty_subfamilies"]
                    else 0.0
                ),
                "tuples.shattered_family.sets_tested": c["tuples.shattered_family.sets_tested"],
                "tuples.shattered_family.useful_ratio": _ratio(
                    c["tuples.shattered_family.found"], c["tuples.shattered_family.sets_tested"]
                ),
                "verify.checked": c["verify.checked"],
                "trace.busy_s": roots,
            }
        )
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as one JSON line: id, parent, name, start, end."""
        with open(path, "w", encoding="utf-8") as handle:
            for sid in range(len(self.span_name)):
                record = [
                    sid,
                    self.span_parent[sid],
                    self.names[self.span_name[sid]],
                    self.span_start[sid],
                    self.span_end[sid],
                ]
                handle.write(json.dumps(record) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0

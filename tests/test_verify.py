"""Report plumbing and the verification suite registry."""

import concurrent.futures
import hashlib
import importlib.util
import inspect
import itertools
import json
import random
import re
import sys
from pathlib import Path

import pytest

import shatterbasis.compress as compress
import shatterbasis.verify as verify
from shatterbasis.cli import dispatch
from shatterbasis.closedform import BoundReport, count_ballot, sm_uniform_binary
from shatterbasis.ideals import StandardMonomialSet, interpolate, vanishing_basis
from shatterbasis.polyring import Monomial, TermOrder
from shatterbasis.tuples import PointSet, complete_uniform, hamming_sphere
from shatterbasis.verify import (
    SUITE_NAMES,
    counterexample_search,
    oracle_diff,
    run_suite,
)


def _desk_scale_params() -> dict[str, dict]:
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_all_suites.py"
    spec = importlib.util.spec_from_file_location("run_all_suites", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.desk_scale_params(7)


DESK = _desk_scale_params()


@pytest.fixture
def pool_sizes(monkeypatch):
    """Stand a serial stub in for ProcessPoolExecutor; the list it returns
    collects the worker count each pool was asked for."""
    pools = []

    class SerialPool:
        def __init__(self, k, mp_context):
            pools.append(k)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items, chunksize):
            return [fn(item) for item in items]

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
    return pools


class TestReport:
    def test_schema_and_verdict(self):
        report = run_suite("uniform-binary", n_max=3)
        data = report.to_dict()
        assert set(data) == {
            "suite",
            "params",
            "checked",
            "failures",
            "elapsed_ms",
            "verdict",
        }
        assert data["suite"] == "uniform-binary"
        assert data["params"] == {"n_max": 3}
        assert data["checked"] == 9
        assert data["failures"] == []
        assert data["verdict"] == "pass"
        assert json.loads(report.to_json()) == data

    def test_canonical_drops_wall_time(self):
        report = run_suite("ballot-count", n_max=3, q_max=2)
        assert "elapsed_ms" not in report.canonical()

    def test_reports_reproducible_modulo_wall_time(self):
        kwargs = dict(n=3, q=3, samples=25, max_size=12, seed=99)
        a = run_suite("sm-cardinality", **kwargs)
        b = run_suite("sm-cardinality", **kwargs)
        assert a.canonical() == b.canonical()

    def test_failures_surface_in_verdict(self):
        # a synthetic suite exercises the failure path end to end
        def broken():
            return 3, [
                {"params": {"k": 2}, "expected": 1, "actual": 0},
                {"params": {"k": 1}, "expected": 1, "actual": 0},
            ]

        verify._SUITES["broken-test-suite"] = broken
        try:
            report = run_suite("broken-test-suite")
            assert report.verdict == "fail"
            assert report.checked == 3
            # failures come back sorted by their parameters
            assert [f["params"]["k"] for f in report.failures] == [1, 2]
        finally:
            del verify._SUITES["broken-test-suite"]


# per suite: one parameter it does not take, a value for it, and the
# parameters it does take, in the order of its signature
_UNTAKEN = {
    "sm-cardinality": ("order", "lex", "n, q, samples, max_size, seed, jobs"),
    "uniform-binary": ("q", 3, "n_max, jobs"),
    "hamming-sphere": ("n", 3, "n_max, q, jobs"),
    "blowup": ("max_size", 3, "n, q, samples, seed, order, jobs"),
    "ballot-count": ("q", 3, "n_max, q_max, jobs"),
    "uniform-ballot": ("d", 1, "n_max, q, jobs"),
    "shatter-certificates": ("order", "deglex", "n, q, samples, cert_samples, max_size, seed, jobs"),
    "hamming-sharpness": ("samples", 3, "n, d, s, q, jobs"),
    "km-sharpness": ("seed", 1, "n_max, s_max, q_max, jobs"),
    "alon-compress": ("s", 1, "n, q, samples, max_size, seed, jobs"),
    "shatter-cap": ("samples", 3, "n, q, jobs"),
    "q2-consistency": ("q", 2, "n_max, jobs"),
    "sm-slice": ("seed", 1, "n, q, jobs"),
    "search-uniform": ("cert_samples", 1, "n, q, samples, max_size, seed, jobs"),
    "search-hamming": ("d", 1, "n, q, samples, max_size, seed, jobs"),
    "search-km": ("order", "lex", "n, q, samples, max_size, seed, jobs"),
}


class TestRegistry:
    def test_known_names(self):
        expected = {
            "sm-cardinality",
            "uniform-binary",
            "hamming-sphere",
            "blowup",
            "ballot-count",
            "uniform-ballot",
            "shatter-certificates",
            "hamming-sharpness",
            "km-sharpness",
            "alon-compress",
            "shatter-cap",
            "q2-consistency",
            "sm-slice",
            "search-uniform",
            "search-hamming",
            "search-km",
        }
        assert set(SUITE_NAMES) == expected

    def test_unknown_suite(self):
        with pytest.raises(ValueError, match="unknown suite"):
            run_suite("no-such-suite")

    def test_missing_required_parameter(self):
        with pytest.raises(ValueError, match="required"):
            run_suite("sm-cardinality", q=3)

    def test_sampling_requires_seed(self):
        with pytest.raises(ValueError, match="seed"):
            run_suite("sm-cardinality", n=4, q=3, samples=5)

    def test_exhaustive_cap_enforced(self):
        with pytest.raises(ValueError, match="exceeds the cap"):
            run_suite("sm-cardinality", n=3, q=3)
        with pytest.raises(ValueError, match="n <= 3"):
            run_suite("blowup", n=4, q=3)

    @pytest.mark.parametrize(
        "name, params, remedy",
        [
            ("shatter-cap", dict(n=7, q=2), "lower n instead"),
            ("sm-slice", dict(n=7, q=2), "lower n instead"),
            ("hamming-sharpness", dict(n=5, d=2, s=1, q=3), "lower n instead"),
            ("sm-cardinality", dict(n=3, q=3), "use samples= and seed= instead"),
            ("alon-compress", dict(n=3, q=3), "use samples= and seed= instead"),
            ("search-uniform", dict(n=7, q=2), "use samples= and seed= instead"),
            # a sampled slice is listed before it is drawn from
            ("search-uniform", dict(n=20, q=3, samples=1, seed=1, max_size=3), "lower n instead"),
            ("search-hamming", dict(n=20, q=3, samples=1, seed=1, max_size=3), "lower n instead"),
            # the equality case lists the whole sphere
            ("hamming-sharpness", dict(n=30, d=15, s=15, q=3), "lower n instead"),
            # the largest system, grid or listing is stated before any instance
            ("uniform-binary", dict(n_max=13), "lower n_max instead"),
            ("hamming-sphere", dict(n_max=8, q=3), "lower n_max or q instead"),
            ("uniform-ballot", dict(n_max=8, q=3), "lower n_max or q instead"),
            ("ballot-count", dict(n_max=11, q_max=4), "lower n_max or q_max instead"),
            ("km-sharpness", dict(n_max=11, s_max=3, q_max=3), "lower n_max, s_max or q_max instead"),
            ("blowup", dict(n=7, q=3, samples=1, seed=1), "lower n or q instead"),
            # a sampled draw handed to the engine states its elimination, |V|^2
            ("sm-cardinality", dict(n=8, q=3, samples=1, seed=1), "bound the draw with --max-size (max_size=)"),
            ("alon-compress", dict(n=8, q=3, samples=1, seed=1), "bound the draw with --max-size (max_size=)"),
            (
                "shatter-certificates",
                dict(n=8, q=3, samples=1, cert_samples=1, seed=1),
                "bound the draw with --max-size (max_size=)",
            ),
            # a draw's non-injective sets are traced on it and its compression, 4|V| codes each
            (
                "alon-compress",
                dict(n=10, q=2, samples=3, seed=1),
                "lower n or bound the draw with --max-size (max_size=)",
            ),
        ],
    )
    def test_cap_refusal_names_a_remedy_the_suite_offers(self, name, params, remedy):
        # a suite that cannot sample must not send the user to samples=,
        # which it would refuse as a parameter it does not take
        with pytest.raises(ValueError, match="exceeds the cap") as info:
            run_suite(name, **params)
        assert str(info.value).endswith(f"; {remedy}")

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_every_suite_rejects_a_parameter_it_does_not_take(self, capsys, name):
        key, value, takes = _UNTAKEN[name]
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in {**DESK[name], key: value}.items()]
        assert dispatch(["verify", "--suite", name, *flags]) == 2
        assert capsys.readouterr().err == (
            f"error: suite {name} takes no parameter {key!r}; it takes {takes}\n"
        )

    @pytest.mark.parametrize(
        "name, key",
        [
            (name, key)
            for name, fn in verify._SUITES.items()
            for key in ("seed", "max_size")
            if key in inspect.signature(fn).parameters
        ],
    )
    def test_sampled_only_parameter_needs_samples(self, capsys, name, key):
        # it would otherwise be echoed in the report of an exhaustive run
        sampled = ("samples", "cert_samples", "seed", "max_size")
        params = {**{k: v for k, v in DESK[name].items() if k not in sampled}, key: 1}
        flags = [f"--{k.replace('_', '-')}={v}" for k, v in params.items()]
        assert dispatch(["verify", "--suite", name, *flags]) == 2
        err = capsys.readouterr().err
        if inspect.signature(verify._SUITES[name]).parameters["samples"].default is inspect.Parameter.empty:
            assert "parameter 'samples' is required" in err
        else:
            assert err == (
                f"error: suite {name}: parameter {key!r} applies only to a sampled run; give samples too\n"
            )

    def test_missing_parameter_names_the_suite_and_its_parameters(self):
        with pytest.raises(ValueError) as info:
            run_suite("hamming-sharpness", n=4, d=2, q=3)
        assert str(info.value) == "suite hamming-sharpness: parameter 's' is required; it takes n, d, s, q, jobs"

    @pytest.mark.parametrize("name, params", [("blowup", dict(n=2, q=3)), ("shatter-cap", dict(n=2, q=3))])
    def test_none_counts_as_not_given(self, monkeypatch, name, params):
        # every blowup instance fails, so its records are compared too
        monkeypatch.setattr(verify, "certify_groebner", lambda v, basis, order: False)
        nones = dict(samples=None, seed=None, order=None)
        given = run_suite(name, **params, **nones).canonical()
        omitted = run_suite(name, **params).canonical()
        assert (given["checked"], given["failures"]) == (omitted["checked"], omitted["failures"])
        assert given["params"] == {**params, **nones}
        assert given["verdict"] == ("fail" if name == "blowup" else "pass")

    @pytest.mark.parametrize("key, value", [("n", 2.7), ("n", True), ("q", "3"), ("samples", 1.5)])
    def test_integer_parameter_is_not_truncated(self, key, value):
        # int(2.7) would run the n=2 instances and echo n: 2.7
        params = {**dict(n=2, q=3, samples=5, seed=1), key: value}
        with pytest.raises(ValueError) as info:
            run_suite("search-km", **params)
        assert str(info.value) == f"suite parameter {key}={value!r} must be an integer"

    def test_integer_valued_parameter_is_echoed_as_run(self):
        report = run_suite("search-km", n=2.0, q=3)
        assert report.params == {"n": 2, "q": 3} and type(report.params["n"]) is int
        assert report.checked == run_suite("search-km", n=2, q=3).checked


class TestSuiteOutcomes:
    def test_sm_cardinality_exhaustive_count(self):
        report = run_suite("sm-cardinality", n=2, q=3)
        assert report.verdict == "pass"
        assert report.checked == 511

    def test_blowup_exhaustive_small(self):
        report = run_suite("blowup", n=2, q=3)
        assert report.verdict == "pass"
        assert report.checked == 15

    def test_parallel_matches_serial(self):
        serial = run_suite("sm-cardinality", n=2, q=2)
        parallel = run_suite("sm-cardinality", n=2, q=2, jobs=2)
        assert serial.checked == parallel.checked == 15
        assert serial.failures == parallel.failures
        assert parallel.verdict == "pass"

    def test_forked_run_matches_serial(self, monkeypatch):
        # every instance fails, so the records of both runs are compared
        monkeypatch.setattr(verify, "bound", _zero_bound)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        params = dict(n=3, q=3, samples=40, seed=17)
        serial = run_suite("search-km", **params).canonical()
        forked = run_suite("search-km", **params, jobs=2).canonical()
        assert serial["failures"]
        assert forked == {**serial, "params": {**params, "jobs": 2}}

    @pytest.mark.parametrize("cpus, expected", [(2, [2]), (None, []), (64, [15])])
    def test_workers_clamped_to_items_and_cpus(self, monkeypatch, pool_sizes, cpus, expected):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        report = run_suite("sm-cardinality", n=2, q=2, jobs=5000)
        assert pool_sizes == expected  # 15 items, jobs=5000; no pool below two workers
        assert (report.checked, report.verdict) == (15, "pass")

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_every_suite_honours_jobs(self, monkeypatch, pool_sizes, name):
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 2)
        serial = run_suite(name, **DESK[name]).canonical()
        assert pool_sizes == []
        parallel = run_suite(name, **DESK[name], jobs=2).canonical()
        # the desk hamming-sharpness case (n = s + d) is a single instance;
        # the two halves of shatter-certificates run one pool each
        assert pool_sizes == {"hamming-sharpness": [], "shatter-certificates": [2, 2]}.get(name, [2])
        assert parallel == {**serial, "params": {**DESK[name], "jobs": 2}}

    @pytest.mark.parametrize("name", SUITE_NAMES)
    def test_every_suite_rejects_zero_jobs(self, capsys, name):
        flags = [f"--{key.replace('_', '-')}={value}" for key, value in DESK[name].items()]
        assert dispatch(["verify", "--suite", name, *flags, "--jobs", "0"]) == 2
        assert capsys.readouterr().err == "error: suite parameter jobs=0 must be at least 1\n"

    def test_km_sharpness(self):
        report = run_suite("km-sharpness", n_max=3, s_max=1, q_max=3)
        assert report.verdict == "pass"
        assert report.checked == 10

    def test_hamming_sharpness_equality_case(self):
        report = run_suite("hamming-sharpness", n=4, d=2, s=2, q=3)
        assert report.verdict == "pass"

    def test_hamming_sharpness_gap_case(self):
        report = run_suite("hamming-sharpness", n=3, d=1, s=1, q=3)
        assert report.verdict == "pass"

    def test_hamming_sharpness_gap_needs_q3(self):
        with pytest.raises(ValueError, match="q > 2"):
            run_suite("hamming-sharpness", n=3, d=1, s=1, q=2)

    def test_shatter_certificates(self):
        report = run_suite(
            "shatter-certificates", n=3, q=3, samples=40, cert_samples=10, seed=5
        )
        assert report.verdict == "pass"
        assert report.checked == 50

    def test_nonzero_certificate_record(self, monkeypatch):
        real = verify.non_shatter_certificate

        def spoiled(v, coords, witness):
            # the real certificate plus a polynomial nonzero at V's middle point only
            middle = v.points[len(v) // 2]
            return real(v, coords, witness) + interpolate(v, {p: int(p == middle) for p in v})

        monkeypatch.setattr(verify, "non_shatter_certificate", spoiled)
        report = run_suite(
            "shatter-certificates", n=3, q=3, samples=0, cert_samples=6, max_size=8, seed=9
        )
        nonzero = [f for f in report.failures if f["expected"] == "certificate vanishes on V"]
        assert len(nonzero) == 6
        for failure in nonzero:
            points = failure["params"]["points"]
            assert failure["actual"] == f"nonzero at {points[len(points) // 2]}"
        # the same records, byte for byte, as the Fraction scan (cert.evaluate) produced
        canonical = json.dumps(report.canonical(), sort_keys=True)
        assert hashlib.sha256(canonical.encode()).hexdigest() == (
            "cc3c88ac19c3fdeab341f7cc551f94baec6b631555eea92bbde0c00df6bcead4"
        )

    def test_closed_form_mismatch_record(self, monkeypatch):
        def drop_last(n, d, order=TermOrder.DEGLEX):
            sm = sm_uniform_binary(n, d, order)
            return StandardMonomialSet(order, sm.monomials[:-1])

        monkeypatch.setattr(verify, "sm_uniform_binary", drop_last)
        report = run_suite("uniform-binary", n_max=2)
        assert report.verdict == "fail"
        assert len(report.failures) == 2 * report.checked == 10
        engine = vanishing_basis(complete_uniform(2, 1, 2), TermOrder.LEX)[1]
        closed = drop_last(2, 1, TermOrder.LEX)
        assert {
            "params": {"n": 2, "d": 1, "order": "lex"},
            "expected": sorted(engine.exponent_vectors()),
            "actual": sorted(closed.exponent_vectors()),
        } in report.failures

    def test_lex_recursion_mismatch_record(self, monkeypatch):
        # the recursion is a third route: a wrong lex normal set from it fails
        # the instance in lex alone, against the elimination's normal set
        def drop_last(v, order=TermOrder.DEGLEX):
            sm = vanishing_basis(v, order)[1]
            return StandardMonomialSet(order, sm.monomials[:-1])

        monkeypatch.setattr(verify, "standard_monomials", drop_last)
        report = run_suite("sm-cardinality", n=2, q=2)
        assert report.verdict == "fail"
        assert len(report.failures) == report.checked == 15
        assert {f["params"]["order"] for f in report.failures} == {"lex"}
        assert {f["params"]["route"] for f in report.failures} == {"recursion"}
        pts = [(0, 1), (1, 0), (1, 1)]
        engine = vanishing_basis(PointSet(2, 2, pts), TermOrder.LEX)[1]
        assert {
            "params": {"points": [list(p) for p in pts], "order": "lex", "route": "recursion"},
            "expected": sorted(engine.exponent_vectors()),
            "actual": sorted(engine.exponent_vectors())[:-1],
        } in report.failures

    def test_compress_names_trace_sets_above_n4(self, monkeypatch):
        # alon_compress checks no trace set by default above n = 4, so the
        # suite must name the sets where a trace can grow; inflate the
        # compressed trace on every set of n - 1 coordinates (a compressed
        # system is downward closed, most samples are not)
        def inflated(v, coords):
            grow = len(set(coords)) == v.n - 1 and compress.is_downward_closed(v)
            return len(v.restrictions(coords)) + grow

        monkeypatch.setattr(compress, "trace_size", inflated)
        report = run_suite("alon-compress", n=5, q=2, samples=6, max_size=12, seed=2)
        assert report.verdict == "fail"
        assert report.failures
        for failure in report.failures:
            assert re.fullmatch(r"trace on \[\d, \d, \d, \d\] grew from \d+ to \d+", failure["actual"])

    def test_compress_traces_exactly_the_non_injective_sets(self, monkeypatch):
        # |W| = |V| is checked first, so a trace can grow only on a set
        # where V's restriction is not injective; the suite passes those,
        # in the (size, coordinates) order of the full list
        seen = []

        def record(v, order, trace_sets):
            seen.append((v, trace_sets))

        monkeypatch.setattr(verify, "alon_compress", record)
        run_suite("alon-compress", n=2, q=3)
        run_suite("alon-compress", n=3, q=3, samples=20, seed=5)
        run_suite("alon-compress", n=4, q=2, samples=20, seed=6)
        assert len(seen) == 2 * (511 + 20 + 20)
        for v, trace_sets in seen:
            every = [cs for r in range(v.n + 1) for cs in itertools.combinations(range(1, v.n + 1), r)]
            expected = [list(cs) for cs in every if len(v.restrictions(cs)) < len(v)]
            assert [list(cs) for cs in trace_sets] == expected

    def test_single_order_restriction(self):
        report = run_suite("blowup", n=2, q=3, order="lex")
        assert report.verdict == "pass"
        assert report.params["order"] == "lex"


def _reference_subsets(points, rng=None, samples=0, max_size=None, remedy="use samples= and seed= instead"):
    """The exhaustive-or-sampled subset stream that verify._instances
    replaced, kept as it was as the reference."""
    cap = verify._EXHAUSTIVE_CAP
    if rng is None:
        if len(points) >= (cap + 1).bit_length():
            raise ValueError(
                f"exhaustive enumeration of the 2^{len(points)} - 1 subsets of {len(points)} "
                f"points exceeds the cap of {cap}; {remedy}"
            )
        for r in range(1, len(points) + 1):
            yield from itertools.combinations(points, r)
        return
    top = len(points) if max_size is None else min(max_size, len(points))
    if top > cap:
        raise ValueError(
            f"a sampled draw of up to {top} points exceeds the cap of {cap}; "
            f"bound the draw with --max-size (max_size=)"
        )
    for _ in range(samples):
        size = rng.randint(1, top)
        yield tuple(sorted(rng.sample(points, size)))


def _reference_grid_subsets(n, q, rng=None, samples=0, max_size=None):
    """_reference_subsets of the grid {0..q-1}^n, drawn as indices and
    decoded in base q, as verify._instances replaced it."""
    if q**n > sys.maxsize:
        raise ValueError(f"the grid {{0..{q - 1}}}^{n} is too large to draw from")
    for ks in _reference_subsets(range(q**n), rng, samples, max_size):
        yield tuple(tuple(k // q ** (n - 1 - i) % q for i in range(n)) for k in ks)


class TestInstanceKernel:
    """verify._instances against the streams it replaced, and its refusals."""

    @pytest.mark.parametrize("n, q", [(n, q) for n in range(1, 6) for q in range(2, 5)])
    def test_grounds_are_sized_and_ordered_like_the_point_sets(self, n, q):
        for d in range((q - 1) * n + 1):
            size, points = verify._ground(n, q, d)
            assert (size, list(points)) == (len(complete_uniform(n, d, q)), list(complete_uniform(n, d, q)))
        for d in range(n + 1):
            size, points = verify._ground(n, q, d, sphere=True)
            assert (size, list(points)) == (len(hamming_sphere(n, d, q)), list(hamming_sphere(n, d, q)))
        size, decode = verify._ground(n, q)
        assert [decode(k) for k in range(size)] == list(itertools.product(range(q), repeat=n))

    @pytest.mark.parametrize("n, q", [(1, 2), (2, 2), (3, 2), (1, 4), (2, 3), (2, 4), (4, 2)])
    def test_exhaustive_streams_match_the_reference(self, n, q):
        ds = range((q - 1) * n + 1)
        slices = [complete_uniform(n, d, q).points for d in ds] + [hamming_sphere(n, 1, q).points]
        grounds = [verify._ground(n, q, d) for d in ds] + [verify._ground(n, q, 1, sphere=True)]
        expected = [(d, subset) for d, points in enumerate(slices) for subset in _reference_subsets(points)]
        assert list(verify._instances([(d,) for d in range(len(slices))], grounds)) == expected
        grid = list(verify._instances([(n, q)], [verify._ground(n, q)]))
        assert grid == [(n, q, subset) for subset in _reference_grid_subsets(n, q)]

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("max_size", [None, 1, 3])
    def test_sampled_streams_share_one_rng_like_the_reference(self, seed, max_size):
        # uniform slices, spheres and grids in turn, all drawn from one rng
        n, q, samples = 3, 3, 4
        ds = range((q - 1) * n + 1)
        grounds = [verify._ground(n, q, d) for d in ds]
        grounds += [verify._ground(n, q, d, sphere=True) for d in range(n + 1)]
        grounds += [verify._ground(n, q), verify._ground(2, 4)]
        heads = ((i,) for i in itertools.count())
        got = list(verify._instances(heads, grounds, samples, max_size, random.Random(seed)))
        rng = random.Random(seed)
        expected = [complete_uniform(n, d, q).points for d in ds]
        expected += [hamming_sphere(n, d, q).points for d in range(n + 1)]
        streams = [_reference_subsets(points, rng, samples, max_size) for points in expected]
        streams += [_reference_grid_subsets(m, r, rng, samples, max_size) for m, r in [(n, q), (2, 4)]]
        # the reference streams are lazy, so chaining them consumes rng slice by slice
        assert got == [(i, subset) for i, stream in enumerate(streams) for subset in stream]

    @pytest.mark.parametrize("samples, max_size", [(None, None), (2, None), (2, 1 << 21)])
    def test_refusals_read_no_head_and_build_no_later_slice(self, samples, max_size):
        points = range((1 << 20) + 1)

        def grounds():
            yield 3, iter(points[:3])
            yield len(points), iter(points)
            pytest.fail("a slice after the first one past the cap was built")

        heads = (pytest.fail("a head was read") for _ in itertools.count())
        with pytest.raises(ValueError) as info:
            next(verify._instances(heads, grounds(), samples, max_size, random.Random(1)))
        reference = _reference_subsets(points, samples and random.Random(1), samples or 0, max_size)
        with pytest.raises(ValueError) as expected:
            next(reference)
        assert str(info.value) == str(expected.value)

    @pytest.mark.parametrize(
        "name, params, stubbed",
        [
            ("shatter-cap", dict(n=5, q=3), ["_check_shatter_cap"]),
            ("sm-slice", dict(n=5, q=3), ["_check_size", "_full_exponent_limits"]),
            ("search-uniform", dict(n=5, q=3), ["_check_size", "bound"]),
            ("search-hamming", dict(n=5, q=3), ["_check_size", "bound"]),
            ("search-km", dict(n=20, q=3, samples=1, seed=1), ["_check_size", "bound"]),
            ("sm-cardinality", dict(n=20, q=3, samples=1, seed=1), ["_check_cardinality"]),
            ("hamming-sharpness", dict(n=5, d=2, s=1, q=3), ["_check_gap_subset"]),
            ("search-uniform", dict(n=20, q=3, samples=1, seed=1, max_size=3), ["_check_size", "bound"]),
            ("hamming-sharpness", dict(n=30, d=15, s=15, q=3), ["_check_sphere_attains"]),
            ("uniform-binary", dict(n_max=13), ["_check_uniform_binary"]),
            ("hamming-sphere", dict(n_max=8, q=3), ["_check_hamming_sphere"]),
            ("uniform-ballot", dict(n_max=8, q=3), ["_check_uniform_ballot"]),
            ("ballot-count", dict(n_max=11, q_max=4), ["_check_ballot_count"]),
            ("km-sharpness", dict(n_max=12, s_max=3, q_max=3), ["_check_km"]),
            ("blowup", dict(n=7, q=3, samples=1, seed=1), ["_check_blowup"]),
        ],
    )
    def test_a_run_past_the_cap_checks_no_instance(self, monkeypatch, name, params, stubbed):
        calls = []
        for key in stubbed:
            monkeypatch.setattr(verify, key, lambda *args, key=key, **kwargs: calls.append(key))
        with pytest.raises(ValueError, match="exceeds the cap"):
            run_suite(name, **params)
        assert calls == []

    @pytest.mark.parametrize("n_max", [1, 2, 7, 182])
    def test_q2_consistency_counts_its_instances_by_formula(self, monkeypatch, n_max):
        # the stub counts the stream it is given and checks nothing
        streams = []

        def counting(check, items, jobs):
            streams.append(items)
            return sum(1 for _ in items), []

        monkeypatch.setattr(verify, "_pmap", counting)
        listed = sum(n // 2 + 1 + (n + 1) * (n + 2) // 2 for n in range(1, n_max + 1))
        assert run_suite("q2-consistency", n_max=n_max).checked == listed
        assert not isinstance(streams[0], (list, tuple))
        if n_max == 182:
            assert listed == 1_046_682
        with pytest.raises(ValueError, match="^the 1063794 instances exceed the cap of 1048576; lower n_max instead$"):
            run_suite("q2-consistency", n_max=183)
        assert len(streams) == 1

    @pytest.mark.parametrize(
        "name, params, key, count",
        [
            # the largest run each admits, one step below its first refused one
            ("uniform-binary", dict(n_max=12), "n_max", sum(n + 1 for n in range(1, 13))),
            ("hamming-sphere", dict(n_max=7, q=3), "n_max", sum(n + 1 for n in range(1, 8))),
            ("uniform-ballot", dict(n_max=7, q=3), "n_max", sum(2 * n + 1 for n in range(1, 8))),
            ("ballot-count", dict(n_max=9, q_max=4), "n_max", 9 * 3),
            ("km-sharpness", dict(n_max=10, s_max=3, q_max=3), "n_max", 2 * sum(min(n, 4) for n in range(1, 11))),
            ("km-sharpness", dict(n_max=145, s_max=0, q_max=2), "n_max", 145),
            ("blowup", dict(n=6, q=3, samples=2, seed=1), "n", 2),
        ],
    )
    def test_each_suite_streams_its_instances_up_to_the_largest_run_it_admits(
        self, monkeypatch, name, params, key, count
    ):
        # the stub counts the stream it is given and checks nothing
        streams = []

        def counting(check, items, jobs):
            streams.append(items)
            return sum(1 for _ in items), []

        monkeypatch.setattr(verify, "_pmap", counting)
        assert run_suite(name, **params).checked == count
        assert not isinstance(streams[0], (list, tuple))
        with pytest.raises(ValueError, match="exceeds the cap of 1048576"):
            run_suite(name, **{**params, key: params[key] + 1})
        assert len(streams) == 1

    @pytest.mark.parametrize(
        "name, params, key",
        [
            # the boundary runs that fit the test suite's time; those of the
            # engine suites take 4-40 s, so they run stubbed only, above
            ("ballot-count", dict(n_max=9, q_max=4), "n_max"),
            ("km-sharpness", dict(n_max=145, s_max=0, q_max=2), "n_max"),
            ("blowup", dict(n=6, q=3, samples=1, seed=1), "n"),
        ],
    )
    def test_the_largest_run_admitted_still_passes(self, name, params, key):
        assert run_suite(name, **params).verdict == "pass"
        with pytest.raises(ValueError, match="exceeds the cap of 1048576"):
            run_suite(name, **{**params, key: params[key] + 1})


class TestWrappers:
    def test_counterexample_search_names(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            counterexample_search("sauer", n=2, q=3)
        report = counterexample_search("uniform", n=2, q=3)
        assert report.suite == "search-uniform"
        assert report.verdict == "pass"

    def test_counterexample_search_sampled(self):
        report = counterexample_search("km", n=3, q=3, samples=40, seed=17)
        assert report.verdict == "pass"

    def test_oracle_diff(self):
        report = oracle_diff("uniform-binary", {"n_max": 4})
        assert report.verdict == "pass"
        assert report.checked == 14
        with pytest.raises(ValueError, match="no oracle diff"):
            oracle_diff("km-sharpness", {})


def _no_normal_set(v, order=TermOrder.DEGLEX):
    return StandardMonomialSet(order, ())


def _every_exponent_standard(v, order=TermOrder.DEGLEX):
    grid = itertools.product(range(v.q), repeat=v.n)
    return StandardMonomialSet(order, tuple(Monomial(e) for e in grid))


def _compress_fails(v, order=TermOrder.DEGLEX, trace_sets=None):
    raise RuntimeError("stub compression failure")


def _zero_bound(name, n, d=None, s=None, q=None):
    return BoundReport(name, {}, 0)


class TestSampledDrawPins:
    """A passing report lists no instances, so each case stubs one library
    name inside verify to make every drawn instance fail.  The failure
    records then spell out the instances, and the digest of the canonical
    report pins which instances a fixed seed draws."""

    @pytest.mark.parametrize(
        "suite, params, stubs, digest",
        [
            (
                "sm-cardinality",
                dict(n=3, q=3, samples=6, max_size=8, seed=3),
                {"_normal_set": _no_normal_set},
                "83d95e3ed5c54dac43a14ee8042636ccba7f9085a86ade091f354796368a5d52",
            ),
            (
                "alon-compress",
                dict(n=3, q=3, samples=6, max_size=8, seed=4),
                {"alon_compress": _compress_fails},
                "af248665f1ea6aad1ac5cc332540b73a98dff373d01d950fb095db63a345eba2",
            ),
            (
                "blowup",
                dict(n=3, q=3, samples=5, seed=5),
                {"certify_groebner": lambda v, basis, order: False},
                "29a37e2a10578021554d0e41ec1476c2973b5e689b69e39b0688a8978bc82b00",
            ),
            (
                "search-km",
                dict(n=3, q=3, samples=5, seed=6),
                {"bound": _zero_bound},
                "3bf1b1990620c13c41d55d6a7b9322db737a4e980461b57a091cd48aca0ca9cd",
            ),
            (
                "search-hamming",
                dict(n=3, q=3, samples=5, seed=7),
                {"bound": _zero_bound},
                "99a45b68417134ec2508c5090afd9fff9af8d3fc19bb3e5107337abee2b4b10e",
            ),
            (
                "search-uniform",
                dict(n=3, q=3, samples=5, seed=8),
                {"bound": _zero_bound},
                "2ce108d965eb7a72b2cb74ef61c13ea7966486751c6e3cf7ffb30b5f32e7ffbe",
            ),
            (
                "shatter-certificates",
                dict(n=3, q=3, samples=6, cert_samples=6, max_size=8, seed=9),
                {
                    "_normal_set": _every_exponent_standard,
                    "leading_monomial": lambda poly, order: Monomial.unit(poly.n),
                },
                "c585d627f3cb8d04e5830a0cb0eafbb83767f71cc2f64e972703fbc0c5c0f88c",
            ),
        ],
    )
    def test_draws_are_pinned(self, monkeypatch, suite, params, stubs, digest):
        for name, stub in stubs.items():
            monkeypatch.setattr(verify, name, stub)
        report = run_suite(suite, **params)
        assert report.verdict == "fail"
        canonical = json.dumps(report.canonical(), sort_keys=True)
        assert hashlib.sha256(canonical.encode()).hexdigest() == digest


def _grid(n, q):
    return PointSet(n, q, itertools.product(range(q), repeat=n))


class TestFailureRecords:
    """Each case stubs one name inside verify that the shattered-set walk does
    not use, so that the suite fails, and pins every failure record it makes:
    the records of the checks that read _max_shattered, and of the counting
    and bound checks beside them."""

    @pytest.mark.parametrize(
        "suite, params, stubs, records",
        [
            (
                "ballot-count",
                dict(n_max=2, q_max=2),
                {"count_ballot": lambda n, q, i: count_ballot(n, q, i) + 1},
                [
                    {"actual": 1, "expected": 2, "params": {"i": 0, "n": 1, "q": 2}},
                    {"actual": 1, "expected": 2, "params": {"i": 0, "n": 2, "q": 2}},
                    {"actual": 1, "expected": 2, "params": {"i": 1, "n": 2, "q": 2}},
                ],
            ),
            (
                "ballot-count",
                dict(n_max=2, q_max=2),
                {"ballot_member": lambda u, q: True},
                [
                    {"actual": 1, "expected": "no ballot member with more than n/2 full exponents",
                     "params": {"n": 1, "q": 2}},
                    {"actual": 1, "expected": "no ballot member with more than n/2 full exponents",
                     "params": {"n": 2, "q": 2}},
                    {"actual": 2, "expected": 1, "params": {"i": 1, "n": 2, "q": 2}},
                ],
            ),
            (
                "uniform-ballot",
                dict(n_max=1, q=2),
                {"ballot_member": lambda u, q: False},
                [
                    {"actual": [[0]], "expected": "all standard monomials satisfy the ballot condition",
                     "params": {"d": d, "n": 1, "order": order, "q": 2}}
                    for d in (0, 1)
                    for order in ("deglex", "lex")
                ],
            ),
            (
                "hamming-sharpness",
                dict(n=2, d=1, s=1, q=3),
                {"hamming_sphere": lambda n, d, q: _grid(n, q)},
                [
                    {"actual": 2, "expected": "no shattered set of size 2", "params": {"d": 1, "n": 2, "q": 3, "s": 1}},
                    {"actual": 9, "expected": 4, "params": {"d": 1, "n": 2, "q": 3, "s": 1}},
                ],
            ),
            (
                "hamming-sharpness",
                dict(n=3, d=1, s=1, q=3),
                {"bound": _zero_bound},
                [{"actual": 6, "expected": "strict gap below 0", "params": {"d": 1, "n": 3, "q": 3, "s": 1}}],
            ),
            (
                "km-sharpness",
                dict(n_max=3, s_max=0, q_max=3),
                {
                    "km_extremal": lambda n, s, q: _grid(n, q),
                    # q points apart only in the first coordinate, of sums 0..q-1
                    "lower_bound_slice": lambda n, s, q: (1, PointSet(n, q, [(c,) + (0,) * (n - 1) for c in range(q)])),
                },
                [
                    {"actual": f"size {size} != bound {limit}; shatters a set of size {n}; slice is not d-uniform; "
                     + ("slice size 3 below pigeonhole guarantee; " if (n, q) == (3, 3) else "")
                     + "slice shatters a set of size 1",
                     "expected": "extremal witness properties", "params": {"n": n, "q": q, "s": 0}}
                    for n, q, size, limit in [
                        (1, 2, 2, 1), (3, 3, 27, 8), (1, 3, 3, 2), (2, 2, 4, 1), (3, 2, 8, 1), (2, 3, 9, 4)
                    ]
                ],
            ),
            (
                "shatter-cap",
                dict(n=2, q=2),
                {"shatter_cap": lambda d, q: 0},
                [{"actual": 1, "expected": "shattered sets of size at most 0",
                  "params": {"d": 1, "n": 2, "points": [[0, 1], [1, 0]], "q": 2}}],
            ),
            (
                "q2-consistency",
                dict(n_max=1),
                {"bound": _zero_bound},
                [
                    {"actual": 0, "expected": 1, "params": {"d": 0, "n": 1, "name": "hamming", "s": 0}},
                    {"actual": 0, "expected": 1, "params": {"d": 0, "n": 1, "name": "hamming", "s": 1}},
                    {"actual": 0, "expected": 1, "params": {"d": 1, "n": 1, "name": "hamming", "s": 0}},
                    {"actual": 0, "expected": 1, "params": {"n": 1, "name": "uniform", "s": 0}},
                ],
            ),
        ],
        ids=[
            "ballot-count", "ballot-leftover", "uniform-ballot", "sphere-attains",
            "hamming-gap", "km", "shatter-cap", "q2",
        ],
    )
    def test_records_are_pinned(self, monkeypatch, suite, params, stubs, records):
        for name, stub in stubs.items():
            monkeypatch.setattr(verify, name, stub)
        report = run_suite(suite, **params)
        assert report.verdict == "fail"
        assert json.loads(report.to_json())["failures"] == records

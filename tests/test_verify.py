"""Report plumbing and the verification suite registry."""

import concurrent.futures
import hashlib
import itertools
import json

import pytest

import shatterbasis.compress as compress
import shatterbasis.verify as verify
from shatterbasis.closedform import BoundReport, sm_uniform_binary
from shatterbasis.ideals import StandardMonomialSet, interpolate, vanishing_basis
from shatterbasis.polyring import Monomial, TermOrder
from shatterbasis.tuples import complete_uniform
from shatterbasis.verify import (
    SUITE_NAMES,
    counterexample_search,
    oracle_diff,
    run_suite,
)


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
        def broken(params):
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

    @pytest.mark.parametrize("cpus, expected", [(2, [2]), (None, []), (64, [15])])
    def test_workers_clamped_to_items_and_cpus(self, monkeypatch, cpus, expected):
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
        monkeypatch.setattr(verify.os, "cpu_count", lambda: cpus)
        report = run_suite("sm-cardinality", n=2, q=2, jobs=5000)
        assert pools == expected  # 15 items, jobs=5000; no pool below two workers
        assert (report.checked, report.verdict) == (15, "pass")

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

    def test_compress_checks_every_coordinate_set_above_n4(self, monkeypatch):
        # alon_compress checks no trace set by default above n = 4, so the
        # suite must name them; inflate the compressed trace on the full set
        # (a compressed system is downward closed, most samples are not)
        def inflated(v, coords):
            grow = len(set(coords)) == v.n and compress.is_downward_closed(v)
            return len(v.restrictions(coords)) + grow

        monkeypatch.setattr(compress, "trace_size", inflated)
        report = run_suite("alon-compress", n=5, q=2, samples=6, max_size=12, seed=2)
        assert report.verdict == "fail"
        assert report.failures
        for failure in report.failures:
            assert failure["actual"].startswith("trace on [1, 2, 3, 4, 5] grew from ")

    def test_single_order_restriction(self):
        report = run_suite("blowup", n=2, q=3, order="lex")
        assert report.verdict == "pass"
        assert report.params["order"] == "lex"


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
    return None, StandardMonomialSet(order, ())


def _every_exponent_standard(v, order=TermOrder.DEGLEX):
    grid = itertools.product(range(v.q), repeat=v.n)
    return None, StandardMonomialSet(order, tuple(Monomial(e) for e in grid))


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
                {"vanishing_basis": _no_normal_set},
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
                    "vanishing_basis": _every_exponent_standard,
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

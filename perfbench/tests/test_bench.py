"""Tests of the benchmark itself: checkers, tracer, runs, compare verdicts.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

LIB = workloads.load_library()


def _op(name: str, i: int, workdir: str | None = None):
    wl = workloads.WORKLOADS[name]
    spec = wl.spec(run.DEFAULT_SEED, i, workdir)
    return wl, spec, wl.run(LIB, spec)


# ---------------------------------------------------------------- checkers


def test_engine_checker_flags_a_dropped_standard_monomial():
    wl, spec, (gb, sm) = _op("engine", 0)
    assert wl.check(spec, (gb, sm)) == []
    dropped = LIB.ideals.StandardMonomialSet(sm.order, sm.monomials[:-1])
    assert any("standard monomials" in p for p in wl.check(spec, (gb, dropped)))


def test_engine_checker_flags_a_generator_that_does_not_vanish():
    wl, spec, (gb, sm) = _op("engine", 1)
    g = gb.generators[0]
    bumped = g + LIB.polyring.Polynomial.constant(Fraction(1, 3), g.n)
    broken = LIB.ideals.GroebnerBasis(gb.order, (bumped,) + gb.generators[1:])
    assert wl.check(spec, (broken, sm)) == ["a generator does not vanish on V"]


def test_blowup_checker_flags_an_uncertified_basis():
    wl, spec, out = _op("blowup", 0)
    assert wl.check(spec, out) == []
    assert wl.check(spec, out[:-1] + (False,)) == ["the closed-form basis was not certified"]


def test_wide_checker_flags_uncertified_output_and_exit_codes(tmp_path):
    wl, spec, (code, text) = _op("wide", 2, str(tmp_path))
    assert spec["command"] == "certify"
    assert wl.check(spec, (code, text)) == []
    payload = json.loads(text)
    assert wl.check(spec, (code, json.dumps(dict(payload, certified=False)))) == ["basis not certified"]
    short = dict(payload, standard_monomials=payload["standard_monomials"] - 1)
    assert len(wl.check(spec, (code, json.dumps(short)))) == 1
    assert wl.check(spec, (1, text)) == ["exit code 1"]
    assert wl.check(spec, (2, "")) == ["exit code 2"]


def test_wide_checker_flags_a_dropped_standard_monomial_and_a_bad_family(tmp_path):
    wl, spec, (code, text) = _op("wide", 0, str(tmp_path))
    assert spec["command"] == "sm"
    assert wl.check(spec, (code, json.dumps(json.loads(text)[:-1]))) != []
    wl, spec, (code, text) = _op("wide", 3, str(tmp_path))
    assert spec["command"] == "shatter"
    assert wl.check(spec, (code, text)) == []
    family = json.loads(text)
    assert wl.check(spec, (code, json.dumps(family[1:]))) != []  # drops the empty set


def test_sweep_checker_flags_a_failed_verdict():
    wl, spec, report = _op("sweep", 0)
    assert wl.check(spec, report) == []
    failed = LIB.verify.Report(report.suite, report.params, report.checked, ({"x": 1},), 0.0, "fail")
    assert wl.check(spec, failed) != []


# ---------------------------------------------------------------- tracer


def test_layer_self_times_add_up_to_the_traced_busy_time():
    spans = worker.spans_path("blowup")
    spans.unlink(missing_ok=True)
    result = worker.run_repeat("blowup", 3, time.monotonic_ns(), ops=6, trace=True)
    layers = result["layers"]
    assert result["failed_ops"] == []
    assert layers["polyring.Polynomial.evaluate.calls"] > 0
    assert layers["ideals.certify_groebner.calls"] == 6
    self_total = sum(layers[f"{layer}.self_s"] for layer in tracing.LAYERS)
    assert self_total == pytest.approx(layers["trace.busy_s"], rel=1e-9, abs=1e-9)
    assert layers["trace.busy_s"] <= sum(result["op_s"])
    names = [json.loads(line)[2] for line in spans.read_text().splitlines()]
    assert names.count("ideals.certify_groebner") == 6


def test_tracer_restores_the_library_and_sees_imported_names():
    original = LIB.closedform.vanishing_basis
    tracer = tracing.Tracer()
    tracer.install(LIB)
    try:
        assert LIB.closedform.vanishing_basis is not original
        assert LIB.closedform.vanishing_basis is LIB.ideals.vanishing_basis
        assert LIB.package.vanishing_basis is LIB.ideals.vanishing_basis
        v = LIB.tuples.PointSet(2, 2, [(0, 0), (1, 1)])
        LIB.closedform.vanishing_basis(v, LIB.polyring.TermOrder.LEX)
    finally:
        tracer.uninstall()
    assert LIB.closedform.vanishing_basis is original
    calls, busy, self_s, roots = tracer.span_totals()
    assert calls["ideals.vanishing_basis.lex"] == 1
    assert calls["tuples.PointSet"] == 1


# ---------------------------------------------------------------- runs


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_of_every_workload_completes(name):
    result = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", "5", "--ops", "3",
         "--started-ns", str(time.monotonic_ns())],
        capture_output=True, text=True, timeout=120, check=True,
    )
    out = json.loads(result.stdout.strip().splitlines()[-1])
    assert (len(out["op_s"]), out["failed_ops"], out["problems"]) == (3, [], [])
    assert out["setup_s"] > 0 and all(t > 0 for t in out["op_s"])
    assert all(h is not None for h in out["op_hashes"])
    assert len(out["kernel_s"]) == 4 and len(out["setup_kernel_s"]) == worker.SETUP_PASSES


def test_harrell_davis_estimates_a_quantile():
    assert run.harrell_davis([2.5] * 30, 0.9) == pytest.approx(2.5)
    assert run.harrell_davis(list(range(1, 1002)), 0.9) == pytest.approx(901, rel=1e-3)
    # between the 90th and the 91st of 100 samples, pulled up by the tail
    clustered = [1.0] * 90 + [10.0] * 10
    assert 1.0 < run.harrell_davis(clustered, 0.9) < 10.0


def test_times_scale_with_the_local_kernel_passes():
    ref = speed.REF_S
    assert speed.scaled_ops([1.0, 2.0], [2 * ref] * 3) == [0.5, 1.0]
    # a single interrupted pass does not move the operations around it
    assert speed.scaled_ops([1.0, 1.0, 1.0], [ref, ref, 10 * ref, ref]) == [1.0, 1.0, 1.0]
    assert speed.scale(3.0, [ref, 3 * ref, 3 * ref]) == pytest.approx(1.0)
    assert 0 < speed.kernel() < 1


def test_repeats_stop_before_the_time_budget_runs_out():
    start = time.monotonic()
    reps = run.measure("sweep", 5, seconds=1e6, deadline=start + 4, ops=2)
    assert len(reps) >= run.MIN_REPEATS
    assert time.monotonic() < start + 4
    assert all(len(r["op_s"]) == 2 for r in reps)


def test_later_repeats_fail_where_their_outputs_differ_from_the_checked_one():
    checked = {"op_hashes": ["a", "b", "c", "d"], "failed_ops": [3], "problems": ["op 3: bad"]}
    same = {"op_hashes": ["a", "b", "c", "d"], "failed_ops": [], "problems": []}
    other = {"op_hashes": ["a", "x", None, "d"], "failed_ops": [2], "problems": ["op 2: raised"]}
    assert run.failures("engine", 5, [checked, same]) == (2, ["op 3: bad"])
    failed, problems = run.failures("engine", 5, [checked, same, other])
    assert failed == 2 + 3
    assert problems == ["op 3: bad", "op 2: raised", "op 1: output differs from the checked repeat"]
    failed, problems = run.failures("engine", run.DEFAULT_SEED, [same])
    assert failed == 0 and "differs from the pinned" in problems[0]


def test_run_refuses_to_start_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", ".work"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "engine", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=""),
    )
    assert result.returncode != 0
    assert result.stdout == ""


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [m[:2] for m in tracing.METRICS]
    names = [m["name"] for m in spec["end_to_end"]]
    assert names == ["setup_s", "ops_per_s", "op_p50_ms", "op_p90_ms", "ok_frac", "peak_rss_mb"]
    assert max(m["bound"] for m in spec["end_to_end"]) == spec["end_to_end"][0]["bound"]


# ---------------------------------------------------------------- compare


def test_compare_verdicts():
    base = {s: 10.0 + 0.1 * s for s in range(10)}
    assert compare.verdict(base, {s: v * 0.5 for s, v in base.items()}, "lower", 0.1) == "improved"
    assert compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, "lower", 0.1) == "worse"
    assert compare.verdict(base, {s: v * 1.01 for s, v in base.items()}, "lower", 0.1) == "unchanged"
    assert compare.verdict(base, {s: v * 1.5 for s, v in base.items()}, "higher", 0.1) == "improved"
    wide = {s: 10.0 * (1 + s % 2) for s in range(10)}  # quartiles 10 and 20
    assert compare.verdict(wide, {s: 14.0 for s in range(10)}, "lower", 0.1) == "unresolved"
    assert compare.verdict(wide, {s: 5.0 for s in range(10)}, "lower", 0.1) == "unresolved"
    assert compare.verdict(wide, {s: 4.0 for s in range(10)}, "lower", 0.1) == "improved"
    mixed = {s: v * (0.5 if s < 8 else 1.0) for s, v in base.items()}  # wins 8 of 10 pairs
    assert compare.verdict(base, mixed, "lower", 0.1) == "unresolved"

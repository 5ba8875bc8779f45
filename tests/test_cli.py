"""Tuple-file parsing and the command-line surface, through dispatch()."""

import argparse
import inspect
import itertools
import json
import os
import random
import resource
import subprocess
import sys
import time
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import shatterbasis
import shatterbasis.verify
from shatterbasis.cli import dispatch, parse_tuples, render_tuples
from shatterbasis.closedform import bound
from shatterbasis.ideals import vanishing_basis
from shatterbasis.polyring import TermOrder, parse_polynomial
from shatterbasis.tuples import PointSet, complete_uniform, hamming_sphere, shattered_family, shatters


@st.composite
def point_sets(draw):
    n = draw(st.integers(1, 4))
    q = draw(st.integers(2, 4))
    coords = st.tuples(*[st.integers(0, q - 1)] * n)
    return PointSet(n, q, draw(st.sets(coords, max_size=10)))


class TestParseTuples:
    def test_basic_file(self):
        v = parse_tuples("2 3\n1 0\n0 2\n")
        assert v.n == 2 and v.q == 3
        assert list(v) == [(0, 2), (1, 0)]

    def test_comments_blanks_and_duplicates(self):
        text = "# system\n3 2\n\n1 0 1  # repeated below\n1 0 1\n0 0 0\n"
        v = parse_tuples(text)
        assert list(v) == [(0, 0, 0), (1, 0, 1)]

    def test_out_of_range_coordinate_names_line(self):
        with pytest.raises(ValueError, match="line 3: coordinate 3 out of range"):
            parse_tuples("2 3\n1 0\n1 3\n")

    def test_wrong_arity_names_line(self):
        with pytest.raises(ValueError, match="line 2: expected 2 coordinates, got 3"):
            parse_tuples("2 3\n1 0 0\n")

    def test_non_integer(self):
        with pytest.raises(ValueError, match="line 2: expected integers"):
            parse_tuples("2 3\nx y\n")

    def test_bad_header(self):
        with pytest.raises(ValueError, match="line 1: header"):
            parse_tuples("2\n")
        with pytest.raises(ValueError, match="n >= 1 and q >= 2"):
            parse_tuples("0 3\n")

    def test_empty_file(self):
        with pytest.raises(ValueError, match="missing 'n q' header"):
            parse_tuples("# nothing here\n")

    @given(point_sets())
    def test_render_parse_round_trip(self, v):
        assert parse_tuples(render_tuples(v)) == v


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConstruct:
    def test_uniform_text(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "uniform", "--n", "3", "--d", "1", "--q", "2")
        assert code == 0
        assert parse_tuples(out) == complete_uniform(3, 1, 2)

    def test_hamming_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "construct", "hamming", "--n", "2", "--d", "1", "--q", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 2 and payload["q"] == 3
        assert len(payload["points"]) == 4
        assert payload["points"] == sorted(payload["points"])

    def test_km_size(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "km", "--n", "3", "--s", "1", "--q", "2")
        assert code == 0
        assert len(parse_tuples(out)) == 4

    def test_lowerbound_reports_degree(self, capsys):
        code, out, _ = run_cli(capsys, "construct", "lowerbound", "--n", "2", "--s", "1", "--q", "3")
        assert code == 0
        assert out.startswith("# d = ")
        code, out, _ = run_cli(
            capsys, "construct", "lowerbound", "--n", "2", "--s", "1", "--q", "3",
            "--format", "json",
        )
        payload = json.loads(out)
        assert "d" in payload and payload["points"]

    def test_blowup_from_family_file(self, capsys, tmp_path):
        fam = tmp_path / "family.txt"
        fam.write_text("2 2\n1 0\n")
        code, out, _ = run_cli(capsys, "construct", "blowup", "--in", str(fam), "--q", "3")
        assert code == 0
        assert list(parse_tuples(out)) == [(1, 0), (2, 0)]

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["construct", "uniform", "--n", "3", "--q", "2"], "--d"),
            (["construct", "blowup", "--q", "3"], "--in"),
        ],
    )
    def test_missing_parameter_is_usage_error(self, capsys, argv, flag):
        code, _, err = run_cli(capsys, *argv)
        assert code == 2
        assert f"requires {flag}\n" in err

    @pytest.mark.parametrize(
        "kind, degree", [("km", "--s"), ("uniform", "--d"), ("hamming", "--d")]
    )
    def test_single_point_in_high_dimension(self, capsys, kind, degree):
        # the enumeration must not recurse once per coordinate
        code, out, err = run_cli(capsys, "construct", kind, "--n", "1200", degree, "0", "--q", "2")
        assert code == 0, err
        assert out == "1200 2\n" + " ".join(["0"] * 1200) + "\n"


@pytest.fixture
def sphere_file(tmp_path):
    path = tmp_path / "sphere.txt"
    path.write_text(render_tuples(hamming_sphere(2, 1, 3)))
    return str(path)


class TestCoreCommands:
    def test_sm_json_counts_points(self, capsys, sphere_file):
        code, out, _ = run_cli(capsys, "sm", "--in", sphere_file, "--format", "json")
        assert code == 0
        exponents = json.loads(out)
        assert len(exponents) == 4
        assert exponents[0] == [0, 0]

    @pytest.mark.parametrize("command", ["sm", "compress"])
    def test_lex_in_high_dimension(self, capsys, tmp_path, command):
        # the lex standard monomials once recursed one level per coordinate,
        # past the interpreter's recursion limit
        n = 1500
        path = tmp_path / "two.txt"
        path.write_text(f"{n} 2\n" + " ".join(["0"] * n) + "\n" + " ".join(["1"] * n) + "\n")
        code, out, err = run_cli(capsys, command, "--in", str(path), "--order", "lex", "--format", "json")
        assert code == 0, err
        payload = json.loads(out)
        exponents = payload if command == "sm" else payload["points"]
        assert exponents == [[0] * n, [0] * (n - 1) + [1]]

    @pytest.mark.parametrize(
        "command, order",
        [("sm", "deglex"), ("gb", "deglex"), ("gb", "lex"), ("certify", "deglex"), ("certify", "lex")],
    )
    def test_two_points_in_high_dimension(self, tmp_path, command, order):
        # a multiple of a leading monomial was once found by scanning every
        # lead found so far, which made two points cost O(n^3)
        n = 1500
        path = tmp_path / "two.txt"
        path.write_text(f"{n} 2\n" + " ".join(["0"] * n) + "\n" + " ".join(["1"] * n) + "\n")
        argv = [command, "--in", str(path), "--order", order, "--format", "json"]
        proc = run_limited(MAIN.format(argv=argv), timeout=15)
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        if command == "sm":
            assert payload == [[0] * n, [0] * (n - 1) + [1]]
        elif command == "gb":
            assert len(payload) == n
        else:
            assert payload["certified"] is True and payload["standard_monomials"] == 2

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_bound_past_the_int_str_limit(self, capsys, fmt):
        # 4,777 digits, past the interpreter's default int -> str limit of
        # 4,300; Decimal converts exactly and without that limit
        value = bound("km", 5000, s=2, q=10).value
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        argv = ["bounds", "--name", "km", "--n", "5000", "--s", "2", "--q", "10", "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit
        if fmt == "json":
            assert json.loads(out, parse_int=Decimal)["value"] == value
        else:
            assert out == f"km(n=5000, s=2, q=10) = {Decimal(value)}\n"

    def test_q2_consistency_past_the_cap_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "q2-consistency", "--n-max", "183")
        assert code == 2 and out == ""
        assert err == "error: the 1063794 instances exceed the cap of 1048576; lower n_max instead\n"

    def test_sm_text(self, capsys, sphere_file):
        code, out, _ = run_cli(capsys, "sm", "--in", sphere_file, "--order", "deglex")
        assert code == 0
        assert out.splitlines()[0] == "1"

    def test_gb_text_lines_vanish(self, capsys, sphere_file):
        code, out, _ = run_cli(capsys, "gb", "--in", sphere_file)
        assert code == 0
        points = hamming_sphere(2, 1, 3)
        lines = out.strip().splitlines()
        assert lines
        for line in lines:
            g = parse_polynomial(line, 2)
            assert all(g.evaluate(p) == 0 for p in points)

    def test_gb_json_shape(self, capsys, sphere_file):
        code, out, _ = run_cli(capsys, "gb", "--in", sphere_file, "--format", "json")
        gens = json.loads(out)
        assert code == 0 and gens
        first = gens[0]
        assert first["terms"][0]["exponents"] == first["leading_monomial"]
        assert first["terms"][0]["coefficient"] == "1"

    def test_shatter_matches_library(self, capsys, sphere_file):
        code, out, _ = run_cli(capsys, "shatter", "--in", sphere_file, "--format", "json")
        assert code == 0
        got = {tuple(p) for p in json.loads(out)}
        expected = shattered_family(hamming_sphere(2, 1, 3)).to_point_set()
        assert got == set(expected)

    def test_certify_passes(self, capsys, sphere_file):
        code, out, _ = run_cli(capsys, "certify", "--in", sphere_file, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["certified"] is True
        assert payload["standard_monomials"] == 4
        assert payload["order"] == "deglex"

    def test_compress_output_is_downward_closed(self, capsys, tmp_path):
        path = tmp_path / "pair.txt"
        path.write_text("2 2\n1 1\n0 1\n")
        code, out, _ = run_cli(capsys, "compress", "--in", path.as_posix(), "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["points"]) == 2
        assert payload["order"] == "deglex"
        assert {tuple(t["coords"]) for t in payload["traces"]} >= {(1,), (2,)}
        for trace in payload["traces"]:
            assert trace["before"] == trace["after"]

    def test_stdin_input(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", __import__("io").StringIO("1 2\n0\n1\n"))
        code, out, _ = run_cli(capsys, "sm", "--in", "-")
        assert code == 0
        assert out.splitlines() == ["1", "x1"]

    def test_family_file_must_be_binary(self, capsys, tmp_path):
        fam = tmp_path / "family.txt"
        fam.write_text("2 3\n1 0\n")
        code, _, err = run_cli(capsys, "construct", "blowup", "--in", str(fam), "--q", "3")
        assert code == 2
        assert "characteristic vectors" in err


class TestOutputSensitiveCommands:
    """A single point in high dimension has one standard monomial and
    shatters only the empty set; neither answer may need a walk over the
    q^n box or the 2^n coordinate sets."""

    @staticmethod
    def run_module(tmp_path, n, q, *argv):
        path = tmp_path / "point.txt"
        path.write_text(f"{n} {q}\n" + " ".join(["0"] * n) + "\n")
        src = Path(shatterbasis.__file__).resolve().parents[1]
        return subprocess.run(
            [sys.executable, "-m", "shatterbasis", argv[0], "--in", str(path), *argv[1:]],
            capture_output=True,
            text=True,
            timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)},
        )

    def test_shatter_single_point(self, tmp_path):
        proc = self.run_module(tmp_path, 24, 2, "shatter", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [[0] * 24]

    @pytest.mark.parametrize("n, q", [(24, 2), (16, 3)])
    def test_certify_single_point(self, tmp_path, n, q):
        proc = self.run_module(tmp_path, n, q, "certify", "--format", "json")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        assert payload["certified"] is True
        assert payload["standard_monomials"] == 1


# runs the command line on argv in a fresh interpreter, through run_limited
MAIN = "import sys\nfrom shatterbasis.cli import main\nsys.argv[1:] = {argv!r}\nmain()\n"


def run_limited(code, timeout=30):
    """Run code in a fresh interpreter that imports this package, with its
    address space alone capped at 1.5 GB; fails on the timeout, in seconds."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    src = Path(shatterbasis.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=timeout,
        preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


class TestNoHangOrExhaustion:
    """Suites never list the q^n grid or all 2^n coordinate sets, refuse
    draws past the cap, and a dead worker ends the run."""

    VERIFY = MAIN

    def test_sampled_grid_suite_in_high_dimension(self):
        argv = ["verify", "--suite", "sm-cardinality", "--n", "20", "--q", "3",
                "--samples", "1", "--seed", "1", "--max-size", "3"]
        proc = run_limited(self.VERIFY.format(argv=argv))
        assert proc.returncode == 0, proc.stderr
        assert "verdict: pass" in proc.stdout

    def test_sampled_search_in_high_dimension(self):
        # the q^n grid of search-km is drawn by index, and --max-size is honoured
        argv = ["verify", "--suite", "search-km", "--n", "20", "--q", "3",
                "--samples", "1", "--seed", "1", "--max-size", "3"]
        proc = run_limited(self.VERIFY.format(argv=argv))
        assert proc.returncode == 0, proc.stderr
        assert "verdict: pass" in proc.stdout

    def test_sampled_compress_in_high_dimension(self):
        # only the coordinate sets where V's restriction is not injective
        # are traced, not all 2^20
        argv = ["verify", "--suite", "alon-compress", "--n", "20", "--q", "3",
                "--samples", "1", "--seed", "1", "--max-size", "3"]
        proc = run_limited(self.VERIFY.format(argv=argv))
        assert proc.returncode == 0, proc.stderr
        assert "verdict: pass" in proc.stdout

    @pytest.mark.parametrize("n", ["20", "24"])
    def test_sampled_certificates_in_high_dimension(self, n):
        # the non-shattered set and its missing pattern are unranked, so
        # neither the 2^n coordinate sets nor the 3^|cs| patterns are
        # listed; listing the 2^24 sets alone overruns the 1.5 GB cap
        argv = ["verify", "--suite", "shatter-certificates", "--n", n, "--q", "3",
                "--samples", "0", "--cert-samples", "1", "--seed", "1", "--max-size", "3"]
        proc = run_limited(self.VERIFY.format(argv=argv))
        assert proc.returncode == 0, proc.stderr
        assert "checked: 1" in proc.stdout
        assert "verdict: pass" in proc.stdout

    def test_oversized_certificate_is_refused(self):
        # seed 4 draws a 17-element set at n=30, whose certificate would
        # expand into 3^17 terms; the draw is refused before any expansion
        argv = ["verify", "--suite", "shatter-certificates", "--n", "30", "--q", "3",
                "--samples", "0", "--cert-samples", "1", "--seed", "4", "--max-size", "3"]
        proc = run_limited(self.VERIFY.format(argv=argv))
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
        assert "3^17" in proc.stderr

    def test_certificate_draw_of_a_large_set_matches_a_brute_listing(self):
        # seed 10102 draws a 15-element set at n=16; the listing below is
        # the one the draws by rank replace, and consumes rng the same way
        n, q, seed = 16, 2, 10102
        brute_rng = random.Random(seed)
        grid = shatterbasis.verify._ground(n, q)
        (pts,) = next(shatterbasis.verify._instances([()], [grid], 1, 3, brute_rng))
        v = PointSet(n, q, pts)
        candidates = [
            cs
            for r in range(1, n + 1)
            for cs in itertools.combinations(range(1, n + 1), r)
            if not shatters(v, cs)
        ]
        cs = brute_rng.choice(candidates)
        missing = sorted(set(itertools.product(range(q), repeat=len(cs))) - v.restrictions(cs))
        pattern = brute_rng.choice(missing)
        witness = [0] * n
        for c, value in zip(cs, pattern):
            witness[c - 1] = value
        draws = shatterbasis.verify._certificate_draws(n, q, random.Random(seed), 1, 3)
        assert list(draws) == [(n, q, pts, cs, witness)]
        assert len(cs) >= 15

    @pytest.mark.parametrize(
        "argv, seconds",
        [
            # exhaustive: the first slice past the cap is refused before the
            # smaller ones are checked, and a slice is sized without listing it
            (["shatter-cap", "--n", "20", "--q", "3"], 2),
            (["sm-slice", "--n", "20", "--q", "3"], 2),
            (["search-uniform", "--n", "20", "--q", "3"], 2),
            (["search-hamming", "--n", "20", "--q", "3"], 2),
            (["hamming-sharpness", "--n", "30", "--d", "15", "--s", "1", "--q", "3"], 2),
            # the grid is refused before any bound is computed, and q^n or
            # 2^n is never computed to tell that n is too large
            (["search-km", "--n", "3000", "--q", "3", "--samples", "1", "--seed", "1", "--max-size", "3"], 2),
            (["search-km", "--n", "1000000000", "--q", "3", "--samples", "1", "--seed", "1", "--max-size", "3"], 1),
            (["sm-cardinality", "--n", "1000000000", "--q", "3", "--samples", "1", "--seed", "1",
              "--max-size", "3"], 1),
            (["shatter-certificates", "--n", "1000000000", "--q", "3", "--samples", "1", "--seed", "1",
              "--max-size", "3"], 1),
            (["blowup", "--n", "1000000000", "--q", "3", "--samples", "1", "--seed", "1"], 1),
            # a sampled slice is sized before it is listed, and the sphere of
            # the equality case before it is built
            (["search-uniform", "--n", "20", "--q", "3", "--samples", "1", "--seed", "1", "--max-size", "3"], 2),
            (["search-hamming", "--n", "20", "--q", "3", "--samples", "1", "--seed", "1", "--max-size", "3"], 2),
            (["hamming-sharpness", "--n", "30", "--d", "15", "--s", "15", "--q", "3"], 2),
            # the instances are counted by formula, not listed
            (["q2-consistency", "--n-max", "1000"], 2),
            (["q2-consistency", "--n-max", "1000000000"], 2),
            # the largest system, grid or listing is stated by formula first
            (["uniform-binary", "--n-max", "30"], 2),
            (["hamming-sphere", "--n-max", "20", "--q", "3"], 2),
            (["uniform-ballot", "--n-max", "20", "--q", "3"], 2),
            (["ballot-count", "--n-max", "40", "--q-max", "6"], 2),
            (["km-sharpness", "--n-max", "12", "--s-max", "3", "--q-max", "3"], 2),
            (["km-sharpness", "--n-max", "1000000", "--s-max", "0", "--q-max", "2"], 2),
            (["blowup", "--n", "19", "--q", "3", "--samples", "1", "--seed", "1"], 2),
            # n_max is tested before any binomial, power or bound of it is computed
            (["uniform-binary", "--n-max", "1000000000"], 2),
            (["hamming-sphere", "--n-max", "1000000000", "--q", "3"], 2),
            (["uniform-ballot", "--n-max", "1000000000", "--q", "3"], 2),
            (["ballot-count", "--n-max", "1000000000", "--q-max", "6"], 2),
            (["km-sharpness", "--n-max", "1000000000", "--s-max", "3", "--q-max", "3"], 2),
            # every grid counts, not the largest alone: the sum over q of q points
            (["ballot-count", "--n-max", "1", "--q-max", "1048576"], 2),
            # a sampled draw handed to the engine states its elimination, |V|^2 for up to 3^8 points
            (["sm-cardinality", "--n", "8", "--q", "3", "--samples", "1", "--seed", "1"], 2),
            (["alon-compress", "--n", "8", "--q", "3", "--samples", "1", "--seed", "1"], 2),
            (["shatter-certificates", "--n", "8", "--q", "3", "--samples", "1", "--cert-samples", "1",
              "--seed", "1"], 2),
        ],
    )
    def test_refused_before_any_work(self, argv, seconds):
        start = time.perf_counter()
        proc = run_limited(self.VERIFY.format(argv=["verify", "--suite", *argv]))
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert elapsed < seconds, (elapsed, lines[0])

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_bound_of_a_wide_sum_exits_quickly(self, fmt):
        # 10,001 terms of up to 6,000 digits, each made from the one before;
        # built from scratch one by one they took 49 s
        argv = ["bounds", "--name", "sauer", "--n", "20000", "--s", "10000", "--format", fmt]
        start = time.perf_counter()
        proc = run_limited(self.VERIFY.format(argv=argv))
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert len(proc.stdout) > 6000
        assert elapsed < 2, elapsed

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_bound_past_the_int_str_limit_exits_zero(self, fmt):
        # once exit 2: "Exceeds the limit (4300 digits) for integer string conversion"
        argv = ["bounds", "--name", "km", "--n", "5000", "--s", "2", "--q", "10", "--format", fmt]
        proc = run_limited(self.VERIFY.format(argv=argv))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert len(proc.stdout) > 4777

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_bound_past_the_digit_cap_is_refused(self, fmt):
        # 2^(10^7) has 3,010,300 digits; int -> str is quadratic in them, so
        # the digits are counted from the bit length before converting
        argv = ["bounds", "--name", "km", "--n", "10000000", "--s", "0", "--q", "3", "--format", fmt]
        start = time.perf_counter()
        proc = run_limited(self.VERIFY.format(argv=argv))
        elapsed = time.perf_counter() - start
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == (
            "error: printing a value of at least 3010300 decimal digits exceeds the cap of 1048576; "
            "lower n or q instead\n"
        )
        assert elapsed < 2, elapsed

    def test_bound_under_the_digit_cap_prints(self):
        argv = ["bounds", "--name", "km", "--n", "1000000", "--s", "0", "--q", "3"]
        proc = run_limited(self.VERIFY.format(argv=argv))
        assert proc.returncode == 0, proc.stderr
        assert len(proc.stdout.split(" = ")[1].strip()) == 301030

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_shatter_of_an_empty_wide_system(self, tmp_path, fmt):
        # no points: nothing is tested, so no vector of 10^9 entries is built
        path = tmp_path / "empty.txt"
        path.write_text("1000000000 2\n")
        proc = run_limited(self.VERIFY.format(argv=["shatter", "--in", str(path), "--format", fmt]))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == ("[]\n" if fmt == "json" else "1000000000 2\n")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_shatter_of_one_point_in_high_dimension(self, tmp_path, fmt):
        # a tested set costs O(|V| + |S|), not O(n): the n sets of one
        # coordinate are tested and only the empty set is printed
        n = 100_000
        path = tmp_path / "one.txt"
        path.write_text(f"{n} 3\n" + " ".join(["1"] * n) + "\n")
        argv = ["shatter", "--in", str(path), "--format", fmt]
        proc = run_limited(self.VERIFY.format(argv=argv), timeout=5)
        assert proc.returncode == 0, proc.stderr
        if fmt == "json":
            assert json.loads(proc.stdout) == [[0] * n]
        else:
            assert proc.stdout == f"{n} 2\n" + " ".join(["0"] * n) + "\n"

    def test_shattered_family_of_four_points_in_high_dimension(self):
        # 4 points shatter no set of 3 coordinates, so no child of a
        # shattered pair is tested; testing each one took over 20 s.  Only
        # the library call is timed: cli shatter spends most of its time
        # here printing the 47,953 sets as 1000-long vectors.
        code = (
            "import random\n"
            "from shatterbasis import PointSet, shattered_family\n"
            "rng = random.Random(1)\n"
            "v = PointSet(1000, 2, [[rng.randrange(2) for _ in range(1000)] for _ in range(4)])\n"
            "print(len(v), len(shattered_family(v)))\n"
        )
        start = time.perf_counter()
        proc = run_limited(code, timeout=15)
        elapsed = time.perf_counter() - start
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "4 47953\n"
        assert elapsed < 5, elapsed

    @pytest.mark.parametrize("n", ["48", "42"])
    def test_compress_refuses_past_the_cap_of_non_injective_sets(self, n):
        # seed 1 draws two points that agree on 21 of 48 coordinates, or on
        # 20 of 42, so 2^21 or 2^20 sets are not injective on them; each is
        # traced on V and W in both orders, 8 codes, so the walk stops at
        # 2^17 + 1 sets, before any compression
        argv = ["verify", "--suite", "alon-compress", "--n", n, "--q", "2",
                "--samples", "4", "--seed", "1", "--max-size", "2"]
        proc = run_limited(self.VERIFY.format(argv=argv), timeout=15)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == (
            "error: tracing at least 131073 non-injective coordinate sets, 4 * 2 codes each,"
            " exceeds the cap of 1048576; lower n or bound the draw with --max-size (max_size=)\n"
        )

    @pytest.mark.parametrize("suite", ["sm-cardinality", "alon-compress", "search-km"])
    def test_sampled_draw_refuses_past_the_cap(self, suite):
        # without --max-size one draw may hold up to all 3^20 grid points
        argv = ["verify", "--suite", suite, "--n", "20", "--q", "3", "--samples", "1", "--seed", "1"]
        proc = run_limited(self.VERIFY.format(argv=argv))
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "error: a sampled draw of up to 3486784401 points exceeds the cap of 1048576"
        )
        assert "--max-size" in lines[0]

    def test_sampled_blowup_refuses_past_the_cap(self):
        # a sampled family flips one coin for each of the 2^n coordinate sets
        argv = ["verify", "--suite", "blowup", "--n", "40", "--q", "3", "--samples", "1", "--seed", "1"]
        proc = run_limited(self.VERIFY.format(argv=argv))
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0] == "error: the 2^40 coordinate sets of a family exceed the cap of 1048576"

    @pytest.mark.parametrize(
        "extra, message",
        [
            ([], "exceeds the cap of 1048576"),
            (["--samples", "1", "--seed", "1"], "too large to draw from"),
        ],
    )
    def test_grid_suite_refuses_what_it_cannot_enumerate(self, extra, message):
        # exhaustive at n=20, q=3: 2^(3^20) - 1 subsets; sampled at n=50:
        # 3^50 indices do not fit random.sample
        n = "50" if extra else "20"
        argv = ["verify", "--suite", "sm-cardinality", "--n", n, "--q", "3", *extra]
        proc = run_limited(self.VERIFY.format(argv=argv))
        assert proc.returncode == 2
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: ")
        assert message in lines[0]

    def test_dead_worker_exits_one(self):
        code = (
            "import os, sys\n"
            "import shatterbasis.verify as verify\n"
            "from shatterbasis.cli import main\n"
            "def dies_on_two(item):\n"
            "    if item == (2,):\n"
            "        os._exit(3)\n"
            "    return []\n"
            "verify._SUITES['sm-cardinality'] = (\n"
            "    lambda jobs: verify._pmap(dies_on_two, [(k,) for k in range(4)], jobs)\n"
            ")\n"
            "verify.os.cpu_count = lambda: 2\n"
            "sys.argv[1:] = ['verify', '--suite', 'sm-cardinality', '--jobs', '2']\n"
            "main()\n"
        )
        proc = run_limited(code)
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: a worker process died")


class TestBoundsCommand:
    def test_text(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--name", "sauer", "--n", "6", "--s", "2")
        assert code == 0
        assert out.strip() == "sauer(n=6, s=2) = 22"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "bounds", "--name", "km", "--n", "3", "--s", "1", "--q", "2",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 4
        assert payload["name"] == "km"

    def test_violated_hypothesis_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "bounds", "--name", "uniform", "--n", "3", "--s", "2", "--q", "3")
        assert code == 2
        assert "s <= n/2" in err


class TestVerifyCommand:
    def test_json_pass(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify", "--suite", "uniform-binary", "--n-max", "3",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["verdict"] == "pass"
        assert payload["checked"] == 9

    def test_text_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "ballot-count", "--n-max", "3", "--q-max", "3")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "suite: ballot-count"
        assert lines[-1] == "verdict: pass"

    def test_failing_suite_exits_one(self, capsys, monkeypatch):
        def broken():
            return 1, [{"params": {}, "expected": 0, "actual": 1}]

        monkeypatch.setitem(shatterbasis.verify._SUITES, "shatter-cap", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "shatter-cap")
        assert code == 1
        assert "verdict: fail" in out
        assert any(line.startswith("failure: ") for line in out.splitlines())

    def test_flags_are_the_suite_parameters(self):
        parser = shatterbasis.cli.build_parser()
        (commands,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        flags = {a.dest for a in commands.choices["verify"]._actions} - {"help", "suite", "format"}
        signatures = [inspect.signature(fn).parameters for fn in shatterbasis.verify._SUITES.values()]
        assert flags == {key for params in signatures for key in params}

    def test_seedless_sampling_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--suite", "sm-cardinality", "--n", "4", "--q", "3",
            "--samples", "10",
        )
        assert code == 2
        assert "seed" in err


class TestExitCodes:
    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_unknown_suite_rejected_by_parser(self, capsys):
        assert run_cli(capsys, "verify", "--suite", "nope")[0] == 2

    def test_missing_file(self, capsys):
        code, _, err = run_cli(capsys, "sm", "--in", "/nonexistent/v.txt")
        assert code == 2
        assert "error:" in err

    def test_malformed_tuple_file(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("2 3\n9 9\n")
        code, _, err = run_cli(capsys, "sm", "--in", str(path))
        assert code == 2
        assert "line 2" in err

    def test_internal_error_exits_one(self, capsys, tmp_path, monkeypatch):
        def boom(v, order):
            raise RuntimeError("engine invariant violated")

        monkeypatch.setattr("shatterbasis.cli.standard_monomials", boom)
        path = tmp_path / "v.txt"
        path.write_text("1 2\n0\n")
        code, _, err = run_cli(capsys, "sm", "--in", str(path))
        assert code == 1
        assert "engine invariant" in err

    def test_internal_error_in_gb_exits_one(self, capsys, tmp_path, monkeypatch):
        def boom(v, order):
            raise RuntimeError("engine invariant violated")

        monkeypatch.setattr("shatterbasis.cli.vanishing_basis", boom)
        path = tmp_path / "v.txt"
        path.write_text("1 2\n0\n")
        code, _, err = run_cli(capsys, "gb", "--in", str(path))
        assert code == 1
        assert "engine invariant" in err

    def test_engine_invariant_exits_one(self, capsys, tmp_path, monkeypatch):
        # every candidate reduces to zero, so the engine finds no standard monomial
        def zero(vec, rows):
            return [0] * len(vec), 1

        monkeypatch.setattr("shatterbasis.ideals._reduce_against", zero)
        path = tmp_path / "v.txt"
        path.write_text("2 2\n0 0\n1 1\n")
        code, _, err = run_cli(capsys, "sm", "--in", str(path))
        assert code == 1
        assert "error: engine error" in err

    def test_interrupt_exits_one_without_traceback(self, capsys, monkeypatch):
        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setattr("shatterbasis.cli._cmd_bounds", interrupted)
        code, out, err = run_cli(capsys, "bounds", "--name", "sauer", "--n", "6", "--s", "2")
        assert code == 1
        assert out == ""
        assert err == "error: interrupted\n"

    def test_repeat_invocations_are_byte_identical(self, capsys, sphere_file):
        _, first, _ = run_cli(capsys, "gb", "--in", sphere_file, "--format", "json")
        _, second, _ = run_cli(capsys, "gb", "--in", sphere_file, "--format", "json")
        assert first == second


    def test_parser_is_built_once_and_reused(self, capsys, monkeypatch, sphere_file):
        # a parse leaves nothing behind in the shared parser: an unset flag
        # after a set one, and a call after a usage error, read as on a fresh one
        calls = [
            ("sm", "--in", sphere_file, "--order", "lex"),
            ("sm", "--in", sphere_file),
            ("verify", "--suite", "nope"),
            ("gb", "--in", sphere_file, "--format", "json"),
            ("bounds", "--name", "sauer", "--n", "6", "--s", "2"),
            ("certify", "--in", sphere_file, "--format", "json"),
            ("sm", "--in", sphere_file, "--format", "json"),
        ]
        reused = [run_cli(capsys, *argv) for argv in calls]
        assert reused[0][1] != reused[1][1]
        assert shatterbasis.cli._parser() is shatterbasis.cli._parser()
        assert shatterbasis.cli._parser.cache_info().maxsize == 1
        monkeypatch.setattr(shatterbasis.cli, "_parser", shatterbasis.cli.build_parser)
        assert [run_cli(capsys, *argv) for argv in calls] == reused
        assert shatterbasis.cli.build_parser() is not shatterbasis.cli.build_parser()

class TestEntryPoints:
    def test_module_invocation(self):
        src = Path(shatterbasis.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "shatterbasis", "bounds", "--name", "sauer",
             "--n", "6", "--s", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0
        assert proc.stdout.strip() == "sauer(n=6, s=2) = 22"

    def test_console_script(self, tmp_path):
        """The `shatterbasis` script declared in pyproject.toml runs as its own executable.

        The suite runs from a source checkout with no install, so the test writes the
        wrapper an installer generates for the declared `module:function` target.
        """
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        module, func = scripts["shatterbasis"].split(":")
        exe = tmp_path / "shatterbasis"
        exe.write_text(
            f"#!{sys.executable}\n"
            "import sys\n"
            f"from {module} import {func}\n"
            "if __name__ == '__main__':\n"
            f"    sys.exit({func}())\n"
        )
        exe.chmod(0o755)
        src = Path(shatterbasis.__file__).resolve().parents[1]
        proc = subprocess.run(
            [str(exe), "bounds", "--name", "sauer", "--n", "6", "--s", "2"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "sauer(n=6, s=2) = 22"

"""Tuple-file parsing and the command-line surface, through dispatch()."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import shatterbasis
import shatterbasis.verify
from shatterbasis.cli import dispatch, parse_tuples, render_tuples
from shatterbasis.ideals import vanishing_basis
from shatterbasis.polyring import TermOrder, parse_polynomial
from shatterbasis.tuples import PointSet, complete_uniform, hamming_sphere, shattered_family


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

    def test_missing_parameter_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "construct", "uniform", "--n", "3", "--q", "2")
        assert code == 2
        assert "requires --d" in err

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


def run_limited(code):
    """Run code in a fresh interpreter that imports this package, with its
    address space alone capped at 1.5 GB; fails on a 30 s timeout."""

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

    src = Path(shatterbasis.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=30,
        preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": str(src)},
    )


class TestNoHangOrExhaustion:
    """Suites never list the q^n grid, and a dead worker ends the run."""

    VERIFY = "import sys\nfrom shatterbasis.cli import main\nsys.argv[1:] = {argv!r}\nmain()\n"

    def test_sampled_grid_suite_in_high_dimension(self):
        argv = ["verify", "--suite", "sm-cardinality", "--n", "20", "--q", "3",
                "--samples", "1", "--seed", "1", "--max-size", "3"]
        proc = run_limited(self.VERIFY.format(argv=argv))
        assert proc.returncode == 0, proc.stderr
        assert "verdict: pass" in proc.stdout

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
            "    lambda params: verify._pmap(dies_on_two, [(k,) for k in range(4)], 2)\n"
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
        def broken(params):
            return 1, [{"params": {}, "expected": 0, "actual": 1}]

        monkeypatch.setitem(shatterbasis.verify._SUITES, "shatter-cap", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "shatter-cap")
        assert code == 1
        assert "verdict: fail" in out
        assert any(line.startswith("failure: ") for line in out.splitlines())

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

        monkeypatch.setattr("shatterbasis.cli.vanishing_basis", boom)
        path = tmp_path / "v.txt"
        path.write_text("1 2\n0\n")
        code, _, err = run_cli(capsys, "sm", "--in", str(path))
        assert code == 1
        assert "engine invariant" in err

    def test_engine_invariant_exits_one(self, capsys, tmp_path, monkeypatch):
        # every candidate reduces to zero, so the engine finds no standard monomial
        def zero(row, rows):
            return [0] * (len(row) - 1) + [1]

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


class TestEntryPoints:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "shatterbasis", "bounds", "--name", "sauer",
             "--n", "6", "--s", "2"],
            capture_output=True,
            text=True,
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

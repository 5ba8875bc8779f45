"""Smoke runs of the two scripts the README names, each as its own process."""

import hashlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from shatterbasis.verify import run_suite

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )


def test_run_all_suites_passes_every_suite():
    # also shows that every suite still takes its desk-scale parameters
    proc = run_script("run_all_suites.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.splitlines()[-1] == "16/16 suites passed"


def test_desk_sweep_reports_are_pinned():
    # every report of the sweep at seed 7, wall time aside, byte for byte
    spec = importlib.util.spec_from_file_location("run_all_suites", ROOT / "scripts" / "run_all_suites.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    table = script.desk_scale_params(7)
    reports = [run_suite(name, **params).canonical() for name, params in table.items()]
    assert len(reports) == 16
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == "1d67ebb9e3b86a09cf358e4490e2da72f553564dae0cbf96dfa27c737437d864"


def test_sharpness_report_prints_three_tables():
    proc = run_script("sharpness_report.py")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for title in (
        "level-count bound vs extremal construction",
        "sphere bound on the attainment diagonal n = s + d",
        "below the diagonal (s + d < n): exhaustive best vs bound",
    ):
        assert title in lines
        assert lines[lines.index(title) + 2].split()  # a header, then a first row

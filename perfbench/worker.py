"""One repeat of a workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --started-ns T
        [--ops K] [--skip-checks] [--trace]

``run.py`` starts this script once per repeat, so module caches such as
``closedform._binary_cache`` start empty in every repeat.  ``--started-ns``
is the parent's ``time.monotonic_ns()`` just before it started this
process; set-up time runs from there to the first timed operation and
covers interpreter start, the import of the library, input generation and
the files the workload writes.

The repeat times the workload's operations one at a time, with a pass of
the reference kernel of ``speed.py`` right before each of them, one after
the last, and ``SETUP_PASSES`` right after set-up, so that ``run.py`` can
scale every time to the reference machine speed.  Outside the
timed region it hashes the canonical form of every output and, unless
``--skip-checks``, checks it.  Every repeat of a run computes the same
outputs, so ``run.py`` checks one repeat and compares the hashes of the
others with it.  The last line of standard output is one JSON object with
the samples, hashes and failures.

A traced repeat (``--trace``) also reports the tracer's per-layer metrics
and, once they are computed, writes every span to ``spans_path(name)``
(one JSON line per span, see ``tracing.Tracer.write_spans``), outside any
timed region.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import workloads  # noqa: E402

WORK_DIR = HERE / ".work"
# kernel passes right after set-up; their median scales setup_s
SETUP_PASSES = 5


def spans_path(name: str) -> Path:
    """Where the traced repeat of workload ``name`` writes its spans."""
    return WORK_DIR / f"spans-{name}.jsonl"


def run_repeat(
    name: str,
    seed: int,
    started_ns: int,
    ops: int | None = None,
    trace: bool = False,
    check: bool = True,
) -> dict:
    wl = workloads.WORKLOADS[name]
    ops = wl.ops if ops is None else ops
    lib = workloads.load_library()
    WORK_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    tracer = None
    try:
        specs = [wl.spec(seed, i, workdir) for i in range(ops)]
        if trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install(lib)
        setup_s = (time.monotonic_ns() - started_ns) / 1e9
        setup_kernel_s = [speed.kernel() for _ in range(SETUP_PASSES)]

        op_s: list[float] = []
        kernel_s: list[float] = []
        op_hashes: list[str | None] = []
        failed_ops: list[int] = []
        problems: list[str] = []
        clock = time.perf_counter
        for i, spec in enumerate(specs):
            kernel_s.append(speed.kernel())
            start = clock()
            try:
                out = wl.run(lib, spec)
            except Exception as exc:  # a failed operation is counted, not fatal
                op_s.append(clock() - start)
                op_hashes.append(None)
                failed_ops.append(i)
                problems.append(f"op {i}: {type(exc).__name__}: {exc}")
                continue
            op_s.append(clock() - start)
            try:
                issues = wl.check(spec, out) if check else []
                canon = json.dumps(wl.canon(spec, out), sort_keys=True, default=str)
            except Exception as exc:  # output too malformed to inspect
                issues, canon = [f"checking raised {type(exc).__name__}: {exc}"], repr(exc)
            op_hashes.append(hashlib.sha256(canon.encode()).hexdigest())
            if issues:
                failed_ops.append(i)
                problems.extend(f"op {i}: {issue}" for issue in issues)
        kernel_s.append(speed.kernel())
        layers = None
        if tracer is not None:
            layers = tracer.metrics()
            tracer.write_spans(str(spans_path(name)))
        return {
            "setup_s": setup_s,
            "setup_kernel_s": setup_kernel_s,
            "op_s": op_s,
            "kernel_s": kernel_s,
            "op_hashes": op_hashes,
            "failed_ops": failed_ops,
            "problems": problems[:20],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "layers": layers,
        }
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--started-ns", type=int, required=True)
    parser.add_argument("--ops", type=int, default=None, help="override the workload's operation count")
    parser.add_argument("--skip-checks", action="store_true", help="hash outputs without checking them")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    result = run_repeat(
        args.workload,
        args.seed,
        args.started_ns,
        ops=args.ops,
        trace=args.trace,
        check=not args.skip_checks,
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()

"""The shatterbasis benchmark.

    python3 perfbench/run.py --workload {engine,blowup,wide,sweep}
        --seed N --seconds S --trace {0,1} [--record FILE]

Run from the root of a checkout; the library is imported from ``src/``.
Everything runs closed-loop: one client, one operation at a time, in one
process per repeat, with ``jobs=1`` wherever the library takes it.

A repeat is one fresh interpreter running the workload's fixed list of
operations (``workloads.py``).  With ``--trace 0`` at least MIN_REPEATS
repeats run, and more until their timed work is as close to S seconds as
whole repeats allow, and the run reports the end-to-end metrics of
BENCHMARK.json.  With ``--trace 1``
one repeat runs untraced and one under the tracer of ``tracing.py``, and
the run reports the per-layer metrics; the traced repeat also writes its
spans to ``perfbench/.work/spans-<workload>.jsonl``.  Either way every output is
checked: the first repeat checks its outputs, later repeats must produce
the same outputs, and at the default seed the digest of the outputs must
match the one pinned in ``digests.json``.

Every time a run reports is scaled to the reference machine speed of
``speed.py``: the worker times a fixed kernel between the operations, and
each time is multiplied by ``speed.REF_S`` over the kernel's local median.
The unscaled wall-clock figures go to standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a readable summary
goes to standard error.  ``--record FILE`` also appends the run, with its
median kernel pass as a diagnostic of machine speed, to a JSON-lines file
that ``compare.py`` reads.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
# at least 3 repeats keep >= 100 timed operations in every run
MIN_REPEATS = 3
WALL_FACTOR = 4
# every run must end within 180 s; leave room for start-up and reporting
BUDGET_S = 170.0
DIGESTS = HERE / "digests.json"


class BenchError(RuntimeError):
    """The benchmark itself could not run: no result is printed."""


def _spawn(args: list[str], deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--started-ns", str(time.monotonic_ns())]
    # a fixed hash seed keeps set and dict iteration orders, and so the work
    # done by the library, the same in every repeat
    env = dict(os.environ, PYTHONHASHSEED="0")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded the time budget: {' '.join(args)}") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def harrell_davis(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the ``p``-quantile of ``samples``.

    A mean of all order statistics, the i-th weighted by the mass that a
    Beta(p(n+1), (1-p)(n+1)) density puts on [i/n, (i+1)/n] (midpoint rule,
    16 points per interval).  Where the samples cluster by input
    size, a single order statistic jumps between clusters from run to run;
    this estimate moves smoothly.
    """
    xs = sorted(samples)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    weights = []
    for i in range(n):
        us = ((i + (j + 0.5) / 16) / n for j in range(16))
        weights.append(sum(math.exp(log_norm + (a - 1) * math.log(u) + (b - 1) * math.log1p(-u)) for u in us))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def _busy(reps: list[dict]) -> float:
    return sum(sum(r["op_s"]) for r in reps)


def measure(name: str, seed: int, seconds: float, deadline: float, ops: int | None = None) -> list[dict]:
    """Repeats in fresh interpreters, the first of which checks its outputs.

    Repeats stop when one more would take the timed work further past
    ``seconds`` than stopping leaves it short, once the run has taken
    WALL_FACTOR times ``seconds``, as when very fast operations leave
    process start-up the larger cost, or when one more repeat, at twice the
    wall time of the slowest so far, might not end before ``deadline``.
    """
    args = ["--workload", name, "--seed", str(seed)] + (["--ops", str(ops)] if ops else [])
    wall_cap = time.monotonic() + WALL_FACTOR * seconds
    reps: list[dict] = []
    slowest = 0.0
    while len(reps) < MIN_REPEATS or (
        _busy(reps) * (1 + 0.5 / len(reps)) < seconds
        and time.monotonic() < wall_cap
        and time.monotonic() + 2 * slowest < deadline
    ):
        start = time.monotonic()
        reps.append(_spawn(args + (["--skip-checks"] if reps else []), deadline))
        slowest = max(slowest, time.monotonic() - start)
    return reps


def measure_layers(name: str, seed: int, deadline: float) -> list[dict]:
    """One checked repeat untraced, then the same repeat traced."""
    args = ["--workload", name, "--seed", str(seed)]
    plain = _spawn(args, deadline)
    traced = _spawn(args + ["--skip-checks", "--trace"], deadline)
    return [plain, traced]


def output_digest(op_hashes: list[str | None]) -> str:
    """One hash of a repeat's outputs; an operation that raised reads '-'."""
    return hashlib.sha256("\n".join(h or "-" for h in op_hashes).encode()).hexdigest()


def failures(name: str, seed: int, reps: list[dict]) -> tuple[int, list[str]]:
    """Failed operations over all repeats, and the problems found.

    ``reps[0]`` checked its outputs.  An operation of a later repeat fails
    when it raised, when its output differs from that of ``reps[0]``, or
    when it failed in ``reps[0]``.  At the default seed the digest of the
    outputs of ``reps[0]`` must also equal the pinned one.
    """
    first = reps[0]
    first_failed = set(first["failed_ops"])
    failed, problems = len(first_failed), list(first["problems"])
    for r in reps[1:]:
        differs = {i for i, (h, h0) in enumerate(zip(r["op_hashes"], first["op_hashes"])) if h != h0}
        failed += len(differs | first_failed | set(r["failed_ops"]))
        problems += r["problems"]
        problems += [f"op {i}: output differs from the checked repeat" for i in sorted(differs - set(r["failed_ops"]))]
    if seed == DEFAULT_SEED:
        digest = output_digest(first["op_hashes"])
        pinned = json.loads(DIGESTS.read_text()).get(name)
        if digest != pinned:
            problems.append(f"output digest {digest} differs from the pinned {pinned}")
    return failed, problems


def kernel_ms(reps: list[dict]) -> float:
    """Median kernel pass of a run in milliseconds: the machine's speed."""
    return statistics.median(t for r in reps for t in r["kernel_s"] + r["setup_kernel_s"]) * 1000


def end_to_end(reps: list[dict], failed: int, scaled: bool = True) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics of a run, scaled to the reference speed
    unless ``scaled`` is false.

    Every repeat runs the same operations, so throughput and the median
    latency are over each operation's median latency across the repeats:
    a repeat that the machine slowed down is outvoted by the others.  Both
    quantiles are Harrell-Davis estimates, which do not jump between
    operations as a single order statistic does; the 90th percentile is
    over every timed execution, so that at least ten samples lie beyond it.
    """
    if scaled:
        op_s = [speed.scaled_ops(r["op_s"], r["kernel_s"]) for r in reps]
        setup_s = [speed.scale(r["setup_s"], r["setup_kernel_s"]) for r in reps]
    else:
        op_s = [r["op_s"] for r in reps]
        setup_s = [r["setup_s"] for r in reps]
    samples = [t for times in op_s for t in times]
    latencies = [statistics.median(times) for times in zip(*op_s)]
    return {
        "setup_s": (statistics.median(setup_s), "s"),
        "ops_per_s": (len(latencies) / sum(latencies), "1/s"),
        "op_p50_ms": (harrell_davis(latencies, 0.5) * 1000, "ms"),
        "op_p90_ms": (harrell_davis(samples, 0.9) * 1000, "ms"),
        "ok_frac": (1 - failed / len(samples), "ratio"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in reps), "MB"),
    }


def per_layer(reps: list[dict]) -> dict[str, tuple[float, str]]:
    plain, traced = reps
    layers = dict(traced["layers"])
    busy = [sum(speed.scaled_ops(r["op_s"], r["kernel_s"])) for r in reps]
    layers["trace.overhead_frac"] = busy[1] / busy[0] - 1
    return {k: (layers[k], unit) for k, unit in tracing.METRICS}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="shatterbasis benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, help="append the run to this JSON-lines file")
    args = parser.parse_args(argv)

    if not (workloads.SRC / "shatterbasis" / "__init__.py").is_file():
        print(f"error: library sources not found under {workloads.SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + BUDGET_S
    try:
        if args.trace:
            reps = measure_layers(args.workload, args.seed, deadline)
        else:
            reps = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(len(r["op_s"]) for r in reps)
    failed, problems = failures(args.workload, args.seed, reps)
    metrics = per_layer(reps) if args.trace else end_to_end(reps, failed)
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }

    print(f"workload {args.workload}, seed {args.seed}, {attempted} ops timed, {failed} failed; "
          f"kernel pass {kernel_ms(reps):.3f} ms (reference {speed.REF_S * 1000:g} ms)", file=sys.stderr)
    wall = {} if args.trace else end_to_end(reps, failed, scaled=False)
    for k, (v, u) in metrics.items():
        note = f"   wall {wall[k][0]:.6g}" if k in wall and u in ("s", "1/s", "ms") else ""
        print(f"  {k:<44} {v:>14.6g} {u}{note}", file=sys.stderr)
    for p in problems[:20]:
        print(f"  problem: {p}", file=sys.stderr)
    if args.record:
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "kernel_ms": kernel_ms(reps),
            "result": result,
        }
        with open(args.record, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

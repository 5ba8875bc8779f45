"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

A result set is a JSON-lines file written by ``run.py --record FILE``; the
runs of one set should use the same seeds as the other.  For every workload
and end-to-end metric of BENCHMARK.json the table gives each side's median
and quartiles over its untraced runs and a verdict under the metric's bound:

* ``worse``: the new median is worse than the base median by more than
  the bound;
* ``improved``: the new median is better by more than the spread of the
  base runs (the distance between their quartiles), and the new side wins
  at least nine in ten runs paired by seed, or every new run beats every
  base run;
* ``unresolved``: not worse and not improved, but the base runs spread
  wider than the bound, or the new side is better by more than the spread
  or in every run;
* ``unchanged``: otherwise.

The median kernel pass of each side (see ``speed.py``) is printed as a
diagnostic of machine speed; it does not enter any verdict.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def load(path: str) -> dict[str, list[dict]]:
    """Untraced records of a result set, grouped by workload."""
    runs: dict[str, list[dict]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            if line.strip():
                record = json.loads(line)
                if not record["trace"]:
                    runs.setdefault(record["workload"], []).append(record)
    return runs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _by_seed(runs: list[dict], metric: str) -> dict[tuple[int, int], float]:
    """Values keyed by (seed, k) for the k-th run with that seed."""
    out: dict[tuple[int, int], float] = {}
    for r in runs:
        k = sum(1 for seed, _ in out if seed == r["seed"])
        out[(r["seed"], k)] = r["result"]["metrics"][metric]["value"]
    return out


def verdict(base: dict, new: dict, better: str, bound: float) -> str:
    """Verdict for one metric; ``base`` and ``new`` map a run key (runs
    with equal keys are paired) to the metric's value."""
    sign = 1 if better == "lower" else -1
    a, b = list(base.values()), list(new.values())
    q1, ma, q3 = quartiles(a)
    mb = statistics.median(b)
    gain = sign * (ma - mb)  # positive when the new side is better
    if -gain > bound * abs(ma):
        return "worse"
    all_better = all(sign * (x - y) > 0 for x in a for y in b)
    paired = [s for s in base if s in new]
    wins = sum(sign * (base[s] - new[s]) > 0 for s in paired)
    if gain > q3 - q1 and (all_better or (paired and wins >= 0.9 * len(paired))):
        return "improved"
    if q3 - q1 > bound * abs(ma) or gain > q3 - q1 or all_better:
        return "unresolved"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    base, new = load(argv[0]), load(argv[1])
    header = f"{'workload':<8} {'metric':<12} {'unit':<6} {'base median [q1, q3] (n)':<36} "
    header += f"{'new median [q1, q3] (n)':<36} {'change':>8}  verdict"
    print(header)
    for workload in sorted(set(base) | set(new)):
        a_runs, b_runs = base.get(workload, []), new.get(workload, [])
        for metric in spec["end_to_end"]:
            name = metric["name"]
            a, b = _by_seed(a_runs, name), _by_seed(b_runs, name)
            if not a or not b:
                print(f"{workload:<8} {name:<12} {metric['unit']:<6} missing on one side")
                continue
            cells = []
            for side in (a, b):
                q1, med, q3 = quartiles(list(side.values()))
                cells.append(f"{med:.5g} [{q1:.5g}, {q3:.5g}] ({len(side)})")
            ma, mb = statistics.median(a.values()), statistics.median(b.values())
            change = f"{(mb - ma) / ma * 100:+.1f}%" if ma else "n/a"
            print(
                f"{workload:<8} {name:<12} {metric['unit']:<6} {cells[0]:<36} {cells[1]:<36} "
                f"{change:>8}  {verdict(a, b, metric['better'], metric['bound'])}"
            )
        for label, runs in (("base", a_runs), ("new", b_runs)):
            if runs:
                cal = statistics.median(r["kernel_ms"] for r in runs)
                print(f"{workload:<8} kernel pass, {label}: median {cal:.3f} ms over {len(runs)} runs")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

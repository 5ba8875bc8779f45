#!/usr/bin/env python3
"""Run every verification suite at desk scale and print one report per suite.

Exit status is 0 only if every suite passes.  Use --jobs to spread the
instance checks over worker processes and --seed to reseed the sampled
suites (the sweep stays deterministic for a fixed seed).
"""

import argparse
import sys

from shatterbasis.verify import run_suite


def desk_scale_params(seed: int) -> dict[str, dict]:
    return {
        "sm-cardinality": {"n": 2, "q": 3},
        "uniform-binary": {"n_max": 6},
        "hamming-sphere": {"n_max": 4, "q": 3},
        "blowup": {"n": 3, "q": 3},
        "ballot-count": {"n_max": 8, "q_max": 4},
        "uniform-ballot": {"n_max": 4, "q": 3},
        "shatter-certificates": {
            "n": 4,
            "q": 3,
            "samples": 200,
            "cert_samples": 50,
            "max_size": 40,
            "seed": seed,
        },
        "hamming-sharpness": {"n": 4, "d": 2, "s": 2, "q": 3},
        "km-sharpness": {"n_max": 4, "s_max": 2, "q_max": 3},
        "alon-compress": {"n": 2, "q": 3},
        "shatter-cap": {"n": 3, "q": 3},
        "q2-consistency": {"n_max": 12},
        "sm-slice": {"n": 2, "q": 3},
        "search-uniform": {"n": 2, "q": 3},
        "search-hamming": {"n": 2, "q": 3},
        "search-km": {"n": 2, "q": 3},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()

    table = desk_scale_params(args.seed)
    failures = 0
    for name, params in table.items():
        if args.jobs != 1:
            params = {**params, "jobs": args.jobs}
        report = run_suite(name, **params)
        shown = " ".join(f"{k}={v}" for k, v in sorted(report.params.items()))
        print(
            f"{report.suite:22s} {report.verdict:4s} "
            f"checked={report.checked:<6d} {report.elapsed_ms:9.1f} ms  {shown}"
        )
        for failure in report.failures:
            print(f"    failure: {failure}")
        failures += report.verdict != "pass"
    print(f"\n{len(table) - failures}/{len(table)} suites passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

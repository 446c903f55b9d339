"""Benchmark of the edchan CLI: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload {cli_cold,verify_sweep,trajectory_sweep} \\
        --seed N --seconds S --trace {0,1}

The program under test is the ``src/edchan`` package of the checkout this
file sits in; without it the run fails with exit code 2. Inputs are made from
the seed, every op's output is checked, and the last line of standard output
is one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``. With ``--trace 0`` the metrics are the end-to-end ones of
BENCHMARK.json; with ``--trace 1`` they are the per-layer ones, from a run
that spends half its time untraced and half with timing wrappers installed.
The exit code is 0 when every output was correct and 1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import harness  # pins the BLAS thread count, then imports numpy

    try:
        out = harness.run_benchmark(args.workload, args.seed, args.seconds,
                                    bool(args.trace))
    except (ValueError, OSError, subprocess.CalledProcessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in out["lines"]:
        print(line)
    print(json.dumps(out["result"]), flush=True)
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

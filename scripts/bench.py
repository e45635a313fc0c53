#!/usr/bin/env python3
"""Record the benchmark: the four perfbench workloads at seed 1001, 8 s each.

    python3 scripts/bench.py --n 8 [--root DIR]

Runs ``perfbench/run.py`` of the checkout at --root (default: this
repository) once per workload, one after the other, and writes
``BENCH_<n>.json`` into that checkout: a map from each workload to the last
JSON line the run printed. The seed and run length are fixed, so every
record is made the same way and any two can be compared. Standard library
only.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("grade_batch", "affine_loops", "nonlinear_loops", "cli_roundtrip")
SEED = 1001
SECONDS = 8


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, required=True, help="number in BENCH_<n>.json")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    args = parser.parse_args()

    record = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", workload,
             "--seed", str(SEED), "--seconds", str(SECONDS)],
            cwd=args.root, capture_output=True, text=True,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            print(f"{workload}: perfbench exited with {proc.returncode}", file=sys.stderr)
            return 1
        record[workload] = json.loads(lines[-1])
        print(f"{workload}: {json.dumps(record[workload]['metrics'])}")
    path = os.path.join(args.root, f"BENCH_{args.n}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

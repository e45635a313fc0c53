#!/usr/bin/env python3
"""Record the benchmark: the four perfbench workloads at seed 1001, 8 s each.

    python3 scripts/bench.py --n 8 [--root DIR]

Runs ``perfbench/run.py`` of the checkout at --root (default: this
repository) RUNS times per workload, untraced and interleaved: each
workload once, then each once again, so that a slow spell of the machine
falls on every workload alike. Then it runs each workload once more with
``--trace 1``. It writes ``BENCH_<n>.json`` into that checkout, a map from
each workload to its record:

* ``correct``: whether every run, the traced one included, agreed with its
  oracles;
* ``runs``, and ``attempted`` and ``failed``: operations of the untraced runs
  summed, so divide them by ``runs`` to compare with a one-run record;
* ``metrics``: for each end-to-end metric its ``unit``, the median of the
  untraced runs as ``value``, the quartiles ``q1`` and ``q3`` (inclusive
  method) and the ``samples`` in run order;
* ``per_layer``: each per-layer metric of BENCHMARK.json as the traced run
  printed it, ``value`` and ``unit`` (a layer the workload does not reach
  reads 0).

Records written one run per workload (``BENCH_8.json`` to ``BENCH_31.json``)
are the last JSON line of that run: the same keys without ``runs``, ``q1``,
``q3``, ``samples`` and ``per_layer``, so ``metrics[name]["value"]`` reads
every shape; ``BENCH_32.json`` has no ``per_layer``. The seed, run length
and run count are fixed, so every record is made the same way and any two
can be compared. Standard library only.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

WORKLOADS = ("grade_batch", "affine_loops", "nonlinear_loops", "cli_roundtrip")
SEED = 1001
SECONDS = 8
RUNS = 3


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) of the samples, inclusive method."""
    q1, median, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return q1, median, q3


def aggregate(results: list[dict], traced: dict) -> dict:
    """One workload's record from the last JSON lines of its untraced runs,
    in run order, and of its traced run."""
    metrics = {}
    for name, first in results[0]["metrics"].items():
        samples = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = quartiles(samples)
        metrics[name] = {"value": median, "unit": first["unit"], "q1": q1, "q3": q3,
                         "samples": samples}
    return {
        "correct": all(r["correct"] for r in results) and traced["correct"],
        "runs": len(results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
        "per_layer": traced["metrics"],
    }


def last_line(root: str, workload: str, trace: bool) -> dict | None:
    """The last JSON line of one perfbench run, or None if it failed."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
         "--seconds", str(SECONDS), "--trace", "1" if trace else "0"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        print(f"{workload}: perfbench exited with {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--n", type=int, required=True, help="number in BENCH_<n>.json")
    parser.add_argument("--root", default=os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    args = parser.parse_args()

    results = {workload: [] for workload in WORKLOADS}
    for k in range(RUNS):
        for workload in WORKLOADS:
            result = last_line(args.root, workload, trace=False)
            if result is None:
                return 1
            results[workload].append(result)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"run {k + 1}/{RUNS} {workload}: {json.dumps(values)}")
    record = {}
    for workload, runs in results.items():
        traced = last_line(args.root, workload, trace=True)
        if traced is None:
            return 1
        print(f"traced {workload}: {sum(m['value'] != 0 for m in traced['metrics'].values())} "
              "nonzero per-layer metrics")
        record[workload] = aggregate(runs, traced)
    path = os.path.join(args.root, f"BENCH_{args.n}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

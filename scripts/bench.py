#!/usr/bin/env python3
"""Record the benchmark: the four perfbench workloads at seed 1001, 8 s each.

    python3 scripts/bench.py --n 8 [--root DIR]
    python3 scripts/bench.py --n 8 --against REV [--root DIR]

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

With ``--against REV`` it compares the checkout with git revision REV of
its repository, extracted with ``git archive`` into a temporary directory
(nothing is added to the repository's own git state). It runs PAIRS pairs
per workload, untraced and interleaved as above, each pair one run of each
side, the side that goes first alternating from pair to pair; then one traced
run of each side. Each workload's record is then the checkout's, as above,
plus ``against``: the ``rev``, the ``parent`` record of REV made the same
way, and ``wins``, for each end-to-end metric the number of pairs in which
the checkout did better than REV, in the direction BENCHMARK.json gives.

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
import tempfile

WORKLOADS = ("grade_batch", "affine_loops", "nonlinear_loops", "cli_roundtrip")
SEED = 1001
SECONDS = 8
RUNS = 3
PAIRS = 10


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


def wins(parent: list[dict], change: list[dict], better: dict[str, str]) -> dict[str, int]:
    """For each metric, the number of pairs (parent[k], change[k]) of last
    JSON lines in which the change is strictly better; ``better`` maps each
    metric to "lower" or "higher"."""
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        out[name] = sum(sign * (c["metrics"][name]["value"] - p["metrics"][name]["value"]) > 0
                        for p, c in zip(parent, change))
    return out


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
    parser.add_argument("--against", metavar="REV", help="git revision to compare with")
    args = parser.parse_args()
    if args.against:
        with tempfile.TemporaryDirectory() as parent:
            archive = subprocess.run(["git", "archive", args.against], cwd=args.root,
                                     capture_output=True, check=True).stdout
            subprocess.run(["tar", "-x", "-C", parent], input=archive, check=True)
            return compare(args.root, parent, args.against, args.n)
    return record_only(args.root, args.n)


def compare(root: str, parent: str, rev: str, n: int) -> int:
    """The --against record of the checkout at root and REV extracted at parent."""
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    sides = {"change": root, "parent": parent}
    results = {side: {workload: [] for workload in WORKLOADS} for side in sides}
    for k in range(PAIRS):
        for workload in WORKLOADS:
            for side in (("parent", "change") if k % 2 == 0 else ("change", "parent")):
                result = last_line(sides[side], workload, trace=False)
                if result is None:
                    return 1
                results[side][workload].append(result)
            print(f"pair {k + 1}/{PAIRS} {workload}: " + json.dumps(
                {name: [results[side][workload][-1]["metrics"][name]["value"]
                        for side in ("parent", "change")] for name in better}))
    record = {}
    for workload in WORKLOADS:
        traced = {side: last_line(sides[side], workload, trace=True) for side in sides}
        if None in traced.values():
            return 1
        runs = {side: results[side][workload] for side in sides}
        record[workload] = aggregate(runs["change"], traced["change"])
        record[workload]["against"] = {
            "rev": rev,
            "parent": aggregate(runs["parent"], traced["parent"]),
            "wins": wins(runs["parent"], runs["change"], better),
        }
        print(f"{workload} wins of {PAIRS}: {json.dumps(record[workload]['against']['wins'])}")
    return write(root, n, record)


def write(root: str, n: int, record: dict) -> int:
    path = os.path.join(root, f"BENCH_{n}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


def record_only(root: str, n: int) -> int:
    """The record of the checkout at root alone."""
    results = {workload: [] for workload in WORKLOADS}
    for k in range(RUNS):
        for workload in WORKLOADS:
            result = last_line(root, workload, trace=False)
            if result is None:
                return 1
            results[workload].append(result)
            values = {name: m["value"] for name, m in result["metrics"].items()}
            print(f"run {k + 1}/{RUNS} {workload}: {json.dumps(values)}")
    record = {}
    for workload, runs in results.items():
        traced = last_line(root, workload, trace=True)
        if traced is None:
            return 1
        print(f"traced {workload}: {sum(m['value'] != 0 for m in traced['metrics'].values())} "
              "nonzero per-layer metrics")
        record[workload] = aggregate(runs, traced)
    return write(root, n, record)


if __name__ == "__main__":
    raise SystemExit(main())

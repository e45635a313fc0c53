#!/usr/bin/env python3
"""Fingerprint every run and grade output, so that two builds can be compared bit for bit.

    PYTHONPATH=src python3 scripts/run_fingerprints.py --seeds 401 402 --out fp.json
    python3 scripts/run_fingerprints.py --diff before.json after.json

For each closed loop it records SHA-256 hashes of u, y, v, e, the trace energy
E, the zero-state energy E_op and each lower trace of the bound-chain audit, the
kernel name and the text of report.json, or the error a run raises. Its
``:outcome`` key holds what the run decided, not the values it recorded: the
verdict, the divergence time, the record length, the kernel and the violation
count of each chain, or the error's type and the step it names. A change that
moves bits but no outcome differs in no ``:outcome`` key. The loops are the
bundled demos (the integrator demo replaced by the benchmark's shorter copy in
perfbench/scenarios) and every ``affine_loops`` and ``nonlinear_loops`` case
of the benchmark generator (perfbench/gen.py) at each seed. For each demo
it also writes the run's artifacts to a temporary directory and records the
hash of traces.csv and what ``hyperstab audit`` and ``hyperstab parseval``
print on it, run through ``cli.main`` in this process, and the same for each
malformed trace file of MALFORMED_TRACES: the error contract. For every
``grade_batch`` plant at each seed and every corpus entry it records the grade
report of ``classify_pr``, ``real_part_margin`` and the normalized
coefficients, as exact JSON floats.

``--diff`` reads only the two files, not the package. It prints each key
whose value differs or that only one file has, then the number of differing
keys of each kind (``outcome``, ``y``, ``report``, ..., ``grade`` for the grade
keys), and exits 1 when there is one.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import re
import sys
from collections import Counter
import tempfile
from importlib import resources

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _generator():
    """perfbench/gen.py, loaded by path so the benchmark is only read."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_gen", os.path.join(ROOT, "perfbench", "gen.py"))
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def _digest(values) -> str:
    a = np.ascontiguousarray(values, dtype=np.float64)
    return f"{a.size}:{hashlib.sha256(a.tobytes()).hexdigest()}"


def _run_keys(prefix: str, scenario: dict, out: dict):
    """Record the run's keys; returns the run, or None when it raises."""
    from hyperstab.harness import run_closed_loop, run_report, scenario_from_json_dict
    try:
        run = run_closed_loop(scenario_from_json_dict(scenario))
    except Exception as exc:  # noqa: BLE001 - the error text is the fingerprint
        out[f"{prefix}:error"] = f"{type(exc).__name__}: {exc}"
        step = re.search(r"at step \d+", str(exc))
        out[f"{prefix}:outcome"] = f"{type(exc).__name__} {step[0] if step else exc}"
        return None
    for name in ("u", "y", "v", "e"):
        out[f"{prefix}:{name}"] = _digest(getattr(run, name).values)
    out[f"{prefix}:E"] = _digest(run.E.E)
    audit = run.bound_audit
    out[f"{prefix}:E_op"] = None if audit is None else _digest(audit.energy_op)
    for name, trace in (audit.lower.items() if audit else ()):
        out[f"{prefix}:lower:{name}"] = _digest(trace)
    out[f"{prefix}:kernel"] = run.kernel
    out[f"{prefix}:outcome"] = json.dumps({
        "verdict": run.verdict.value, "diverged_at": run.diverged_at,
        "length": len(run.y), "kernel": run.kernel,
        "chain_violations": audit.chain_violations if audit else None,
    }, sort_keys=True)
    text = json.dumps(run_report(run), indent=2) + "\n"
    out[f"{prefix}:report"] = hashlib.sha256(text.encode()).hexdigest()
    return run


# trace files that ``audit`` and ``parseval`` must refuse, by name
MALFORMED_TRACES = {
    "empty": "",
    "header_only": "t,u,y\n",
    "one_row": "t,u,y\n0,1,1\n",
    "ragged_row": "t,u,y\n0,1,1\n0.001,1\n0.002,1,1\n",
    "non_numeric_cell": "t,u,y\n0,1,1\n0.001,x,1\n",
    "missing_y": "t,u\n0,1\n0.001,1\n",
    "non_uniform_t": "t,u,y\n0,1,1\n0.1,1,1\n0.3,1,1\n",
    "nan_t": "t,u,y\nnan,1,1\nnan,1,1\nnan,1,1\n",
    "inf_t": "t,u,y\n0,1,1\ninf,1,1\n1,1,1\n",
    "non_finite_sample": "t,u,y\n0,1,1\n0.001,inf,1\n0.002,1,1\n",
}


def _cli_keys(prefix: str, traces: str, out: dict) -> None:
    """What ``audit`` and ``parseval`` print on a trace file, with their exit
    codes."""
    from hyperstab import cli
    for command in ("audit", "parseval"):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(printed):
            code = cli.main([command, "--traces", traces])
        out[f"{prefix}:cli_{command}"] = f"exit {code}: {printed.getvalue()}"


def _artifact_keys(prefix: str, run, out: dict) -> None:
    """The hash of the run's traces.csv, and the CLI's keys on it."""
    from hyperstab.harness import write_run_artifacts
    with tempfile.TemporaryDirectory() as tmp:
        traces, _ = write_run_artifacts(run, tmp)
        with open(traces, "rb") as fh:
            out[f"{prefix}:traces.csv"] = hashlib.sha256(fh.read()).hexdigest()
        _cli_keys(prefix, traces, out)


def _error_keys(out: dict) -> None:
    """The CLI's keys on each file of MALFORMED_TRACES."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in MALFORMED_TRACES.items():
            traces = os.path.join(tmp, f"{name}.csv")
            with open(traces, "w") as fh:
                fh.write(text)
            _cli_keys(f"malformed:{name}", traces, out)


def _grade_key(g) -> str:
    from hyperstab import classify_pr, real_part_margin
    facts = {"num": list(g.num.coeffs), "den": list(g.den.coeffs)}
    for name, fn in (("classification", lambda: classify_pr(g).to_report()),
                     ("real_part_margin", lambda: real_part_margin(g))):
        try:
            facts[name] = fn()
        except Exception as exc:  # noqa: BLE001 - the error text is the fingerprint
            facts[name] = f"{type(exc).__name__}: {exc}"
    return json.dumps(facts, sort_keys=True)


def fingerprints(seeds: list[int]) -> dict:
    from hyperstab import RationalFunction, bundled_corpus_path, load_corpus
    gen = _generator()
    out: dict = {}
    demos = resources.files("hyperstab").joinpath("data/scenarios")
    for path in sorted(demos.iterdir(), key=lambda p: p.name):
        if not path.name.endswith(".json"):
            continue
        if path.name == "integrator_unit_gain.json":
            path = os.path.join(ROOT, "perfbench", "scenarios", path.name)
        prefix = f"demo:{os.path.basename(path)}"
        with open(path) as fh:
            run = _run_keys(prefix, json.load(fh), out)
        if run is not None:
            _artifact_keys(prefix, run, out)
    _error_keys(out)
    for seed in seeds:
        for workload in ("affine_loops", "nonlinear_loops"):
            for case in gen.GENERATORS[workload](seed):
                _run_keys(f"{workload}:{seed}:{case['id']}", case["scenario"], out)
        for case in gen.grade_batch(seed):
            g = RationalFunction(case["num"], case["den"])
            out[f"grade_batch:{seed}:{case['id']}"] = _grade_key(g)
    for entry in load_corpus(bundled_corpus_path()):
        out[f"corpus:{entry.id}"] = _grade_key(entry.plant)
    return out


def _kind(key: str) -> str:
    """The kind of a key: what follows the run's prefix, or "grade"."""
    parts = key.split(":")
    if parts[0] in ("grade_batch", "corpus"):
        return "grade"
    return parts[3 if parts[0] in ("affine_loops", "nonlinear_loops") else 2]


def diff(path_a: str, path_b: str) -> int:
    with open(path_a) as fh:
        a = json.load(fh)
    with open(path_b) as fh:
        b = json.load(fh)
    keys = sorted(k for k in a.keys() | b.keys() if a.get(k, ...) != b.get(k, ...))
    for key in keys:
        print(f"{key}\n  {a.get(key, '<missing>')}\n  {b.get(key, '<missing>')}")
    print(f"{len(keys)} of {len(a.keys() | b.keys())} keys differ")
    for kind, n in sorted(Counter(map(_kind, keys)).items()):
        print(f"  {kind}: {n}")
    return 1 if keys else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--seeds", type=int, nargs="*", default=[401])
    parser.add_argument("--out", default=None, help="write here instead of stdout")
    parser.add_argument("--diff", nargs=2, metavar=("A", "B"), default=None)
    args = parser.parse_args()
    if args.diff:
        return diff(*args.diff)
    text = json.dumps(fingerprints(args.seeds), indent=1, sort_keys=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

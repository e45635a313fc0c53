"""Command-line interface: classify, simulate, audit, parseval, corpus.

Exit codes are part of the contract:

  0  success
  2  parse/schema error (bad coefficients, unreadable or malformed input
     files, ragged trace rows, missing columns) or an unwritable output path
  3  improper transfer function
  4  simulation diverged (artifacts are still written)
  5  Parseval tolerance breach
  6  corpus mismatches

``--tf`` strings use MATLAB-style descending powers ("1;1,0" is 1/s), while
all JSON files carry ascending-power coefficient arrays. ``classify`` decides
the grade and its report exactly from the coefficients; it samples no
frequency grid.

``main`` is the one place that turns an exception into an exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .corpus import corpus_check, load_corpus, read_json_file
from .errors import HyperstabError, ImproperTransferFunction, SchemaError
from .harness import run_closed_loop, scenario_from_json_dict, write_run_artifacts
from .ratfun import RationalFunction
from .realness import classify_pr
from .signals import (
    PARSEVAL_TOL,
    classify_taxonomy,
    frequency_energy,
    inner_product,
    power_balance_residual,
    read_trace_signals,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_IMPROPER = 3
EXIT_DIVERGED = 4
EXIT_PARSEVAL = 5
EXIT_MISMATCH = 6


def _parse_tf(text: str) -> RationalFunction:
    """Parse 'num;den' with comma-separated descending-power coefficients."""
    parts = text.split(";")
    if len(parts) != 2:
        raise SchemaError("expected exactly one ';' between numerator and denominator")
    try:
        num = [float(tok) for tok in parts[0].split(",") if tok.strip()]
        den = [float(tok) for tok in parts[1].split(",") if tok.strip()]
    except ValueError as exc:
        raise SchemaError(f"bad coefficient: {exc}") from None
    if not num or not den:
        raise SchemaError("empty coefficient list")
    return RationalFunction(num[::-1], den[::-1])


def _emit(data: dict, path: str | None) -> None:
    text = json.dumps(data, indent=2) + "\n"
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_classify(args) -> int:
    result = classify_pr(_parse_tf(args.tf))
    _emit(result.to_report(), args.json)
    return EXIT_OK


def cmd_simulate(args) -> int:
    scenario = scenario_from_json_dict(read_json_file(args.scenario, "scenario"))
    run = run_closed_loop(scenario)
    traces_path, report_path = write_run_artifacts(run, args.out_dir)
    print(f"wrote {traces_path} and {report_path}")
    print(f"verdict: {run.verdict.value}")
    return EXIT_DIVERGED if run.diverged_at is not None else EXIT_OK


def cmd_audit(args) -> int:
    names = ("u", "y", "S", "D") if args.with_storage else ("u", "y")
    signals = read_trace_signals(args.traces, names)
    S, D = (signals["S"], signals["D"]) if args.with_storage else (None, None)
    verdict = classify_taxonomy(signals["u"], signals["y"], S, D)
    residual_max = None
    if S is not None and D is not None:
        residual = power_balance_residual(signals["u"], signals["y"], S, D)
        residual_max = float(np.max(np.abs(residual.values)))
    _emit(verdict.to_report(residual_max=residual_max), None)
    return EXIT_OK


def cmd_parseval(args) -> int:
    signals = read_trace_signals(args.traces, ("u", "y"))
    u, y = signals["u"], signals["y"]
    time_energy = inner_product(u, y)
    freq_energy = frequency_energy(u, y)
    rel_error = abs(time_energy - freq_energy) / (1.0 + abs(time_energy))
    _emit(
        {
            "time_energy": time_energy,
            "freq_energy": freq_energy,
            "rel_error": rel_error,
        },
        None,
    )
    return EXIT_OK if rel_error <= PARSEVAL_TOL else EXIT_PARSEVAL


def cmd_corpus(args) -> int:
    entries = load_corpus(args.file)
    report = corpus_check(entries)
    bad_ids = {m.entry_id for m in report.mismatches}
    print(f"{'entry':<16} {'expected':<8} status")
    for entry in entries:
        status = "MISMATCH" if entry.id in bad_ids else "ok"
        print(f"{entry.id:<16} {entry.expected_grade.value:<8} {status}")
    for m in report.mismatches:
        print(
            f"  {m.entry_id}: {m.field} expected {m.expected!r}, got {m.actual!r}"
        )
    print(f"{report.checked} entries, {len(report.mismatches)} mismatches")
    return EXIT_OK if report.ok else EXIT_MISMATCH


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperstab",
        description="Positive-realness grading, energy audits and "
        "closed-loop hyperstability checks for scalar LTI systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="grade a transfer function")
    p.add_argument("--tf", required=True,
                   help="'num;den', comma-separated descending coefficients")
    p.add_argument("--json", default=None, help="write the report here instead of stdout")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("simulate", help="run a closed-loop scenario")
    p.add_argument("--scenario", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("audit", help="energy-taxonomy audit of a trace file")
    p.add_argument("--traces", required=True)
    p.add_argument("--with-storage", action="store_true",
                   help="use S and D columns for the storage-based labels")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("parseval", help="time- vs frequency-domain energy check")
    p.add_argument("--traces", required=True)
    p.set_defaults(func=cmd_parseval)

    p = sub.add_parser("corpus", help="regression-check a corpus file")
    p.add_argument("--file", required=True)
    p.set_defaults(func=cmd_corpus)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (HyperstabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IMPROPER if isinstance(exc, ImproperTransferFunction) else EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Run the bundled demo scenarios and summarize the energy-bound audits.

Each scenario goes through ``hyperstab simulate``, which writes traces.csv /
report.json under --out-dir (default ./demo_runs); one line per run is printed
from its report, with the total violation count, and one indented line per
audited chain with its own count, so implied and non-implied chains read apart.
"""

import argparse
import contextlib
import io
import json
import os
from importlib import resources

from hyperstab.cli import EXIT_DIVERGED, EXIT_OK, main as cli_main


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default="demo_runs")
    args = parser.parse_args()

    scenario_dir = resources.files("hyperstab").joinpath("data/scenarios")
    names = sorted(p.name for p in scenario_dir.iterdir() if p.name.endswith(".json"))
    print(f"{'scenario':<28} {'grade':<6} {'verdict':<36} violations")
    status = 0
    for name in names:
        out = os.path.join(args.out_dir, name.removesuffix(".json"))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["simulate", "--scenario",
                             str(scenario_dir.joinpath(name)), "--out-dir", out])
        if code not in (EXIT_OK, EXIT_DIVERGED):
            print(f"{name:<28} simulate failed with exit code {code}")
            status = 1
            continue
        with open(os.path.join(out, "report.json")) as fh:
            report = json.load(fh)
        n_viol = report["bound_violation_count"]
        print(
            f"{name:<28} {report['classification']['grade']:<6} "
            f"{report['verdict']:<36} {'-' if n_viol is None else n_viol}"
        )
        counts = (report["bound_chain"] or {}).get("chain_violation_counts", {})
        for chain, count in counts.items():
            print(f"    {chain:<67} {count}")
    print(f"artifacts under {args.out_dir}/")
    return status


if __name__ == "__main__":
    raise SystemExit(main())

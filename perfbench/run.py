"""The hyperstab benchmark: one command, four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
there and writes its scratch files under ``.bench_work/``.

Workloads (see perfbench/README.md for why each exists):

* ``grade_batch``      - generated plants plus the bundled corpus through
                         ``classify_pr``;
* ``affine_loops``     - generated loops with StaticSector, TimeVaryingGain
                         and RegenerativePulse devices through
                         ``run_closed_loop``;
* ``nonlinear_loops``  - generated loops with CubicOddPower, Relay and
                         DeadzoneSector devices;
* ``cli_roundtrip``    - the five demo scenarios through ``simulate``,
                         ``audit --traces`` and ``parseval --traces`` as
                         separate ``python -m hyperstab.cli`` processes, then
                         ``corpus --file``.

Everything is closed loop and single file: one operation starts when the
previous one has finished, and at most one child process runs at a time.
The library workloads run in a worker process of their own (worker.py), so
each has its own peak RSS.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The lines before it print every end-to-end metric the workload has, by the
names the issue tracker uses, with units and sample counts.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time

import gen
import oracles
import speed

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
SPEED_SAMPLES = 10
POLL_S = 0.005
DEADLINE_S = 170.0
DEMOS = ("sspr_sector", "wspr_cubic", "integrator_unit_gain",
         "regenerative_pulse", "unstable_gain")
IMPORT_MODULES = ("hyperstab", "hyperstab.cli", "hyperstab.corpus",
                  "hyperstab.devices", "hyperstab.errors", "hyperstab.harness",
                  "hyperstab.ltisim", "hyperstab.ratfun", "hyperstab.realness",
                  "hyperstab.signals", "scipy.signal")


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _terminate(signum, frame):
    sys.exit(128 + signum)


class Child:
    """Spawns one child process at a time and reaps it with os.wait4."""

    def __init__(self, root: str, env: dict, deadline: float):
        self.root, self.env, self.deadline = root, env, deadline
        self.peak_rss_mb = 0.0
        self.factors: list[float] = []

    def run(self, argv: list[str], stdout_path: str,
            samples: list[float] | None = None) -> tuple[float, int]:
        """Wall seconds from spawn to exit, and the exit code.

        The parent polls for the child's exit every POLL_S. If ``samples`` is
        given, it times the reference kernel once per poll meanwhile, which
        keeps the other CPU about 5% busy.
        """
        with open(stdout_path, "w") as out, open(stdout_path + ".err", "w") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env,
                                    cwd=self.root)
            try:
                while True:
                    pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                    if pid:
                        break
                    if time.monotonic() > self.deadline:
                        raise BenchError(f"past the {DEADLINE_S:.0f} s deadline: {argv[1:3]}")
                    if samples is not None:
                        samples += speed.sample()
                    time.sleep(POLL_S)
            except BaseException:
                # past the deadline, or this process is being stopped
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise
            elapsed = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return elapsed, proc.returncode

    def timed_run(self, argv: list[str], stdout_path: str) -> tuple[float, int]:
        """Like run, with the wall time at reference speed: the reference
        kernel runs just before, during and just after the child."""
        samples = speed.sample(SPEED_SAMPLES)
        elapsed, code = self.run(argv, stdout_path, samples)
        factor = speed.factor(samples + speed.sample(SPEED_SAMPLES))
        self.factors.append(factor)
        return elapsed / factor, code


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _json_or_none(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return None


def _quantile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive method) of the samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def make_inputs(workload: str, seed: int, root: str, work: str) -> str:
    corpus = os.path.join(root, "src", "hyperstab", "data", "corpus.json")
    if workload == "cli_roundtrip":
        # the CLI round trip runs the bundled demos; the seed changes nothing.
        # The integrator demo is the benchmark's own copy, cut to 5e5 steps.
        scen = os.path.join(root, "src", "hyperstab", "data", "scenarios")
        spec = {"corpus": corpus, "scenarios": [
            [name, os.path.join(BENCH_DIR, "scenarios", name + ".json")
             if name == "integrator_unit_gain" else os.path.join(scen, name + ".json")]
            for name in DEMOS]}
    else:
        spec = {"corpus": corpus, "cases": gen.GENERATORS[workload](seed)}
    path = os.path.join(work, "inputs.json")
    with open(path, "w") as fh:
        json.dump(spec, fh)
    return path


def measure_setup(child: Child, workload: str, inputs: str, root: str, work: str) -> list[float]:
    """Fresh interpreters that import hyperstab and load the inputs, at
    reference speed."""
    times = []
    probe = os.path.join(work, "setup.out")
    for _ in range(SETUP_REPEATS):
        elapsed, code = child.timed_run(
            [sys.executable, os.path.join(BENCH_DIR, "load.py"), workload, inputs], probe)
        if code != 0:
            raise BenchError("set-up probe failed: " + _read(probe + ".err")[-2000:])
        loaded = _read(probe).strip()
        if not loaded.startswith(os.path.join(root, "src", "hyperstab")):
            raise BenchError(f"imported hyperstab from {loaded}, not from this checkout")
        times.append(elapsed)
    return times


def run_worker(child: Child, workload: str, inputs: str, seconds: float,
               trace: bool, work: str) -> dict:
    out = os.path.join(work, "worker.json")
    _, code = child.run([sys.executable, os.path.join(BENCH_DIR, "worker.py"), workload,
                         inputs, str(seconds), "1" if trace else "0", out],
                        os.path.join(work, "worker.out"))
    if code != 0:
        raise BenchError("worker failed: " + _read(os.path.join(work, "worker.out.err"))[-2000:])
    with open(out) as fh:
        return json.load(fh)


def run_cli(child: Child, inputs: str, seconds: float, work: str) -> dict:
    """The CLI round trip as child processes, in whole passes; each command's
    wall time from spawn to exit is at reference speed."""
    with open(inputs) as fh:
        spec = json.load(fh)
    cli = [sys.executable, "-m", "hyperstab.cli"]
    latencies = {}
    outcomes = oracles.Outcomes()

    def record(op_id, result):
        outcomes.record(op_id, *result)

    per_pass = {"simulate": [], "audit": [], "parseval": [], "corpus": []}

    start = time.perf_counter()
    passes = 0
    while passes == 0 or time.perf_counter() - start < seconds:
        sums = dict.fromkeys(per_pass, 0.0)
        for name, path in spec["scenarios"]:
            out_dir = os.path.join(work, "cli", name)
            shutil.rmtree(out_dir, ignore_errors=True)
            traces = os.path.join(out_dir, "traces.csv")
            log = os.path.join(work, f"{name}.out")

            dt, code = child.timed_run(cli + ["simulate", "--scenario", path, "--out-dir", out_dir], log)
            report_path = os.path.join(out_dir, "report.json")
            report = _json_or_none(_read(report_path)) if os.path.exists(report_path) else None
            record(f"simulate:{name}", oracles.check_simulate(name, code, report))
            latencies.setdefault(f"simulate:{name}", []).append(dt)
            sums["simulate"] += dt

            dt, code = child.timed_run(cli + ["audit", "--traces", traces], log)
            audit = _json_or_none(_read(log)) or {}
            record(f"audit:{name}", oracles.check_audit(code, audit.get("gamma0_sq"), report))
            latencies.setdefault(f"audit:{name}", []).append(dt)
            sums["audit"] += dt

            dt, code = child.timed_run(cli + ["parseval", "--traces", traces], log)
            parseval = _json_or_none(_read(log)) or {}
            record(f"parseval:{name}", oracles.check_parseval(code, parseval.get("rel_error")))
            latencies.setdefault(f"parseval:{name}", []).append(dt)
            sums["parseval"] += dt
            shutil.rmtree(out_dir, ignore_errors=True)

        log = os.path.join(work, "corpus.out")
        dt, code = child.timed_run(cli + ["corpus", "--file", spec["corpus"]], log)
        found = re.search(r"(\d+) entries, (\d+) mismatches", _read(log))
        record("corpus", oracles.check_corpus(code, int(found.group(2)) if found else None))
        latencies.setdefault("corpus", []).append(dt)
        sums["corpus"] += dt
        for key, value in sums.items():
            per_pass[key].append(value)
        passes += 1
    return {"op_latencies_s": latencies, "work": passes * len(latencies), "passes": passes,
            "cli_s": per_pass, **outcomes.summary()}


def import_times(child: Child, work: str) -> dict[str, float]:
    """Self import time of each hyperstab module and scipy.signal, from -X importtime."""
    log = os.path.join(work, "importtime.out")
    _, code = child.run([sys.executable, "-X", "importtime", "-c", "import hyperstab.cli"], log)
    if code != 0:
        raise BenchError("import of hyperstab.cli failed")
    self_us, cumulative_us = {}, {}
    for line in _read(log + ".err").splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[0].startswith("import time:"):
            continue
        try:
            own = int(parts[0].split(":")[1])
            cum = int(parts[1])
        except ValueError:
            continue  # the header line
        name = parts[2].strip()
        self_us[name] = own
        cumulative_us[name] = cum
    out = {f"import.self_s.{m}": self_us.get(m, 0) / 1e6 for m in IMPORT_MODULES}
    for m in ("hyperstab", "scipy.signal"):
        out[f"import.cumulative_s.{m}"] = cumulative_us.get(m, 0) / 1e6
    return out


def end_to_end(workload: str, setup: list[float], res: dict, rss_mb: float,
               speed_factors: list[float]):
    """The JSON metrics, and the report lines with the issue tracker's names.

    Every operation runs once per pass. An operation's latency is its median
    over the passes of its time at reference speed (speed.py). The CLI
    commands are already at reference speed, one pass each.
    """
    factors = res.get("pass_factors") or [1.0] * res["passes"]
    typical = [statistics.median(t / f for t, f in zip(times, factors))
               for times in res["op_latencies_s"].values()]
    n = len(typical)
    work_rate = res["work"] / res["passes"] / sum(typical)
    failed = res["attempted"] - res["status"].get("ok", 0)
    name, unit = {"grade_batch": ("grade_per_s", "plants/s"),
                  "cli_roundtrip": ("cli_commands_per_s", "commands/s")}.get(
        workload, ("loop_steps_per_s", "samples/s"))
    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "throughput_per_s": (work_rate, unit, n),
        "op_latency_p50_ms": (statistics.median(typical) * 1e3, "ms", n),
        "op_latency_p90_ms": (_quantile(typical, 90) * 1e3, "ms", n),
        "peak_rss_mb": (rss_mb, "MB", 1 if workload != "cli_roundtrip" else n),
    }
    lines = [("setup_s", *metrics["setup_s"]), (name, *metrics["throughput_per_s"]),
             ("op_latency_p50_ms", *metrics["op_latency_p50_ms"]),
             ("op_latency_p90_ms", *metrics["op_latency_p90_ms"])]
    if workload == "cli_roundtrip":
        for cmd, sums in res["cli_s"].items():
            lines.append((f"cli_{cmd}_s", statistics.median(sums), "s", len(sums)))
    lines += [("peak_rss_mb", *metrics["peak_rss_mb"]),
              ("failure_ratio", failed / res["attempted"], "ratio", res["attempted"]),
              ("speed_factor", statistics.median(speed_factors), "x", len(speed_factors))]
    return metrics, lines, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    deadline = time.monotonic() + DEADLINE_S
    signal.signal(signal.SIGTERM, _terminate)
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            bench = json.load(fh)
    except FileNotFoundError:
        print("error: run from the checkout root (no BENCHMARK.json here)", file=sys.stderr)
        return 2
    if not os.path.isfile(os.path.join(root, "src", "hyperstab", "__init__.py")):
        print("error: no src/hyperstab package in this checkout", file=sys.stderr)
        return 2
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        print(f"error: unknown workload {args.workload}", file=sys.stderr)
        return 2

    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(root, "src"), BENCH_DIR]),
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    child = Child(root, env, deadline)
    try:
        inputs = make_inputs(args.workload, args.seed, root, work)
        setup = measure_setup(child, args.workload, inputs, root, work)
        child.peak_rss_mb = 0.0
        if args.trace:
            res = run_worker(child, args.workload, inputs, args.seconds, True, work)
            metrics = {**res["per_layer"], **import_times(child, work)}
            names = [m["name"] for m in bench["per_layer"]]
            units = {m["name"]: m["unit"] for m in bench["per_layer"]}
            extra = set(metrics) - set(names)
            if extra:
                raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(extra)}")
            # a layer this workload does not reach reads 0
            out = {n: {"value": float(metrics.get(n, 0.0)), "unit": units[n]} for n in names}
            failed = res["attempted"] - res["status"].get("ok", 0)
            for name in names:
                print(f"layer {name:<44} {out[name]['value']:>14.6g} {units[name]}")
        else:
            if args.workload == "cli_roundtrip":
                res = run_cli(child, inputs, args.seconds, work)
            else:
                res = run_worker(child, args.workload, inputs, args.seconds, False, work)
            metrics, lines, failed = end_to_end(args.workload, setup, res, child.peak_rss_mb,
                                                child.factors + res.get("pass_factors", []))
            for name, value, unit, n in lines:
                print(f"e2e {name:<22} {value:>14.6g} {unit:<11} (n={n})")
            units = {m["name"]: m["unit"] for m in bench["end_to_end"]}
            if set(metrics) != set(units):
                raise BenchError("end-to-end metrics do not match BENCHMARK.json")
            out = {n: {"value": float(metrics[n][0]), "unit": units[n]} for n in units}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(os.path.join(work, "cli"), ignore_errors=True)
        shutil.rmtree(os.path.join(work, "replay"), ignore_errors=True)

    for kind, count in sorted(res["known_defects"].items()):
        print(f"known defect {kind}: {count} operation(s) failed")
    for line in res["wrong"]:
        print(f"wrong: {line}")
    print(f"passes {res['passes']}, attempted {res['attempted']}, failed {failed}")
    correct = all(s in ("ok", "known_defect") for s in res["status"]) and not res["wrong"]
    print(json.dumps({"correct": correct, "attempted": res["attempted"],
                      "failed": failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

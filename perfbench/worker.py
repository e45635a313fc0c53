"""Benchmark worker: one workload in its own process.

    python3 perfbench/worker.py WORKLOAD INPUTS SECONDS TRACE OUT

Runs the library workloads (``grade_batch``, ``affine_loops``,
``nonlinear_loops``) and, for the traced run of ``cli_roundtrip``, replays the
CLI commands in process. Operations run one after another in whole passes
over the inputs until SECONDS have gone by. Every operation's output is
checked by an oracle outside its timed region. The result is written to OUT
as JSON; the parent process reads the worker's peak RSS from ``os.wait4``.

With TRACE = 1 every operation runs twice, untraced and then traced. The
traced run wraps each call into a package module in a span and also replays
the internals of ``run_closed_loop`` (classification, device audit, bound
audit, energy trace, verdict) as separate calls, so the stepping cost can be
derived as the remainder.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict

from load import load_inputs
import oracles
import speed
from trace import Tracer

from hyperstab import (
    classify_pr,
    classify_taxonomy,
    convergence_verdict,
    convolve,
    corpus_check,
    device_popov_audit,
    energy_trace,
    frequency_energy,
    hodograph_quadrant_check,
    imaginary_axis_residues,
    impulse_response,
    inner_product,
    load_corpus,
    phase_deviation,
    real_part_margin,
    realize,
    run_closed_loop,
    stability_class,
    verify_bound_chain,
)
from hyperstab.errors import HyperstabError, PoleOnGrid, RepeatedAxisPole
from hyperstab.harness import run_report
from hyperstab.signals import read_trace_csv, signals_from_trace, write_trace_csv

AFFINE_KINDS = ("StaticSector", "TimeVaryingGain", "RegenerativePulse")
GRADES = ("NotPR", "PR", "WSPR", "SSPR")
MIN_PASSES = 3
# run_closed_loop's children, replayed and timed separately in the traced run
LOOP_CHILDREN = ("realness.classify_pr", "devices.device_popov_audit",
                 "signals.energy_trace", "harness.verify_bound_chain",
                 "harness.convergence_verdict")


def _plain(name, fn, *args):
    return fn(*args)


class Run:
    """Accumulates latencies, work units, oracle outcomes and counters."""

    def __init__(self, spec: dict, objs: dict, work_dir: str):
        self.spec = spec
        self.objs = objs
        self.work_dir = work_dir
        self.tracer: Tracer | None = None
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.work = 0
        self.outcomes = oracles.Outcomes()
        self.counts = Counter()
        self.step_ns: dict[str, list[float]] = defaultdict(list)
        self.primary_s = {"untraced": 0.0, "traced": 0.0}
        self.csv = defaultdict(float)
        self.reports: dict[str, dict] = {}

    # -- bookkeeping ---------------------------------------------------------

    def _record(self, op_id: str, status: str, detail: str, known: str = "") -> None:
        self.outcomes.record(op_id, status, detail, known)

    def _timed(self, call, name, fn, *args):
        """A primary call: its time counts toward the operation's latency."""
        t0 = time.perf_counter()
        try:
            return call(name, fn, *args)
        finally:
            self._op_time += time.perf_counter() - t0

    def _op(self, op_id: str, body) -> None:
        self._op_time = 0.0
        call = self.tracer.call if self.tracer else _plain
        try:
            if self.tracer:
                with self.tracer.op(op_id):
                    body(call)
            else:
                body(call)
        except Exception:  # noqa: BLE001 - one broken operation must not end the run
            self._record(op_id, "wrong", traceback.format_exc(limit=3))
        self.latencies[op_id].append(self._op_time)
        self.primary_s["traced" if self.tracer else "untraced"] += self._op_time

    # -- grade_batch ---------------------------------------------------------

    def grade_ops(self):
        ops = [(c["id"], g, c["truth"]) for c, g in
               zip(self.spec["cases"], self.objs["plants"])]
        for e in self.objs["corpus"]:
            truth = {"grade": e.expected_grade.value, **e.expected_margins}
            ops.append((f"corpus:{e.id}", e.plant, truth))
        return ops

    def grade(self, op) -> None:
        op_id, g, truth = op

        def body(call):
            res = self._timed(call, "realness.classify_pr", classify_pr, g)
            self.work += 1
            if self.tracer:
                self.tracer.spans[-1]["key"] = res.grade.value
                self._grade_replays(call, g)
            status, detail = oracles.check_grade(res, truth)
            if status != "ok":
                self.counts["realness.grade_mismatches"] += 1
            self._record(op_id, status, detail, "notch")

        self._op(op_id, body)

    def _grade_replays(self, call, g) -> None:
        call("ratfun.stability_class", stability_class, g)
        call("ratfun.poles", g.poles)
        call("realness.real_part_margin", real_part_margin, g)
        try:
            call("ratfun.imaginary_axis_residues", imaginary_axis_residues, g)
        except RepeatedAxisPole:
            pass
        for name, fn in (("realness.phase_deviation", phase_deviation),
                         ("realness.hodograph_quadrant_check", hodograph_quadrant_check)):
            try:
                call(name, fn, g)
            except PoleOnGrid:
                pass

    def corpus_op(self) -> None:
        def body(call):
            report = self._timed(call, "corpus.corpus_check", corpus_check, self.objs["corpus"])
            self._record("corpus_check", *oracles.check_corpus(0, len(report.mismatches)))
        self._op("corpus_check", body)

    # -- loops ---------------------------------------------------------------

    def loop_ops(self):
        return list(zip(self.spec["cases"], self.objs["scenarios"]))

    def _closed_loop(self, call, sc):
        """run_closed_loop as a primary call; returns (run, typed error)."""
        try:
            run = self._timed(call, "harness.run_closed_loop", run_closed_loop, sc)
        except HyperstabError as exc:
            self.counts["harness.typed_errors"] += 1
            return None, exc
        self.work += len(run.u)
        if run.bound_audit is not None:
            self.counts["harness.bound_violations"] += run.bound_audit.violation_count
        if run.diverged_at is not None:
            self.counts["harness.diverged_runs"] += 1
        if self.tracer:
            self._loop_replays(call, sc, run)
        return run, None

    def _loop_replays(self, call, sc, run) -> None:
        durations = {"harness.run_closed_loop": self.tracer.last_duration()}

        def timed(name, fn, *args):
            out = call(name, fn, *args)
            durations[name] = self.tracer.last_duration()
            return out

        ss = timed("ltisim.realize", realize, sc.plant)
        res = timed("realness.classify_pr", classify_pr, sc.plant)
        self.tracer.spans[-1]["key"] = res.grade.value
        timed("devices.device_popov_audit", device_popov_audit, sc.device, run.v, run.y)
        timed("signals.energy_trace", energy_trace, run.u, run.y)
        if run.bound_audit is not None:
            timed("harness.verify_bound_chain", verify_bound_chain, run)
            n = len(run.u)
            ir = timed("ltisim.impulse_response", impulse_response, sc.plant,
                       (n - 1) * sc.dt, sc.dt)
            timed("ltisim.convolve", convolve, ir, run.u)
        timed("harness.convergence_verdict", convergence_verdict, run)
        kind = sc.device.kind.value
        feedthrough = ss.D != 0.0
        path = "affine" if kind in AFFINE_KINDS else ("newton" if feedthrough else "explicit")
        own = durations["harness.run_closed_loop"] - sum(
            durations.get(name, 0.0) for name in LOOP_CHILDREN)
        key = f"harness.step_ns.{path}.n{ss.order}.D{int(feedthrough)}"
        self.step_ns[key].append(own / len(run.u) * 1e9)

    def loop(self, op) -> None:
        case, sc = op

        def body(call):
            run, err = self._closed_loop(call, sc)
            status, detail = oracles.check_loop(case, run, err)
            self._record(case["id"], status, detail)

        self._op(case["id"], body)

    # -- cli_roundtrip, replayed in process ------------------------------------

    def cli_ops(self):
        return [(cmd, name, sc) for name, sc in self.objs["scenarios"]
                for cmd in ("simulate", "audit", "parseval")] + [("corpus", None, None)]

    def cli(self, op) -> None:
        cmd, name, sc = op
        out_dir = os.path.join(self.work_dir, "replay", name or "")
        csv_path = os.path.join(out_dir, "traces.csv")

        def simulate(call):
            run, err = self._closed_loop(call, sc)
            if err is not None:
                self._record(f"simulate:{name}", "wrong", f"{type(err).__name__}: {err}")
                return
            os.makedirs(out_dir, exist_ok=True)
            columns = {"t": run.u.times(), "u": run.u.values, "y": run.y.values,
                       "v": run.v.values, "E": run.E.E}
            self._timed(call, "signals.write_trace_csv", write_trace_csv, csv_path, columns)
            if self.tracer:
                self.csv["write_s"] += self.tracer.last_duration()
                self.csv["bytes"] += os.path.getsize(csv_path)
            report = self._timed(call, "harness.run_report", run_report, run)
            t0 = time.perf_counter()
            with open(os.path.join(out_dir, "report.json"), "w") as fh:
                json.dump(report, fh, indent=2)
            self._op_time += time.perf_counter() - t0
            code = 4 if run.diverged_at is not None else 0
            self._record(f"simulate:{name}", *oracles.check_simulate(name, code, report))
            self.reports[name] = report

        def load(call):
            cols = self._timed(call, "signals.read_trace_csv", read_trace_csv, csv_path)
            if self.tracer:
                self.csv["read_s"] += self.tracer.last_duration()
                self.csv["read_bytes"] += os.path.getsize(csv_path)
            return signals_from_trace(cols)

        def audit(call):
            sig = load(call)
            verdict = self._timed(call, "signals.classify_taxonomy", classify_taxonomy,
                                  sig["u"], sig["y"], None, None)
            self._record(f"audit:{name}", *oracles.check_audit(
                0, verdict.gamma0_sq, self.reports.get(name)))

        def parseval(call):
            sig = load(call)
            te = self._timed(call, "signals.inner_product", inner_product, sig["u"], sig["y"])
            fe = self._timed(call, "signals.frequency_energy", frequency_energy,
                             sig["u"], sig["y"])
            self._record(f"parseval:{name}", *oracles.check_parseval(
                0, abs(te - fe) / (1.0 + abs(te))))

        def corpus(call):
            entries = self._timed(call, "corpus.load_corpus", load_corpus, self.spec["corpus"])
            report = self._timed(call, "corpus.corpus_check", corpus_check, entries)
            self._record("corpus", *oracles.check_corpus(0, len(report.mismatches)))

        body = {"simulate": simulate, "audit": audit, "parseval": parseval,
                "corpus": corpus}[cmd]
        self._op(f"{cmd}:{name}" if name else cmd, body)


def _passes(ops, do, extra, seconds: float, min_passes: int, factors: list) -> int:
    """Whole passes over ops until ``seconds`` have elapsed, and at least
    ``min_passes``. The reference kernel runs about a hundred times a pass,
    between operations; ``factors`` gets each pass's machine-speed factor."""
    every = max(1, len(ops) // 100)
    start = time.perf_counter()
    done = 0
    while done < min_passes or time.perf_counter() - start < seconds:
        samples = []
        for i, op in enumerate(ops):
            if i % every == 0:
                samples += speed.sample()
            do(op)
        if extra:
            extra()
        factors.append(speed.factor(samples))
        done += 1
    return done


def main(argv: list[str]) -> int:
    workload, inputs, seconds, trace, out = argv
    seconds, trace = float(seconds), trace == "1"
    with open(inputs) as fh:
        spec = json.load(fh)
    objs = load_inputs(workload, inputs)
    run = Run(spec, objs, os.path.dirname(out))
    if workload == "grade_batch":
        ops, do, extra = run.grade_ops(), run.grade, run.corpus_op
    elif workload == "cli_roundtrip":
        ops, do, extra = run.cli_ops(), run.cli, None
    else:
        ops, do, extra = run.loop_ops(), run.loop, None

    factors: list[float] = []
    if not trace:
        # at least MIN_PASSES, so that every operation has a median over passes
        result = {"passes": _passes(ops, do, None, seconds, MIN_PASSES, factors)}
    else:
        # Each operation runs untraced and then traced, back to back, so the
        # tracing overhead compares the same calls under the same conditions.
        # grade_batch's traced run also times corpus_check once per pass.
        tracer = Tracer()

        def both(op):
            run.tracer = None
            do(op)
            run.tracer = tracer
            do(op)

        def traced_extra():
            run.tracer = tracer
            extra()

        result = {"passes": _passes(ops, both, traced_extra if extra else None, seconds, 1,
                                    factors)}
        result["per_layer"] = per_layer(run, result["passes"])
        tracer.write(os.path.join(os.path.dirname(out), "spans.jsonl"))
    result.update(
        op_latencies_s=run.latencies,
        pass_factors=factors,
        work=run.work,
        counts=dict(run.counts),
        **run.outcomes.summary(),
    )
    with open(out, "w") as fh:
        json.dump(result, fh)
    return 0


def per_layer(run: Run, passes: int) -> dict[str, float]:
    """Per-layer metrics of the traced passes (medians per call unless noted)."""
    st = run.tracer.self_times()
    out: dict[str, float] = {}

    def med(metric, name, scale, key=None):
        values = st.get((name, key))
        if values:
            out[metric] = statistics.median(values) * scale

    for name in ("stability_class", "imaginary_axis_residues", "poles"):
        med(f"ratfun.{name}_us", f"ratfun.{name}", 1e6)
    for grade in GRADES:
        med(f"realness.classify_pr_ms.{grade}", "realness.classify_pr", 1e3, grade)
    for name in ("real_part_margin", "phase_deviation", "hodograph_quadrant_check"):
        med(f"realness.{name}_ms", f"realness.{name}", 1e3)
    med("ltisim.realize_us", "ltisim.realize", 1e6)
    med("ltisim.impulse_response_ms", "ltisim.impulse_response", 1e3)
    med("ltisim.convolve_ms", "ltisim.convolve", 1e3)
    med("devices.device_popov_audit_ms", "devices.device_popov_audit", 1e3)
    med("harness.run_closed_loop_ms", "harness.run_closed_loop", 1e3)
    med("harness.verify_bound_chain_ms", "harness.verify_bound_chain", 1e3)
    med("harness.run_report_ms", "harness.run_report", 1e3)
    med("signals.energy_trace_ms", "signals.energy_trace", 1e3)
    med("signals.frequency_energy_ms", "signals.frequency_energy", 1e3)
    med("signals.classify_taxonomy_ms", "signals.classify_taxonomy", 1e3)
    med("corpus.corpus_check_ms", "corpus.corpus_check", 1e3)
    for key, values in run.step_ns.items():
        out[key] = statistics.median(values)
    # counts are per pass; every pass runs each operation twice (untraced and
    # traced), and both runs count
    for name in ("realness.grade_mismatches", "harness.bound_violations",
                 "harness.diverged_runs", "harness.typed_errors"):
        out[name] = run.counts[name] / (2 * passes)
    if run.csv["write_s"]:
        out["signals.write_trace_csv_s"] = run.csv["write_s"] / passes
        out["signals.write_trace_csv_mb_per_s"] = run.csv["bytes"] / 1e6 / run.csv["write_s"]
        out["signals.read_trace_csv_s"] = run.csv["read_s"] / passes
        out["signals.read_trace_csv_mb_per_s"] = run.csv["read_bytes"] / 1e6 / run.csv["read_s"]
        out["signals.trace_csv_bytes"] = run.csv["bytes"] / passes
    base = run.primary_s["untraced"]
    out["trace.overhead_pct"] = 100.0 * (run.primary_s["traced"] - base) / base
    return out


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

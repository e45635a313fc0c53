"""Tests of the benchmark itself: generators, oracles and metric names.

Run from the repository root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from collections import Counter
from types import SimpleNamespace

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import gen  # noqa: E402
import oracles  # noqa: E402
from hyperstab import load_corpus, run_closed_loop, scenario_from_json_dict  # noqa: E402
from hyperstab.harness import run_report  # noqa: E402

SCENARIOS = os.path.join(ROOT, "src", "hyperstab", "data", "scenarios")
CORPUS = os.path.join(ROOT, "src", "hyperstab", "data", "corpus.json")


def _bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _shape(cases):
    """What a seed must not change: how many cases of each kind."""
    return Counter(c.get("family") or c["id"].split("-", 1)[1] for c in cases)


@pytest.mark.parametrize("name", sorted(gen.GENERATORS))
def test_generator_is_deterministic_per_seed(name):
    make = gen.GENERATORS[name]
    first, again, other = make(7), make(7), make(8)
    assert json.dumps(first) == json.dumps(again)
    assert json.dumps(first) != json.dumps(other)
    assert _shape(first) == _shape(other)


def test_notch_oracle_reproduces_the_roadmap_minimum():
    assert gen.notch_min_real_part(gen.NOTCH_REPRO) == pytest.approx(-0.50, abs=1e-3)
    # one notch: the minimum is 1 - a, at w = w0
    assert gen.notch_min_real_part([(0.7, 3.0, 1e-3)]) == pytest.approx(0.3, abs=1e-9)


def test_grade_oracle_agrees_on_the_bundled_corpus():
    from hyperstab import classify_pr

    for entry in load_corpus(CORPUS):
        truth = {"grade": entry.expected_grade.value, **entry.expected_margins}
        assert oracles.check_grade(classify_pr(entry.plant), truth) == ("ok", ""), entry.id


def _demo(name):
    folder = os.path.join(gen.__file__.rsplit(os.sep, 1)[0], "scenarios") \
        if name == "integrator_unit_gain" else SCENARIOS
    with open(os.path.join(folder, name + ".json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name,kind,outcome", [
    ("sspr_sector", "StaticSector", "bounded"),
    ("integrator_unit_gain", "StaticSector", "bounded"),
    ("regenerative_pulse", "RegenerativePulse", "bounded"),
    ("unstable_gain", "StaticSector", "diverge"),
    ("wspr_cubic", "CubicOddPower", "bounded"),
])
def test_loop_oracles_agree_on_the_bundled_demos(name, kind, outcome):
    data = _demo(name)
    run = run_closed_loop(scenario_from_json_dict(data))
    case = {"scenario": data, "truth": {"outcome": outcome, "kind": kind}}
    assert oracles.check_loop(case, run, None) == ("ok", "")
    report = json.loads(json.dumps(run_report(run)))
    status, _, known = oracles.check_simulate(name, 4 if run.diverged_at else 0, report)
    if name == "wspr_cubic":
        # acceptance criterion 5: the WSPR chain is violated, never a pass
        assert (status, known) == ("known_defect", "criterion-5")
    else:
        assert status == "ok"


def test_loop_oracle_rejects_a_perturbed_trajectory():
    data = _demo("sspr_sector")
    run = run_closed_loop(scenario_from_json_dict(data))
    y = run.y.values.copy()
    y[100] *= 1.0 + 1e-6
    perturbed = SimpleNamespace(y=SimpleNamespace(values=y), diverged_at=None,
                                verdict=run.verdict)
    case = {"scenario": data, "truth": {"outcome": "bounded", "kind": "StaticSector"}}
    assert oracles.check_loop(case, perturbed, None)[0] == "wrong"


def _run_bench(cwd, workload, trace):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180)
    return proc


def test_printed_metric_names_match_benchmark_json():
    bench = _bench()
    e2e = {m["name"] for m in bench["end_to_end"]}
    layers = {m["name"] for m in bench["per_layer"]}
    assert "setup_s" in e2e
    measured = set()
    for w in (w["name"] for w in bench["workloads"]):
        proc = _run_bench(ROOT, w, 1)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result["metrics"]) == layers
        assert result["correct"] is True
        measured |= {k for k, v in result["metrics"].items() if v["value"] != 0.0}
    # every per-layer timing is measured by at least one workload; counts
    # of defects and the overhead may legitimately read 0
    counts = {m["name"] for m in bench["per_layer"] if m["unit"] == "count"}
    assert measured >= layers - counts - {"trace.overhead_pct"}
    for w in ("grade_batch", "affine_loops"):
        proc = _run_bench(ROOT, w, 0)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result["metrics"]) == e2e
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench(tmp_path, "grade_batch", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_outcomes_count_each_operation_once_with_its_worst_result():
    out = oracles.Outcomes()
    for _ in range(3):
        out.record("a", "ok")
        out.record("b", "known_defect", "miss", "notch")
    out.record("a", "wrong", "bad")
    out.record("a", "ok")
    summary = out.summary()
    assert summary["attempted"] == 2
    assert summary["status"] == {"wrong": 1, "known_defect": 1}
    assert summary["known_defects"] == {"notch": 1}
    assert summary["wrong"] == ["a: bad"]

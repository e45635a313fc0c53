"""The benchmark record's aggregation in scripts/bench.py, from given numbers."""

import importlib.util
import os
import subprocess
from unittest import mock

import pytest


def _bench():
    spec = importlib.util.spec_from_file_location("bench", os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "bench.py"))
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def _run(throughput: float, rss: float, failed: int = 0, correct: bool = True) -> dict:
    """The last JSON line of one untraced perfbench run."""
    return {"correct": correct, "attempted": 16, "failed": failed, "metrics": {
        "throughput_per_s": {"value": throughput, "unit": "1/s"},
        "peak_rss_mb": {"value": rss, "unit": "MB"},
    }}


def _traced(correct: bool = True) -> dict:
    """The last JSON line of one traced perfbench run."""
    return {"correct": correct, "attempted": 16, "failed": 0, "metrics": {
        "realness.classify_pr_ms.PR": {"value": 0.08, "unit": "ms"},
        "ltisim.realize_us": {"value": 0.0, "unit": "us"},
    }}


class TestAggregate:
    @pytest.fixture(autouse=True)
    def no_process(self):
        # the aggregation reads given numbers: it starts no process
        with mock.patch.object(subprocess, "run", side_effect=AssertionError), \
                mock.patch.object(subprocess, "Popen", side_effect=AssertionError):
            yield

    def test_median_and_quartiles_per_metric(self):
        record = _bench().aggregate([_run(3.0, 110.0), _run(1.0, 112.0), _run(2.0, 111.0)],
                                    _traced())
        assert record["runs"] == 3
        assert record["metrics"]["throughput_per_s"] == {
            "value": 2.0, "unit": "1/s", "q1": 1.5, "q3": 2.5, "samples": [3.0, 1.0, 2.0]}
        assert record["metrics"]["peak_rss_mb"] == {
            "value": 111.0, "unit": "MB", "q1": 110.5, "q3": 111.5,
            "samples": [110.0, 112.0, 111.0]}

    def test_even_count_interpolates(self):
        record = _bench().aggregate([_run(v, 1.0) for v in (4.0, 1.0, 3.0, 2.0)], _traced())
        throughput = record["metrics"]["throughput_per_s"]
        assert (throughput["q1"], throughput["value"], throughput["q3"]) == (1.75, 2.5, 3.25)

    def test_operations_summed_and_every_run_correct(self):
        record = _bench().aggregate([_run(1.0, 1.0, failed=1),
                                     _run(1.0, 1.0, failed=1, correct=False)], _traced())
        assert (record["attempted"], record["failed"]) == (32, 2)
        assert record["correct"] is False

    def test_per_layer_from_the_traced_run(self):
        record = _bench().aggregate([_run(1.0, 1.0), _run(2.0, 1.0), _run(3.0, 1.0)], _traced())
        # the untraced shape, plus the traced run's per-layer metrics as printed
        assert sorted(record) == ["attempted", "correct", "failed", "metrics", "per_layer", "runs"]
        assert record["per_layer"] == _traced()["metrics"]
        assert record["correct"] is True
        assert (record["attempted"], record["failed"]) == (48, 0)  # untraced runs only
        assert all(set(m) == {"value", "unit", "q1", "q3", "samples"}
                   for m in record["metrics"].values())

    def test_traced_run_counts_toward_correct(self):
        record = _bench().aggregate([_run(1.0, 1.0)] * 3, _traced(correct=False))
        assert record["correct"] is False

"""Peak memory of the long-record paths, in doubles per sample.

tracemalloc sees numpy's buffers, so each budget counts every array a path
allocates, on a 100,001-sample run of the unit-gain integrator loop: longer
than one audit block (signals.BLOCK), so the audit runs block by block.
"""

import tracemalloc

import pytest

from hyperstab.devices import DeviceSpec
from hyperstab.harness import Scenario, run_closed_loop, write_run_artifacts
from hyperstab.ratfun import ratfun_new
from hyperstab.signals import BLOCK, frequency_energy, read_trace_signals

N = 100_001
DOUBLE = 8


def integrator_scenario():
    return Scenario(plant=ratfun_new([1.0], [0.0, 1.0]),
                    device=DeviceSpec(kind="StaticSector", params={"k1": 1.0, "k2": 1.0}),
                    x0=(1.0,), dt=1e-4, horizon=10.0)


def peak_doubles_per_sample(fn, *args):
    """fn(*args) and the peak of what it allocated, in doubles per sample."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return result, peak / (DOUBLE * N)


@pytest.fixture(scope="module")
def run():
    sc = integrator_scenario()
    run_closed_loop(sc)  # first-call caches stay out of the measured peak
    return run_closed_loop(sc)


@pytest.fixture(scope="module")
def traces(run, tmp_path_factory):
    return write_run_artifacts(run, tmp_path_factory.mktemp("run"))[0]


def test_run_holds_each_record_once(run):
    # u, y, v, e, E, E_op and the d1 trace are 7 doubles per sample; the
    # rest is scratch of a few blocks
    assert len(run.u) == N > BLOCK
    result, per_sample = peak_doubles_per_sample(run_closed_loop, integrator_scenario())
    assert result.bound_audit.violation_count == 0
    assert per_sample <= 12.0


def test_artifacts_add_about_one_trace(run, tmp_path):
    # the t column is one trace; a block of CSV_BLOCK_ROWS formatted rows is
    # under two more at this length, and does not grow with it
    _, per_sample = peak_doubles_per_sample(write_run_artifacts, run, tmp_path)
    assert per_sample <= 3.0


def test_parseval_path_holds_two_columns(traces):
    # u and y, the blocks of the columns being read, and FFTs of the least
    # power of two >= N samples
    def parseval():
        signals = read_trace_signals(traces, ("u", "y"))
        return frequency_energy(signals["u"], signals["y"])

    _, per_sample = peak_doubles_per_sample(parseval)
    assert per_sample <= 8.0

"""Acceptance gate: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Criterion 5 asserts the WSPR chain ``E(t) >= c_w * int(xi^2)``, where xi is
the loop input filtered by 1/(s + 1) and ``c_w = inf (1 + w^2) Re g(jw)``.
Parseval and causality make it hold for every WSPR plant. The audit also
reports the squared-frequency chain ``E(t) >= d0 * int(delta^2)``, with
``delta = int u``, but WSPR does not imply it: on the cubic-feedback run delta
settles at -(1 - pi/4), so its right-hand side grows without bound while the
supplied energy stays finite. Criterion 5 prints that chain's violation count
and checks the value of delta that explains it; the README's "Bound chains for
WSPR plants" section gives the argument.
"""

import json
import math

import numpy as np
import pytest

from hyperstab.corpus import bundled_corpus_path, corpus_check, load_corpus
from hyperstab.devices import DeviceSpec, apply_device, sampled_gain
from hyperstab.harness import (
    Excitation,
    Scenario,
    Verdict,
    run_closed_loop,
    write_run_artifacts,
)
from hyperstab.ltisim import convolve, impulse_response, realize, simulate_forced
from hyperstab.ratfun import inverse, ratfun_new, stability_class, StabilityClass
from hyperstab.realness import Grade, classify_pr
from hyperstab.signals import (
    Signal,
    energy_trace,
    frequency_energy,
    inner_product,
    input_integral,
)


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {n:>2} [{'PASS' if ok else 'FAIL'}] {detail}")


def test_criterion_01_corpus_grades_and_margins():
    entries = load_corpus(bundled_corpus_path())
    assert len(entries) >= 12
    report = corpus_check(entries)
    ok = report.ok
    _line(1, ok, f"{report.checked} corpus entries graded, "
                 f"{len(report.mismatches)} mismatches (margins at 1e-6)")
    assert ok, report.mismatches
    # spot-check the three hand-derived anchors
    c = classify_pr(ratfun_new([2, 1], [1, 1]))
    assert c.grade is Grade.SSPR and c.d == pytest.approx(1.0, rel=1e-6)
    c = classify_pr(ratfun_new([1], [1, 1]))
    assert c.grade is Grade.WSPR and c.d0 == pytest.approx(1.0, rel=1e-6)
    c = classify_pr(ratfun_new([1], [0, 1]))
    assert c.grade is Grade.PR and c.g1_grade is Grade.SSPR
    assert c.d1 == pytest.approx(1.0, rel=1e-6)


def test_criterion_02_inverse_closure():
    entries = load_corpus(bundled_corpus_path())
    sspr = [e for e in entries if e.expected_grade is Grade.SSPR]
    assert sspr, "corpus must contain SSPR entries"
    ok = True
    for entry in sspr:
        inv_grade = classify_pr(inverse(entry.plant)).grade
        ok = ok and inv_grade is Grade.SSPR
    _line(2, ok, f"inverse of every SSPR entry graded SSPR ({len(sspr)} checked)")
    assert ok


def test_criterion_03_parseval_consistency():
    dt = 1e-3
    t_rect = dt * np.arange(int(1.0 / dt) + 1)
    rect = Signal(dt, np.ones(t_rect.size))
    t_exp = dt * np.arange(int(10.0 / dt) + 1)
    decay = Signal(dt, np.exp(-t_exp))
    t_sin = dt * np.arange(int(4.0 / dt) + 1)
    window = 0.5 * (1.0 - np.cos(2 * np.pi * t_sin / 4.0))
    windowed = Signal(dt, np.sin(2 * np.pi * 3.0 * t_sin) * window)

    worst = 0.0
    for sig in (rect, decay, windowed):
        te = inner_product(sig, sig)
        fe = frequency_energy(sig, sig)
        worst = max(worst, abs(te - fe) / (1.0 + abs(te)))
    ok = worst <= 1e-6
    _line(3, ok, f"time vs frequency energy, worst rel error {worst:.3e}")
    assert ok
    # anchor values: rect has unit energy, the decaying exponential one half
    assert inner_product(rect, rect) == pytest.approx(1.0, abs=1e-6)
    assert frequency_energy(decay, decay) == pytest.approx(0.5, abs=1e-5)


def test_criterion_04_sspr_bound_chain():
    sc = Scenario(
        plant=ratfun_new([2, 1], [1, 1]),
        device=DeviceSpec(kind="StaticSector", params={"k1": 1.0, "k2": 1.0}),
        x0=(2.0,), dt=1e-3, horizon=50.0,
    )
    run = run_closed_loop(sc)
    audit = run.bound_audit
    e_op, tol = audit.energy_op, audit.tol_bound
    chain_ok = (
        audit.violation_count == 0
        and bool(np.all(e_op <= audit.gamma0_sq + tol))
        and bool(np.all(e_op >= audit.lower["E >= d*int(u^2)"] - tol))
        and bool(np.all(audit.lower["E >= d*int(u^2)"][1:] > 0.0))
        and bool(np.all(e_op[1:] > 0.0))
    )
    peak_u = float(np.max(np.abs(run.u.values)))
    peak_y = float(np.max(np.abs(run.y.values)))
    settled = (abs(run.u.values[-1]) <= 1e-3 * peak_u
               and abs(run.y.values[-1]) <= 1e-3 * peak_y)
    ok = chain_ok and settled and run.verdict is Verdict.ASYMPTOTIC
    _line(4, ok, "SSPR chain gamma0^2 >= E >= d*int(u^2) > 0, "
                 f"{audit.violation_count} violations, verdict {run.verdict.value}")
    assert ok


def test_criterion_05_wspr_bound_chain_and_oracle():
    dt = 1e-4
    sc = Scenario(
        plant=ratfun_new([1], [1, 1]),
        device=DeviceSpec(kind="CubicOddPower", params={"p": 3}),
        x0=(1.0,), dt=dt, horizon=10.0,
    )
    run = run_closed_loop(sc)

    # independent oracle: RK4 of xdot = -x - x^3 at dt/10
    h = dt / 10.0
    x = 1.0
    oracle = np.empty(len(run.y))
    oracle[0] = x
    for k in range(1, oracle.size):
        for _ in range(10):
            k1 = -x - x**3
            x2 = x + 0.5 * h * k1
            k2 = -x2 - x2**3
            x3 = x + 0.5 * h * k2
            k3 = -x3 - x3**3
            x4 = x + h * k3
            k4 = -x4 - x4**3
            x += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        oracle[k] = x
    rms = float(np.sqrt(np.mean((run.y.values - oracle) ** 2)))
    oracle_ok = rms < 1e-4

    audit = run.bound_audit
    upper_ok = bool(np.all(audit.energy_op <= audit.gamma0_sq + audit.tol_bound))
    # hand value for g = 1/(s+1): (1 + w^2) Re g(jw) = 1 at every frequency
    c_w_ok = abs(audit.c_w - 1.0) <= 1e-9
    cw_violations = audit.chain_violations["E >= c_w*int(xi^2)"]
    chain_ok = cw_violations == 0
    # the closed form of int_0^inf x^3 for x = e^-t / sqrt(2 - e^-2t) is
    # 1 - pi/4, and u = -y^3: the input integral does not return to zero
    delta_end = float(input_integral(run.u).values[-1])
    delta_ok = abs(delta_end + (1.0 - math.pi / 4.0)) <= 1e-4
    sq_violations = audit.chain_violations["E >= d0*int(delta^2)"]
    ok = oracle_ok and upper_ok and c_w_ok and chain_ok and delta_ok
    _line(5, ok,
          f"WSPR oracle RMS {rms:.2e} (tol 1e-4); E >= c_w*int(xi^2) with "
          f"c_w = {audit.c_w:.12g}: {cw_violations} violations; "
          f"squared-frequency chain (not implied by WSPR, reported only): "
          f"{sq_violations} violations, since delta(10) = {delta_end:.6f} and "
          f"d0*int(delta^2) reaches "
          f"{audit.lower['E >= d0*int(delta^2)'][-1]:.3g} while E stays "
          f"near {audit.energy_op[-1]:.3g}")
    assert oracle_ok, f"trajectory oracle RMS {rms}"
    assert upper_ok
    assert c_w_ok, f"c_w = {audit.c_w}, hand value 1"
    assert chain_ok, (
        f"E(t) >= c_w*int(xi^2) holds for every WSPR plant, yet "
        f"{cw_violations} samples violate it"
    )
    assert delta_ok, (
        f"loop input integral {delta_end} at t = 10, closed form "
        f"{-(1.0 - math.pi / 4.0)}; see the README on the squared-frequency chain"
    )


def test_criterion_06_single_origin_pole_chain():
    sc = Scenario(
        plant=ratfun_new([1], [0, 1]),
        device=DeviceSpec(kind="StaticSector", params={"k1": 1.0, "k2": 1.0}),
        x0=(1.0,), dt=5e-6, horizon=10.0,
    )
    run = run_closed_loop(sc)
    t = run.y.times()
    rms = float(np.sqrt(np.mean((run.y.values - np.exp(-t)) ** 2)))
    audit = run.bound_audit
    ok = (rms < 1e-6 and audit.violation_count == 0
          and "E >= d1*int(delta_abs*|u|)" in audit.lower)
    _line(6, ok, f"origin-pole chain E >= d1*int(delta_abs*|u|), "
                 f"{audit.violation_count} violations; decay oracle RMS {rms:.2e}")
    assert ok


def test_criterion_07_necessity_of_plant_positivity():
    sc = Scenario(
        plant=ratfun_new([1], [-1, 1]),
        device=DeviceSpec(kind="StaticSector", params={"k1": 0.5, "k2": 0.5}),
        x0=(1.0,), dt=1e-3, horizon=50.0,
    )
    run = run_closed_loop(sc)
    # hand value: closed-loop dynamics x' = 0.5 x, guard at 1e9 trips at 2 ln 1e9
    t = run.y.times()
    grow = np.polyfit(t[1000:40000], np.log(np.abs(run.y.values[1000:40000])), 1)[0]
    ok = (run.verdict is Verdict.DIVERGED
          and run.diverged_at == pytest.approx(2 * math.log(1e9), abs=0.1)
          and grow == pytest.approx(0.5, abs=1e-3))
    _line(7, ok, f"non-positive plant diverged (growth rate {grow:.4f}, "
                 f"guard at t = {run.diverged_at:.1f} s)")
    assert ok


def test_criterion_08_device_quadrant_and_regenerative():
    rng = np.random.default_rng(2024)
    devices = [
        DeviceSpec(kind="StaticSector", params={"k1": 0.25, "k2": 3.0}),
        DeviceSpec(kind="CubicOddPower", params={"p": 5}),
        DeviceSpec(kind="TimeVaryingGain",
                   params=sampled_gain(lambda t: 1.0 + math.sin(t) ** 2, 10.0, 0.01)),
        DeviceSpec(kind="DeadzoneSector",
                   params={"k1": 0.0, "k2": 2.0, "deadzone": 0.3}),
    ]
    quadrant_ok = True
    gamma_ok = True
    dt = 1e-3
    for spec in devices:
        ys = rng.uniform(-8.0, 8.0, 10_000)
        ts = rng.uniform(0.0, 10.0, 10_000)
        vs = np.array([apply_device(spec, float(y), float(t))
                       for y, t in zip(ys, ts)])
        quadrant_ok = quadrant_ok and bool(np.all(vs * ys >= 0.0))
        # measured Popov constant on an ordered record built from the samples
        trace = energy_trace(Signal(dt, vs), Signal(dt, ys))
        gamma_ok = gamma_ok and max(0.0, -float(np.min(trace.E))) == 0.0

    pulse = Scenario(
        plant=ratfun_new([2, 1], [1, 1]),
        device=DeviceSpec(kind="RegenerativePulse",
                          params={"t_start": 0.0, "t_end": 1.0, "rate": 1.0}),
        x0=(0.0,), excitation=Excitation(amplitude=1e-4, duration=1e-3),
        dt=1e-3, horizon=10.0,
    )
    run = run_closed_loop(pulse)
    vy = energy_trace(run.v, run.y).E
    k_end = int(round(1.0 / pulse.dt))
    pulse_ok = bool(np.min(vy[1 : k_end + 1]) < 0.0)
    ok = quadrant_ok and gamma_ok and pulse_ok
    _line(8, ok, "10k random inputs per quadrant device: v*y >= 0, gamma0^2 = 0; "
                 "regenerative pulse drives <v,y>_t negative during injection")
    assert ok


def test_criterion_09_equivalence_oracles():
    entries = load_corpus(bundled_corpus_path())
    dt = 1e-3
    n = int(round(5.0 / dt)) + 1
    t = dt * np.arange(n)
    # the hold error of the state-space route is (dt/2)*(g conv du/dt), so the
    # comparison inputs are constants and a slowly varying sine: smooth,
    # bandlimited, and with hold error well below the tolerance
    inputs = (np.ones(n), np.full(n, -0.5), 1.0 + 0.001 * np.sin(t))
    worst = 0.0
    checked = 0
    for entry in entries:
        if stability_class(entry.plant) is StabilityClass.UNSTABLE:
            continue
        ss = realize(entry.plant)
        ir = impulse_response(entry.plant, T=5.0, dt=dt)
        for u_vals in inputs:
            u = Signal(dt, u_vals)
            y_conv = convolve(ir, u)
            y_ss = simulate_forced(ss, u, np.zeros(ss.order))
            rms = float(np.sqrt(np.mean((y_conv.values - y_ss.values) ** 2)))
            worst = max(worst, rms)
        checked += 1
    conv_ok = worst <= 1e-6

    # frequency- vs time-domain energy on the same records
    rng = np.random.default_rng(5)
    worst_parseval = 0.0
    for _ in range(10):
        u = Signal(dt, rng.standard_normal(2048))
        y = Signal(dt, rng.standard_normal(2048))
        te, fe = inner_product(u, y), frequency_energy(u, y)
        worst_parseval = max(worst_parseval, abs(te - fe) / (1.0 + abs(te)))
    parseval_ok = worst_parseval <= 1e-6
    ok = conv_ok and parseval_ok
    _line(9, ok, f"convolution vs state space on {checked} plants, worst RMS "
                 f"{worst:.2e}; DFT vs quadrature worst rel {worst_parseval:.2e}")
    assert ok


def test_criterion_10_determinism(tmp_path):
    sc = Scenario(
        plant=ratfun_new([2, 1], [1, 1]),
        device=DeviceSpec(kind="StaticSector", params={"k1": 1.0, "k2": 1.0}),
        x0=(2.0,), dt=1e-3, horizon=20.0,
    )
    paths = []
    for name in ("first", "second"):
        out = tmp_path / name
        write_run_artifacts(run_closed_loop(sc), out)
        paths.append(out)
    same_csv = (paths[0] / "traces.csv").read_bytes() == \
        (paths[1] / "traces.csv").read_bytes()
    same_json = (paths[0] / "report.json").read_bytes() == \
        (paths[1] / "report.json").read_bytes()
    ok = same_csv and same_json
    _line(10, ok, "repeated runs produce byte-identical traces.csv and report.json")
    assert ok

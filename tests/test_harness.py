"""Closed-loop runner: loop algebra, verdicts, bound chains, determinism."""

import dataclasses
import decimal
import json
import math
import operator
import re
from importlib import resources

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperstab import harness
from hyperstab.corpus import bundled_corpus_path, load_corpus
from hyperstab.devices import DeviceSpec, apply_device
from hyperstab.errors import (
    AlgebraicLoopNoConvergence,
    DimensionMismatch,
    GradeUnsupported,
    SchemaError,
)
from hyperstab.harness import (
    NEWTON_TOL,
    OVERFLOW_GUARD,
    Excitation,
    Scenario,
    Verdict,
    _hold,
    _simulate,
    _solve_output,
    convergence_verdict,
    run_closed_loop,
    run_report,
    scenario_from_json_dict,
    verify_bound_chain,
    write_run_artifacts,
)
from hyperstab.ltisim import realize, simulate_forced, zoh_hold
from hyperstab.ratfun import ratfun_new
from hyperstab.realness import Grade
from hyperstab.signals import Signal, energy_trace, read_trace_csv, signals_from_trace


def unit_sector():
    return DeviceSpec(kind="StaticSector", params={"k1": 1.0, "k2": 1.0})


def sspr_scenario(**kw):
    defaults = dict(
        plant=ratfun_new([2, 1], [1, 1]),
        device=unit_sector(),
        x0=(2.0,),
        dt=1e-3,
        horizon=50.0,
    )
    defaults.update(kw)
    return Scenario(**defaults)


class TestScenarioValidation:
    def test_zero_trajectory_guard(self):
        with pytest.raises(SchemaError):
            Scenario(plant=ratfun_new([1], [1, 1]), device=unit_sector(),
                     x0=(0.0,), dt=1e-3, horizon=1.0)

    def test_excitation_alone_is_enough(self):
        sc = Scenario(plant=ratfun_new([1], [1, 1]), device=unit_sector(),
                      x0=(0.0,), excitation=Excitation(1.0, 0.5),
                      dt=1e-3, horizon=1.0)
        assert sc.excitation.amplitude == 1.0

    def test_short_horizon_rejected(self):
        with pytest.raises(SchemaError):
            Scenario(plant=ratfun_new([1], [1, 1]), device=unit_sector(),
                     x0=(1.0,), dt=1e-3, horizon=0.05)

    def test_x0_dimension_checked_at_run(self):
        sc = sspr_scenario(x0=(1.0, 1.0))
        with pytest.raises(DimensionMismatch):
            run_closed_loop(sc)

    def test_json_round_trip(self):
        sc = sspr_scenario(excitation=Excitation(0.5, 1.0))
        back = scenario_from_json_dict(sc.to_json_dict())
        assert back.plant.isclose(sc.plant)
        assert back.device.kind is sc.device.kind
        assert back.x0 == sc.x0
        assert back.excitation.amplitude == 0.5

    def test_schema_errors_name_the_field(self):
        with pytest.raises(SchemaError, match="plant"):
            scenario_from_json_dict({"device": {"kind": "Relay"}})
        with pytest.raises(SchemaError, match="a scenario must be a JSON object"):
            scenario_from_json_dict([1])
        with pytest.raises(SchemaError, match="kind"):
            scenario_from_json_dict(
                {"plant": {"num": [1], "den": [1, 1]}, "device": {}, "x0": [1.0]}
            )

    @pytest.mark.parametrize("field, value, message", [
        ("plant", {"num": ["x"], "den": [1, 1]}, "bad plant coefficients"),
        ("excitation", {"amplitude": 1.0}, "excitation missing field 'duration'"),
        ("x0", ["a"], "could not convert"),
    ])
    def test_malformed_field(self, field, value, message):
        data = {"plant": {"num": [1], "den": [1, 1]}, "x0": [1.0],
                "device": {"kind": "StaticSector", "params": {"k1": 1.0}}}
        data[field] = value
        with pytest.raises(SchemaError, match=message):
            scenario_from_json_dict(data)


class TestAlgebraicLoop:
    def test_solve_output_linear(self):
        # y = c + D(e - k y) -> y = (c + D e)/(1 + D k)
        y, v, _ = _solve_output(1.0, 1.0, 0.0, lambda yy: yy, 1.0, 1.0, 0)
        assert y == pytest.approx(0.5, abs=1e-12)

    def test_solve_output_cubic(self):
        # y + D y^3 = c with c = 2, D = 1: root of y^3 + y - 2 = 0 is y = 1
        y, v, _ = _solve_output(2.0, 1.0, 0.0, lambda yy: yy**3, 2.0, 8.0, 0)
        assert y == pytest.approx(1.0, abs=1e-10)
        assert v == y**3

    def test_solve_output_relay(self):
        # y = c - D*a*sign(y): c = 2, D = 1, a = 1 -> y = 1
        y, v, _ = _solve_output(2.0, 1.0, 0.0,
                                lambda yy: 1.0 if yy > 0 else (-1.0 if yy < 0 else 0.0),
                                2.0, 1.0, 0)
        assert y == pytest.approx(1.0, abs=1e-9) and v == 1.0

    def test_newton_path_matches_affine_path(self):
        # the unit sector's loop through the affine kernel's closed-form solve,
        # and its law v = y, given here as a scalar law, through the generic
        # root solve: started from the previous output, each solve of
        # y = c + D (e - y), with c = y - D u, gives the recorded output
        run = run_closed_loop(sspr_scenario(horizon=2.0))
        assert run.kernel == "affine"
        D = realize(run.scenario.plant).D
        y, e = run.y.values, run.e.values
        c = y - D * run.u.values
        for k in range(1, len(y)):
            yk, _, _ = _solve_output(c[k], D, e[k], lambda yy: yy, y[k - 1], y[k - 1], k)
            scale = 1.0 + abs(c[k]) + abs(D * e[k])
            assert abs(yk - y[k]) <= 2.0 * NEWTON_TOL * scale
        assert run.verdict in (Verdict.ASYMPTOTIC, Verdict.HYPERSTABLE)

    def test_loop_algebra_exact(self):
        run = run_closed_loop(sspr_scenario(horizon=5.0))
        assert np.array_equal(run.u.values + run.v.values, run.e.values)

    def test_jump_across_loop_equation_raises(self):
        # relay through a pure feedthrough plant: y = e - sign(y) has no
        # solution for 0 < e < 1, and the solver must say so
        with pytest.raises(AlgebraicLoopNoConvergence):
            _solve_output(0.5, 1.0, 0.0,
                          lambda yy: 1.0 if yy > 0 else (-1.0 if yy < 0 else 0.0),
                          0.5, 1.0, 0)

    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from(["cubic", "quintic", "relay", "deadzone"]),
        st.floats(min_value=0.5, max_value=3.0),
        st.floats(min_value=1e-3, max_value=5.0),
        st.floats(min_value=-20.0, max_value=20.0),
        st.floats(min_value=-2.0, max_value=2.0),
        st.floats(min_value=-20.0, max_value=20.0),
    )
    def test_monotone_bracket_from_first_residual(self, name, a, D, c, e, y0):
        # for D > 0 and a nondecreasing device phi' >= 1, so the first trial
        # point, |phi(y0)| from y0, brackets the root: every later device call
        # lies between the first two, and the root meets the stop rule. The
        # relay and the deadzone jump, and for |c + D e| inside the jump
        # there is no root
        kind, params, gap = {
            "cubic": ("CubicOddPower", {"p": 3}, (0.0, 0.0)),
            "quintic": ("CubicOddPower", {"p": 5}, (0.0, 0.0)),
            "relay": ("Relay", {"amplitude": a}, (0.0, D * a)),
            "deadzone": ("DeadzoneSector",
                         {"k1": 0.0, "k2": a, "gain": a, "deadzone": 0.2},
                         (0.2, 0.2 * (1.0 + D * a))),
        }[name]
        f = DeviceSpec(kind=kind, params=params).law.f
        calls = []

        def device(yy):
            calls.append(yy)
            return f(yy)

        b = c + D * e
        assume(all(abs(abs(b) - edge) > 1e-6 for edge in gap))
        try:
            y, v, spent = _solve_output(c, D, e, device, y0, device(y0), 0)
        except AlgebraicLoopNoConvergence:
            assert gap[0] < abs(b) < gap[1]
            return
        assert not gap[0] < abs(b) < gap[1]
        scale = 1.0 + abs(c) + abs(D * e)
        assert abs(y - c - D * (e - f(y))) <= NEWTON_TOL * scale
        assert v == f(y)
        assert spent == len(calls)
        lo, hi = min(calls[:2]), max(calls[:2])
        assert all(lo <= yy <= hi for yy in calls[2:])

    def test_far_starts_reach_the_root(self):
        # a septic device with D up to 20, started up to 300 from the root;
        # the first three draws ran out of secant steps with the bracket open
        f = DeviceSpec(kind="CubicOddPower", params={"p": 7}).law.f
        draws = [
            (18.93033256829654, -8.506046202961453, 1.2440011872866918, -183.03200382749668),
            (19.529131983538544, -15.006711866427418, -1.5582818526982067, -31.2341405493695),
            (16.56507829907683, 14.943232198456947, 1.3699987236006228, -203.07100019342312),
        ]
        rng = np.random.default_rng(7)
        draws += rng.uniform([1e-3, -20, -2, -300], [20, 20, 2, 300], (3000, 4)).tolist()
        for D, c, e, y0 in draws:
            y, v, calls = _solve_output(c, D, e, f, y0, f(y0), 0)
            scale = 1.0 + abs(c) + abs(D * e)
            assert abs(y - c - D * (e - v)) <= 1e-9 * scale and v == f(y)
            assert calls < 2**16

    def test_rounded_first_trial_doubles_the_step(self):
        # from a start far from the root against the stop rule, the first
        # trial point y0 - phi(y0) is the root only up to the rounding of y0:
        # with a relay of amplitude 1 its residual keeps the start's sign here,
        # outside the stop rule, so the walk doubles its step to bracket the root
        f = DeviceSpec(kind="Relay", params={"amplitude": 1.0}).law.f
        for c, D, e, y0 in [
            (-2.826604669311902, 0.0016507807759281719, 6.921094153058999,
             -272408.10589462623),
            (2.1068393813500668e-06, 5.200861937532827e-05, 63.65222117346548,
             1974489.291928843),
        ]:
            scale = 1.0 + abs(c) + abs(D * e)
            r0 = y0 - c - D * (e - f(y0))
            trial = y0 - r0
            r1 = trial - c - D * (e - f(trial))
            assert r1 * r0 > 0.0 and abs(r1) > NEWTON_TOL * scale
            y, v, calls = _solve_output(c, D, e, f, y0, f(y0), 0)
            assert abs(y - c - D * (e - v)) <= NEWTON_TOL * scale and v == f(y)
            assert calls > 2

    def test_closed_bracket_accepts_a_residual_within_its_rounding(self):
        # y^10001 is so steep near its root that neighbouring floats give
        # residuals far apart: the bracket closes with |phi| = 2.1e-9 above
        # the stop rule's 1.5e-10, within the 1e-9 * scale of a closed bracket
        f = DeviceSpec(kind="CubicOddPower", params={"p": 10001}).law.f
        c = 146.357011801908
        y0 = c ** (1 / 10001)
        y, v, _ = _solve_output(c, 1.0, 0.0, f, y0, f(y0), 0)
        scale = 1.0 + abs(c)
        assert v == f(y)
        assert NEWTON_TOL * scale < abs(y - c + v) <= 1e-9 * scale

    def test_output_row_past_the_float_range_raises(self):
        # C x0 = 3e308 overflows, so the first output is past the overflow
        # guard: with D = 1 the solve cannot bracket a nan residual and ends
        # the record as the D = 0 twin 3/(1 + s) does, at step 0
        for num in ([4.0, 1.0], [3.0]):
            sc = Scenario(plant=ratfun_new(num, [1.0, 1.0]),
                          device=DeviceSpec(kind="CubicOddPower", params={"p": 41}),
                          x0=(1e308,), dt=1e-3, horizon=0.2)
            with pytest.raises(AlgebraicLoopNoConvergence,
                               match="trajectory left the overflow guard within the first step"):
                run_closed_loop(sc)

    @pytest.mark.parametrize("device", [
        DeviceSpec(kind="CubicOddPower", params={"p": 3}),
        DeviceSpec(kind="Relay", params={"amplitude": 0.5}),
        DeviceSpec(kind="DeadzoneSector",
                   params={"k1": 0.0, "k2": 1.0, "gain": 1.0, "deadzone": 0.5}),
    ], ids=lambda d: d.kind.value)
    @pytest.mark.parametrize("plant", [
        ([-0.5], [1.0]),
        ([1.0, -1.0], [1.0, 1.0]),
        ([2.0, 0.5, -0.1], [2.0, 3.0, 1.0]),
    ], ids=["n0", "n1", "n2"])
    def test_negative_feedthrough_is_refused_before_the_first_step(self, plant, device):
        # every device law is nondecreasing, so with D < 0 the loop equation
        # y = Cx + D(e - f(y)) can have several roots or none: (1 - s)/(1 + s)
        # has two under a relay while |Cx + De| < a, and none under the
        # deadzone once |Cx - e| > 0.5. Such a loop is not well-posed, and the
        # run is refused before its device is evaluated once
        g = ratfun_new(*plant)
        ss = realize(g)
        calls = []
        counted = DeviceSpec(device.kind, device.params)
        object.__setattr__(counted.law, "f", lambda y: calls.append(y) or device.law.f(y))
        sc = Scenario(plant=g, device=counted, x0=(1.0,) * ss.order,
                      excitation=Excitation(0.8, 0.5), dt=1e-3, horizon=1.0)
        message = f"ill-posed loop: a {device.kind.value} device through a plant with D = {ss.D} < 0"
        assert ss.D < 0.0
        with pytest.raises(AlgebraicLoopNoConvergence, match=re.escape(message)):
            run_closed_loop(sc)
        assert calls == []

    def test_relay_raises_at_the_step_with_no_root(self):
        # y = Cx + D(e - a sign(y)) has no root once 0 < |Cx| <= D a: the
        # output of (s+2)/(s+1) decays into that band at step 694
        sc = sspr_scenario(device=DeviceSpec(kind="Relay", params={"amplitude": 1.0}),
                           x0=(3.0,), horizon=5.0)
        with pytest.raises(AlgebraicLoopNoConvergence, match="at step 694:"):
            run_closed_loop(sc)

    def test_cubic_with_feedthrough_satisfies_implicit_equation(self):
        # plant (s+2)/(s+1) has D = 1; with v = y^3 each step solves
        # y = Cx + D(e - y^3); recorded traces must satisfy u = e - y^3
        sc = sspr_scenario(device=DeviceSpec(kind="CubicOddPower", params={"p": 3}),
                           horizon=12.0)
        run = run_closed_loop(sc)
        assert np.max(np.abs(run.u.values - (run.e.values - run.y.values**3))) < 1e-12
        assert run.verdict is Verdict.ASYMPTOTIC


# (numerator, denominator) ascending, keyed by (order, D != 0)
STEPPING_PLANTS = {
    (0, 1): ([2.0], [1.0]),
    (1, 0): ([1.0], [1.0, 1.0]),
    (1, 1): ([2.0, 1.0], [1.0, 1.0]),
    (2, 0): ([3.0, 1.0], [2.0, 3.0, 1.0]),
    (2, 1): ([3.0, 3.0, 1.0], [2.0, 3.0, 1.0]),
    (3, 0): ([1.0, 1.0, 1.0], [6.0, 11.0, 6.0, 1.0]),
    (3, 1): ([7.0, 12.0, 7.0, 1.0], [6.0, 11.0, 6.0, 1.0]),
    (4, 0): ([0.1875, 0.575, 0.45, 0.1], [24.0, 50.0, 35.0, 10.0, 1.0]),
    (4, 1): ([6.5625, 22.0, 21.5, 8.0, 1.0], [24.0, 50.0, 35.0, 10.0, 1.0]),
    (5, 0): ([0.65625, 2.2, 2.15, 0.8, 0.1], [120.0, 274.0, 225.0, 85.0, 15.0, 1.0]),
    (5, 1): ([29.53125, 105.5625, 118.75, 57.5, 12.5, 1.0],
             [120.0, 274.0, 225.0, 85.0, 15.0, 1.0]),
}


def assert_matches_forced_plant(run, ss):
    """The run's output is the plant's forced response to its recorded u,
    within the Newton solve's tolerance, and u and v follow from y."""
    assert run.diverged_at is None
    y = run.y.values
    ref = simulate_forced(ss, run.u, run.scenario.x0).values
    # relative to the scale the Newton solve stops at: 1 + |C x| + |D e|
    scale = 1.0 + np.abs(ref - ss.D * run.u.values) + np.abs(ss.D * run.e.values)
    assert np.all(np.abs(y - ref) <= 2.0 * NEWTON_TOL * scale)
    assert np.array_equal(run.u.values, run.e.values - run.v.values)
    device = run.scenario.device
    v = [apply_device(device, yk, tk) for yk, tk in zip(y, run.y.times())]
    assert np.array_equal(run.v.values, v)


class TestSteppingLoop:
    @pytest.mark.parametrize("device", [
        DeviceSpec(kind="StaticSector", params={"k1": 0.5, "k2": 2.0}),
        DeviceSpec(kind="CubicOddPower", params={"p": 3}),
    ], ids=lambda d: d.kind.value)
    @pytest.mark.parametrize("order, feedthrough", sorted(STEPPING_PLANTS),
                             ids=lambda v: str(v))
    def test_loop_matches_forced_plant_at_every_order(self, order, feedthrough,
                                                      device):
        g = ratfun_new(*STEPPING_PLANTS[order, feedthrough])
        ss = realize(g)
        assert ss.order == order and (ss.D != 0.0) == bool(feedthrough)
        x0 = tuple(0.5 * (i + 1) for i in range(order))
        sc = Scenario(plant=g, device=device, x0=x0,
                      excitation=Excitation(1.5, 0.3), dt=1e-2, horizon=3.0)
        assert_matches_forced_plant(run_closed_loop(sc), ss)

    def test_one_compiled_kernel_serves_every_plant_of_an_order(self, monkeypatch):
        # the kernel's source holds the plant order, whether D != 0 and
        # whether the device law is affine, not the coefficients: four order-4
        # plants, two with D = 0 and two without, under a time-invariant and
        # under an affine device compile one kernel of each kind
        compiled = []

        def counting_compile(source, filename, mode):
            compiled.append(filename)
            return compile(source, filename, mode)

        monkeypatch.setattr(harness, "_STEP_KERNELS", {})
        monkeypatch.setattr(harness, "compile", counting_compile, raising=False)
        kernels = []
        for device in (DeviceSpec(kind="CubicOddPower", params={"p": 3}),
                       DeviceSpec(kind="StaticSector", params={"k1": 0.5, "k2": 2.0})):
            affine = device.law.affine is not None
            for feedthrough in (0, 1):
                num, den = STEPPING_PLANTS[4, feedthrough]
                for gain in (1.0, 0.5):
                    g = ratfun_new([gain * a for a in num], den)
                    sc = Scenario(plant=g, device=device, x0=(0.5, 1.0, 1.5, 2.0),
                                  excitation=Excitation(1.5, 0.3), dt=1e-2, horizon=3.0)
                    run = run_closed_loop(sc)
                    assert run.kernel == ("affine" if affine
                                          else "newton" if feedthrough else "loop")
                    assert_matches_forced_plant(run, realize(g))
                    kernels.append(harness._STEP_KERNELS[4, bool(feedthrough), affine])
        assert compiled == ["<step kernel, order 4>", "<step kernel, order 4, feedthrough>",
                            "<step kernel, order 4, affine>",
                            "<step kernel, order 4, feedthrough, affine>"]
        assert all(kernels[i] is kernels[i + 1] for i in range(0, 8, 2))
        assert list(harness._STEP_KERNELS) == [(4, False, False), (4, True, False),
                                               (4, False, True), (4, True, True)]


def recorded_outputs(sc, u):
    """c_k = C x_k of each step of a loop driven by its recorded input u, in
    the kernel's arithmetic: the output and state rows summed left to right
    from 0.0 and from b*u."""
    ss, _, phi, _ = _hold(sc.plant, sc.dt)
    C = ss.C.reshape(-1).tolist()
    ad, bd = phi[:-2, :-2].tolist(), phi[:-2, -1].tolist()
    x, c = list(sc.x0), []
    for uk in u:
        c.append(sum(map(operator.mul, C, x), 0.0))
        x = [sum(map(operator.mul, row, x), b * uk) for row, b in zip(ad, bd)]
    return c


def solve_starts(run, c, f):
    """Each step's start for ``_solve_output``, (y, f(y)): c + D e at step 0,
    then the previous output and its device output."""
    D, e = realize(run.scenario.plant).D, run.e.values
    y0 = c[0] + D * e[0]
    return [(y0, f(y0)), *zip(run.y.values[:-1], run.v.values[:-1])]


def continued_solve_scenarios():
    """Loops through plants with D > 0, drawn from a seed, one per device:
    the odd powers 3 and 5 under a pulse, and a relay and a deadzone held by
    a lasting excitation away from the band where the loop has no root."""
    rng = np.random.default_rng(19)
    devices = [
        (DeviceSpec(kind="CubicOddPower", params={"p": 3}), Excitation(1.5, 0.4)),
        (DeviceSpec(kind="CubicOddPower", params={"p": 5}), Excitation(-2.0, 0.7)),
        (DeviceSpec(kind="Relay", params={"amplitude": 0.4}), Excitation(3.0, 5.0)),
        (DeviceSpec(kind="DeadzoneSector", params={
            "k1": 0.0, "k2": 2.0, "gain": 2.0, "deadzone": 0.2}), Excitation(3.0, 5.0)),
    ]
    scenarios = []
    for device, excitation in devices:
        for order in (1, 2):
            # g = D + sum k_i/(s + p_i), positive real, with D in [0.5, 2]
            D = float(rng.uniform(0.5, 2.0))
            k, p = rng.uniform(0.5, 3.0, (2, order))
            den = P.polyfromroots(-p)
            num = D * den
            for i in range(order):
                num[:order] += k[i] * P.polyfromroots(np.delete(-p, i))
            x0 = tuple(rng.uniform(0.5, 1.5, order).tolist())
            scenarios.append(Scenario(plant=ratfun_new(num.tolist(), den.tolist()),
                                      device=device, x0=x0,
                                      excitation=excitation, dt=1e-3, horizon=2.0))
    return scenarios


class TestContinuedSolve:
    @pytest.mark.parametrize("sc", continued_solve_scenarios(),
                             ids=lambda sc: f"{sc.device.kind.value}-n{len(sc.x0)}")
    def test_each_step_is_a_root_of_its_loop_equation(self, sc):
        # with D > 0 each step continues the secant of the step before; every
        # recorded output is the root the bracketed solve reaches from the
        # previous output, within the stop rule on both sides, and its device
        # output is the device's, computed once
        f = sc.device.law.f
        device_calls = []

        def counting(y):
            device_calls.append(y)
            return f(y)

        counted = dataclasses.replace(sc, device=DeviceSpec(sc.device.kind, sc.device.params))
        object.__setattr__(counted.device.law, "f", counting)
        run = run_closed_loop(counted)
        assert run.kernel == "newton" and run.diverged_at is None
        y, v, e, u = run.y.values, run.v.values, run.e.values, run.u.values
        assert np.array_equal(v, [f(yk) for yk in y])
        # one device call per residual but the first of each step after
        # step 0, which reuses the previous step's device output
        evaluations = run.solve_evaluations
        assert evaluations.sum() == len(y)
        assert len(device_calls) == evaluations @ np.arange(len(evaluations)) - (len(y) - 1)
        assert evaluations[2:].sum() > len(y) // 2  # most steps took a secant step
        # the bracketed solve resumes from the last secant point, not from the
        # previous output, so few steps take 8 or more residuals
        assert evaluations[8:].sum() < 0.01 * len(y)
        D = realize(sc.plant).D
        c = recorded_outputs(sc, u)
        for k, start in enumerate(solve_starts(run, c, f)):
            scale = 1.0 + abs(c[k]) + abs(D * e[k])
            assert abs(y[k] - c[k] - D * (e[k] - v[k])) <= NEWTON_TOL * scale
            again, _, _ = _solve_output(c[k], D, e[k], f, *start, k)
            assert abs(again - y[k]) <= 2.0 * NEWTON_TOL * scale

    @pytest.mark.parametrize("x0, root", [(10.0, 1.0219683285902323),
                                          (1000.0, 1.0707753467663943)])
    def test_secant_past_the_float_range_restarts_the_solve(self, x0, root):
        # (s + 2)/(s + 1) has C = D = 1, so step 0 solves y + y**101 = x0, which
        # has one root; from y = x0 the secant steps to an output whose device
        # output overflows, and the bracketed solve starts again from c + D e
        # instead of from a residual that is not finite
        sc = Scenario(plant=ratfun_new([2.0, 1.0], [1.0, 1.0]),
                      device=DeviceSpec(kind="CubicOddPower", params={"p": 101}),
                      x0=(x0,), dt=1e-2, horizon=2.0)
        run = run_closed_loop(sc)
        assert run.kernel == "newton" and run.diverged_at is None
        y0, v0 = run.y.values[0], run.v.values[0]
        assert y0 == root
        assert abs(y0 - x0 + v0) <= NEWTON_TOL * (1.0 + x0)

    def test_device_overflow_at_the_start_raises(self):
        # f(2000) = 2000**101 is not finite, so no start has a finite residual
        sc = Scenario(plant=ratfun_new([2.0, 1.0], [1.0, 1.0]),
                      device=DeviceSpec(kind="CubicOddPower", params={"p": 101}),
                      x0=(2000.0,), dt=1e-2, horizon=2.0)
        with pytest.raises(AlgebraicLoopNoConvergence, match="at step 0"):
            run_closed_loop(sc)


AFFINE_DEVICES = [
    DeviceSpec(kind="StaticSector", params={"k1": 0.5, "k2": 2.0}),
    # sample_dt = 0.37 is not a multiple of dt = 0.01, and the last sample
    # holds from t = 2.22 to the end
    DeviceSpec(kind="TimeVaryingGain",
               params={"samples": [0.5, 2.0, 1.0, 0.0, 3.0, 1.5], "sample_dt": 0.37}),
    # a gain that changes exactly at samples 256 and 512 of dt = 0.01
    DeviceSpec(kind="TimeVaryingGain",
               params={"samples": [1.0, 2.0, 0.5], "sample_dt": 2.56}),
    # pulse edges on a sample (t = 0.5, t = 1.0) and between two
    DeviceSpec(kind="RegenerativePulse",
               params={"t_start": 0.5, "t_end": 1.234, "rate": 1.0}),
    DeviceSpec(kind="RegenerativePulse",
               params={"t_start": 0.123, "t_end": 1.0, "rate": 1.0}),
]


def demo_scenario(name):
    path = resources.files("hyperstab").joinpath(f"data/scenarios/{name}.json")
    return scenario_from_json_dict(json.loads(path.read_text()))


class TestAffineKernel:
    @pytest.mark.parametrize("device", AFFINE_DEVICES, ids=lambda d: d.kind.value)
    @pytest.mark.parametrize("order, feedthrough", sorted(STEPPING_PLANTS),
                             ids=lambda v: str(v))
    def test_kernel_matches_forced_plant(self, order, feedthrough, device):
        g = ratfun_new(*STEPPING_PLANTS[order, feedthrough])
        ss = realize(g)
        x0 = tuple(0.5 * (i + 1) for i in range(order))
        # 1001 samples, with the excitation ending at t = 0.3
        sc = Scenario(plant=g, device=device, x0=x0,
                      excitation=Excitation(1.5, 0.3), dt=1e-2, horizon=10.0)
        run = run_closed_loop(sc)
        assert run.kernel == "affine" and run.diverged_at is None
        t = run.y.times()
        y = run.y.values
        ref = simulate_forced(ss, run.u, x0).values
        assert np.max(np.abs(y - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))
        v = [apply_device(device, yk, tk) for yk, tk in zip(y, t)]
        assert np.array_equal(run.v.values, v)
        assert np.array_equal(run.u.values, run.e.values - run.v.values)
        assert np.array_equal(run.e.values, np.where(t < 0.3, 1.5, 0.0))

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(min_value=0, max_value=3),
        st.sampled_from(["D = 0", "D > 0", "D < 0"]),
        st.data(),
    )
    def test_kernel_matches_forced_plant_on_drawn_loops(self, order, sign, data):
        # a stable plant of the drawn order, strictly proper, with D > 0, or
        # NotPR with D < 0, under a static sector or a table of gains: y is the
        # plant's forced response to the recorded u, and v the device's law
        assume(order > 0 or sign != "D = 0")
        coefficient = st.floats(min_value=-2.0, max_value=2.0)
        poles = data.draw(st.lists(st.floats(min_value=-3.0, max_value=-0.2),
                                   min_size=order, max_size=order))
        D = {"D = 0": 0.0,
             "D > 0": data.draw(st.floats(min_value=0.1, max_value=2.0)),
             "D < 0": data.draw(st.floats(min_value=-2.0, max_value=-0.1))}[sign]
        num = data.draw(st.lists(coefficient, min_size=order, max_size=order)) + [D]
        g = ratfun_new(num, P.polyfromroots(poles) if order else [1.0])
        ss = realize(g)
        assume(ss.order == order and ss.D == D)
        gain = st.floats(min_value=0.0, max_value=3.0)
        if data.draw(st.booleans()):
            device = DeviceSpec(kind="StaticSector", params={"k1": 0.0, "k2": data.draw(gain)})
        else:
            device = DeviceSpec(kind="TimeVaryingGain", params={
                "samples": data.draw(st.lists(gain, min_size=1, max_size=5)),
                "sample_dt": data.draw(st.floats(min_value=0.05, max_value=1.0))})
        x0 = tuple(data.draw(st.lists(coefficient, min_size=order, max_size=order)))
        sc = Scenario(plant=g, device=device, x0=x0,
                      excitation=Excitation(data.draw(st.floats(0.25, 2.0)), 0.3),
                      dt=1e-2, horizon=2.0)
        t = np.arange(201) * sc.dt
        assume(np.min(np.abs(1.0 + D * device.law.affine[0](t))) > 0.1)
        run = run_closed_loop(sc)
        assert run.kernel == "affine"
        y = run.y.values
        ref = simulate_forced(ss, run.u, x0).values
        assert np.max(np.abs(y - ref)) <= 1e-12 * (1.0 + np.max(np.abs(ref)))
        v = [apply_device(device, yk, tk) for yk, tk in zip(y, run.y.times())]
        assert np.array_equal(run.v.values, v)

    def test_divergence_at_first_sample_past_guard(self):
        # 1/(s - 1) under a gain that drops from 3 to 0.5 between two samples
        # (t = 1.003): the output decays, then grows at rate 0.5
        g = ratfun_new([1.0], [-1.0, 1.0])
        device = DeviceSpec(kind="TimeVaryingGain",
                            params={"samples": [3.0, 0.5], "sample_dt": 1.003})
        sc = Scenario(plant=g, device=device, x0=(1.0,), dt=1e-2, horizon=60.0)
        run = run_closed_loop(sc)
        # the same recurrence stepped one sample at a time; y = x here
        phi = zoh_hold(realize(g), sc.dt)[1]
        ad, bd = float(phi[0, 0]), float(phi[0, -1])
        x, k = 1.0, 0
        while abs(x) <= OVERFLOW_GUARD:
            x = ad * x - bd * apply_device(device, x, k * sc.dt)
            k += 1
        assert run.verdict is Verdict.DIVERGED
        assert run.diverged_at == k * sc.dt
        assert len(run.y) == len(run.u) == k
        assert np.all(np.abs(run.y.values) <= OVERFLOW_GUARD)

    def test_degenerate_loop_raises_at_first_reached_step(self, monkeypatch):
        # with D = -1, 1 + D*k = 0 where the gain reaches 1, and there the loop
        # has no unique output: g = -1 reaches it at t = 0 under a constant
        # gain, and at the first sample with floor(t/0.37) = 2 under a
        # time-varying one. (2 - s)/(s - 10) under gain 0.1, its closed-loop
        # pole at 10.9, would leave the guard at sample 171, before its gain
        # reaches 1 at sample 250: well-posedness is the loop's, not the
        # trajectory's, so that run is refused as well, before any step
        refused = [
            (ratfun_new([-1.0], [1.0]), (),
             DeviceSpec(kind="StaticSector", params={"k1": 1.0, "k2": 1.0}), 0),
            (ratfun_new([-1.0], [1.0]), (),
             DeviceSpec(kind="TimeVaryingGain",
                        params={"samples": [0.5, 0.25, 1.0], "sample_dt": 0.37}), 74),
            (ratfun_new([2.0, -1.0], [-10.0, 1.0]), (1.0,),
             DeviceSpec(kind="TimeVaryingGain",
                        params={"samples": [0.1, 1.0], "sample_dt": 2.5}), 250),
        ]
        with monkeypatch.context() as patched:
            patched.setattr(harness, "_step_kernel", None)  # no sample is stepped
            for g, x0, device, step in refused:
                sc = Scenario(plant=g, device=device, x0=x0,
                              excitation=Excitation(1.0, 0.5), dt=1e-2, horizon=3.0)
                with pytest.raises(AlgebraicLoopNoConvergence,
                                   match=rf"degenerate affine loop at step {step}: "
                                         r"1 \+ D\*k = 0\.0$"):
                    run_closed_loop(sc)
        # under a gain of 0.5 from t = 2.5 the same loop is well-posed, and it
        # is a diverged run
        sc = Scenario(plant=ratfun_new([2.0, -1.0], [-10.0, 1.0]),
                      device=DeviceSpec(kind="TimeVaryingGain",
                                        params={"samples": [0.1, 0.5], "sample_dt": 2.5}),
                      x0=(1.0,), dt=1e-2, horizon=5.0)
        run = run_closed_loop(sc)
        assert run.verdict is Verdict.DIVERGED and len(run.y) == 171
        assert run.diverged_at == 171 * sc.dt

    def test_integrator_demo_matches_exact_powers(self):
        # 1/s under unit gain: y_k = (1 - dt)^k exactly, for the binary dt
        sc = demo_scenario("integrator_unit_gain")
        u, y, v, e, diverged_at, kernel, _ = _simulate(sc, _hold(sc.plant, sc.dt))
        assert kernel == "affine" and diverged_at is None and len(y) == 2_000_001
        with decimal.localcontext() as ctx:
            ctx.prec = 40
            base = 1 - decimal.Decimal(sc.dt)
            for k in (10**3, 10**5, 10**6, 2 * 10**6):
                assert abs(y[k] - float(base**k)) <= 1e-13


class TestKernel:
    @pytest.mark.parametrize("name, kernel", [
        ("sspr_sector", "affine"),
        ("wspr_cubic", "loop"),
        ("integrator_unit_gain", "affine"),
        ("regenerative_pulse", "affine"),
        ("unstable_gain", "affine"),
    ])
    def test_demo_kernels(self, name, kernel):
        # the path depends on the device and on D only, so a short horizon will do
        sc = dataclasses.replace(demo_scenario(name), horizon=1.0)
        run = run_closed_loop(sc)
        assert run.kernel == kernel
        assert run_report(run)["kernel"] == kernel
        # no demo solves a loop equation: none has a nonlinear device with D != 0
        assert run.solve_evaluations is None
        assert run_report(run)["solve_evaluations"] is None

    def test_newton_kernel(self):
        sc = sspr_scenario(device=DeviceSpec(kind="CubicOddPower", params={"p": 3}),
                           horizon=1.0)
        run = run_closed_loop(sc)
        report = run_report(run)
        assert report["kernel"] == "newton"
        # one histogram entry per recorded step, indexed by device calls
        assert run.solve_evaluations.sum() == len(run.y)
        assert report["solve_evaluations"] == run.solve_evaluations.tolist()
        assert run.solve_evaluations[0] == 0
        # the solve of the step that leaves the overflow guard is not counted
        sc = Scenario(plant=ratfun_new([2.0, 1.0], [-1.0, 1.0]),
                      device=DeviceSpec(kind="Relay", params={"amplitude": 0.1}),
                      x0=(5.0,), dt=1e-3, horizon=30.0)
        run = run_closed_loop(sc)
        assert run.kernel == "newton" and run.diverged_at is not None
        assert run.solve_evaluations.sum() == len(run.y)


class TestSSPRRun:
    def test_closed_loop_pole_matches_hand_value(self):
        # g/(1+g) = (s+2)/(2s+3): pole at -1.5; the loop output must decay
        # as exp(-1.5 t)
        run = run_closed_loop(sspr_scenario(horizon=10.0))
        t = run.y.times()
        expected = np.exp(-1.5 * t)  # y(0) = 1 by x0 = 2
        rms = float(np.sqrt(np.mean((run.y.values - expected) ** 2)))
        assert rms < 1e-3

    def test_monotone_decay_to_zero(self):
        run = run_closed_loop(sspr_scenario())
        y_abs = np.abs(run.y.values)
        assert np.all(np.diff(y_abs) <= 1e-15)
        assert y_abs[-1] < 1e-3 * y_abs[0]
        assert run.verdict is Verdict.ASYMPTOTIC

    def test_bound_chain_zero_violations(self):
        run = run_closed_loop(sspr_scenario())
        audit = run.bound_audit
        assert audit.violation_count == 0
        assert "E >= d*int(u^2)" in audit.lower and "E >= d_inv*int(y^2)" in audit.lower
        # both sides strictly positive for t > 0
        assert np.all(audit.energy_op[1:] > 0.0)
        assert np.all(audit.lower["E >= d*int(u^2)"][1:] > 0.0)

    def test_gamma0_dominates_energy(self):
        run = run_closed_loop(sspr_scenario())
        audit = run.bound_audit
        assert np.all(audit.energy_op <= audit.gamma0_sq + audit.tol_bound)

    def test_pulse_excited_run_from_zero_state(self):
        # with x0 = 0 the operator energy is the loop's own <u, y>_t. The
        # trace energy's trapezoid straddles the switch-off at t = 1, so the
        # reference is the held input stepped by simulate_forced on a grid 64
        # times finer, up to t = 3, where the difference has settled
        sc = sspr_scenario(
            x0=(0.0,), excitation=Excitation(amplitude=1.0, duration=1.0),
            horizon=30.0,
        )
        run = run_closed_loop(sc)
        audit = run.bound_audit
        assert audit.violation_count == 0
        assert run.verdict is Verdict.ASYMPTOTIC
        held = run.u.values[:3001]
        fine = Signal(sc.dt / 64, np.append(np.repeat(held[:-1], 64), held[-1]))
        reference = energy_trace(fine, simulate_forced(realize(sc.plant), fine, (0.0,))).E
        assert float(np.max(np.abs(audit.energy_op[:3001] - reference[::64]))) < 1e-5
        assert audit.gamma0_sq >= audit.energy_op[-1]

    def test_energy_side_consistency(self, tmp_path):
        run = run_closed_loop(sspr_scenario(horizon=5.0))
        write_run_artifacts(run, tmp_path)
        cols = read_trace_csv(tmp_path / "traces.csv")
        signals = signals_from_trace(cols)
        recomputed = energy_trace(signals["u"], signals["y"]).E
        assert np.max(np.abs(recomputed - cols["E"])) <= 1e-12


class TestOriginPoleRun:
    def test_closed_form_decay(self):
        sc = Scenario(plant=ratfun_new([1], [0, 1]), device=unit_sector(),
                      x0=(1.0,), dt=1e-4, horizon=10.0)
        run = run_closed_loop(sc)
        t = run.y.times()
        rms = float(np.sqrt(np.mean((run.y.values - np.exp(-t)) ** 2)))
        assert rms < 1e-4
        assert run.classification.grade is Grade.PR
        assert run.classification.single_pole_at_origin

    def test_d1_chain_holds_exactly(self):
        sc = Scenario(plant=ratfun_new([1], [0, 1]), device=unit_sector(),
                      x0=(1.0,), dt=1e-4, horizon=10.0)
        run = run_closed_loop(sc)
        audit = run.bound_audit
        assert "E >= d1*int(delta_abs*|u|)" in audit.lower
        assert audit.violation_count == 0
        # single-signed input: the derived-function chain is tight
        gap = audit.energy_op - audit.lower["E >= d1*int(delta_abs*|u|)"]
        assert np.max(np.abs(gap)) < 1e-10

    def test_relay_on_integrator_at_least_hyperstable(self):
        sc = Scenario(plant=ratfun_new([1], [0, 1]),
                      device=DeviceSpec(kind="Relay", params={"amplitude": 1.0}),
                      x0=(1.0,), dt=1e-3, horizon=5.0)
        run = run_closed_loop(sc)
        # piecewise-linear decay reaches zero at t = 1, then chatters at the
        # sample scale; trace stays bounded
        assert run.verdict in (Verdict.ASYMPTOTIC, Verdict.HYPERSTABLE)
        assert np.max(np.abs(run.y.values)) <= 1.0 + 1e-9


class TestDivergence:
    def test_unstable_plant_diverges(self):
        sc = Scenario(plant=ratfun_new([1], [-1, 1]),
                      device=DeviceSpec(kind="StaticSector",
                                        params={"k1": 0.5, "k2": 0.5}),
                      x0=(1.0,), dt=1e-3, horizon=50.0)
        run = run_closed_loop(sc)
        assert run.verdict is Verdict.DIVERGED
        # closed-loop growth rate +0.5: the guard at 1e9 trips near 2 ln 1e9
        assert run.diverged_at == pytest.approx(2 * math.log(1e9), abs=0.1)
        assert run.bound_audit is None

    def test_verify_bound_chain_rejects_diverged(self):
        sc = Scenario(plant=ratfun_new([1], [-1, 1]),
                      device=DeviceSpec(kind="StaticSector",
                                        params={"k1": 0.5, "k2": 0.5}),
                      x0=(1.0,), dt=1e-3, horizon=50.0)
        run = run_closed_loop(sc)
        with pytest.raises(GradeUnsupported):
            verify_bound_chain(run)


class TestGradeEdges:
    def test_bounded_not_pr_run_gets_no_chain(self):
        # (s-1)/(s+1) is stable but not positive real: the loop still settles,
        # yet no bound chain is defined for it
        sc = Scenario(plant=ratfun_new([-1, 1], [1, 1]), device=unit_sector(),
                      x0=(1.0,), dt=1e-3, horizon=10.0)
        run = run_closed_loop(sc)
        assert run.classification.grade is Grade.NOT_PR
        assert run.bound_audit is None
        assert run.verdict is Verdict.HYPERSTABLE
        with pytest.raises(GradeUnsupported):
            verify_bound_chain(run)

    def test_lossless_plant_has_upper_audit_only(self):
        # s/(s^2+1) is PR without an origin pole: the audit carries the
        # energy trace and the measured constant but no lower-bound chain
        sc = Scenario(plant=ratfun_new([0, 1], [1, 0, 1]), device=unit_sector(),
                      x0=(1.0, 0.0), dt=1e-3, horizon=10.0)
        run = run_closed_loop(sc)
        audit = run.bound_audit
        assert audit is not None
        assert audit.lower == {} and audit.chain_violations == {}
        assert audit.violation_count == 0
        assert "no lower bound chain" in audit.note
        assert np.all(audit.energy_op <= audit.gamma0_sq + audit.tol_bound)


class TestWSPRRun:
    def test_cubic_feedback_matches_ode_oracle(self):
        dt = 1e-4
        sc = Scenario(plant=ratfun_new([1], [1, 1]),
                      device=DeviceSpec(kind="CubicOddPower", params={"p": 3}),
                      x0=(1.0,), dt=dt, horizon=8.0)
        run = run_closed_loop(sc)
        # closed form of xdot = -x - x^3, x(0) = 1: x = e^-t / sqrt(2 - e^-2t)
        t = run.y.times()
        closed = np.exp(-t) / np.sqrt(2.0 - np.exp(-2.0 * t))
        rms = float(np.sqrt(np.mean((run.y.values - closed) ** 2)))
        assert rms < 1e-4

    def test_squared_frequency_chain_is_reported_not_satisfied(self):
        # the d0 chain diverges linearly once the input integral settles at a
        # nonzero value, so violations accumulate: the audit records them
        sc = Scenario(plant=ratfun_new([1], [1, 1]),
                      device=DeviceSpec(kind="CubicOddPower", params={"p": 3}),
                      x0=(1.0,), dt=1e-3, horizon=10.0)
        run = run_closed_loop(sc)
        audit = run.bound_audit
        assert "E >= d0*int(delta^2)" in audit.lower
        assert audit.violation_count > 0
        assert len(audit.violations) == 50
        assert audit.violations[0].inequality == "E >= d0*int(delta^2)"

    def test_valid_wspr_chain_on_rc_ladder(self):
        # corpus rc_ladder, g = (s+2)/((s+1)(s+3)): (1+x) Re g = 2(x+3)/(x+9)
        # with x = w^2 rises from 2/3 at x = 0 to d0 = 2, so c_w = 2/3
        entry = next(e for e in load_corpus(bundled_corpus_path())
                     if e.id == "rc_ladder")
        sc = Scenario(plant=entry.plant,
                      device=DeviceSpec(kind="CubicOddPower", params={"p": 3}),
                      x0=(1.0, 0.0), dt=1e-3, horizon=10.0)
        run = run_closed_loop(sc)
        audit = run.bound_audit
        assert run.classification.grade is Grade.WSPR
        assert audit.c_w == pytest.approx(2.0 / 3.0, rel=1e-9)
        assert run.classification.d0 == pytest.approx(2.0, rel=1e-6)
        assert audit.chain_violations["E >= c_w*int(xi^2)"] == 0
        assert np.all(audit.lower["E >= c_w*int(xi^2)"][1:] > 0.0)
        assert sum(audit.chain_violations.values()) == audit.violation_count
        fresh = verify_bound_chain(run)
        assert fresh.chain_violations == audit.chain_violations
        report = run_report(run)["bound_chain"]
        assert report["chain_violation_counts"] == audit.chain_violations
        assert report["chains"]["c_w"] == audit.c_w


CHAIN_LOOPS = {
    "sspr_sector": sspr_scenario(),
    "wspr_cubic": Scenario(plant=ratfun_new([1], [1, 1]),
                           device=DeviceSpec(kind="CubicOddPower", params={"p": 3}),
                           x0=(1.0,), dt=1e-3, horizon=10.0),
    "origin_pole": Scenario(plant=ratfun_new([1], [0, 1]), device=unit_sector(),
                            x0=(1.0,), dt=1e-3, horizon=10.0),
}

# the chains that read only the held input, not the zero states
HELD_INPUT_CHAINS = ("E >= d*int(u^2)", "E >= d0*int(delta^2)",
                     "E >= d1*int(delta_abs*|u|)")


class TestChainTable:
    @pytest.mark.parametrize("name", list(CHAIN_LOOPS))
    def test_chain_traces_nondecreasing(self, name):
        run = run_closed_loop(CHAIN_LOOPS[name])
        audit = run.bound_audit
        assert audit.lower and audit.lower.keys() == audit.chain_violations.keys()
        for trace in audit.lower.values():
            assert np.all(np.diff(trace) >= -1e-15)
        report = run_report(run)["bound_chain"]
        extra = {"c_w"} if run.classification.grade is Grade.WSPR else set()
        assert set(report["chains"]) == set(report["chain_violation_counts"]) | extra


# the implied chains of each loop; the origin-pole loop's d1 chain is tight
REFINED_CHAINS = {
    "sspr_sector": ("E >= d*int(u^2)", "E >= d_inv*int(y^2)"),
    "regenerative_pulse": ("E >= d*int(u^2)", "E >= d_inv*int(y^2)"),
    "wspr_cubic": ("E >= c_w*int(xi^2)",),
    "origin_pole": ("E >= d1*int(delta_abs*|u|)",),
}


class TestExactAudit:
    """The audit integrates the loop's own zero-order hold exactly."""

    def test_integrator_energy_is_half_delta_squared(self):
        # g = 1/s: E_op(t) = int u*delta = delta(t)^2/2 with delta = int u,
        # here for an input that changes sign
        sc = Scenario(plant=ratfun_new([1], [0, 1]),
                      device=DeviceSpec(kind="Relay", params={"amplitude": 1.0}),
                      x0=(1.0,), dt=1e-3, horizon=3.0)
        run = run_closed_loop(sc)
        u, e_op = run.u.values, run.bound_audit.energy_op
        assert np.min(u) < 0.0 < np.max(u)
        delta = sc.dt * np.concatenate(([0.0], np.cumsum(u[:-1])))
        assert np.max(np.abs(e_op - delta**2 / 2)) <= 1e-12 * (1.0 + np.max(e_op))

    def test_lag_energy_is_storage_plus_xi_chain(self):
        # g = 1/(s+1) is the lag itself, so y = xi and E_op = int (xi' + xi) xi
        # = xi(t)^2/2 + int xi^2; xi follows the exact first-order recurrence
        sc = dataclasses.replace(CHAIN_LOOPS["wspr_cubic"], horizon=2.0)
        run = run_closed_loop(sc)
        audit = run.bound_audit
        decay = math.exp(-sc.dt)
        xi = np.zeros(len(run.u))
        for k in range(len(xi) - 1):
            xi[k + 1] = decay * xi[k] - math.expm1(-sc.dt) * run.u.values[k]
        storage = audit.energy_op - audit.lower["E >= c_w*int(xi^2)"] / audit.c_w
        assert np.max(np.abs(storage - xi**2 / 2)) <= 1e-12 * (1.0 + np.max(audit.energy_op))

    @pytest.mark.parametrize("block", [
        lambda n: 1000, lambda n: n - 2, lambda n: n - 3, lambda n: (n - 2) // 2,
    ], ids=["1000", "one_block", "last_block_of_one_state", "two_blocks"])
    @pytest.mark.parametrize("name", list(CHAIN_LOOPS))
    def test_blocked_audit_matches_one_pass(self, name, block, monkeypatch):
        # in blocks of the zero states (a record of n samples has n - 2), the
        # audit of the 10,001 samples agrees with the one-pass audit up to
        # round-off where it reads z, and bit for bit where it reads only the
        # held input: the blocks just hold that input's increments
        run = run_closed_loop(CHAIN_LOOPS[name])
        one = run.bound_audit
        monkeypatch.setattr(harness, "BLOCK", block(len(run.u)))
        blocked = verify_bound_chain(run)
        scale = 1e-12 * (1.0 + np.max(np.abs(one.energy_op)))
        assert np.max(np.abs(blocked.energy_op - one.energy_op)) <= scale
        assert blocked.lower.keys() == one.lower.keys()
        for chain, trace in one.lower.items():
            assert np.max(np.abs(blocked.lower[chain] - trace)) <= scale
            if chain in HELD_INPUT_CHAINS:
                assert np.array_equal(blocked.lower[chain], trace)
        assert blocked.chain_violations == one.chain_violations

    @pytest.mark.parametrize("name", list(REFINED_CHAINS))
    def test_chains_hold_at_every_refinement(self, name):
        # the implied chains hold at every sample after t = 0 at dt, dt/2 and
        # dt/4, up to round-off; their slack at the first sample scales as
        # dt^2, so no margin beyond round-off is asserted. The origin-pole
        # loop's input keeps one sign, which makes its d1 chain tight
        base = CHAIN_LOOPS[name] if name == "origin_pole" else demo_scenario(name)
        if name == "wspr_cubic":
            base = dataclasses.replace(base, horizon=5.0)
        for k in (1, 2, 4):
            audit = run_closed_loop(dataclasses.replace(base, dt=base.dt / k)).bound_audit
            e_op = audit.energy_op[1:]
            for chain in REFINED_CHAINS[name]:
                assert audit.chain_violations[chain] == 0
                slack = e_op - audit.lower[chain][1:]
                assert np.all(slack >= -1e-12 * (1.0 + np.abs(e_op)))


class TestOtherDevices:
    def test_deadzone_loop_decays_and_audits_clean(self):
        sc = Scenario(
            plant=ratfun_new([1], [1, 1]),
            device=DeviceSpec(kind="DeadzoneSector",
                              params={"k1": 0.0, "k2": 2.0, "deadzone": 0.2}),
            x0=(1.0,), dt=1e-3, horizon=10.0,
        )
        run = run_closed_loop(sc)
        # plant pole at -1 decays the state on its own once inside the zone
        assert abs(run.y.values[-1]) < 1e-3
        assert run.device_status.measured_gamma0_sq == 0.0
        assert np.max(np.abs(run.y.values)) <= 1.0

    def test_time_varying_gain_loop(self):
        from hyperstab.devices import sampled_gain

        sc = Scenario(
            plant=ratfun_new([1], [1, 1]),
            device=DeviceSpec(kind="TimeVaryingGain",
                              params=sampled_gain(lambda t: 1.0 + math.sin(t) ** 2,
                                                  10.0, 1e-3)),
            x0=(1.0,), dt=1e-3, horizon=10.0,
        )
        run = run_closed_loop(sc)
        # gain k(t) >= 1 makes decay at least as fast as exp(-2t)
        t = run.y.times()
        assert np.all(run.y.values <= np.exp(-t) + 1e-9)
        assert run.device_status.measured_gamma0_sq == 0.0
        assert np.array_equal(run.u.values, -run.v.values)


class TestRegenerativePulseRun:
    def test_pulse_injects_and_loop_still_settles(self):
        sc = Scenario(
            plant=ratfun_new([2, 1], [1, 1]),
            device=DeviceSpec(kind="RegenerativePulse",
                              params={"t_start": 0.0, "t_end": 1.0, "rate": 1.0}),
            x0=(0.0,), excitation=Excitation(amplitude=1e-4, duration=1e-3),
            dt=1e-3, horizon=20.0,
        )
        run = run_closed_loop(sc)
        status = run.device_status
        assert status.injection_energy_negative
        assert status.measured_gamma0_sq > 0.0
        vy = energy_trace(run.v, run.y)
        k_half = int(round(0.5 / sc.dt))
        assert vy.E[k_half] < 0.0
        assert run.verdict in (Verdict.ASYMPTOTIC, Verdict.HYPERSTABLE)


class TestBatchAndDeterminism:
    def test_repeat_runs_byte_identical(self, tmp_path):
        sc = sspr_scenario(horizon=5.0)
        d1, d2 = tmp_path / "a", tmp_path / "b"
        write_run_artifacts(run_closed_loop(sc), d1)
        write_run_artifacts(run_closed_loop(sc), d2)
        assert (d1 / "traces.csv").read_bytes() == (d2 / "traces.csv").read_bytes()
        assert (d1 / "report.json").read_bytes() == (d2 / "report.json").read_bytes()


class TestFrequencyRouteCrossCheck:
    def test_operator_energy_matches_spectral_form(self):
        # the audited energy <u, g*u>_t has an equivalent spectral form,
        # (2 pi)^-1 * integral of Re g(jw) |u_hat(jw)|^2 dw; evaluating it by
        # FFT must land close, limited only by the spectral tail of the
        # input's initial jump (|u_hat|^2 ~ 1/w^2 near the Nyquist edge)
        from hyperstab.ratfun import freq_response_array

        sc = sspr_scenario()
        run = run_closed_loop(sc)
        e_op = run.bound_audit.energy_op[-1]
        u = run.u.values
        dt = sc.dt
        m = 1 << int(math.ceil(math.log2(4 * u.size)))
        w = np.ones(u.size)
        w[0] = w[-1] = 0.5
        uhat = np.fft.rfft(u * w, m) * dt
        freqs = 2 * np.pi * np.fft.rfftfreq(m, dt)
        re_g = freq_response_array(sc.plant, freqs).real
        weights = np.full(freqs.size, 2.0)
        weights[0] = 1.0
        if m % 2 == 0:
            weights[-1] = 1.0
        dw = 2 * np.pi / (m * dt)
        e_freq = float(np.sum(weights * re_g * np.abs(uhat) ** 2) * dw / (2 * np.pi))
        assert abs(e_op - e_freq) / (1.0 + abs(e_op)) < 1e-3


class TestReport:
    def test_report_shape(self):
        run = run_closed_loop(sspr_scenario(horizon=5.0))
        rep = run_report(run)
        assert rep["verdict"] == Verdict.ASYMPTOTIC.value
        assert rep["classification"]["grade"] == "SSPR"
        assert rep["bound_violations"] == []
        assert rep["gamma0_sq"] >= 0.0
        # gamma0_sq_trace is the value an audit of the serialized (u, y)
        # columns reproduces
        trace_gamma = max(0.0, -float(np.min(run.E.E)))
        assert rep["gamma0_sq_trace"] == trace_gamma

    def test_convergence_verdict_recompute(self):
        run = run_closed_loop(sspr_scenario())
        assert convergence_verdict(run) is run.verdict

    def test_verify_bound_chain_recompute_matches_stored(self):
        run = run_closed_loop(sspr_scenario(horizon=5.0))
        fresh = verify_bound_chain(run)
        assert fresh.gamma0_sq == run.bound_audit.gamma0_sq
        assert np.array_equal(fresh.energy_op, run.bound_audit.energy_op)
        assert fresh.violation_count == run.bound_audit.violation_count

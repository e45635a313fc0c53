"""Feedback devices: quadrant property, sector containment, Popov audits."""

import json
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperstab.cli import main
from hyperstab.devices import (
    DeviceKind,
    DeviceSpec,
    PopovDeclaration,
    apply_device,
    device_popov_audit,
    sampled_gain,
)
from hyperstab.errors import (DeclarationViolated, InvalidParams, SchemaError,
                              TimeOutOfRange)
from hyperstab.harness import scenario_from_json_dict
from hyperstab.signals import Signal, energy_trace


def quadrant_devices():
    return [
        DeviceSpec(kind=DeviceKind.STATIC_SECTOR, params={"k1": 0.5, "k2": 2.0}),
        DeviceSpec(kind=DeviceKind.CUBIC_ODD_POWER, params={"p": 3}),
        DeviceSpec(
            kind=DeviceKind.TIME_VARYING_GAIN,
            params=sampled_gain(lambda t: 1.0 + np.sin(t) ** 2, 10.0, 0.01),
        ),
        DeviceSpec(kind=DeviceKind.DEADZONE_SECTOR,
                   params={"k1": 0.0, "k2": 1.5, "deadzone": 0.2}),
        DeviceSpec(kind=DeviceKind.RELAY, params={"amplitude": 1.0}),
    ]


class TestApplyDevice:
    def test_cubic(self):
        v = apply_device(DeviceSpec(kind="CubicOddPower", params={"p": 3}), 2.0, 0.0)
        assert v == 8.0

    def test_odd_power_past_float_range_is_infinite(self):
        spec = DeviceSpec(kind="CubicOddPower", params={"p": 5})
        assert apply_device(spec, 1e62, 0.0) == float("inf")
        assert apply_device(spec, -1e62, 0.0) == float("-inf")
        assert apply_device(spec, 1e61, 0.0) == 1e61 ** 5

    def test_unit_sector(self):
        spec = DeviceSpec(kind="StaticSector", params={"k1": 1.0, "k2": 1.0})
        v = apply_device(spec, -0.5, 0.0)
        assert v == -0.5

    @pytest.mark.parametrize("kind", ["StaticSector", "DeadzoneSector"])
    @pytest.mark.parametrize("k1, k2", [(1e308, 1.5e308), (sys.float_info.max,) * 2,
                                        (0.0, sys.float_info.max)])
    def test_default_gain_of_a_sector_near_the_float_maximum(self, kind, k1, k2):
        # k1 + k2 overflows in the first two; the default gain stays in [k1, k2]
        spec = DeviceSpec(kind=kind, params={"k1": k1, "k2": k2})
        gain = apply_device(spec, 1.0, 0.0)
        assert math.isfinite(gain) and k1 <= gain <= k2

    def test_relay_zero_input_zero_output(self):
        spec = DeviceSpec(kind="Relay", params={"amplitude": 1.0})
        assert apply_device(spec, 0.0, 0.0) == 0.0
        assert apply_device(spec, 0.3, 0.0) == 1.0
        assert apply_device(spec, -0.3, 0.0) == -1.0

    def test_deadzone(self):
        spec = DeviceSpec(kind="DeadzoneSector",
                          params={"k1": 0.0, "k2": 2.0, "deadzone": 0.5, "gain": 2.0})
        assert apply_device(spec, 0.4, 0.0) == 0.0
        assert apply_device(spec, 1.0, 0.0) == 2.0

    def test_time_varying_gain_lookup(self):
        spec = DeviceSpec(kind="TimeVaryingGain",
                          params={"samples": [1.0, 2.0, 3.0], "sample_dt": 1.0})
        assert apply_device(spec, 1.0, 0.0) == 1.0
        assert apply_device(spec, 1.0, 1.5) == 2.0
        assert apply_device(spec, 1.0, 99.0) == 3.0  # held at the last sample
        # t/sample_dt too large for an index, and at 5e-324 for a float
        for sdt in (1e-300, 5e-324):
            spec = DeviceSpec(kind="TimeVaryingGain",
                              params={"samples": [0.5, 4.0], "sample_dt": sdt})
            assert apply_device(spec, 1.0, 0.0) == 0.5
            assert apply_device(spec, 1.0, 0.37) == 4.0

    @pytest.mark.parametrize("t", [-1.5, -1e-300, math.nan, math.inf, -math.inf])
    def test_time_outside_a_run_raises_for_every_kind(self, t):
        # the gain table was read from its end at t = -1.5 (giving 3.0), and
        # a nan t raised a bare RuntimeWarning; every kind shares the contract
        table = DeviceSpec(kind="TimeVaryingGain",
                           params={"samples": [1.0, 2.0, 3.0], "sample_dt": 1.0})
        pulse = DeviceSpec(kind="RegenerativePulse",
                           params={"t_start": 1.0, "t_end": 2.0, "rate": 0.7})
        for spec in (*quadrant_devices(), table, pulse):
            with pytest.raises(TimeOutOfRange, match="finite and nonnegative"):
                apply_device(spec, 1.0, t)
        assert apply_device(table, 1.0, -0.0) == 1.0

    def test_regenerative_pulse_window(self):
        spec = DeviceSpec(kind="RegenerativePulse",
                          params={"t_start": 1.0, "t_end": 2.0, "rate": 0.7})
        assert apply_device(spec, 5.0, 0.5) == 0.0
        assert apply_device(spec, 5.0, 1.0) == -0.7  # on from t_start
        assert apply_device(spec, 5.0, 1.5) == -0.7
        assert apply_device(spec, 5.0, 2.0) == 0.0

    def test_zero_in_zero_out_for_quadrant_kinds(self):
        for spec in quadrant_devices():
            v = apply_device(spec, 0.0, 3.21)
            assert v == 0.0

    def test_each_kind_has_exactly_one_rule(self):
        # the affine kinds are read on a time grid, the others from y alone
        pulse = DeviceSpec(kind=DeviceKind.REGENERATIVE_PULSE,
                           params={"t_start": 1.0, "t_end": 2.0, "rate": 0.7})
        specs = {spec.kind: spec for spec in (*quadrant_devices(), pulse)}
        assert set(specs) == set(DeviceKind)
        for spec in specs.values():
            law = spec.law
            assert (law.f is None) != (law.affine is None)
            if law.f is not None:
                assert law.f(-0.5) == apply_device(spec, -0.5, 7.0)
        affine = {kind for kind, spec in specs.items() if spec.law.affine is not None}
        assert affine == {DeviceKind.STATIC_SECTOR, DeviceKind.TIME_VARYING_GAIN,
                          DeviceKind.REGENERATIVE_PULSE}


class TestFrozenParams:
    def test_params_are_read_only_and_match_the_law(self):
        source = {"k1": 1.0, "k2": 1.0}
        spec = DeviceSpec(kind="StaticSector", params=source)
        with pytest.raises(TypeError):
            spec.params["k1"] = 3.0
        source["k1"] = source["k2"] = 3.0  # the caller's dict was copied
        assert apply_device(spec, 1.0, 0.0) == 1.0
        as_json = spec.to_json_dict()
        assert type(as_json["params"]) is dict
        assert as_json["params"] == {"k1": 1.0, "k2": 1.0}

    def test_list_params_are_frozen_too(self):
        samples = [1.0, 1.0]
        spec = DeviceSpec(kind="TimeVaryingGain",
                          params={"samples": samples, "sample_dt": 0.5})
        with pytest.raises(TypeError):
            spec.params["samples"][0] = 5.0
        samples[0] = 5.0  # the caller's list was copied
        assert apply_device(spec, 1.0, 0.0) == 1.0
        assert spec.to_json_dict()["params"] == {"samples": [1.0, 1.0], "sample_dt": 0.5}

    def test_array_params_are_frozen_too(self):
        samples = np.array([1.0, 2.0])
        spec = DeviceSpec(kind="TimeVaryingGain",
                          params={"samples": samples, "sample_dt": 0.5})
        samples[:] = 9.0  # the caller's array was copied
        assert spec.params["samples"] == (1.0, 2.0)
        assert [apply_device(spec, 1.0, t) for t in (0.0, 0.5)] == [1.0, 2.0]
        assert json.loads(json.dumps(spec.to_json_dict()))["params"] == {
            "samples": [1.0, 2.0], "sample_dt": 0.5}

    def test_spec_rebuilt_from_its_params(self):
        spec = DeviceSpec(kind="Relay", params={"amplitude": 2.0})
        again = DeviceSpec(kind=spec.kind, params=spec.params)
        assert again == spec
        assert apply_device(again, -0.5, 0.0) == -2.0


class TestInvalidParams:
    def test_bad_sector(self):
        with pytest.raises(InvalidParams):
            DeviceSpec(kind="StaticSector", params={"k1": 2.0, "k2": 1.0})
        with pytest.raises(InvalidParams):
            DeviceSpec(kind="StaticSector", params={"k1": -1.0, "k2": 1.0})

    def test_even_power(self):
        with pytest.raises(InvalidParams):
            DeviceSpec(kind="CubicOddPower", params={"p": 2})

    def test_negative_gain_samples(self):
        with pytest.raises(InvalidParams):
            DeviceSpec(kind="TimeVaryingGain",
                       params={"samples": [1.0, -0.1], "sample_dt": 0.1})

    def test_deadzone_with_positive_k1(self):
        with pytest.raises(InvalidParams):
            DeviceSpec(kind="DeadzoneSector",
                       params={"k1": 0.5, "k2": 1.0, "deadzone": 0.1})

    def test_empty_pulse(self):
        with pytest.raises(InvalidParams):
            DeviceSpec(kind="RegenerativePulse",
                       params={"t_start": 2.0, "t_end": 1.0, "rate": 1.0})

    @pytest.mark.parametrize("kind, params", [
        ("StaticSector", {"k1": None}),
        ("StaticSector", {"k1": "abc"}),
        ("StaticSector", {"k1": 0.5, "k2": math.inf}),
        ("TimeVaryingGain", {"samples": [1.0, 2.0], "sample_dt": math.nan}),
        ("TimeVaryingGain", {"samples": [1.0, None], "sample_dt": 0.1}),
        ("CubicOddPower", {"p": "abc"}),
        ("RegenerativePulse", {"t_start": 0.0, "t_end": math.inf, "rate": 1.0}),
        ("Relay", ["amplitude", 1.0]),
    ])
    def test_malformed_params(self, kind, params):
        with pytest.raises(InvalidParams):
            DeviceSpec(kind=kind, params=params)

    @pytest.mark.parametrize("kind, params, message", [
        ("StaticSector", {"k1": 1.0, "k2": 2.0, "gain": 3.0}, "inside"),
        ("DeadzoneSector", {"k2": 1.0, "deadzone": -0.1}, "nonnegative"),
        ("TimeVaryingGain", {"samples": ["a"], "sample_dt": 0.1}, "list of numbers"),
        ("TimeVaryingGain", {"samples": [], "sample_dt": 0.1}, "sample_dt > 0"),
        ("TimeVaryingGain", {"samples": [1.0], "sample_dt": 0.0}, "sample_dt > 0"),
        ("Relay", {"amplitude": 0.0}, "positive"),
        ("RegenerativePulse", {"t_start": 0.0, "t_end": 1.0, "rate": 0.0}, "positive"),
    ])
    def test_out_of_range_params_exit_2(self, kind, params, message, capsys, tmp_path):
        with pytest.raises(InvalidParams, match=message):
            DeviceSpec(kind=kind, params=params)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"plant": {"num": [1], "den": [1, 1]}, "x0": [1.0],
                                    "device": {"kind": kind, "params": params}}))
        code = main(["simulate", "--scenario", str(path), "--out-dir", str(tmp_path / "run")])
        assert code == 2 and message in capsys.readouterr().err

    def test_unknown_kind_named_only_for_unknown_kinds(self):
        def scenario(kind, params):
            return {"plant": {"num": [1], "den": [1, 1]}, "x0": [1.0],
                    "device": {"kind": kind, "params": params}}

        with pytest.raises(SchemaError, match="unknown device kind"):
            scenario_from_json_dict(scenario("Sector", {"k1": 1.0}))
        with pytest.raises(InvalidParams, match="k1"):
            scenario_from_json_dict(scenario("StaticSector", {"k1": "abc"}))


class TestQuadrantProperty:
    def test_ten_thousand_random_inputs_per_device(self):
        rng = np.random.default_rng(42)
        ys = rng.uniform(-10.0, 10.0, 10_000)
        ts = rng.uniform(0.0, 10.0, 10_000)
        for spec in quadrant_devices():
            products = np.array(
                [apply_device(spec, float(y), float(t)) * y
                 for y, t in zip(ys, ts)]
            )
            assert np.all(products >= 0.0), spec.kind

    def test_sector_containment_randomized(self):
        rng = np.random.default_rng(7)
        spec = DeviceSpec(kind="StaticSector",
                          params={"k1": 0.5, "k2": 2.0, "gain": 1.3})
        for y in rng.uniform(-5, 5, 1000):
            v = apply_device(spec, float(y), 0.0)
            assert 0.5 * y * y - 1e-12 <= v * y <= 2.0 * y * y + 1e-12

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=-100, max_value=100),
           st.floats(min_value=0, max_value=100))
    def test_quadrant_holds_pointwise(self, y, t):
        for spec in quadrant_devices():
            v = apply_device(spec, y, t)
            assert v * y >= 0.0

    def test_static_sector_monotone(self):
        spec = DeviceSpec(kind="StaticSector", params={"k1": 0.5, "k2": 2.0})
        ys = np.linspace(-3, 3, 101)
        vs = [apply_device(spec, float(y), 0.0) for y in ys]
        assert np.all(np.diff(vs) >= 0.0)


class TestPopovAudit:
    def test_quadrant_devices_measure_zero(self):
        rng = np.random.default_rng(3)
        dt = 1e-3
        yv = rng.standard_normal(5000)
        for spec in quadrant_devices():
            t = dt * np.arange(yv.size)
            vv = np.array([apply_device(spec, float(y), float(tt))
                           for y, tt in zip(yv, t)])
            status = device_popov_audit(spec, Signal(dt, vv), Signal(dt, yv))
            assert status.declared is PopovDeclaration.ALWAYS_ZERO_GAMMA
            assert status.measured_gamma0_sq == 0.0

    def test_declaration_violation_detected(self):
        spec = DeviceSpec(kind="CubicOddPower", params={"p": 3})
        dt = 1e-3
        y = Signal(dt, np.ones(100))
        v = Signal(dt, -np.ones(100))  # impossible output for this device
        with pytest.raises(DeclarationViolated):
            device_popov_audit(spec, v, y)

    def test_regenerative_pulse_injects(self):
        spec = DeviceSpec(kind="RegenerativePulse",
                          params={"t_start": 0.0, "t_end": 1.0, "rate": 1.0})
        dt = 1e-3
        t = dt * np.arange(2001)
        y = Signal(dt, np.full(t.size, 2.0))  # positive output throughout
        v = Signal(dt, np.array([apply_device(spec, 2.0, float(tt)) for tt in t]))
        status = device_popov_audit(spec, v, y)
        assert status.declared is PopovDeclaration.FINITE_GAMMA
        # <v,y>_t = -2t during the pulse: strictly negative, finite constant
        assert status.injection_energy_negative
        assert status.measured_gamma0_sq == pytest.approx(2.0, rel=1e-3)
        trace = energy_trace(v, y)
        k = int(round(0.5 / dt))
        assert trace.E[k] == pytest.approx(-1.0, rel=1e-6)

    def test_declared_status(self):
        assert (DeviceSpec(kind="CubicOddPower", params={"p": 1}).law.declared
                is PopovDeclaration.ALWAYS_ZERO_GAMMA)
        assert (DeviceSpec(kind="RegenerativePulse",
                           params={"t_start": 0.0, "t_end": 1.0, "rate": 1.0}).law.declared
                is PopovDeclaration.FINITE_GAMMA)

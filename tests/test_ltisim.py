"""Realization, impulse response, forced simulation and convolution."""

import math

import numpy as np
import pytest

from scipy.linalg import expm

from hyperstab.corpus import bundled_corpus_path, load_corpus
from hyperstab.errors import DimensionMismatch
from hyperstab.ltisim import (
    ImpulseResponse,
    convolve,
    impulse_response,
    power_record,
    realize,
    simulate_forced,
    zoh_hold,
)
from hyperstab.ratfun import ratfun_new
from hyperstab.realness import Grade, classify_pr
from hyperstab.scenario import MAX_STEPS
from hyperstab.signals import Signal

DT = 1e-3


def step(T=5.0, dt=DT, level=1.0):
    return Signal(dt, np.full(int(round(T / dt)) + 1, level))


class TestRealize:
    def test_first_order_lag(self):
        ss = realize(ratfun_new([1], [1, 1]))
        assert ss.A.shape == (1, 1)
        assert ss.A[0, 0] == pytest.approx(-1.0)
        assert ss.B[0, 0] == pytest.approx(1.0)
        assert ss.C[0, 0] == pytest.approx(1.0)
        assert ss.D == 0.0

    def test_feedthrough_split(self):
        # (s+2)/(s+1) = 1 + 1/(s+1) by polynomial division
        ss = realize(ratfun_new([2, 1], [1, 1]))
        assert ss.D == pytest.approx(1.0)
        assert ss.C[0, 0] == pytest.approx(1.0)
        assert ss.A[0, 0] == pytest.approx(-1.0)

    def test_degenerate_pass_through(self):
        ss = realize(ratfun_new([1], [1]))
        assert ss.order == 0
        assert ss.D == pytest.approx(1.0)

    def test_reconstruction_on_default_grid(self):
        from hyperstab.ratfun import freq_response

        for num, den in [([2, 1], [1, 1]), ([2, 3, 1], [2, 2, 1]),
                         ([1, 1], [0, 2, 1]), ([1], [1, 3, 3, 1])]:
            g = ratfun_new(num, den)
            ss = realize(g)
            for w in np.geomspace(1e-4, 1e6, 25):
                expected = freq_response(g, w)
                got = ss.transfer_at(1j * w)
                assert got == pytest.approx(expected, rel=1e-8)


class TestImpulseResponse:
    def test_first_order_lag(self):
        ir = impulse_response(ratfun_new([1], [1, 1]), T=5.0, dt=DT)
        t = ir.g.times()
        assert np.max(np.abs(ir.g.values - np.exp(-t))) < 1e-12
        assert ir.direct_delta_weight == 0.0

    def test_horizon_shorter_than_step_rejected(self):
        with pytest.raises(ValueError, match="T >= dt"):
            impulse_response(ratfun_new([1], [1, 1]), T=1e-4, dt=DT)
        # a grid that is not finite, or asks for more than MAX_STEPS samples,
        # is refused the same way before any sample is made
        for T, dt in ((math.nan, 0.1), (1.0, math.nan), (math.inf, 0.1),
                      (1.0, math.inf)):
            with pytest.raises(ValueError, match="T >= dt"):
                impulse_response(ratfun_new([1], [1, 1]), T=T, dt=dt)
        with pytest.raises(ValueError, match=f"T/dt <= {MAX_STEPS}"):
            impulse_response(ratfun_new([1], [1, 1]), T=1e12, dt=1e-3)

    def test_integrator_does_not_decay(self):
        ir = impulse_response(ratfun_new([1], [0, 1]), T=5.0, dt=DT)
        assert np.allclose(ir.g.values, 1.0)

    def test_partial_fractions_by_hand(self):
        # 1/((s+1)(s+2)) = 1/(s+1) - 1/(s+2): g(t) = e^-t - e^-2t
        ir = impulse_response(ratfun_new([1], [2, 3, 1]), T=5.0, dt=DT)
        t = ir.g.times()
        expected = np.exp(-t) - np.exp(-2 * t)
        assert np.max(np.abs(ir.g.values - expected)) < 1e-10

    def test_delta_weight_carried_symbolically(self):
        ir = impulse_response(ratfun_new([2, 1], [1, 1]), T=1.0, dt=DT)
        assert ir.direct_delta_weight == pytest.approx(1.0)
        t = ir.g.times()
        assert np.max(np.abs(ir.g.values - np.exp(-t))) < 1e-12


    @pytest.mark.parametrize("T, dt", [(5.0, DT), (20.0, 1e-2)])
    def test_samples_the_zoh_plant_block(self, T, dt):
        for entry in load_corpus(bundled_corpus_path()):
            ss = realize(entry.plant)
            n, b, c = ss.order, ss.B.ravel(), ss.C.ravel()
            samples = impulse_response(entry.plant, T, dt).g.values
            ad = zoh_hold(ss, dt)[1][:n, :n]
            assert samples.tobytes() == (power_record(ad, b, len(samples)) @ c).tobytes()
            # e^(A dt) taken on its own agrees to rounding
            alone = power_record(expm(ss.A * dt), b, len(samples)) @ c
            assert np.max(np.abs(samples - alone)) <= 1e-14 * np.max(np.abs(alone)), entry.id


class TestSimulateForced:
    def test_free_response(self):
        ss = realize(ratfun_new([1], [1, 1]))
        y = simulate_forced(ss, step(level=0.0), [1.0])
        assert np.max(np.abs(y.values - np.exp(-y.times()))) < 1e-12

    def test_zero_everything(self):
        ss = realize(ratfun_new([2, 1], [1, 1]))
        y = simulate_forced(ss, step(level=0.0), [0.0])
        assert np.all(y.values == 0.0)

    def test_step_response_closed_form(self):
        ss = realize(ratfun_new([1], [1, 1]))
        y = simulate_forced(ss, step(), [0.0])
        expected = 1.0 - np.exp(-y.times())
        assert np.max(np.abs(y.values - expected)) < 1e-8

    def test_dimension_mismatch(self):
        ss = realize(ratfun_new([1], [1, 1]))
        with pytest.raises(DimensionMismatch):
            simulate_forced(ss, step(), [1.0, 0.0])

    def test_superposition(self):
        ss = realize(ratfun_new([1, 2], [2, 3, 1]))
        rng = np.random.default_rng(5)
        u1 = Signal(DT, rng.standard_normal(2000))
        u2 = Signal(DT, rng.standard_normal(2000))
        x0 = np.zeros(2)
        y1 = simulate_forced(ss, u1, x0)
        y2 = simulate_forced(ss, u2, x0)
        combined = simulate_forced(ss, Signal(DT, u1.values + 2 * u2.values), x0)
        assert np.max(np.abs(combined.values - y1.values - 2 * y2.values)) < 1e-10

    def test_time_invariance(self):
        ss = realize(ratfun_new([1], [1, 1]))
        shift = 250
        base = np.zeros(2000)
        base[400:900] = 1.0
        y0 = simulate_forced(ss, Signal(DT, base), [0.0])
        y1 = simulate_forced(ss, Signal(DT, np.roll(base, shift)), [0.0])
        assert np.max(np.abs(y1.values[shift:] - y0.values[:-shift])) < 1e-12


class TestConvolve:
    def test_step_response(self):
        g = ratfun_new([1], [1, 1])
        ir = impulse_response(g, T=5.0, dt=DT)
        y = convolve(ir, step())
        expected = 1.0 - np.exp(-y.times())
        assert np.max(np.abs(y.values - expected)) < 1e-7

    def test_identity_operator(self):
        ir = ImpulseResponse(
            g=Signal(DT, np.zeros(100)), direct_delta_weight=1.0
        )
        rng = np.random.default_rng(9)
        u = Signal(DT, rng.standard_normal(100))
        y = convolve(ir, u)
        assert np.array_equal(y.values, u.values)

    def test_zero_input(self):
        ir = impulse_response(ratfun_new([1], [1, 1]), T=1.0, dt=DT)
        y = convolve(ir, step(T=1.0, level=0.0))
        assert np.all(y.values == 0.0)

    def test_short_kernel_rejected(self):
        from hyperstab.errors import GridMismatch

        ir = impulse_response(ratfun_new([1], [1, 1]), T=1.0, dt=DT)
        with pytest.raises(GridMismatch):
            convolve(ir, step(T=2.0))
        with pytest.raises(GridMismatch):
            convolve(ir, step(T=1.0, dt=2 * DT))

    def test_matches_state_space_for_piecewise_constant_input(self):
        # ZOH simulation is exact for inputs held constant between samples,
        # so the trapezoidal convolution must land within quadrature error
        for num, den in [([1], [1, 1]), ([2, 1], [1, 1]), ([1], [2, 3, 1])]:
            g = ratfun_new(num, den)
            ss = realize(g)
            ir = impulse_response(g, T=5.0, dt=DT)
            u = step()
            y_conv = convolve(ir, u)
            y_ss = simulate_forced(ss, u, np.zeros(ss.order))
            rms = np.sqrt(np.mean((y_conv.values - y_ss.values) ** 2))
            assert rms < 1e-6


def test_sspr_impulse_response_changes_sign():
    # positive realness is a property of the operator, not of its kernel:
    # (s^2+3s+2)/(s^2+2s+2) is SSPR, yet the kernel of its strictly proper
    # part s/((s+1)^2+1) is e^-t (cos t - sin t), negative on (pi/4, 5pi/4)
    g = ratfun_new([2, 3, 1], [2, 2, 1])
    assert classify_pr(g).grade is Grade.SSPR
    ir = impulse_response(g, T=20.0, dt=DT)
    assert ir.direct_delta_weight == 1.0
    t = ir.g.times()
    assert np.max(np.abs(ir.g.values - np.exp(-t) * (np.cos(t) - np.sin(t)))) < 1e-9
    assert ir.g.values.min() < -0.05 and ir.g.values.max() > 0.05

"""Feedback devices for the negative-feedback loop, with Popov declarations.

Every device maps the plant output y to its own output v. Each device kind has
one entry in ``_LAWS``: it reads and checks the kind's parameters once, when
the ``DeviceSpec`` is built, and returns the kind's ``DeviceLaw``. Evaluation
(``apply_device``, the closed-loop runner), the Popov declaration and the
device audit all read that one law, and each kind has one rule in it: the
static sector, the time-varying gain and the pulse are affine in y with
time-varying coefficients, evaluated on a whole time grid; the odd power, the
relay and the deadzone are time-invariant maps of y alone.

The quadrant devices (static sector, odd power, time-varying gain, deadzone,
relay) guarantee v*y >= 0 pointwise, hence a zero Popov constant. The
regenerative pulse is the designated counter-agent: on its configured interval
it injects energy regardless of y, which makes its running input/output
integral go negative while staying bounded, so a finite Popov constant still
exists. Devices are memoryless.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable

import numpy as np

from .errors import DeclarationViolated, InvalidParams, TimeOutOfRange, is_number
from .signals import Signal, energy_trace

QUADRANT_GAMMA_TOL = 1e-12


class DeviceKind(str, enum.Enum):
    STATIC_SECTOR = "StaticSector"
    CUBIC_ODD_POWER = "CubicOddPower"
    TIME_VARYING_GAIN = "TimeVaryingGain"
    RELAY = "Relay"
    REGENERATIVE_PULSE = "RegenerativePulse"
    DEADZONE_SECTOR = "DeadzoneSector"


class PopovDeclaration(str, enum.Enum):
    ALWAYS_ZERO_GAMMA = "AlwaysPopovWithZeroGamma"
    FINITE_GAMMA = "PopovWithFiniteGamma"


@dataclass(frozen=True)
class DeviceLaw:
    """One device kind with its parameters bound, by exactly one rule.

    ``affine`` is ``(gain(t), offset(t))`` when F(y, t) = gain(t)*y +
    offset(t): both take the whole time grid as an array and return a new
    array with one value per sample, so the closed loop can be stepped as a
    linear recurrence. Otherwise ``affine`` is None and ``f(y)`` is the
    time-invariant map v = F(y) at one sample; ``f`` is None for the affine
    kinds. ``injection`` is the pulse's ``(t_start, t_end)`` interval, None
    for quadrant devices.
    """

    f: Callable[[float], float] | None
    affine: tuple[Callable[[np.ndarray], np.ndarray],
                  Callable[[np.ndarray], np.ndarray]] | None
    declared: PopovDeclaration
    injection: tuple[float, float] | None = None


def _number(params: dict, name: str, default: float) -> float:
    value = params.get(name, default)
    if not is_number(value):
        raise InvalidParams(f"{name} must be a number, got {value!r}")
    x = float(value)
    if not math.isfinite(x):
        raise InvalidParams(f"{name} must be finite, got {x}")
    return x


def _sector(params: dict) -> tuple[float, float]:
    """(k1, gain) of a sector device with slopes 0 <= k1 <= gain <= k2."""
    k1 = _number(params, "k1", 0.0)
    k2 = _number(params, "k2", k1)
    if not 0.0 <= k1 <= k2:
        raise InvalidParams(f"sector slopes need 0 <= k1 <= k2, got {k1}, {k2}")
    # the midpoint of [k1, k2] rounds into [k1, k2], so no clamp is needed;
    # where k1 + k2 overflows, the sum of the halves is that midpoint
    total = k1 + k2
    mid = 0.5 * total if total < math.inf else 0.5 * k1 + 0.5 * k2
    gain = _number(params, "gain", mid)
    if not k1 <= gain <= k2:
        raise InvalidParams("nominal gain must lie inside [k1, k2]")
    return k1, gain


def _zeros(t: np.ndarray) -> np.ndarray:
    return np.zeros(t.shape)


def _static_sector(params: dict) -> DeviceLaw:
    _, k = _sector(params)
    return DeviceLaw(None, (lambda t: np.full(t.shape, k), _zeros),
                     PopovDeclaration.ALWAYS_ZERO_GAMMA)


def _deadzone_sector(params: dict) -> DeviceLaw:
    k1, k = _sector(params)
    dz = _number(params, "deadzone", 0.0)
    if dz < 0:
        raise InvalidParams("deadzone width must be nonnegative")
    if dz > 0 and k1 > 0:
        raise InvalidParams(
            "a deadzone forces v*y = 0 near the origin, so k1 must be 0"
        )
    # sector response applies to y itself outside the zone, so the map jumps
    # at |y| = deadzone. It is nondecreasing: with D > 0 a loop step has one
    # output at most, and none where dz < |c + D e| < dz (1 + D k)
    return DeviceLaw(lambda y: 0.0 if abs(y) <= dz else k * y, None,
                     PopovDeclaration.ALWAYS_ZERO_GAMMA)


def _cubic_odd_power(params: dict) -> DeviceLaw:
    p = _number(params, "p", 3)
    if int(p) != p or p < 1 or p % 2 == 0:
        raise InvalidParams(f"exponent must be an odd integer >= 1, got {p}")
    exp = int(p)

    def f(y: float) -> float:
        try:
            return y ** exp
        except OverflowError:  # past the float range, as numpy's power gives
            return math.copysign(math.inf, y)

    return DeviceLaw(f, None, PopovDeclaration.ALWAYS_ZERO_GAMMA)


def _time_varying_gain(params: dict) -> DeviceLaw:
    samples = params.get("samples", ())
    if not isinstance(samples, (list, tuple)) or not all(map(is_number, samples)):
        raise InvalidParams("gain samples must be a list of numbers")
    arr = np.array(samples, dtype=float)
    sdt = _number(params, "sample_dt", 0.0)
    if arr.size < 1 or sdt <= 0:
        raise InvalidParams("time-varying gain needs samples and sample_dt > 0")
    if not np.all((arr >= 0.0) & (arr < np.inf)):
        raise InvalidParams("gain samples must be finite and nonnegative")
    last = arr.size - 1

    # sample min(floor(t/sdt), last): clamp before truncating, so that a t/sdt
    # that overflows to inf holds the last sample too; truncation is floor
    # for t >= 0
    def gains(t: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):
            return arr[np.minimum(t / sdt, last).astype(np.intp)]

    return DeviceLaw(None, (gains, _zeros), PopovDeclaration.ALWAYS_ZERO_GAMMA)


def _relay(params: dict) -> DeviceLaw:
    a = _number(params, "amplitude", 0.0)
    if a <= 0:
        raise InvalidParams("relay amplitude must be positive")
    return DeviceLaw(lambda y: a if y > 0.0 else (-a if y < 0.0 else 0.0), None,
                     PopovDeclaration.ALWAYS_ZERO_GAMMA)


def _regenerative_pulse(params: dict) -> DeviceLaw:
    t0 = _number(params, "t_start", 0.0)
    t1 = _number(params, "t_end", 0.0)
    rate = _number(params, "rate", 0.0)
    if not t1 > t0 >= 0.0:
        raise InvalidParams("pulse interval needs t_end > t_start >= 0")
    if rate <= 0:
        raise InvalidParams("injection rate must be positive")

    def offsets(t: np.ndarray) -> np.ndarray:
        return np.where((t0 <= t) & (t < t1), -rate, 0.0)

    # the pulse injects a bounded amount of energy by construction, so a
    # finite Popov constant always exists
    return DeviceLaw(None, (_zeros, offsets), PopovDeclaration.FINITE_GAMMA,
                     injection=(t0, t1))


_LAWS: dict[DeviceKind, Callable[[dict], DeviceLaw]] = {
    DeviceKind.STATIC_SECTOR: _static_sector,
    DeviceKind.CUBIC_ODD_POWER: _cubic_odd_power,
    DeviceKind.TIME_VARYING_GAIN: _time_varying_gain,
    DeviceKind.RELAY: _relay,
    DeviceKind.REGENERATIVE_PULSE: _regenerative_pulse,
    DeviceKind.DEADZONE_SECTOR: _deadzone_sector,
}


@dataclass(frozen=True)
class DeviceSpec:
    kind: DeviceKind
    params: Mapping[str, Any] = field(default_factory=dict)
    law: DeviceLaw = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "kind", DeviceKind(self.kind))
        if not isinstance(self.params, Mapping):
            raise InvalidParams("device params must be a mapping of names to values")
        # a read-only copy with lists and arrays as tuples, so it always
        # describes the law
        frozen = {}
        for k, v in self.params.items():
            v = v.tolist() if isinstance(v, np.ndarray) else v
            frozen[k] = tuple(v) if isinstance(v, list) else v
        object.__setattr__(self, "params", MappingProxyType(frozen))
        object.__setattr__(self, "law", _LAWS[self.kind](self.params))

    def to_json_dict(self) -> dict:
        params = {k: list(v) if isinstance(v, tuple) else v for k, v in self.params.items()}
        return {"kind": self.kind.value, "params": params}


def sampled_gain(fn, duration: float, sample_dt: float) -> dict:
    """Helper: tabulate a gain function k(t) into TimeVaryingGain params."""
    ts = np.arange(0.0, duration + sample_dt, sample_dt)
    return {"samples": [float(fn(t)) for t in ts], "sample_dt": sample_dt}


def apply_device(spec: DeviceSpec, y: float, t: float) -> float:
    """Evaluate v = F(y, t) by the kind's one rule; an affine law is read at
    the one sample t, as the closed loop records v. Every kind takes a finite
    t >= 0 only, the times of a run, and raises TimeOutOfRange otherwise."""
    if not 0.0 <= t < math.inf:
        raise TimeOutOfRange(f"device time t={t} must be finite and nonnegative")
    law = spec.law
    if law.affine is None:
        return law.f(y)
    gains, offsets = law.affine
    at = np.array([t])
    return float(gains(at)[0] * y + offsets(at)[0])


@dataclass(frozen=True)
class DevicePopovStatus:
    declared: PopovDeclaration
    measured_gamma0_sq: float
    injection_energy_negative: bool | None = None

    def to_report(self) -> dict:
        return {
            "declared": self.declared.value,
            "measured_gamma0_sq": self.measured_gamma0_sq,
            "injection_energy_negative": self.injection_energy_negative,
        }


def _first_sample_after(t: float, dt: float, n: int) -> int:
    """The least k < n with dt*k > t, or n; dt*k is monotone in k, so the
    estimate floor(t/dt) is raised by a step or two to the exact product. It
    is never too high: dt*(k-1) > t with t/dt rounded up to k needs k > 2**51,
    far past any record length n."""
    k = math.floor(min(max(t / dt, 0.0), n))  # t/dt may overflow to inf
    while k < n and dt * k <= t:
        k += 1
    return k


def device_popov_audit(spec: DeviceSpec, v: Signal, y: Signal) -> DevicePopovStatus:
    """Cross-check run traces against the device's Popov declaration.

    Quadrant devices must measure a zero constant - anything else signals an
    implementation bug and raises. For the regenerative pulse the audit
    additionally verifies that the running integral <v, y>_t goes strictly
    negative during the injection interval whenever the pulse opposed the
    output there.
    """
    law = spec.law
    trace = energy_trace(v, y)
    gamma0_sq = trace.gamma0_sq
    injection_negative: bool | None = None
    if law.declared is PopovDeclaration.ALWAYS_ZERO_GAMMA:
        if gamma0_sq > QUADRANT_GAMMA_TOL:
            raise DeclarationViolated(
                f"{spec.kind.value} measured gamma0^2 = {gamma0_sq}, "
                "expected 0 for a first/third-quadrant device"
            )
    if law.injection is not None:
        # the samples at t0 < t <= t1, with t = dt*k rounded as in dt*np.arange(n)
        k0, k1 = (_first_sample_after(t, trace.dt, trace.E.size) for t in law.injection)
        if k0 < k1:
            prod = v.values[k0:k1] * y.values[k0:k1]
            opposed = bool(np.max(prod) <= 0.0 and np.min(prod) < 0.0)
            injection_negative = bool(opposed and np.min(trace.E[k0:k1]) < 0.0)
    return DevicePopovStatus(
        declared=law.declared,
        measured_gamma0_sq=gamma0_sq,
        injection_energy_negative=injection_negative,
    )

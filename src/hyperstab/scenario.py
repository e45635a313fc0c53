"""The scenario schema: a loop's plant, device, initial state, excitation and
time grid, validated on construction, and its JSON form.

Building a scenario needs numpy only; running one is ``harness``'s job.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .devices import DeviceSpec
from .errors import DegenerateInput, SchemaError, is_number
from .ratfun import RationalFunction

MAX_STEPS = 10_000_000


@dataclass(frozen=True)
class Excitation:
    amplitude: float
    duration: float

    def __post_init__(self):
        if not math.isfinite(self.amplitude):
            raise SchemaError("excitation amplitude must be finite")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise SchemaError("excitation duration must be positive and finite")


@dataclass(frozen=True)
class Scenario:
    plant: RationalFunction
    device: DeviceSpec
    x0: tuple[float, ...] = ()
    excitation: Excitation | None = None
    dt: float = 1e-3
    horizon: float = 50.0

    def __post_init__(self):
        object.__setattr__(self, "x0", tuple(float(v) for v in self.x0))
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise SchemaError("dt must be positive and finite")
        if not math.isfinite(self.horizon) or self.horizon < 100 * self.dt:
            raise SchemaError("horizon must be finite and cover at least 100 steps")
        # round(horizon/dt) > MAX_STEPS, without rounding an infinite ratio
        if self.horizon / self.dt > MAX_STEPS + 0.5:
            raise SchemaError(f"horizon/dt asks for more than {MAX_STEPS} steps")
        if not all(map(math.isfinite, self.x0)):
            raise SchemaError("x0 entries must be finite")
        if not any(self.x0) and not (self.excitation and self.excitation.amplitude):
            raise SchemaError(
                "need a nonzero x0 or a nonzero excitation amplitude: "
                "the identically-zero run carries no information"
            )

    def to_json_dict(self) -> dict:
        return {
            "plant": {
                "num": list(self.plant.num.coeffs),
                "den": list(self.plant.den.coeffs),
            },
            "device": self.device.to_json_dict(),
            "x0": list(self.x0),
            "excitation": (
                {"amplitude": self.excitation.amplitude,
                 "duration": self.excitation.duration}
                if self.excitation else None
            ),
            "dt": self.dt,
            "horizon": self.horizon,
        }


def _json_float(value, what: str) -> float:
    """A JSON number as a float; SchemaError naming ``what`` for anything
    else, a bool or a quoted number included."""
    if not is_number(value):
        raise SchemaError(f"{what} must be a number; could not convert {value!r}")
    return float(value)


def scenario_from_json_dict(data: dict) -> Scenario:
    """Validate and build a Scenario from its JSON form."""
    if not isinstance(data, dict):
        raise SchemaError("a scenario must be a JSON object")
    try:
        plant_spec = data["plant"]
        g = RationalFunction(plant_spec["num"], plant_spec["den"])
    except KeyError as exc:
        raise SchemaError(f"scenario missing field {exc}") from None
    except (TypeError, ValueError, DegenerateInput) as exc:
        raise SchemaError(f"bad plant coefficients: {exc}") from None
    try:
        dev_spec = data["device"]
        if not isinstance(dev_spec, dict):
            raise SchemaError("device must be an object with a kind and params")
        device = DeviceSpec(kind=dev_spec["kind"], params=dev_spec.get("params", {}))
    except KeyError as exc:
        raise SchemaError(f"device missing field {exc}") from None
    except ValueError as exc:
        # parameter errors are InvalidParams, so only the kind lookup lands here
        raise SchemaError(f"unknown device kind: {exc}") from None
    exc_spec = data.get("excitation")
    excitation = None
    if exc_spec is not None:
        if not isinstance(exc_spec, dict):
            raise SchemaError("excitation must be an object with an amplitude and a duration")
        try:
            excitation = Excitation(
                amplitude=_json_float(exc_spec["amplitude"], "excitation amplitude"),
                duration=_json_float(exc_spec["duration"], "excitation duration"),
            )
        except KeyError as missing:
            raise SchemaError(f"excitation missing field {missing}") from None
    x0 = data.get("x0", [])
    if not isinstance(x0, list):
        raise SchemaError(f"x0 must be a list of numbers, got {x0!r}")
    return Scenario(
        plant=g,
        device=device,
        x0=tuple(_json_float(v, "x0 entry") for v in x0),
        excitation=excitation,
        dt=_json_float(data.get("dt", 1e-3), "dt"),
        horizon=_json_float(data.get("horizon", 50.0), "horizon"),
    )

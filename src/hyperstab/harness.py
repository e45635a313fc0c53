"""Closed-loop runner and bound-chain auditor for negative feedback loops.

The loop is ``u = e - F(y)`` around a realized plant, stepped with the exact
zero-order-hold discretization at every plant order, zero included, with the
overflow guard on y at every sample. ``_simulate`` builds the loop record: the
time grid and the excitation e once, then u = e - v and the divergence time
from the samples the kernel keeps. There are two kernels; each returns y and v.

* Affine devices, ``F(y, t) = g(t) y + o(t)`` (static sector, time-varying
  gain, regenerative pulse), make each step one affine map of the state, with
  the algebraic loop ``y = C x + D (e - F(y))`` solved in closed form. The
  whole trajectory comes from a blocked scan: prefix increments of the steps
  of a block of SCAN_BLOCK samples, then one product per block.
* Any other device is stepped one sample at a time: the state is a list of
  floats, and ``c = C x`` and ``x' = Ad x + Bd u`` are row sums. Plants of
  relative degree zero have direct feedthrough, so each step solves
  ``y = c + D (e - F(y))`` by secant steps inside a bracket, started from the
  previous output. For monotone devices and ``D > 0`` the residual
  ``phi(y) = y - c - D (e - F(y))`` has ``phi' >= 1``, so the root is unique
  and lies within ``|phi(y0)|`` of the start y0, which brackets it before the
  first secant step. With ``D < 0`` phi may fall through the root, so the
  bracket is walked either way; the root reached from the previous output is
  the one recorded.

Energy bookkeeping. The trace energy ``E_io(t) = <u, y>_t`` is the trapezoid
of the recorded output, which the serialized CSV reproduces. The bound chains
are statements about the plant as a convolution operator: they are audited on
the zero-state energy ``E_op(t) = <u, g*u>_t``, integrated exactly over each
hold of the loop's own zero-order hold, so E_io differs from it by E_io's
quadrature error when x0 = 0. With a nonzero initial state the discharge of
the stored energy rides on the feedback leg, whose tightest finite-horizon
Popov constant is ``gamma0^2 = max(0, sup_t E_op(t))``. The physical
device's own declaration is audited separately on its (v, y) pair.
"""

from __future__ import annotations

import enum
import json
import math
from array import array
from dataclasses import dataclass, field
from itertools import count
from operator import mul
from typing import Callable

import numpy as np

from .devices import DevicePopovStatus, DeviceSpec, device_popov_audit
from .errors import (
    AlgebraicLoopNoConvergence,
    DimensionMismatch,
    GradeUnsupported,
    SchemaError,
)
from .ltisim import realize, van_loan, zero_states, zoh_hold
from .ratfun import RationalFunction, inverse
from .realness import (
    Grade,
    PRClassification,
    classify_pr,
    real_part_margin,
    wspr_chain_constant,
)
from .signals import BLOCK, EnergyTrace, Signal, energy_trace, write_trace_csv

CONV_TOL = 1e-3
BOUND_FACTOR = 10.0
OVERFLOW_GUARD = 1e9
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-12
VIOLATION_CAP = 50
MAX_STEPS = 10_000_000
SCAN_BLOCK = 256


class Verdict(str, enum.Enum):
    ASYMPTOTIC = "AsymptoticallyHyperstableEvidence"
    HYPERSTABLE = "HyperstableEvidence"
    DIVERGED = "Diverged"
    INCONCLUSIVE = "Inconclusive"


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


def scenario_from_json_dict(data: dict) -> Scenario:
    """Validate and build a Scenario from its JSON form."""
    try:
        plant_spec = data["plant"]
        g = RationalFunction(plant_spec["num"], plant_spec["den"])
    except KeyError as exc:
        raise SchemaError(f"scenario missing field {exc}") from None
    except (TypeError, ValueError) as exc:
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
        try:
            excitation = Excitation(
                amplitude=float(exc_spec["amplitude"]),
                duration=float(exc_spec["duration"]),
            )
        except KeyError as missing:
            raise SchemaError(f"excitation missing field {missing}") from None
        except (TypeError, ValueError) as exc:
            raise SchemaError(f"bad excitation: {exc}") from None
    try:
        return Scenario(
            plant=g,
            device=device,
            x0=tuple(data.get("x0", ())),
            excitation=excitation,
            dt=float(data.get("dt", 1e-3)),
            horizon=float(data.get("horizon", 50.0)),
        )
    except (TypeError, ValueError) as exc:
        raise SchemaError(str(exc)) from None


@dataclass(frozen=True)
class Violation:
    t: float
    inequality: str
    lhs: float
    rhs: float

    def to_json_dict(self) -> dict:
        return {"t": self.t, "inequality": self.inequality,
                "lhs": self.lhs, "rhs": self.rhs}


@dataclass(frozen=True)
class BoundChainAudit:
    """Finite-horizon audit of the supplied-energy bound chains.

    ``lower`` maps each audited inequality, ``"E >= c*int(w)"`` with a
    nonnegative integrand w, to its nondecreasing lower trace ``c*int(w)``.
    The zero-state energy trace ``energy_op`` is compared against each trace
    pointwise with slack ``tol_bound``; both sides are exact for the held
    input, so the slack covers round-off only.
    ``chain_violations`` maps the same inequalities to their numbers of
    violating samples, which sum to ``violation_count``; ``violations`` keeps
    at most ``VIOLATION_CAP`` samples. The upper side needs no count: the
    measured ``gamma0_sq = max(0, max energy_op)`` dominates the energy by
    construction.
    """

    gamma0_sq: float
    energy_op: np.ndarray
    tol_bound: float
    lower: dict[str, np.ndarray] = field(default_factory=dict)
    c_w: float | None = None
    violations: tuple[Violation, ...] = ()
    chain_violations: dict[str, int] = field(default_factory=dict)
    note: str = ""

    @property
    def violation_count(self) -> int:
        return sum(self.chain_violations.values())

    def to_report(self) -> dict:
        """The facts ``run_report`` does not state at its top level."""
        chains = {name: float(trace[-1]) for name, trace in self.lower.items()}
        if self.c_w is not None:
            chains["c_w"] = self.c_w
        return {
            "tol_bound": self.tol_bound,
            "chains": chains,
            "chain_violation_counts": dict(self.chain_violations),
            "note": self.note,
        }


@dataclass(frozen=True)
class SimulationRun:
    """A completed run. ``kernel`` names the stepping path: "scan" for affine
    devices, "loop" for the others when D = 0, "newton" when D != 0. For
    "newton", ``solve_evaluations[i]`` counts the steps whose root solve took
    i device calls; it is None on the other paths."""

    scenario: Scenario
    u: Signal
    y: Signal
    v: Signal
    e: Signal
    E: EnergyTrace
    classification: PRClassification
    device_status: DevicePopovStatus
    bound_audit: BoundChainAudit | None
    verdict: Verdict
    kernel: str
    diverged_at: float | None = None
    solve_evaluations: np.ndarray | None = None


def _solve_output(c: float, D: float, e: float, f: Callable[[float, float], float],
                  t: float, y: float, step_index: int) -> tuple[float, int]:
    """Root of phi(y) = y - c - D*(e - f(y, t)) reached from the start ``y``.

    Returns the root and the number of device calls spent on it. For D > 0
    and a nondecreasing f, phi' >= 1: the root is unique (I + D F is strongly
    monotone) and lies within |phi(y)| of the start, so the first trial point,
    one residual away, brackets it. For D < 0 the root need not be unique, and
    phi may fall through it; the one returned is the root reached from the
    start, which the loop sets to the previous output. Secant steps through
    the last two points refine the bracket; a step bisects instead whenever
    the secant point leaves the bracket or three steps have not halved it,
    and from step NEWTON_MAX_ITER on always, until the bracket closes to
    1e-15 relative or is not finite. The count stays far below 2**16: the
    walk takes at most 3 + 2*100 calls, and bisection halves asinh(y/scale).
    """
    scale = 1.0 + abs(c) + abs(D * e)
    tol = NEWTON_TOL * scale
    r = y - c - D * (e - f(y, t))
    calls = 1
    if abs(r) <= tol:
        return y, calls
    # walk away from y against the residual's sign until the residual flips;
    # the first step of |r| does so whenever phi' >= 1. After 100 doublings
    # without a flip, phi falls through the root: walk from y the other way.
    # Past |y| = tol / (2 eps) = tol * 2**51 the walk stops doubling too: a
    # residual within tol has y - c near D (e - f(y)), so phi rounds by about
    # 2 eps |y| > tol there, and a zero would be rounding, not a root (a
    # deadzone with D = -1 and no root evaluates phi = 0 near y = 1e17)
    sign = -1.0 if r > 0.0 else 1.0
    step = abs(r)
    near, r_near = y, r
    far = y + sign * step
    r_far = far - c - D * (e - f(far, t))
    calls += 1
    if abs(r_far) <= tol:
        return far, calls
    guard = 0
    while r_far * r > 0.0:
        guard += 1
        if guard <= 100 and abs(far) < tol * 2.0**51:
            near, r_near = far, r_far
            step *= 2.0
        elif sign * r < 0.0:
            sign, near, r_near, step, guard = -sign, y, r, abs(r), 0
        else:
            raise AlgebraicLoopNoConvergence(
                f"no bracket at step {step_index}, residual {r_far}"
            )
        far = near + sign * step
        r_far = far - c - D * (e - f(far, t))
        calls += 1
    # r is phi oriented to rise across the bracket: negative at lo
    orient = 1.0 if sign * r < 0.0 else -1.0
    lo, hi = (far, near) if sign < 0.0 else (near, far)
    y_old, r_old, y, r = near, orient * r_near, far, orient * r_far
    # bracket widths three, two and one iterations back
    oldest = older = old = math.inf
    for i in count():
        # secant through the last two points, unless it leaves the open
        # bracket (lo does when the two residuals are equal) or the last three
        # points did not halve the bracket, as secant points creeping along
        # one steep side of the residual do
        trial = y - r * (y - y_old) / (r - r_old) if r != r_old else lo
        if i >= NEWTON_MAX_ITER or not lo < trial < hi or hi - lo > 0.5 * oldest:
            # bisect in asinh(y / scale): a bracket that spans decades beyond
            # the solve's scale loses half of them, a narrow one half its width
            trial = scale * math.sinh(
                0.5 * (math.asinh(lo / scale) + math.asinh(hi / scale)))
            if not lo < trial < hi:  # rounded onto an end
                trial = 0.5 * (lo + hi)
        oldest, older, old = older, old, hi - lo
        y_old, r_old, y = y, r, trial
        r = orient * (y - c - D * (e - f(y, t)))
        calls += 1
        if abs(r) <= tol:
            return y, calls
        if r > 0.0:
            hi = y
        else:
            lo = y
        if not hi - lo > 1e-15 * (1.0 + abs(y)):  # closed, or not finite
            break
    if abs(r) <= 1e-9 * scale:
        return y, calls
    if not math.isfinite(c):
        # the state left the float range: return the output past the overflow
        # guard, which ends the record as it does when D = 0
        return c, calls
    # a collapsed bracket with a large residual means the device response
    # jumps across the loop equation: no consistent output exists
    raise AlgebraicLoopNoConvergence(
        f"algebraic loop has no solution at step {step_index}: "
        f"residual {orient * r} at y = {y}"
    )


def _prefix(inc: np.ndarray) -> np.ndarray:
    """Prefix products of affine steps z -> z + [A_k | b_k] z on z = [x; 1].

    ``inc`` stacks the m increments [A_k | b_k] (shape m x n x n+1); entry i
    of the result is the increment of the first i steps together, so entry 0
    is zero. A Hillis-Steele scan composes later after earlier as
    P + Q + P[:, :n] Q, in ceil(log2(m + 1)) batched products. The identity is
    never added, so it cannot swamp increments of order dt; equal increments
    give the powers F^i - I.
    """
    n = inc.shape[1]
    p = np.zeros((inc.shape[0] + 1,) + inc.shape[1:])
    p[1:] = inc
    o = 1
    while o < len(p):
        later, earlier = p[o:], p[:-o]
        p[o:] = later + earlier + later[:, :, :n] @ earlier
        o *= 2
    return p


def _scan_affine(sc: Scenario, ss, ad: np.ndarray, bd: np.ndarray,
                 t: np.ndarray, e: np.ndarray):
    """y and v of a loop whose device is affine, on the time grid t with
    excitation e, up to the first sample past the overflow guard.

    With v = g*y + o and w = e - o, y = (C x + D w)/(1 + D g), so each step
    adds [Ad - I - Bd g C/den | Bd w/den] z to x, with z = [x; 1]. The samples
    go in blocks of SCAN_BLOCK: a block's outputs are one product of a table
    built from the prefix increments of its steps with the state it starts
    from. A block with one (g, w) throughout reuses the previous block's table
    when that block had the same (g, w).
    """
    gains, offsets = sc.device.law.affine
    gain, offset = gains(t), offsets(t)
    w = e - offset
    n_samples = len(e)
    n, D = ss.order, ss.D
    # the loop cannot be stepped past the first sample where 1 + D g vanishes
    end = n_samples
    if D != 0.0:
        degenerate = np.nonzero(np.abs(1.0 + D * gain) < 1e-12)[0]
        if degenerate.size:
            end = int(degenerate[0])
    g_run, w_run = gain[:end], w[:end]
    change = np.nonzero((g_run[1:] != g_run[:-1]) | (w_run[1:] != w_run[:-1]))[0] + 1
    mixed = np.zeros(end // SCAN_BLOCK + 1, dtype=bool)
    mixed[change[change % SCAN_BLOCK != 0] // SCAN_BLOCK] = True

    c = ss.C.reshape(-1)
    bc = np.outer(bd, c)
    am1 = ad - np.eye(n)  # exact while the diagonal of Ad is in [0.5, 2]
    bd = bd.reshape(-1)
    y = np.empty(n_samples)
    z = np.append(np.asarray(sc.x0, dtype=float), 1.0)
    table = out = key = stop = None
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, end, SCAN_BLOCK):
            m = min(SCAN_BLOCK, end - s)
            block_mixed = mixed[s // SCAN_BLOCK]
            if block_mixed or key != (gain[s], w[s]):
                g, wb = gain[s : s + m], w[s : s + m]
                den = 1.0 + D * g
                inc = np.empty((m, n, n + 1))
                inc[:, :, :n] = am1 - (g / den)[:, None, None] * bc
                inc[:, :, n] = (wb / den)[:, None] * bd
                table = _prefix(inc)
                # y_(s+i) = out[i] z_s = (C (x_s + P_i z_s) + D w)/(1 + D g)
                out = c @ table[:m]
                out[:, :n] += c
                out[:, n] += D * wb
                out /= den[:, None]
                key = None if block_mixed else (gain[s], w[s])
            ys = out[:m] @ z
            ok = np.abs(ys) <= OVERFLOW_GUARD
            if not ok.all():
                stop = s + int(np.argmin(ok))
                y[s:stop] = ys[: stop - s]
                break
            y[s : s + m] = ys
            z[:n] += table[m] @ z
    if stop is None and end < n_samples:
        raise AlgebraicLoopNoConvergence(
            f"degenerate affine loop at step {end}: 1 + D*k = {1.0 + D * gain[end]}"
        )
    del w
    k = n_samples if stop is None else stop
    # v = F(y, t) sample by sample, in the buffer of the gains
    v = gain[:k]
    v *= y[:k]
    v += offset[:k]
    return y[:k], v


def _step_loop(sc: Scenario, ss, ad: np.ndarray, bd: np.ndarray, e: np.ndarray):
    """y, v and solve effort of a loop stepped one sample at a time with
    excitation e, up to the first sample past the overflow guard.

    With D != 0 each step solves the loop equation from the previous output
    (step 0 from c + D e); the effort is ``np.bincount`` of the device calls
    per step's solve, None when D = 0.
    """
    rows = list(zip(ad.tolist(), bd.reshape(-1).tolist()))
    c_row = ss.C.reshape(-1).tolist()
    x = list(sc.x0)
    dt = sc.dt
    f = sc.device.law.f
    D = ss.D
    guard = OVERFLOW_GUARD

    y_buf, v_buf, calls_buf = array("d"), array("d"), array("H")
    push_y, push_v, push_calls = y_buf.append, v_buf.append, calls_buf.append
    for k, ek in enumerate(memoryview(e)):
        t = k * dt
        c = sum(map(mul, c_row, x), 0.0)
        if D == 0.0:
            yk = c
        else:
            yk, calls = _solve_output(c, D, ek, f, t, yk if k else c + D * ek, k)
            push_calls(calls)
        if yk > guard or yk < -guard or yk != yk:
            break
        vk = f(yk, t)
        uk = ek - vk
        push_y(yk)
        push_v(vk)
        x = [sum(map(mul, row, x), b * uk) for row, b in rows]
    if v_buf and not math.isfinite(v_buf[-1]):
        # the device output left the float range; only the last sample can
        # hold it, since the state is not finite after it
        del y_buf[-1], v_buf[-1]
    y, v = np.frombuffer(y_buf), np.frombuffer(v_buf)
    # a diverged step's solve is not one of the recorded samples
    evaluations = (None if D == 0.0
                   else np.bincount(np.frombuffer(calls_buf, np.uint16)[: len(y)]))
    return y, v, evaluations


def _hold(sc: Scenario):
    """The plant's realization and its ``zoh_hold``: the loop steps with the
    plant block of e^(F dt), so one expm serves the loop and the audit."""
    ss = realize(sc.plant)
    return (ss, *zoh_hold(ss, sc.dt))


def _simulate(sc: Scenario, hold):
    """Step the loop; returns u, y, v, e, the divergence time, the kernel and
    the solve effort. ``hold`` is ``_hold(sc)``.

    The time grid and the excitation e go to the kernel, which returns y and v
    up to the first sample past the overflow guard; a record cut short sets
    the divergence time. Affine devices go through the blocked scan ("scan");
    any other device is stepped one sample at a time, explicitly when D = 0
    ("loop") and by the scalar root solve otherwise ("newton"). The solve
    effort, a histogram of device calls per step, exists for "newton" only.
    """
    ss, _, phi, _ = hold
    if len(sc.x0) != ss.order:
        raise DimensionMismatch(
            f"x0 has {len(sc.x0)} entries, plant realization has order {ss.order}"
        )
    ad, bd = phi[:-2, :-2], phi[:-2, -1:]  # the plant block
    n_samples = int(round(sc.horizon / sc.dt)) + 1
    t = np.arange(n_samples) * sc.dt
    e = np.zeros(n_samples)
    if sc.excitation is not None:
        e[t < sc.excitation.duration] = sc.excitation.amplitude
    if sc.device.law.affine is not None:
        (y, v), kernel, evaluations = _scan_affine(sc, ss, ad, bd, t, e), "scan", None
    else:
        y, v, evaluations = _step_loop(sc, ss, ad, bd, e)
        kernel = "loop" if ss.D == 0.0 else "newton"
    kept = len(y)
    if kept < 2:
        raise AlgebraicLoopNoConvergence(
            "trajectory left the overflow guard within the first step"
        )
    e = e[:kept]
    diverged_at = None if kept == n_samples else kept * sc.dt
    return e - v, y, v, e, diverged_at, kernel, evaluations


def _bound_chain_audit(
    sc: Scenario,
    classification: PRClassification,
    u: Signal,
    hold,
) -> BoundChainAudit:
    """Audit the grade's energy bound chains on the zero-state plant leg.

    The loop holds u_j from t_j to t_(j+1), so on that hold the zero-state leg
    is w' = F w from w_j = [z_j; xi_j; u_j] (``hold`` is ``_hold(sc)``), and
    every chain integrates exactly: int u*y is u_j [C 0 D] int_0^dt e^(F s) ds
    w_j, int y^2 and int xi^2 are forms w_j' M w_j, and delta = int u is
    linear in t.

    The holds go in blocks of BLOCK samples, each sum carried from block to
    block, so the audit allocates no full-length array but the E_op and lower
    traces it returns. A record of one block is audited in one pass.
    """
    grade = classification.grade
    if grade is Grade.NOT_PR:
        raise GradeUnsupported("no bound chain is defined for a NotPR plant")
    ss, f, phi, psi = hold
    n, dt, N = ss.order, sc.dt, len(u)
    # w is restricted to the states the chains read, z and for WSPR xi, and
    # the held input; nothing the chains read depends on the rest
    m = n + (grade is Grade.WSPR)
    cols = [*range(m), n + 1]
    f = f[np.ix_(cols, cols)]
    h_y = np.append(ss.C, [0.0, ss.D])

    def form(h):  # int (h w)^2 over one hold, as a quadratic form in w
        _, g12, g22 = van_loan(-f.T, np.outer(h[cols], h[cols]), f, dt)
        return g22.T @ g12

    carried: dict[str, float] = {}

    def running(key, inc):
        """inc summed from t = 0, in place: the sum carried under key from
        the block before enters as the first term, as in one long cumsum."""
        if key in carried:
            inc[0] += carried[key]
        np.cumsum(inc, out=inc)
        carried[key] = inc[-1]
        return inc

    # each chain E >= constant*int(integrand), named by its inequality, with
    # the block function giving its integral from t = 0 at each row of w
    chains = []
    c_w = None
    note = ""
    if grade is Grade.SSPR:
        form_y = form(h_y)
        chains = [
            ("E >= d*int(u^2)", classification.d,
             lambda w, held: running("u^2", dt * held * held)),
            ("E >= d_inv*int(y^2)", real_part_margin(inverse(sc.plant)),
             lambda w, held: running("y^2", np.einsum("ij,ij->i", w @ form_y, w))),
        ]
    elif grade is Grade.WSPR:
        form_xi = form(np.eye(n + 2)[n])

        def delta_squared(w, held):
            a0 = carried.get("delta", 0.0)  # delta where the block's first hold starts
            b = running("delta", dt * held)  # and where each hold ends
            a = np.concatenate(([a0], b[:-1]))
            return running("delta^2", dt * (a * a + a * b + b * b) / 3)

        # the squared-frequency chain is not implied by WSPR; the c_w one is:
        # Re g(jw) >= c_w/(1 + w^2), and xi is u through 1/(s+1)
        c_w = wspr_chain_constant(sc.plant)
        chains = [
            ("E >= d0*int(delta^2)", classification.d0, delta_squared),
            ("E >= c_w*int(xi^2)", c_w,
             lambda w, held: running("xi^2", np.einsum("ij,ij->i", w @ form_xi, w))),
        ]
    elif grade is Grade.PR and classification.single_pole_at_origin \
            and classification.g1_grade is Grade.SSPR:

        def delta_abs_squared(w, held):
            delta_abs = running("delta_abs", dt * np.abs(held))
            # squared and halved in place: its running sum is already carried
            delta_abs *= delta_abs
            delta_abs /= 2
            return delta_abs

        chains = [("E >= d1*int(delta_abs*|u|)", classification.d1, delta_abs_squared)]
    else:
        note = f"no lower bound chain defined for grade {grade.value}"

    # row k of w is w_j of the hold that ends at sample k (row 0: no hold):
    # [z_(k-1); xi_(k-1); u_(k-1)]. The zero states come block by block, so
    # the only full-length arrays are E_op and the lower traces
    h_op = (h_y @ psi)[cols]
    e_op = np.empty(N)
    lower = {name: np.empty(N) for name, _, _ in chains}
    row = 0
    for s, z in zero_states(phi[:m, :m], phi[:m, -1], u.values[:-2], BLOCK):
        end = s + len(z) + 2  # the rows before end now have their states
        w = np.zeros((end - row, m + 1))
        w[end - row - len(z):, :m] = z
        lead = 1 if row == 0 else 0
        w[lead:, m] = u.values[row + lead - 1 : end - 1]
        held = w[:, m]
        e_op[row:end] = running("E", held * (w @ h_op))
        for name, constant, integral in chains:
            lower[name][row:end] = constant * integral(w, held)
        row = end
        del z, w, held  # before the next block's scratch is made

    gamma0_sq = max(0.0, float(np.max(e_op)))
    tol_bound = 1e-6 * (1.0 + abs(float(e_op[-1])))
    counts: dict[str, int] = {}
    violations: list[Violation] = []
    for name, trace in lower.items():
        counts[name] = 0
        for s in range(0, N, BLOCK):
            bad = np.nonzero(e_op[s:s + BLOCK] < trace[s:s + BLOCK] - tol_bound)[0] + s
            counts[name] += int(bad.size)
            for k in bad[: VIOLATION_CAP - len(violations)]:
                violations.append(
                    Violation(float(dt * k), name, float(e_op[k]), float(trace[k])))

    return BoundChainAudit(
        gamma0_sq=gamma0_sq,
        energy_op=e_op,
        tol_bound=tol_bound,
        lower=lower,
        c_w=c_w,
        violations=tuple(violations),
        chain_violations=counts,
        note=note,
    )


def verify_bound_chain(run: SimulationRun) -> BoundChainAudit:
    """Recompute the bound-chain audit for a completed run."""
    if run.verdict is Verdict.DIVERGED:
        raise GradeUnsupported("bound chains are not audited on diverged runs")
    return _bound_chain_audit(run.scenario, run.classification, run.u,
                              _hold(run.scenario))


def convergence_verdict(run: SimulationRun) -> Verdict:
    """Re-derive the evidence verdict from a completed run."""
    return _verdict(run.u, run.y, run.e, run.diverged_at, run.bound_audit)


def _verdict(
    u: Signal,
    y: Signal,
    e: Signal,
    diverged_at: float | None,
    audit: BoundChainAudit | None,
) -> Verdict:
    """Decide the evidence level from the recorded traces."""
    if diverged_at is not None:
        return Verdict.DIVERGED
    peak0 = max(abs(u.values[0]), abs(y.values[0]), abs(e.values[0]), 1e-300)
    peak = max(float(np.max(np.abs(u.values))), float(np.max(np.abs(y.values))))
    tail_start = int(0.95 * len(u))
    tail = max(
        float(np.max(np.abs(u.values[tail_start:]))),
        float(np.max(np.abs(y.values[tail_start:]))),
    )
    chain_ok = audit is not None and audit.violation_count == 0
    if tail <= CONV_TOL * peak0 and chain_ok:
        return Verdict.ASYMPTOTIC
    if peak <= BOUND_FACTOR * peak0:
        return Verdict.HYPERSTABLE
    return Verdict.INCONCLUSIVE


def run_closed_loop(sc: Scenario) -> SimulationRun:
    """Run the loop, audit both legs, and attach the evidence verdict."""
    hold = _hold(sc)
    u_arr, y_arr, v_arr, e_arr, diverged_at, kernel, evaluations = _simulate(sc, hold)
    # the kernels' arrays are fresh and held nowhere else: the Signals keep them
    u, y, v, e = (Signal._adopt(sc.dt, a) for a in (u_arr, y_arr, v_arr, e_arr))
    trace = energy_trace(u, y)
    classification = classify_pr(sc.plant)
    device_status = device_popov_audit(sc.device, v, y)
    audit = None
    if diverged_at is None and classification.grade is not Grade.NOT_PR:
        audit = _bound_chain_audit(sc, classification, u, hold)
    verdict = _verdict(u, y, e, diverged_at, audit)
    return SimulationRun(
        scenario=sc,
        u=u, y=y, v=v, e=e,
        E=trace,
        classification=classification,
        device_status=device_status,
        bound_audit=audit,
        verdict=verdict,
        kernel=kernel,
        diverged_at=diverged_at,
        solve_evaluations=evaluations,
    )


def run_report(run: SimulationRun) -> dict:
    """JSON-ready report for a completed run."""
    return {
        "classification": run.classification.to_report(),
        "gamma0_sq": run.bound_audit.gamma0_sq if run.bound_audit else None,
        "gamma0_sq_trace": run.E.gamma0_sq,
        "bound_violations": (
            [v.to_json_dict() for v in run.bound_audit.violations]
            if run.bound_audit else []
        ),
        "bound_violation_count": (
            run.bound_audit.violation_count if run.bound_audit else None
        ),
        "verdict": run.verdict.value,
        "diverged_at": run.diverged_at,
        "kernel": run.kernel,
        "solve_evaluations": (
            None if run.solve_evaluations is None else run.solve_evaluations.tolist()
        ),
        "device": run.device_status.to_report(),
        "energy": {
            "final_io": run.E.final,
            "final_operator": (
                float(run.bound_audit.energy_op[-1]) if run.bound_audit else None
            ),
        },
        "bound_chain": run.bound_audit.to_report() if run.bound_audit else None,
    }


def write_run_artifacts(run: SimulationRun, out_dir) -> tuple[str, str]:
    """Write traces.csv and report.json; returns their paths."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    traces_path = os.path.join(out_dir, "traces.csv")
    report_path = os.path.join(out_dir, "report.json")
    write_trace_csv(
        traces_path,
        {
            "t": run.u.times(),
            "u": run.u.values,
            "y": run.y.values,
            "v": run.v.values,
            "E": run.E.E,
        },
    )
    with open(report_path, "w") as fh:
        json.dump(run_report(run), fh, indent=2)
        fh.write("\n")
    return traces_path, report_path

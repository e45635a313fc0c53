"""Closed-loop runner and bound-chain auditor for negative feedback loops.

The loops it runs are ``Scenario`` records. Their schema, its validation and
its JSON form live in ``scenario``, which needs numpy only; ``Excitation``,
``Scenario`` and ``scenario_from_json_dict`` can be imported from here too.

The loop is ``u = e - F(y)`` around a realized plant, stepped with the exact
zero-order-hold discretization at every plant order, zero included, with the
overflow guard on y at every sample. ``_simulate`` builds the loop record: the
time grid and the excitation e once, then u = e - v and the divergence time
from the samples the kernel keeps. One kernel steps every loop, compiled once
per plant order, feedthrough and kind of device law (``DeviceLaw`` has exactly
one rule); it holds the state and the coefficients in local floats and writes
``c = C x`` and ``x' = Ad x + Bd u`` out term by term. Its device line is:

* "affine" for ``F(y, t) = g(t) y + o(t)`` (static sector, time-varying gain,
  regenerative pulse): ``y = C x + D (e - F(y))`` in closed form from
  ``e - o`` and g, with v formed from y after the loop;
* "loop" for a time-invariant device ``v = f(y)`` (odd power, relay,
  deadzone) through a plant with D = 0;
* "newton" for the same devices through a plant with direct feedthrough,
  where each step solves ``y = c + D (e - f(y))`` on one path. It starts from
  ``c + D e`` at step 0 and from the previous output and device output after
  it, where its first residual costs no device call. With ``D > 0`` the
  residual ``phi(y) = y - c - D (e - f(y))`` of a nondecreasing f has
  ``phi' >= 1``, so the root is unique, and from one step to the next phi
  changes by a constant only: up to three secant steps follow, with the
  secant slope carried from the step before, about two device calls a step
  in all. A residual still outside the stop rule hands the point reached to
  the bracketed ``_solve_output``, which resumes from it, or from ``c + D e``
  when the secant left the float range.

A loop that is not well-posed, "newton" with ``D < 0`` or "affine" where
``1 + D g`` vanishes at a sample, is refused before the first step.

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
from typing import Callable

import numpy as np

from .devices import DevicePopovStatus, device_popov_audit
from .errors import AlgebraicLoopNoConvergence, DimensionMismatch, GradeUnsupported
from .ltisim import realize, van_loan, zero_states, zoh_hold
from .ratfun import RationalFunction, inverse
from .realness import (
    Grade,
    PRClassification,
    classify_pr,
    real_part_margin,
    wspr_chain_constant,
)
from .scenario import Excitation, Scenario, scenario_from_json_dict  # noqa: F401 - re-exported
from .signals import BLOCK, EnergyTrace, Signal, energy_trace, write_trace_csv

CONV_TOL = 1e-3
BOUND_FACTOR = 10.0
OVERFLOW_GUARD = 1e9
NEWTON_MAX_ITER = 50
NEWTON_TOL = 1e-12
VIOLATION_CAP = 50


class Verdict(str, enum.Enum):
    ASYMPTOTIC = "AsymptoticallyHyperstableEvidence"
    HYPERSTABLE = "HyperstableEvidence"
    DIVERGED = "Diverged"
    INCONCLUSIVE = "Inconclusive"


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
    """A completed run. ``kernel`` names the step loop's device line: "affine"
    for affine devices, "loop" for the others when D = 0, "newton" when D > 0.
    For "newton", ``solve_evaluations[i]`` counts the steps whose root solve,
    secant and bracketed solve together, evaluated the residual at i points;
    the first of them, the start, reuses the previous step's device output,
    so a step after step 0 costs one device call fewer. It is None on the
    other paths."""

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


def _solve_output(c: float, D: float, e: float, f: Callable[[float], float],
                  y: float, v: float, step_index: int) -> tuple[float, float, int]:
    """Root of phi(y) = y - c - D*(e - f(y)) from the start ``y``, where
    ``v = f(y)`` is already known: the previous output, the loop's last
    secant point, or ``c + D*e`` when that point's residual is not finite.

    Returns the root, its device output and the number of residuals evaluated,
    the first of which reuses v. The loop is well-posed, D > 0 and f
    nondecreasing, so phi' >= 1: the root is unique (I + D F is strongly
    monotone) and lies within |phi(y)| of the start. Secant steps through the
    last two points refine the bracket; a step bisects instead whenever the
    secant point leaves the bracket or three steps have not halved it, and
    from step NEWTON_MAX_ITER on always, until the bracket closes to 1e-15
    relative or is not finite. The count stays far below 2**16: the walk takes
    at most 2 + 100 residuals, and bisection halves asinh(y/scale).
    """
    scale = 1.0 + abs(c) + abs(D * e)
    tol = NEWTON_TOL * scale
    r = y - c - D * (e - v)
    calls = 1
    if abs(r) <= tol:
        return y, v, calls
    # walk against the residual's sign until it flips: the first step, -r,
    # brackets the root in exact arithmetic, but from a start far from the root
    # rounding can leave its residual on the start's side; the step then doubles
    near, r_near, step = y, r, -r
    for _ in range(101):
        far = near + step
        v = f(far)
        r_far = far - c - D * (e - v)
        calls += 1
        if abs(r_far) <= tol:
            return far, v, calls
        if not r_far * r > 0.0:
            break
        near, r_near, step = far, r_far, 2.0 * step
    else:
        raise AlgebraicLoopNoConvergence(f"no bracket at step {step_index}, residual {r_far}")
    # phi rises across the bracket: negative at lo
    lo, hi = (far, near) if r > 0.0 else (near, far)
    y_old, r_old, y, r = near, r_near, far, r_far
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
        v = f(y)
        r = y - c - D * (e - v)
        calls += 1
        if abs(r) <= tol:
            return y, v, calls
        if r > 0.0:
            hi = y
        else:
            lo = y
        if not hi - lo > 1e-15 * (1.0 + abs(y)):  # closed, or not finite
            break
    if abs(r) <= 1e-9 * scale:
        return y, v, calls
    if not math.isfinite(c):
        # the state left the float range: return the output past the overflow
        # guard, which ends the record as it does when D = 0, unrecorded
        return c, math.nan, calls
    # a collapsed bracket with a large residual means the device response
    # jumps across the loop equation: no consistent output exists
    raise AlgebraicLoopNoConvergence(
        f"algebraic loop has no solution at step {step_index}: "
        f"residual {r} at y = {y}"
    )


# The step loop for one plant order n, on local floats: x0..x(n-1) is the
# state, and C, Bd and Ad arrive in one tuple that is unpacked into c*, b* and
# a*_* once per run. The text depends on n, on feedthrough and on whether the
# device law is affine; no scenario value enters it.
_STEP_SOURCE = """\
def step(samples, x, coefficients, D, f, solve, tol, guard, push_y, push_v, push_calls):
    ({state}) = x
    ({names}) = coefficients
    for {sample} in samples:
        c = {output}
{solve}        if yk > guard or yk < -guard or yk != yk:
            break
{device}        push_y(yk)
{update}"""

# y = c + D (e - f(y)), D > 0, at each step, from c + D e at step 0 and from
# the previous output and device output after it: up to three secant steps,
# with the slope carried from step to step (phi changes by a constant from one
# step to the next), then, outside the stop rule, the bracketed solve from there.
_FEEDTHROUGH_SOLVE = """\
        if not k:
            yk = c + D * ek
            vk = f(yk)
            slope = 1.0  # phi' >= 1
        limit = tol * (1.0 + abs(c) + abs(D * ek))
        rk = yk - c - D * (ek - vk)
        calls = 1
        while calls < 4 and not abs(rk) <= limit:
            y0, r0 = yk, rk
            yk = y0 - r0 / slope
            vk = f(yk)
            rk = yk - c - D * (ek - vk)
            calls += 1
            if yk != y0:
                secant = (rk - r0) / (yk - y0)
                if 1.0 <= secant < inf:
                    slope = secant
        if not abs(rk) <= limit:
            if not abs(rk) < inf:
                # the secant left the float range, and a residual that is not
                # finite brackets nothing: the solve starts again from c + D e
                yk = c + D * ek
                vk = f(yk)
                calls += 1
            # its first residual is this one, again
            yk, vk, more = solve(c, D, ek, f, yk, vk, k)
            calls += more - 1
        push_calls(calls)
"""

_STEP_KERNELS: dict[tuple[int, bool, bool], Callable] = {}


def _step_kernel(n: int, feedthrough: bool, affine: bool) -> Callable:
    """The step loop for plant order n, with or without direct feedthrough,
    for an affine or a time-invariant device law, compiled on its first use
    and kept in ``_STEP_KERNELS`` for every later run of that kind: compiling
    takes about 0.3 ms, as long as a few hundred explicit steps."""
    kernel = _STEP_KERNELS.get((n, feedthrough, affine))
    if kernel is None:
        x = [f"x{j}" for j in range(n)]
        names = ([f"c{j}" for j in range(n)] + [f"b{i}" for i in range(n)]
                 + [f"a{i}_{j}" for i in range(n) for j in range(n)])
        rows = [" + ".join([f"b{i} * uk"] + [f"a{i}_{j} * x{j}" for j in range(n)])
                for i in range(n)]
        if affine:  # y = c + D (w - g y) in closed form, with w = e - o
            sample, device = "ek, gk", "        uk = ek - gk * yk\n"
            solve = ("        yk = (c + D * ek) / (1.0 + D * gk)\n" if feedthrough
                     else "        yk = c\n")
        else:
            sample, device = "k, ek", "        uk = ek - vk\n        push_v(vk)\n"
            solve = _FEEDTHROUGH_SOLVE
            if not feedthrough:
                solve, device = "        yk = c\n", "        vk = f(yk)\n" + device
        source = _STEP_SOURCE.format(
            state="".join(name + ", " for name in x),
            names="".join(name + ", " for name in names),
            sample=sample,
            output=" + ".join(["0.0"] + [f"c{j} * x{j}" for j in range(n)]),
            solve=solve,
            device=device,
            update=f"        {', '.join(x)} = {', '.join(rows)}\n" if n else "",
        )
        namespace: dict = {"inf": math.inf}
        label = ", feedthrough" * feedthrough + ", affine" * affine
        exec(compile(source, f"<step kernel, order {n}{label}>", "exec"), namespace)
        kernel = _STEP_KERNELS[n, feedthrough, affine] = namespace["step"]
    return kernel


def _hold(plant: RationalFunction, dt: float):
    """The plant's realization and its ``zoh_hold`` at step dt: the loop steps
    with the plant block of e^(F dt), so one expm serves the loop and the
    audit."""
    ss = realize(plant)
    return (ss, *zoh_hold(ss, dt))


def _simulate(sc: Scenario, hold):
    """Step the loop; returns u, y, v, e, the divergence time, the kernel and
    the solve effort. ``hold`` is ``_hold(sc.plant, sc.dt)``.

    The step kernel takes the excitation e one sample at a time and records y
    and v up to the first sample past the overflow guard; a record cut short
    sets the divergence time. Both refusals of a loop that is not well-posed
    come first: a time-invariant device through a plant with D < 0, and an
    affine one where 1 + D g vanishes at any sample.

    The kernel's output ``c = 0.0 + c0*x0 + c1*x1 + ...`` and state rows
    ``x_i' = b_i*u + a_i0*x0 + a_i1*x1 + ...`` add their terms left to right.
    An affine device's (gain, offset) is sampled on the time grid, and its v
    is ``gain*y + offset``, as ``apply_device`` forms it. A solved step's
    device output is the one its solve computed, never evaluated again; the
    solve effort is ``np.bincount`` of the residuals evaluated per step, None
    but for "newton".
    """
    ss, _, phi, _ = hold
    if len(sc.x0) != ss.order:
        raise DimensionMismatch(
            f"x0 has {len(sc.x0)} entries, plant realization has order {ss.order}"
        )
    law = sc.device.law
    if ss.D < 0.0 and law.affine is None:
        raise AlgebraicLoopNoConvergence(
            f"ill-posed loop: a {sc.device.kind.value} device through a plant with "
            f"D = {ss.D} < 0, where y = Cx + D(e - f(y)) may have several roots or none")
    n_samples = int(round(sc.horizon / sc.dt)) + 1
    t = np.arange(n_samples) * sc.dt
    e = np.zeros(n_samples)
    if sc.excitation is not None:
        e[t < sc.excitation.duration] = sc.excitation.amplitude
    affine = None if law.affine is None else tuple(rule(t) for rule in law.affine)
    del t
    # every gain is >= 0, so 1 + D g can vanish only with D < 0
    if affine is not None and ss.D < 0.0:
        den = 1.0 + ss.D * affine[0]
        degenerate = np.flatnonzero(np.abs(den) < 1e-12)
        if degenerate.size:
            k = degenerate[0]
            raise AlgebraicLoopNoConvergence(
                f"degenerate affine loop at step {k}: 1 + D*k = {den[k]}")
    ad, bd = phi[:-2, :-2], phi[:-2, -1]  # the plant block
    coefficients = (*ss.C.ravel().tolist(), *bd.tolist(), *ad.ravel().tolist())
    y_buf, v_buf, calls_buf = array("d"), array("d"), array("H")
    step = _step_kernel(ss.order, ss.D != 0.0, affine is not None)
    if affine is None:
        samples = enumerate(memoryview(e))
    else:
        gain, offset = affine
        samples = zip(memoryview(e - offset), memoryview(gain))
    step(samples, sc.x0, coefficients, ss.D, law.f, _solve_output,
         NEWTON_TOL, OVERFLOW_GUARD, y_buf.append, v_buf.append, calls_buf.append)
    if v_buf and not math.isfinite(v_buf[-1]):
        # the device output left the float range; only the last sample can
        # hold it, since the state is not finite after it
        del y_buf[-1], v_buf[-1]
    y = np.frombuffer(y_buf)
    kept = len(y)
    if affine is None:
        v = np.frombuffer(v_buf)
    else:
        # v = F(y, t) sample by sample, in the buffer of the gains
        v = gain[:kept]
        v *= y
        v += offset[:kept]
    # a diverged step's solve is not one of the recorded samples
    evaluations = (np.bincount(np.frombuffer(calls_buf, np.uint16)[:kept])
                   if ss.D != 0.0 and affine is None else None)
    kernel = "affine" if affine is not None else ("loop" if ss.D == 0.0 else "newton")
    if kept < 2:
        raise AlgebraicLoopNoConvergence(
            "trajectory left the overflow guard within the first step"
        )
    e = e[:kept]
    diverged_at = None if kept == n_samples else kept * sc.dt
    return e - v, y, v, e, diverged_at, kernel, evaluations


def _bound_chain_audit(
    plant: RationalFunction,
    classification: PRClassification,
    u: Signal,
    hold,
) -> BoundChainAudit:
    """Audit the grade's energy bound chains on the zero-state plant leg.

    The loop holds u_j from t_j to t_(j+1), so on that hold the zero-state leg
    is w' = F w from w_j = [z_j; xi_j; u_j], with dt = u.dt and ``hold`` =
    ``_hold(plant, u.dt)``, and every chain integrates exactly: int u*y is
    u_j [C 0 D] int_0^dt e^(F s) ds w_j, int y^2 and int xi^2 are forms
    w_j' M w_j, and delta = int u is linear in t.

    The holds go in blocks of BLOCK samples; each block writes its
    increments into the E_op and lower traces it returns, the only
    full-length arrays, and one cumsum per trace sums them in place. A record
    of one block is audited in one pass.
    """
    grade = classification.grade
    if grade is Grade.NOT_PR:
        raise GradeUnsupported("no bound chain is defined for a NotPR plant")
    ss, f, phi, psi = hold
    n, dt, N = ss.order, u.dt, len(u)
    # w is restricted to the states the chains read, z and for WSPR xi, and
    # the held input; nothing the chains read depends on the rest
    m = n + (grade is Grade.WSPR)
    cols = [*range(m), n + 1]
    f = f[np.ix_(cols, cols)]
    h_y = np.append(ss.C, [0.0, ss.D])

    def form(h):  # int (h w)^2 over one hold, as a quadratic form in w
        _, g12, g22 = van_loan(-f.T, np.outer(h[cols], h[cols]), f, dt)
        return g22.T @ g12

    # each chain E >= constant*int(integrand), named by its inequality, with
    # the function giving the integral's increment over each hold, row by row of w
    chains = []
    c_w = None
    note = ""
    squared = False  # the d1 chain's trace is (int |u|)^2 / 2
    if grade is Grade.SSPR:
        form_y = form(h_y)
        chains = [
            ("E >= d*int(u^2)", classification.d, lambda w, held: dt * held * held),
            ("E >= d_inv*int(y^2)", real_part_margin(inverse(plant)),
             lambda w, held: np.einsum("ij,ij->i", w @ form_y, w)),
        ]
    elif grade is Grade.WSPR:
        form_xi = form(np.eye(n + 2)[n])
        delta = 0.0  # delta where the next block's first hold starts

        def delta_squared(w, held):
            nonlocal delta
            b = dt * held
            b[0] += delta
            np.cumsum(b, out=b)  # delta where each hold ends
            a = np.concatenate(([delta], b[:-1]))
            delta = b[-1]
            return dt * (a * a + a * b + b * b) / 3

        # the squared-frequency chain is not implied by WSPR; the c_w one is:
        # Re g(jw) >= c_w/(1 + w^2), and xi is u through 1/(s+1)
        c_w = wspr_chain_constant(plant)
        chains = [
            ("E >= d0*int(delta^2)", classification.d0, delta_squared),
            ("E >= c_w*int(xi^2)", c_w,
             lambda w, held: np.einsum("ij,ij->i", w @ form_xi, w)),
        ]
    elif grade is Grade.PR and classification.single_pole_at_origin \
            and classification.g1_grade is Grade.SSPR:
        squared = True
        chains = [("E >= d1*int(delta_abs*|u|)", classification.d1,
                   lambda w, held: dt * np.abs(held))]
    else:
        note = f"no lower bound chain defined for grade {grade.value}"

    # row k of w is w_j of the hold that ends at sample k (row 0: no hold):
    # [z_(k-1); xi_(k-1); u_(k-1)]. The zero states come block by block, and
    # each block's increments go into the E_op and lower traces, the only
    # full-length arrays, which one cumsum each then sums in place
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
        e_op[row:end] = held * (w @ h_op)
        for name, _, increment in chains:
            lower[name][row:end] = increment(w, held)
        row = end
        del z, w, held  # before the next block's scratch is made
    np.cumsum(e_op, out=e_op)
    for name, constant, _ in chains:
        trace = lower[name]
        np.cumsum(trace, out=trace)
        if squared:
            trace *= trace
            trace /= 2
        trace *= constant

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
    plant = run.scenario.plant
    return _bound_chain_audit(plant, run.classification, run.u, _hold(plant, run.u.dt))


def convergence_verdict(run: SimulationRun) -> Verdict:
    """Re-derive the evidence verdict from a completed run."""
    return _verdict(run.u, run.y, run.e, run.diverged_at, run.bound_audit)


def _peak(a: np.ndarray) -> float:
    """max |a|, as the larger of max a and -min a: no |a| copy."""
    return max(float(np.max(a)), -float(np.min(a)))


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
    peak = max(_peak(u.values), _peak(y.values))
    tail_start = int(0.95 * len(u))
    tail = max(_peak(u.values[tail_start:]), _peak(y.values[tail_start:]))
    chain_ok = audit is not None and audit.violation_count == 0
    if tail <= CONV_TOL * peak0 and chain_ok:
        return Verdict.ASYMPTOTIC
    if peak <= BOUND_FACTOR * peak0:
        return Verdict.HYPERSTABLE
    return Verdict.INCONCLUSIVE


def run_closed_loop(sc: Scenario) -> SimulationRun:
    """Run the loop, audit both legs, and attach the evidence verdict."""
    hold = _hold(sc.plant, sc.dt)
    u_arr, y_arr, v_arr, e_arr, diverged_at, kernel, evaluations = _simulate(sc, hold)
    # the kernels' arrays are fresh and held nowhere else: the Signals keep them
    u, y, v, e = (Signal._adopt(sc.dt, a) for a in (u_arr, y_arr, v_arr, e_arr))
    trace = energy_trace(u, y)
    classification = classify_pr(sc.plant)
    device_status = device_popov_audit(sc.device, v, y)
    audit = None
    if diverged_at is None and classification.grade is not Grade.NOT_PR:
        audit = _bound_chain_audit(sc.plant, classification, u, hold)
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

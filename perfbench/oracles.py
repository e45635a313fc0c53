"""Correctness oracles that do not share code with the package.

* Grades are compared with the ground truth the generator fixed (gen.py).
* Affine loops are replayed with a ``scipy.signal`` discrete-time closed-loop
  reference: the plant is realized by ``tf2ss`` and discretized by
  ``cont2discrete`` (zero-order hold), and ``u = e - k(t) y - offset(t)`` is
  closed algebraically on every stretch where the gain and input are constant.
* Nonlinear loops are checked for consistency: the recorded v must be the
  device law at the recorded y, u must be e - v, and the recorded y must be the
  ZOH plant's response (modal ``scipy.signal.lfilter``) to the recorded u.

Only numpy, scipy and the standard library are imported here.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
from scipy import signal

MARGIN_RTOL = 1e-6  # the corpus contract for margins
TRAJ_RTOL = 1e-8    # trajectories, relative to the running peak of |y|
OVERFLOW_GUARD = 1e9  # the divergence threshold the loop runner documents


# --- outcomes -----------------------------------------------------------------

RANK = {"ok": 0, "known_defect": 1, "wrong": 2}


class Outcomes:
    """Each operation's oracle outcome, judged once per run.

    A run repeats every operation for as many passes as its time allows, and
    checks every repetition. An operation counts once in ``attempted``, with
    the worst outcome any repetition had, so ``attempted`` and ``failed`` are
    fixed by the inputs and the code, not by how many passes fit in the time.
    """

    def __init__(self):
        self.by_op: dict[str, tuple[str, str, str]] = {}

    def record(self, op_id: str, status: str, detail: str = "", known: str = "") -> None:
        prev = self.by_op.get(op_id)
        if prev is None or RANK[status] > RANK[prev[0]]:
            self.by_op[op_id] = (status, detail, known if status == "known_defect" else "")

    def summary(self) -> dict:
        values = self.by_op.values()
        return {"attempted": len(self.by_op),
                "status": dict(Counter(st for st, _, _ in values)),
                "known_defects": dict(Counter(k for st, _, k in values if k)),
                "wrong": [f"{op}: {d}" for op, (st, d, _) in self.by_op.items()
                          if st == "wrong"][:20]}


# --- grading ------------------------------------------------------------------

def _close(actual: float, expected: float) -> bool:
    return abs(actual - expected) <= MARGIN_RTOL * max(1.0, abs(expected))


def check_grade(result, truth: dict) -> tuple[str, str]:
    """Compare a PRClassification with the ground truth.

    The truth names the grade and any of the margins d, d0, d1 the grade
    defines. Returns (status, detail) where status is "ok", "known_defect" or
    "wrong". A notch-family mismatch is the known defect only in the direction
    a frequency sweep that misses the notch produces: SSPR with a margin above
    the true minimum of Re g(jw).
    """
    grade = result.grade.value
    expected = truth["grade"]
    problems = []
    if grade != expected:
        problems.append(f"grade {grade}, expected {expected}")
    else:
        for name in ("d", "d0", "d1"):
            if name in truth and not _close(getattr(result, name), truth[name]):
                problems.append(f"{name} {getattr(result, name)!r}, expected {truth[name]!r}")
        if truth.get("single_pole_at_origin") and not (
                result.single_pole_at_origin and result.g1_grade is not None
                and result.g1_grade.value == "SSPR"):
            problems.append("expected a single origin pole with an SSPR s*g")
    if not problems:
        return "ok", ""
    detail = "; ".join(problems)
    if truth.get("known_defect") == "notch":
        true_min = truth.get("d", truth.get("min_re"))
        if grade == "SSPR" and result.d > true_min:
            return "known_defect", detail
    return "wrong", detail


# --- loops --------------------------------------------------------------------

def _realize(num_asc, den_asc):
    """tf2ss realization, reordered to the controllable canonical coordinates
    the scenario's x0 refers to (last state driven by u, first state = lowest
    derivative)."""
    if len(den_asc) == 1:
        return np.zeros((0, 0)), np.zeros((0, 1)), np.zeros((1, 0)), num_asc[0] / den_asc[0]
    num = np.asarray(num_asc, dtype=float)[::-1]
    den = np.asarray(den_asc, dtype=float)[::-1]
    A, B, C, D = signal.tf2ss(num / den[0], den / den[0])
    perm = np.arange(A.shape[0])[::-1]
    return A[np.ix_(perm, perm)], B[perm], C[:, perm], float(D.ravel()[0])


def _powers(M: np.ndarray, z0: np.ndarray, m: int) -> np.ndarray:
    """Rows z0, M z0, ..., M^(m-1) z0, built by doubling."""
    Z = np.empty((m, z0.size))
    Z[0] = z0
    power = M
    k = 1
    while k < m:
        take = min(k, m - k)
        Z[k:k + take] = Z[:take] @ power.T
        power = power @ power
        k *= 2
    return Z


def excitation(sc: dict, n_samples: int) -> np.ndarray:
    """The scenario's pulse e at t = k dt."""
    t = np.arange(n_samples) * float(sc["dt"])
    exc = sc.get("excitation")
    e = np.zeros(n_samples)
    if exc is not None:
        e[t < float(exc["duration"])] = float(exc["amplitude"])
    return e


def loop_inputs(sc: dict, n_samples: int):
    """Per-step e, gain and offset of u = e - gain*y - offset, from the scenario."""
    t = np.arange(n_samples) * float(sc["dt"])
    e = excitation(sc, n_samples)
    kind, p = sc["device"]["kind"], sc["device"]["params"]
    gain = np.zeros(n_samples)
    offset = np.zeros(n_samples)
    if kind == "StaticSector":
        k1 = float(p.get("k1", 0.0))
        k2 = float(p.get("k2", k1))
        gain[:] = min(max(float(p.get("gain", 0.5 * (k1 + k2))), k1), k2)
    elif kind == "TimeVaryingGain":
        samples = np.asarray(p["samples"], dtype=float)
        idx = np.array([min(int(tk / float(p["sample_dt"])), samples.size - 1) for tk in t])
        gain = samples[idx]
    elif kind == "RegenerativePulse":
        on = (t >= float(p["t_start"])) & (t < float(p["t_end"]))
        offset[on] = -float(p["rate"])
    else:
        raise ValueError(f"{kind} is not affine")
    return e, gain, offset


def affine_reference(sc: dict) -> np.ndarray:
    """Closed-loop output over the full horizon (may overflow past divergence)."""
    n_samples = int(round(float(sc["horizon"]) / float(sc["dt"]))) + 1
    e, gain, offset = loop_inputs(sc, n_samples)
    w = e - offset
    A, B, C, D = _realize(sc["plant"]["num"], sc["plant"]["den"])
    n = A.shape[0]
    y = np.empty(n_samples)
    if n == 0:
        return D * w / (1.0 + D * gain)
    Ad, Bd, _, _, _ = signal.cont2discrete((A, B, C, np.array([[D]])), float(sc["dt"]),
                                           method="zoh")
    c = C.ravel()
    x = np.asarray(sc.get("x0") or np.zeros(n), dtype=float)
    change = np.nonzero((np.diff(gain) != 0) | (np.diff(w) != 0))[0] + 1
    bounds = [0, *change.tolist(), n_samples]
    with np.errstate(over="ignore", invalid="ignore"):
        for k0, k1 in zip(bounds, bounds[1:]):
            g, wk = gain[k0], w[k0]
            scale = 1.0 / (1.0 + D * g)
            # y = (c x + D w) * scale;  x+ = Ad x + Bd (w - g y)
            M = np.zeros((n + 1, n + 1))
            M[:n, :n] = Ad - np.outer(Bd.ravel(), c) * (g * scale)
            M[:n, n] = Bd.ravel() * (1.0 - g * D * scale)
            M[n, n] = 1.0
            Z = _powers(M, np.append(x, wk), k1 - k0 + 1)
            y[k0:k1] = (Z[:-1, :n] @ c + D * wk) * scale
            x = Z[-1, :n]
    return y


def plant_response(sc: dict, u: np.ndarray) -> np.ndarray:
    """ZOH plant output for the recorded input u, from the scenario's x0.

    The discrete plant is split into its modes, each a first-order
    ``lfilter``; the transfer-function form of discrete poles clustered near
    z = 1 would lose digits at order 3.
    """
    A, B, C, D = _realize(sc["plant"]["num"], sc["plant"]["den"])
    n = A.shape[0]
    if n == 0:
        return D * u
    Ad, Bd, _, _, _ = signal.cont2discrete((A, B, C, np.array([[D]])),
                                           float(sc["dt"]), method="zoh")
    lam, V = np.linalg.eig(Ad)
    beta = np.linalg.solve(V, Bd.astype(complex)).ravel()
    gamma = (C @ V).ravel()
    z0 = np.linalg.solve(V, np.asarray(sc.get("x0") or np.zeros(n), dtype=complex))
    k = np.arange(u.size)
    y = D * u.astype(complex)
    for lam_i, beta_i, gamma_i, z0_i in zip(lam, beta, gamma, z0):
        mode = signal.lfilter([0.0, beta_i], [1.0, -lam_i], u.astype(complex))
        y += gamma_i * (mode + z0_i * lam_i ** k)
    return y.real


def device_law(sc: dict, y: np.ndarray) -> np.ndarray:
    """v = F(y) for the memoryless nonlinear devices."""
    kind, p = sc["device"]["kind"], sc["device"]["params"]
    if kind == "CubicOddPower":
        return y ** int(p.get("p", 3))
    if kind == "Relay":
        return float(p["amplitude"]) * np.sign(y)
    if kind == "DeadzoneSector":
        k1 = float(p.get("k1", 0.0))
        k2 = float(p.get("k2", k1))
        k = min(max(float(p.get("gain", 0.5 * (k1 + k2))), k1), k2)
        return np.where(np.abs(y) <= float(p.get("deadzone", 0.0)), 0.0, k * y)
    raise ValueError(f"{kind} has no nonlinear law here")


def _traj_error(actual: np.ndarray, expected: np.ndarray) -> float:
    """Largest |actual - expected| relative to 1 + the running peak of |expected|."""
    peak = np.maximum.accumulate(np.abs(expected))
    return float(np.max(np.abs(actual - expected) / (1.0 + peak)))


def _first_divergence(y_ref: np.ndarray) -> int | None:
    bad = np.nonzero(~(np.abs(y_ref) <= OVERFLOW_GUARD))[0]
    return int(bad[0]) if bad.size else None


def check_loop(case: dict, run, error: Exception | None) -> tuple[str, str]:
    """Compare a loop outcome (a SimulationRun, or the exception it raised)."""
    sc, truth = case["scenario"], case["truth"]
    outcome = truth["outcome"]
    if outcome == "raise":
        if error is not None and type(error).__name__ == "AlgebraicLoopNoConvergence":
            return "ok", ""
        return "wrong", f"expected AlgebraicLoopNoConvergence, got {error or 'a run'}"
    if error is not None:
        return "wrong", f"unexpected {type(error).__name__}: {error}"
    y = run.y.values
    if truth["kind"] in ("StaticSector", "TimeVaryingGain", "RegenerativePulse"):
        y_ref = affine_reference(sc)
        k_div = _first_divergence(y_ref)
        if outcome == "diverge":
            if run.diverged_at is None or run.verdict.value != "Diverged":
                return "wrong", "expected a diverged run"
            k_run = int(round(run.diverged_at / float(sc["dt"])))
            if k_div is None or abs(k_run - k_div) > 1 or y.size != k_run:
                return "wrong", f"diverged at step {k_run}, reference {k_div}"
        elif run.diverged_at is not None or k_div is not None:
            return "wrong", "expected a bounded run"
        err = _traj_error(y, y_ref[: y.size])
        if not err <= TRAJ_RTOL:
            return "wrong", f"trajectory error {err:.3g} > {TRAJ_RTOL}"
        return "ok", ""
    # nonlinear: consistency of the recorded loop
    if run.diverged_at is not None:
        return "wrong", "expected a bounded run"
    u, v, e = run.u.values, run.v.values, run.e.values
    checks = {
        "e": _traj_error(e, excitation(sc, y.size)),
        "v": _traj_error(v, device_law(sc, y)),
        "u": _traj_error(u, e - v),
        "y": _traj_error(y, plant_response(sc, u)),
    }
    bad = {k: v for k, v in checks.items() if not v <= TRAJ_RTOL}
    if bad:
        return "wrong", "inconsistent " + ", ".join(f"{k} ({v:.3g})" for k, v in bad.items())
    return "ok", ""


# --- CLI round trip -------------------------------------------------------------

# Expected outcome of `simulate` on each bundled demo: (exit code, verdict).
# unstable_gain is 1/(s - 1) under gain 0.5 and must diverge (exit 4); the
# integrator copy is cut at t = 2.5, where e^-t is still above the 1e-3
# convergence threshold, so it stays at HyperstableEvidence.
CLI_SIMULATE_EXPECT = {
    "sspr_sector": (0, "AsymptoticallyHyperstableEvidence"),
    "wspr_cubic": (0, "HyperstableEvidence"),
    "integrator_unit_gain": (0, "HyperstableEvidence"),
    "regenerative_pulse": (0, "AsymptoticallyHyperstableEvidence"),
    "unstable_gain": (4, "Diverged"),
}


def check_simulate(name: str, code: int, report: dict | None) -> tuple[str, str, str]:
    """`simulate` on a bundled demo: exit code, verdict, divergence time, audit.

    Returns (status, detail, known defect). A run whose bound-chain audit
    records violations is never a pass; on wspr_cubic that is the documented
    known-red acceptance criterion 5.
    """
    want_code, want_verdict = CLI_SIMULATE_EXPECT[name]
    verdict = report.get("verdict") if report else None
    if code != want_code or verdict != want_verdict:
        return "wrong", f"exit {code}, verdict {verdict}", ""
    if (report.get("diverged_at") is not None) != (want_code == 4):
        return "wrong", f"diverged_at {report.get('diverged_at')}", ""
    violations = report.get("bound_violation_count") or 0
    if violations:
        if name == "wspr_cubic":
            return "known_defect", f"{violations} bound-chain violations", "criterion-5"
        return "wrong", f"{violations} bound-chain violations", ""
    return "ok", "", ""


def check_audit(code: int, gamma0_sq, report: dict | None) -> tuple[str, str]:
    """`audit` re-derives the trace's Popov constant, which report.json records."""
    want = report.get("gamma0_sq_trace") if report else None
    if code != 0 or gamma0_sq is None or want is None \
            or not abs(gamma0_sq - want) <= 1e-12 * max(1.0, abs(want)):
        return "wrong", f"exit {code}, gamma0_sq {gamma0_sq}, report {want}"
    return "ok", ""


def check_parseval(code: int, rel_error) -> tuple[str, str]:
    """`parseval` exits 0 with time and frequency energies within 1e-6."""
    if code != 0 or rel_error is None or not rel_error <= 1e-6:
        return "wrong", f"exit {code}, rel_error {rel_error}"
    return "ok", ""


def check_corpus(code: int, mismatches) -> tuple[str, str]:
    """`corpus` on the bundled file exits 0 with no mismatches."""
    if code != 0 or mismatches != 0:
        return "wrong", f"exit {code}, {mismatches} mismatches"
    return "ok", ""

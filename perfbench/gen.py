"""Seeded input generators for the hyperstab benchmark.

Every generated case carries its ground truth, fixed by construction from the
parameters the generator drew, never by running the package:

* plants for ``grade_batch`` carry the expected grade and margins; the notch
  family's minimum of Re g(jw) comes from the closed-form real part of each
  band-pass term, ``Re B(jw) = 1 / (1 + Q(w)^2)``, refined around every notch;
* loop scenarios carry whether the loop must stay bounded, must diverge, or
  must raise ``AlgebraicLoopNoConvergence``.

The number of cases of each family, device, plant order and feedthrough is
fixed; the seed only draws the coefficients. That keeps the work per run the
same across seeds, so run-to-run spread measures the program, not the draw.

Coefficient arrays are ascending powers of s, as in the package's JSON files.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial import polynomial as P
from scipy import optimize

# The ROADMAP repro: g = 1 - 1.5 B(s; 1.2345, 1e-3) - 0.9 B(s; 100, 0.5).
NOTCH_REPRO = ((1.5, 1.2345, 1e-3), (0.9, 100.0, 0.5))

GRADE_FAMILY_COUNTS = {
    "sspr_sum": 60,
    "wspr_sum": 50,
    "pr_integrator": 40,
    "notpr_rhp_pole": 30,
    "notpr_reldeg2": 30,
    "notpr_axis_residue": 30,
    "notch": 49,  # plus the fixed ROADMAP repro
}

# (device kind, plant order, D != 0, expected outcome, count)
AFFINE_MIX = (
    [("StaticSector", n, dd, "bounded", 6) for n, dd in
     ((0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1))]
    + [("TimeVaryingGain", n, dd, "bounded", 4) for n, dd in
       ((0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1))]
    + [("RegenerativePulse", n, dd, "bounded", 4) for n, dd in
       ((0, 1), (1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1))]
    + [("StaticSector", n, dd, "diverge", 3) for n, dd in
       ((1, 0), (1, 1), (2, 0), (2, 1), (3, 0), (3, 1))]
    + [("TimeVaryingGain", 1, dd, "diverge", 2) for dd in (0, 1)]
)

NONLINEAR_MIX = (
    [("CubicOddPower", n, 1, "bounded", 15) for n in (0, 1, 2, 3)]
    + [("CubicOddPower", n, 0, "bounded", 4) for n in (1, 2, 3)]
    + [("Relay", n, 0, "bounded", 6) for n in (1, 2, 3)]
    + [("DeadzoneSector", n, 0, "bounded", 6) for n in (1, 2, 3)]
    + [("DeadzoneSector", n, 1, "raise", 2) for n in (1, 2, 3)]
    + [("Relay", n, 1, "raise", 2) for n in (1, 2, 3)]
)

# Loop lengths are spread geometrically over these ranges within each
# category, so the latency distribution has no gaps for a percentile to jump
# across; short enough that a run makes several passes.
AFFINE_HORIZONS = (1.0, 8.0)
NONLINEAR_HORIZONS = (0.5, 2.0)
RAISE_HORIZON = 4.0
LOOP_DT = 1e-3
DIVERGE_HORIZON = 5.0
# closed-loop growth rates of a diverging case: e^(10 * 5) >> 1e9, and a narrow
# band keeps the divergence time, hence the work, about the same for every seed
GROWTH_RATES = (10.0, 14.0)


def _f(values) -> list[float]:
    return [float(v) for v in np.atleast_1d(values)]


def _distinct_poles(rng, n: int, lo: float = 0.2, hi: float = 20.0) -> list[float]:
    """n positive pole magnitudes, pairwise apart by a factor >= 1.4."""
    while True:
        p = sorted(math.exp(v) for v in rng.uniform(math.log(lo), math.log(hi), n))
        if all(b / a >= 1.4 for a, b in zip(p, p[1:])):
            return p


def _partial_fractions(c: float, ks, ps) -> tuple[list[float], list[float]]:
    """Numerator and denominator of c + sum k_i / (s + p_i)."""
    den = np.array([1.0])
    for p in ps:
        den = P.polymul(den, [p, 1.0])
    num = c * den
    for i, k in enumerate(ks):
        term = np.array([k])
        for j, p in enumerate(ps):
            if j != i:
                term = P.polymul(term, [p, 1.0])
        num = P.polyadd(num, term)
    return _f(num), _f(den)


def _bandpass(w0: float, zeta: float) -> tuple[np.ndarray, np.ndarray]:
    """B(s) = 2 zeta w0 s / (s^2 + 2 zeta w0 s + w0^2), ascending."""
    return np.array([0.0, 2 * zeta * w0]), np.array([w0 * w0, 2 * zeta * w0, 1.0])


def notch_plant(notches) -> tuple[list[float], list[float]]:
    """g = 1 - sum a_i B(s; w0_i, zeta_i) over one common denominator."""
    parts = [(a,) + _bandpass(w0, zeta) for a, w0, zeta in notches]
    den = np.array([1.0])
    for _, _, d in parts:
        den = P.polymul(den, d)
    num = den.copy()
    for i, (a, b_num, _) in enumerate(parts):
        term = a * b_num
        for j, (_, _, d) in enumerate(parts):
            if j != i:
                term = P.polymul(term, d)
        num = P.polysub(num, term)
    return _f(num), _f(den)


def _notch_re(notches, w):
    w = np.asarray(w, dtype=float)
    total = np.ones_like(w)
    for a, w0, zeta in notches:
        q = (w0 * w0 - w * w) / (2.0 * zeta * w0 * w)
        total -= a / (1.0 + q * q)
    return total


def notch_min_real_part(notches) -> float:
    """min over w > 0 of 1 - sum a_i Re B(jw; w0_i, zeta_i).

    Re g is 1 at w = 0 and as w -> inf, so the minimum sits in a dip. Each
    dip is sampled on a grid fine enough for its width, and the best sample
    is refined by bounded Brent search on log w.
    """
    grids = [np.geomspace(1e-4, 1e6, 20001)]
    for _, w0, zeta in notches:
        half = min(0.9, 40.0 * zeta)
        grids.append(np.linspace(w0 * (1.0 - half), w0 * (1.0 + half), 4001))
    w = np.concatenate(grids)
    w.sort()
    vals = _notch_re(notches, w)
    k = int(np.argmin(vals))
    lo, hi = w[max(k - 1, 0)], w[min(k + 1, w.size - 1)]
    res = optimize.minimize_scalar(
        lambda lw: float(_notch_re(notches, [math.exp(lw)])[0]),
        bounds=(math.log(lo), math.log(hi)), method="bounded",
        options={"xatol": 1e-13},
    )
    return float(min(vals[k], res.fun))


def _grade_case(rng, family: str, i: int) -> dict:
    """Case i of a family; its order and shape cycle with i, only coefficients are drawn."""
    if family == "sspr_sum":
        n = i % 4
        c = float(rng.uniform(0.05, 2.0))
        ps = _distinct_poles(rng, n)
        num, den = _partial_fractions(c, rng.uniform(0.1, 5.0, n), ps)
        return dict(num=num, den=den, truth={"grade": "SSPR", "d": c})
    if family == "wspr_sum":
        n = 1 + i % 3
        ps = _distinct_poles(rng, n)
        ks = rng.uniform(0.1, 5.0, n)
        num, den = _partial_fractions(0.0, ks, ps)
        d0 = float(np.dot(ks, ps))
        return dict(num=num, den=den, truth={"grade": "WSPR", "d0": d0})
    if family == "pr_integrator":
        # g = (s + a) / (s (s + b)) with a < b: Re g(jw) = (b - a)/(b^2 + w^2),
        # residue a/b at the origin, and s g = (s + a)/(s + b) is SSPR, d1 = a/b.
        a = float(rng.uniform(0.1, 2.0))
        b = a * float(rng.uniform(1.5, 10.0))
        return dict(num=[a, 1.0], den=[0.0, b, 1.0],
                    truth={"grade": "PR", "d1": a / b, "single_pole_at_origin": True})
    if family == "notpr_rhp_pole":
        a = float(rng.uniform(0.1, 5.0))
        k = float(rng.uniform(0.1, 5.0))
        shape = i % 3
        if shape == 0:
            num, den = [k], [-a, 1.0]
        elif shape == 1:
            p = float(rng.uniform(0.2, 20.0))
            num, den = _f(P.polymul([k], [p + 1.0, 1.0])), _f(P.polymul([-a, 1.0], [p, 1.0]))
        else:
            p = float(rng.uniform(0.2, 20.0))
            num, den = _partial_fractions(float(rng.uniform(0.1, 2.0)), [k, 1.0], [-a, p])
        return dict(num=num, den=den, truth={"grade": "NotPR"})
    if family == "notpr_reldeg2":
        n = 2 + i % 2
        ps = _distinct_poles(rng, n)
        den = _f(P.polyfromroots([-p for p in ps]))
        k = float(rng.uniform(0.1, 5.0))
        num = [k] if n == 2 else _f(P.polymul([k], [float(rng.uniform(0.2, 20.0)), 1.0]))
        return dict(num=num, den=den, truth={"grade": "NotPR"})
    if family == "notpr_axis_residue":
        c = float(rng.uniform(0.1, 2.0))
        r = float(rng.uniform(0.1, 5.0))
        if i % 2 == 0:
            # g = c - r/s: residue -r at the origin
            return dict(num=[-r, c], den=[0.0, 1.0], truth={"grade": "NotPR"})
        # g = c - r s/(s^2 + w^2): residue -r/2 at +-jw
        w = float(rng.uniform(0.2, 20.0))
        return dict(num=[c * w * w, -r, c], den=[w * w, 0.0, 1.0],
                    truth={"grade": "NotPR"})
    if family == "notch":
        count = 1 + i % 2
        while True:
            notches = []
            for _ in range(count):
                w0 = math.exp(rng.uniform(math.log(0.05), math.log(200.0)))
                zeta = math.exp(rng.uniform(math.log(1e-3), math.log(0.5)))
                notches.append((float(rng.uniform(0.2, 1.8)), w0, zeta))
            ws = sorted(w0 for _, w0, _ in notches)
            if any(b / a < 20.0 for a, b in zip(ws, ws[1:])):
                continue
            m = notch_min_real_part(notches)
            if abs(m) >= 0.05:
                break
        return _notch_case(notches, m)
    raise ValueError(family)


def _notch_case(notches, m: float) -> dict:
    num, den = notch_plant(notches)
    truth = {"grade": "SSPR", "d": m} if m > 0 else {"grade": "NotPR", "min_re": m}
    truth["known_defect"] = "notch"
    return dict(num=num, den=den, truth=truth, notches=[list(n) for n in notches])


def grade_batch(seed: int) -> list[dict]:
    """Generated plants for classify_pr; the corpus is added by the worker."""
    rng = np.random.default_rng([seed, 1])
    cases = []
    for family, count in GRADE_FAMILY_COUNTS.items():
        for i in range(count):
            case = _grade_case(rng, family, i)
            case["family"] = family
            cases.append(case)
    repro = _notch_case(NOTCH_REPRO, notch_min_real_part(NOTCH_REPRO))
    repro["family"] = "notch_repro"
    cases.append(repro)
    order = rng.permutation(len(cases))
    out = [cases[i] for i in order]
    for i, case in enumerate(out):
        case["id"] = f"g{i:03d}-{case['family']}"
    return out


# --- loops --------------------------------------------------------------------

def _stable_plant(rng, n: int, feedthrough: bool, i: int, slowest: float = 0.3
                  ) -> tuple[list[float], list[float]]:
    """A positive-real plant: c + sum k_i/(s + p_i), or, for every third
    second-order case without feedthrough, (s + a)/(s (s + b))."""
    if n == 2 and not feedthrough and i % 3 == 0:
        a = float(rng.uniform(0.1, 2.0))
        return [a, 1.0], [0.0, a * float(rng.uniform(1.5, 10.0)), 1.0]
    c = float(rng.uniform(0.2, 1.5)) if feedthrough else 0.0
    return _partial_fractions(c, rng.uniform(0.2, 3.0, n), _distinct_poles(rng, n, slowest, 15.0))


def _unstable_loop(rng, n: int, feedthrough: bool, gains) -> tuple[list[float], list[float]]:
    """A plant with one right-half-plane pole that every gain in ``gains`` leaves unstable.

    The closed-loop characteristic polynomial den + k num is checked for a
    root with real part in GROWTH_RATES at every gain.
    """
    while True:
        a = float(rng.uniform(12.0, 25.0))
        ps = [-a] + _distinct_poles(rng, n - 1, 0.5, 10.0)
        ks = rng.uniform(0.2, 2.0, n)
        c = float(rng.uniform(0.2, 1.0)) if feedthrough else 0.0
        num, den = _partial_fractions(c, ks, ps)
        rates = [max(np.roots(P.polyadd(den, k * np.array(num))[::-1]).real) for k in gains]
        if GROWTH_RATES[0] <= min(rates) and max(rates) <= GROWTH_RATES[1]:
            return num, den


def _excitation(rng) -> dict:
    return {"amplitude": float(rng.uniform(0.5, 2.0)),
            "duration": float(rng.uniform(0.05, 0.5))}


def _x0(rng, num, den, target: float = 1.0, exact: bool = False) -> list[float]:
    """Initial state of the controllable canonical realization (den is monic).

    With C the strictly proper part's numerator, a random state is scaled to
    |C x0| <= target * |z|; with ``exact`` the state is the minimum-norm one
    with C x0 = +-target.
    """
    n = len(den) - 1
    if n == 0:
        return []
    padded = np.zeros(n + 1)
    padded[: len(num)] = num
    c = padded[:n] - padded[n] * np.asarray(den[:n])
    norm = np.linalg.norm(c)
    if exact:
        return _f(c * (target * float(rng.choice([-1.0, 1.0])) / (norm * norm)))
    return _f(rng.normal(0.0, 1.0, n) * target / norm)


def _horizon(bounds: tuple[float, float], i: int, count: int) -> float:
    """Case i of count, spread geometrically over [lo, hi]."""
    lo, hi = bounds
    return lo * (hi / lo) ** ((i + 0.5) / count)


def _affine_case(rng, kind: str, n: int, feedthrough: bool, outcome: str,
                 i: int, count: int) -> dict:
    horizon = _horizon(AFFINE_HORIZONS, i, count)
    if outcome == "diverge":
        horizon = DIVERGE_HORIZON
        if kind == "StaticSector":
            k = float(rng.uniform(0.0, 0.5))
            num, den = _unstable_loop(rng, n, feedthrough, [k])
            params = {"k1": k, "k2": k}
        else:
            samples = _f(rng.uniform(0.0, 0.5, 10))
            num, den = _unstable_loop(rng, n, feedthrough, samples)
            params = {"samples": samples, "sample_dt": horizon / len(samples)}
    else:
        if n == 0:
            num, den = [float(rng.uniform(0.2, 2.0))], [1.0]
        else:
            num, den = _stable_plant(rng, n, feedthrough, i)
        if kind == "StaticSector":
            k1 = float(rng.uniform(0.0, 3.0))
            params = {"k1": k1, "k2": k1 + float(rng.uniform(0.0, 2.0))}
        elif kind == "TimeVaryingGain":
            m = int(rng.integers(10, 50))
            params = {"samples": _f(rng.uniform(0.0, 4.0, m)), "sample_dt": horizon / m}
        else:
            t0 = float(rng.uniform(0.0, 1.0))
            params = {"t_start": t0, "t_end": t0 + float(rng.uniform(0.2, 1.0)),
                      "rate": float(rng.uniform(0.2, 2.0))}
    return {
        "plant": {"num": num, "den": den},
        "device": {"kind": kind, "params": params},
        "x0": _x0(rng, num, den),
        "excitation": _excitation(rng),
        "dt": LOOP_DT,
        "horizon": horizon,
    }


def _nonlinear_case(rng, kind: str, n: int, feedthrough: bool, outcome: str,
                    i: int, count: int) -> dict:
    # A loop that must raise gets fast plant poles (closed-loop rates >= 2 for
    # any positive gain, since the zeros interlace the poles) and a 4 s
    # horizon, so its output reaches the band where y = C x + D (e - F(y)) has
    # no root: |C x + D e| < D a for the relay, and the jump of the deadzone
    # at |y| = deadzone.
    raising = outcome == "raise"
    horizon = RAISE_HORIZON if raising else _horizon(NONLINEAR_HORIZONS, i, count)
    if n == 0:
        num, den = [float(rng.uniform(0.2, 2.0))], [1.0]
    else:
        num, den = _stable_plant(rng, n, feedthrough, i, 2.0 if raising else 0.3)
    if kind == "CubicOddPower":
        params = {"p": 3 if i % 2 else 5}
    elif kind == "Relay":
        params = {"amplitude": float(rng.uniform(0.1, 1.0))}
    else:
        k2 = float(rng.uniform(1.0, 3.0))
        params = {"k1": 0.0, "k2": k2, "gain": k2,
                  "deadzone": float(rng.uniform(0.1, 0.2))}
    return {
        "plant": {"num": num, "den": den},
        "device": {"kind": kind, "params": params},
        "x0": _x0(rng, num, den, 3.0, exact=True) if raising else _x0(rng, num, den),
        # a raising loop gets no pulse: the end of a pulse could jump y across
        # the band in one step
        "excitation": None if raising else _excitation(rng),
        "dt": LOOP_DT,
        "horizon": horizon,
    }


def _loops(seed: int, stream: int, mix, make) -> list[dict]:
    rng = np.random.default_rng([seed, stream])
    cases = []
    for kind, n, dd, outcome, count in mix:
        for i in range(count):
            scenario = make(rng, kind, n, bool(dd), outcome, i, count)
            cases.append({
                "scenario": scenario,
                "truth": {"outcome": outcome, "kind": kind, "order": n, "D": dd},
            })
    order = rng.permutation(len(cases))
    out = [cases[i] for i in order]
    for i, case in enumerate(out):
        t = case["truth"]
        case["id"] = f"l{i:03d}-{t['kind']}-n{t['order']}-D{t['D']}-{t['outcome']}"
    return out


def affine_loops(seed: int) -> list[dict]:
    return _loops(seed, 2, AFFINE_MIX, _affine_case)


def nonlinear_loops(seed: int) -> list[dict]:
    return _loops(seed, 3, NONLINEAR_MIX, _nonlinear_case)


GENERATORS = {
    "grade_batch": grade_batch,
    "affine_loops": affine_loops,
    "nonlinear_loops": nonlinear_loops,
}

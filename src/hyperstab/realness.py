"""Positive-realness grading of rational transfer functions.

Every grade and margin is decided from the coefficients. On the imaginary axis
``Re g(jw) = R(x)/Q(x)`` with ``x = w^2`` and ``Q(x) = |den(jw)|^2 >= 0``. R
and Q are built once in exact integer arithmetic from the float coefficients
(a float is a dyadic rational, so nothing is lost), and one primitive decides
``N(x) - t*Q(x) >= 0 on [0, inf)``: coefficients of one sign settle it at
once (Descartes' rule of signs); otherwise a Sturm sequence of the
polynomial's odd-multiplicity part, evaluated only at 0 and infinity, counts
the points where it changes sign (the nonnegativity test in w^2 of Anderson
and Vongpanitlerd). It decides ``Re g >= -TOL_MARGIN``, with R and Q taken
from g minus its axis-pole partial fractions (at an exact origin pole, g's
only one, from Re g = Im(s*g)/w, s*g's own product), and the strict positivity
behind WSPR, and certifies the margins d, d1 and c_w as lower bounds on the
true infima (one attained at w = 0 or w -> inf by R - t*Q having no negative
coefficient, before any estimate); d0 is the exact ratio of R's and Q's leads.
Where ``Re g >= -TOL_MARGIN`` fails, one point proves it: a negative leading
coefficient of ``R + TOL_MARGIN*Q``, or a point that the margin estimate
looked at where that polynomial is exactly negative. Such a NotPR grade needs
neither a Sturm chain nor a certified margin; certification is spent only on
the margins that are reported.
For rational functions, nonnegativity of the real part on the imaginary axis
together with stability is equivalent (maximum principle) to nonnegativity
of Re g on the whole closed right half-plane.

The grade and every field of its report come from these exact tests, and
``quadrant_ok`` is the ``Re g >= -TOL_MARGIN`` test itself; no frequency grid
is sampled. ``phase_deviation`` and ``hodograph_quadrant_check`` sample the
same condition on ``DIAGNOSTIC_OMEGAS`` for callers that want the hodograph
itself; nothing in the grading calls them.

Grades, from weakest to strongest:

* ``NotPR``  - fails stability, residue or real-part requirements.
* ``PR``     - Re g(jw) >= 0 everywhere, at most simple axis poles with
  real nonnegative residues.
* ``WSPR``   - strictly stable, Re g(jw) > 0 at all finite w, Re g -> 0 at
  infinity with w^2 * Re g(jw) -> d0 > 0 (relative degree one).
* ``SSPR``   - strictly stable, relative degree zero, Re g(jw) >= d > 0.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import PoleOnGrid, RepeatedAxisPole
from .ratfun import (
    TOL_AXIS,
    RationalFunction,
    StabilityClass,
    _axis_poles,
    _companion_roots,
    _coprime,
    _divide,
    _mul,
    _polydiv,
    _polymul,
    _polysub,
    _residues,
    _stability,
    _trimseq,
    freq_response_array,
    imaginary_axis_residues,
)

# Margins below this are indistinguishable from zero.
TOL_MARGIN = 1e-9
# A margin estimate that fails its exact test backs off from one ulp below
# it; bisection on t for a missed feature stops at 2 * CERT_REL * max(1, |t|).
CERT_REL = 1e-9
# Frequencies sampled by phase_deviation and hodograph_quadrant_check.
DIAGNOSTIC_OMEGAS = np.geomspace(1e-4, 1e6, 4096)
DIAGNOSTIC_OMEGAS.setflags(write=False)


class Grade(str, enum.Enum):
    NOT_PR = "NotPR"
    PR = "PR"
    WSPR = "WSPR"
    SSPR = "SSPR"


@dataclass(frozen=True)
class PRClassification:
    grade: Grade
    d: float = 0.0
    d0: float = 0.0
    d1: float = 0.0
    single_pole_at_origin: bool = False
    g1_grade: Grade | None = None
    # the exact Re g(jw) >= -TOL_MARGIN test; None if the grade came first
    quadrant_ok: bool | None = None
    diagnostics: tuple[str, ...] = ()

    def to_report(self) -> dict:
        return {
            "grade": self.grade.value,
            "d": self.d,
            "d0": self.d0,
            "d1": self.d1,
            "single_pole_at_origin": self.single_pole_at_origin,
            "g1_grade": self.g1_grade.value if self.g1_grade else None,
            "quadrant_ok": self.quadrant_ok,
            "diagnostics": list(self.diagnostics),
        }


# --- exact polynomials: integer coefficient lists, ascending powers ----------

def _lin(a: list[int], ka: int, b: list[int], kb: int) -> list[int]:
    """ka*a - kb*b."""
    n = max(len(a), len(b))
    a, b = a + [0] * (n - len(a)), b + [0] * (n - len(b))
    return _trimseq([ka * x - kb * y for x, y in zip(a, b)])


def _deriv(p: list[int]) -> list[int]:
    return [k * c for k, c in enumerate(p)][1:] or [0]


def _primitive(p: list[int]) -> list[int]:
    g = math.gcd(*p)
    return [c // g for c in p] if g > 1 else p


def _pdivmod(a: list[int], b: list[int]) -> tuple[list[int], list[int]]:
    """q, r with |lc b|^(deg a - deg b + 1) * a = q*b + r and deg r < deg b.

    Only the positive factor |lc b| scales the dividend, so signs survive.
    """
    c, sgn = abs(b[-1]), (1 if b[-1] > 0 else -1)
    q, r = [0] * max(len(a) - len(b) + 1, 0), list(a)
    for k in range(len(a) - len(b), -1, -1):
        m = r[-1] * sgn
        q = [c * x for x in q]
        q[k] += m
        r = [c * x for x in r]
        for i, bi in enumerate(b):
            r[k + i] -= m * bi
        r.pop()
    return q, _trimseq(r or [0])


def _sturm(p: list[int]) -> list[list[int]]:
    """p, p', then negated remainders; the last member is gcd(p, p')."""
    chain = [p, _primitive(_deriv(p))]
    while len(chain[-1]) > 1:
        _, r = _pdivmod(chain[-2], chain[-1])
        if r == [0]:
            break
        chain.append(_primitive([-c for c in r]))
    return chain


def _variations(values) -> int:
    signs = [v > 0 for v in values if v != 0]
    return sum(a != b for a, b in zip(signs, signs[1:]))


def _sign_changes(chain: list[list[int]]) -> int:
    """Distinct roots in (0, inf) of the first member of a Sturm sequence,
    nonzero at 0, by Sturm's theorem at 0 and infinity."""
    return _variations(q[0] for q in chain) - _variations(q[-1] for q in chain)


def _odd_part(p: list[int], chain: list[list[int]]) -> list[int]:
    """The distinct factors of p of odd multiplicity, times a constant;
    ``chain`` is ``_sturm(p)``.

    A root of multiplicity m in p has multiplicity m - 1 in gcd(p, p'), so
    p / gcd keeps every root once and dividing out the odd part of the gcd
    drops the roots of even multiplicity.
    """
    g = chain[-1]
    if len(g) == 1:
        return p
    squarefree = _primitive(_pdivmod(p, g)[0])
    return _primitive(_pdivmod(squarefree, _odd_part(g, _sturm(g)))[0])


def _nonnegative(f: list[int]) -> bool:
    """f(x) >= 0 on [0, inf): f is zero, or positive at infinity and it
    changes sign nowhere in (0, inf) (its value at 0 follows by continuity)."""
    if f == [0]:
        return True
    if f[-1] <= 0:
        return False
    # Descartes' rule of signs: coefficients of one sign leave no root in
    # (0, inf), so the Sturm chain is needed only when they change sign
    if _variations(f) == 0:
        return True
    # a factor x^k is positive on (0, inf) and changes no sign there
    while f[0] == 0:
        f = f[1:]
    chain = _sturm(f)
    if len(chain[-1]) > 1:
        # a repeated root changes sign only at odd multiplicity
        chain = _sturm(_odd_part(f, chain))
    return _sign_changes(chain) == 0


def _products(num, den) -> tuple[list[int], list[int]]:
    """P(s) = num(s)*den(-s) and D(s) = den(s)*den(-s) exactly, in integers
    scaled by one 4^k > 0: g = num/den = P/D, and D(jw) = |den(jw)|^2."""
    ratios = [c.as_integer_ratio() for c in num + den]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    num, den = ints[:len(num)], ints[len(num):]
    den_neg = [c if k % 2 == 0 else -c for k, c in enumerate(den)]
    return _mul(num, den_neg), _mul(den, den_neg)


def _alternating(p: list[int], start: int) -> list[int]:
    """Re p(jw) (start 0) or Im p(jw)/w (start 1) as a polynomial in x = w^2."""
    return _trimseq([c if m % 2 == 0 else -c for m, c in enumerate(p[start::2])] or [0])


def _real_part_polys(num, den) -> tuple[list[int], list[int]]:
    """Exact R and Q of Re g(jw) = R(x)/Q(x), x = w^2, for g = num/den."""
    p, d = _products(num, den)
    return _alternating(p, 0), _alternating(d, 0)


def _limit(n: list[int], q: list[int]) -> float:
    """n(x)/q(x) as x -> inf, for q with a positive leading coefficient."""
    if len(n) > len(q):
        return math.inf if n[-1] > 0 else -math.inf
    return n[-1] / q[-1] if len(n) == len(q) else 0.0


def _endpoint(n: list[int], q: list[int], v0: float) -> float | None:
    """inf over x >= 0 of n(x)/q(x), certified, if an end of the axis attains
    it, else None: t0 = min(limit, v0 at x = 0) when n - t0*q has no negative
    coefficient (so is >= 0 on [0, inf)), or ``_certify``'s next rung when only
    an end coefficient fails (rounding). x^1, where an interior dip shows, goes first."""
    t0 = min(_limit(n, q), v0)
    if not math.isfinite(t0):
        return None
    for t in (t0, t0 - (math.ulp(t0) if t0 else math.ulp(1.0))):
        num, den = t.as_integer_ratio()
        if max(len(n), len(q)) > 2 and sum(n[1:2]) * den < sum(q[1:2]) * num:
            return None
        f = _lin(n, den, q, num)
        if min(f[1:-1], default=0) < 0:
            return None
        if f[0] >= 0 and f[-1] >= 0:
            return t
    return None


def _estimate(n: list[int], q: list[int], value, v0: float) -> tuple[float, list, list]:
    """An estimate of inf over x >= 0 of n(x)/q(x), not certified, and the
    points x it looked at with their values.

    The estimate is the smallest of the x -> inf limit and ``value(w)``, the
    function evaluated directly at w = sqrt(x) for x = 0 (v0, which the
    caller has) and every critical point (the real part of each root of
    n'q - nq', clipped at zero). The few values are Python floats,
    ``freq_response_array``'s bit for bit.
    """
    crit = _lin(_mul(_deriv(n), q), 1, _mul(n, _deriv(q)), 1)
    top = max(abs(c) for c in crit)
    xs = [0.0]
    if top:
        xs += [max(r.real, 0.0) for r in _companion_roots(_trimseq([c / top for c in crit]))]
    vals = [v0] + [value(math.sqrt(x)) for x in xs[1:]]
    finite = [v for v in vals if math.isfinite(v)]
    est = min(_limit(n, q), min(finite, default=math.inf))
    return (0.0 if est == math.inf else est), xs, vals


def _certify(n: list[int], q: list[int], est: float) -> float:
    """A lower bound on inf over x >= 0 of n(x)/q(x) from its estimate.

    The exact test ``n - t*q >= 0`` runs at t = est, then one ulp below it
    (an ulp of 1 below est = 0), 16 times further each step until it passes;
    a bracket wider than 2*CERT_REL relative (a missed feature) is bisected.
    """
    if est == -math.inf:
        return est

    def holds(t: float) -> bool:
        num, den = t.as_integer_ratio()
        return _nonnegative(_lin(n, den, q, num))

    if holds(est):
        return est
    tol = math.ulp(est) if est else math.ulp(1.0)
    hi, lo, step = est, est - tol, tol
    while not holds(lo):
        if step > 1e300:
            return -math.inf
        hi, step = lo, step * 16.0
        lo = est - step
    # the width is relative to lo, so a bracket far below est still closes
    while hi - lo > 2.0 * CERT_REL * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo


def _infimum(n: list[int], q: list[int], value) -> float:
    """inf over x >= 0 of n(x)/q(x), certified never to exceed the true value:
    ``_endpoint``, else ``_certify`` of the ``_estimate`` that ``value`` gives.
    ``classify_pr`` runs the parts apart, so that a witness of a negative real
    part ends the grading before any certification."""
    v0 = value(0.0)
    end = _endpoint(n, q, v0)
    return _certify(n, q, _estimate(n, q, value, v0)[0]) if end is None else end


def _negative_at(f: list[int], xs: list[float]) -> float | None:
    """A point x >= 0 where f(x) < 0 exactly, or None if none is found.

    math.inf when the leading coefficient is negative, else the first of xs
    where f is negative, each taken as the exact dyadic rational a/b it is
    (b > 0): f(a/b) has the sign of sum f_i a^i b^(deg f - i), summed by
    Horner's rule in integers.
    """
    if f[-1] < 0:
        return math.inf
    for x in xs:
        a, b = x.as_integer_ratio()
        v, b_k = f[-1], 1
        for c in reversed(f[:-1]):
            b_k *= b
            v = v * a + c * b_k
        if v < 0:
            return x
    return None


def _axis_free_part(num, den, axis) -> RationalFunction:
    """g = num/den minus the partial fractions of its axis poles, with real
    residues.

    A real residue r contributes r/s at the origin and 2r*s/(s^2 + w0^2) for
    the pair at +/-j*w0, both purely imaginary on the axis, so the difference
    has the same Re g(jw) away from the poles. Its denominator is den divided
    by the axis factors, so rounding in the coefficients cannot leave a pole a
    hair off the axis for the exact test to see.
    """
    factors, fracs = [], []
    for info in axis:
        p, r = info.location, info.residue.real
        if abs(p) <= TOL_AXIS:
            factors.append([0.0, 1.0])
            fracs.append([r])
        elif p.imag > 0.0:
            factors.append([abs(p) ** 2, 0.0, 1.0])
            fracs.append([0.0, 2.0 * r])
    axis_poly = [1.0]
    for f in factors:
        axis_poly = _polymul(axis_poly, f)
    rest = _polydiv(den, axis_poly)[0]
    for k, frac in enumerate(fracs):
        others = _polydiv(axis_poly, factors[k])[0]
        num = _polysub(num, _polymul(frac, _polymul(others, rest)))
    # every pole left keeps the nonzero principal part it has in g
    return _coprime(_polydiv(num, axis_poly)[0], rest)


def _re_value(num, den):
    """w -> Re g(jw) of g = num/den at one float w, ``freq_response_array``'s
    bit for bit: ``_divide`` of two ``ratfun._horner_jw`` written out here,
    each from 0 + 0j, whose first step is numpy's lead + 0*(jw) exactly."""
    num, den = num[::-1], den[::-1]

    def value(w: float) -> float:
        sr, si = 0.0 * w - 0.0, 0.0 + w
        ar = ai = br = bi = 0.0
        for c in num:
            ar, ai = c + (ar * sr - ai * si), 0.0 + (ar * si + ai * sr)
        for c in den:
            br, bi = c + (br * sr - bi * si), 0.0 + (br * si + bi * sr)
        return _divide(ar, ai, br, bi)[0]
    return value


def _real_part(num, den, axis):
    """(R, Q, free, sg) with Re g(jw) = R(w^2)/Q(w^2), g = num/den, off its
    axis poles in ``axis``; ``free()`` gives the coefficients of g without
    them (``_axis_free_part``), whose Re g the margin estimate evaluates. None
    when one of their residues is not real: Re g is unbounded below there.

    If the only one is an exact origin pole (den[0] == 0), P = num(s)*den1(-s),
    den1 = den[1:], gives Re(s*g)(jw) = E(x)/Q from its even part and Re g(jw)
    = Im(s*g)(jw)/w = R(x)/Q from its odd part; ``sg`` is then this tuple for
    s*g = num/den1, and only ``free()`` builds g less its pole. Else sg is None.
    """
    if any(abs(p.residue.imag) > TOL_MARGIN * (1.0 + abs(p.residue)) for p in axis):
        return None
    if not axis:
        return (*_real_part_polys(num, den), lambda: (num, den), None)
    if den[0] == 0.0 and len(axis) == 1 and abs(axis[0].location) <= TOL_AXIS:
        p, d = _products(num, den[1:])
        q = _alternating(d, 0)
        sg = (_alternating(p, 0), q, lambda: (num, den[1:]), None)
        return _alternating(p, 1), q, lambda: _free_coeffs(num, den, axis), sg
    coeffs = _free_coeffs(num, den, axis)
    return (*_real_part_polys(*coeffs), lambda: coeffs, None)


def _free_coeffs(num, den, axis):
    """The coefficient tuples of ``_axis_free_part``."""
    g_free = _axis_free_part(num, den, axis)
    return g_free.num.coeffs, g_free.den.coeffs


def real_part_margin(g: RationalFunction) -> float:
    """Certified infimum of Re g(jw) over w >= 0 off the axis poles, the
    w -> inf limit included.

    Axis poles with real residues leave Re g unchanged away from them, so they
    are removed first, as in ``classify_pr`` (a repeated axis pole stays; an
    exact origin pole alone is divided out of g's own R and Q).
    Never above the true infimum; -inf when Re g is unbounded below (an axis
    pole with a residue that is not real).
    """
    try:
        axis = imaginary_axis_residues(g)
    except RepeatedAxisPole:
        axis = []
    part = _real_part(g.num.coeffs, g.den.coeffs, axis)
    if part is None:
        return -math.inf
    r, q, free, _ = part
    return _infimum(r, q, _re_value(*free()))


def wspr_chain_constant(g: RationalFunction) -> float:
    """c_w = inf over x = w^2 >= 0 of (1 + x) * Re g(jw), certified like d.

    Re g(jw) >= c_w / (1 + w^2) at every frequency, so Parseval and causality
    give ``<u, g*u>_t >= c_w * int_0^t xi^2`` with xi = u filtered by
    1/(s + 1): the supplied-energy chain that every WSPR plant satisfies, with
    c_w > 0 there. Its x -> inf limit is d0.
    """
    r, q = _real_part_polys(g.num.coeffs, g.den.coeffs)
    re = _re_value(g.num.coeffs, g.den.coeffs)
    return _infimum(_mul([1, 1], r), q, lambda w: (1.0 + w * w) * re(w))


def _pole_free_omegas(g: RationalFunction) -> np.ndarray:
    """DIAGNOSTIC_OMEGAS; PoleOnGrid if an axis pole lies in their range."""
    lo, hi = DIAGNOSTIC_OMEGAS[0], DIAGNOSTIC_OMEGAS[-1]
    for p in g.poles():
        if abs(p.real) <= TOL_AXIS and lo <= abs(p.imag) <= hi:
            raise PoleOnGrid(f"axis pole at omega={abs(p.imag)} inside the grid range")
    return DIAGNOSTIC_OMEGAS


def phase_deviation(g: RationalFunction) -> float:
    """Largest |arg g(jw)| over DIAGNOSTIC_OMEGAS, in degrees."""
    vals = freq_response_array(g, _pole_free_omegas(g))
    return float(np.max(np.abs(np.degrees(np.angle(vals)))))


@dataclass(frozen=True)
class QuadrantReport:
    ok: bool
    min_real: float
    first_tangency_omega: float | None
    first_violation_omega: float | None


def hodograph_quadrant_check(g: RationalFunction) -> QuadrantReport:
    """First/third-quadrant confinement of the hodograph, sampled for w >= 0.

    Conjugate symmetry extends the verdict to negative frequencies. Tangency
    with the imaginary axis (Re within TOL_MARGIN of zero) is reported, since
    it rules the strongest grade out.
    """
    omegas = _pole_free_omegas(g)
    re = freq_response_array(g, omegas).real
    ok = bool(np.all(re >= -TOL_MARGIN))
    viol = np.nonzero(re < -TOL_MARGIN)[0]
    tang = np.nonzero(np.abs(re) <= TOL_MARGIN)[0]
    return QuadrantReport(
        ok=ok,
        min_real=float(np.min(re)),
        first_tangency_omega=float(omegas[tang[0]]) if tang.size else None,
        first_violation_omega=float(omegas[viol[0]]) if viol.size else None,
    )


def classify_pr(g: RationalFunction) -> PRClassification:
    """Grade a transfer function and compute the margins d, d0, d1.

    ``quadrant_ok`` is the exact test that decides PR, W = R + TOL_MARGIN*Q
    >= 0 on [0, inf), that is Re g(jw) >= -TOL_MARGIN at every w: True for
    PR, WSPR and SSPR, False when it fails, and None when the grade is
    decided before it runs (an unstable plant, or an axis pole whose residue
    is not real and nonnegative). Descartes' rule, an exact witness of W < 0
    (its leading coefficient, or a point of the margin estimate, lowest Re g
    first, sought when the estimate falls below -TOL_MARGIN; the diagnostic
    names it) and, at relative degree zero, the certified margin settle it
    before W's Sturm chain where they can; the answer stays that of the
    chain.

    A PR g with one pole at the origin also grades s*g for ``g1_grade`` and
    d1 (its d when SSPR): at an exact origin pole, g's only axis pole, from
    the R and Q of one integer product (``_real_part``), with no second
    function built. The zero function, 0/s too, has no pole.
    """
    return _classify(g.num.coeffs, g.den.coeffs, g.poles())


def _classify(num, den, poles, real_part=None) -> PRClassification:
    """``classify_pr`` of the stored coefficients num/den with the pole list
    ``poles``; ``real_part`` is their ``_real_part`` if the caller has it."""
    diagnostics: list[str] = []
    quad: bool | None = None

    def graded(grade: Grade, **margins) -> PRClassification:
        return PRClassification(grade, quadrant_ok=quad,
                                diagnostics=tuple(diagnostics), **margins)

    axis_poles = _axis_poles(poles)
    stability = _stability(poles, axis_poles)
    if stability is StabilityClass.UNSTABLE:
        diagnostics.append("denominator has a pole with positive real part "
                           "or a repeated axis pole")
        return graded(Grade.NOT_PR)
    axis = _residues(num, den, axis_poles)
    for info in axis:
        res = info.residue
        scale = 1.0 + abs(res)
        if abs(res.imag) > TOL_MARGIN * scale or res.real < -TOL_MARGIN * scale:
            diagnostics.append(
                f"axis pole at {info.location} has residue {res}, "
                "which is not real and nonnegative"
            )
            return graded(Grade.NOT_PR)

    # Re g(jw) = R/Q off the axis poles; PR allows Re g >= -TOL_MARGIN, which
    # is W = R + TOL_MARGIN*Q >= 0 on [0, inf)
    r, q, free, sg_part = real_part or _real_part(num, den, axis)
    relative_degree = len(den) - len(num)
    tol_num, tol_den = TOL_MARGIN.as_integer_ratio()
    widened = _lin(r, tol_den, q, -tol_num)
    margin = 0.0  # Re g -> 0 at relative degree >= 1, so d = 0 there
    if relative_degree > 0 and _variations(widened) == 0:
        # W's lead, TOL_MARGIN times Q's, is positive, and coefficients of
        # one sign leave W no root in (0, inf) (Descartes' rule)
        quad = True
    else:
        value = _re_value(*free())
        v0 = value(0.0)
        end = _endpoint(r, q, v0) if relative_degree == 0 else None
        # W = (R - d*Q) + (d + TOL_MARGIN)*Q with R - d*Q >= 0 for the
        # certified d and Q >= 0, so d >= -TOL_MARGIN proves W >= 0
        if end is not None and end >= -TOL_MARGIN:
            margin, quad = end, True
        else:
            est, xs, vals = _estimate(r, q, value, v0)
            witness = None
            if est < -TOL_MARGIN:
                # the estimate dips below -TOL_MARGIN: look for a witness,
                # lowest Re g first (sorted in Python, NaN last, as a first
                # np.argsort maps 0.4 MB of numpy's sort code)
                order = sorted(range(len(xs)), key=lambda k: (math.isnan(vals[k]), vals[k]))
                witness = _negative_at(widened, [xs[k] for k in order])
            if witness is not None:
                quad = False
                diagnostics.append(
                    f"Re g(jw) -> {r[-1] / q[-1]:.6g} as w -> inf: "
                    "R(w^2) + TOL_MARGIN*Q(w^2) is negative at infinity"
                    if witness == math.inf else
                    f"Re g(jw) = {vals[xs.index(witness)]:.6g} at w = {math.sqrt(witness):.6g}: "
                    "R(w^2) + TOL_MARGIN*Q(w^2) is exactly negative there and "
                    "changes sign at w^2 > 0")
                return graded(Grade.NOT_PR)
            if relative_degree == 0:
                margin = _certify(r, q, est)
                quad = margin >= -TOL_MARGIN or _nonnegative(widened)
            else:
                quad = _nonnegative(widened)
            if not quad:
                # a sign change that no witness showed
                infimum = margin if relative_degree == 0 else _certify(r, q, est)
                diagnostics.append(
                    "Re g(jw) < 0 at some w: R(w^2) + TOL_MARGIN*Q(w^2) changes sign "
                    f"at w^2 > 0 or is negative at infinity; inf Re g(jw) = {infimum:.6g}"
                )
                return graded(Grade.NOT_PR)

    strictly_stable = stability is StabilityClass.STRICTLY_STABLE
    if strictly_stable and relative_degree == 0 and margin > TOL_MARGIN:
        return graded(Grade.SSPR, d=margin)
    if strictly_stable and relative_degree == 1:
        # w^2 Re g -> d0, the ratio of the x^(n-1) and x^n coefficients
        d0 = r[-1] / q[-1] if len(r) + 1 == len(q) else 0.0
        if d0 > TOL_MARGIN and r[0] > 0 and (
                _variations(r) == 0 or _sign_changes(_sturm(r)) == 0):
            return graded(Grade.WSPR, d0=d0)

    # a zero numerator leaves g no pole, and its s*g is g again
    single = num != (0.0,) and sum(1 for p in poles if abs(p) <= TOL_AXIS) == 1
    sub = None
    if single and len(num) >= len(den):
        diagnostics.append("s*g(s) is improper; no derived-function margin")
    elif single and den[0] == 0.0:
        # s*g = num/(den past its zero constant term), as the search cancels
        # s*num/den, with g's poles less the last zero that roots() appends
        zero = max(k for k, p in enumerate(poles) if p == 0.0)
        sub = _classify(num, den[1:], poles[:zero] + poles[zero + 1:], sg_part)
    elif single:
        sub = classify_pr(RationalFunction((0.0,) + num, den))
    return graded(Grade.PR, d=max(0.0, margin), single_pole_at_origin=single,
                  g1_grade=sub and sub.grade,
                  d1=sub.d if sub and sub.grade is Grade.SSPR else 0.0)

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
from g minus its axis-pole partial fractions, and the strict positivity
behind WSPR, and certifies the margins d, d1 and c_w as lower bounds on the
true infima; d0 is the exact ratio of the leading coefficients of R and Q.
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

from .errors import ImproperTransferFunction, PoleOnGrid, RepeatedAxisPole
from .ratfun import (
    TOL_AXIS,
    RationalFunction,
    StabilityClass,
    _axis_poles,
    _companion_roots,
    _coprime,
    _mul,
    _polydiv,
    _polymul,
    _polysub,
    _residues,
    _stability,
    _trimseq,
    freq_response_array,
    imaginary_axis_residues,
    times_s,
)

# Margins below this are indistinguishable from zero.
TOL_MARGIN = 1e-9
# A margin estimate is certified at est - CERT_REL * max(1, |est|) when the
# estimate itself fails; bisection on t stops at twice that width.
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


def _real_part_polys(g: RationalFunction) -> tuple[list[int], list[int]]:
    """Exact R and Q of Re g(jw) = R(x)/Q(x), x = w^2, scaled by one 4^k > 0.

    With P(s) = num(s) * den(-s), Re P(jw) keeps the even powers of s with
    alternating signs, and Q is the same rule applied to den(s) * den(-s).
    """
    ratios = [c.as_integer_ratio() for c in g.num.coeffs + g.den.coeffs]
    scale = max(d for _, d in ratios)
    ints = [n * (scale // d) for n, d in ratios]
    num, den = ints[:len(g.num.coeffs)], ints[len(g.num.coeffs):]
    den_neg = [c if k % 2 == 0 else -c for k, c in enumerate(den)]

    def even(p):
        return _trimseq([c if i % 2 == 0 else -c for i, c in enumerate(p[::2])])

    return even(_mul(num, den_neg)), even(_mul(den, den_neg))


def _infimum(n: list[int], q: list[int], value) -> tuple[float, list[float]]:
    """inf over x >= 0 of n(x)/q(x), certified never to exceed the true value,
    and the points x its estimate looked at.

    The estimate is the smallest of the x -> inf limit and ``value(w)``, the
    function evaluated directly at w = sqrt(x) for x = 0 and every critical
    point (the real part of each root of n'q - nq', clipped at zero). It is
    certified by the exact test ``n - t*q >= 0`` at t = est, then at
    est - CERT_REL*max(1, |est|); when both fail (a feature the float roots
    missed), t backs off geometrically and bisects with the same test.
    """
    if len(n) > len(q):
        limit = math.inf if n[-1] > 0 else -math.inf
    else:
        limit = n[-1] / q[-1] if len(n) == len(q) else 0.0
    crit = _lin(_mul(_deriv(n), q), 1, _mul(n, _deriv(q)), 1)
    top = max(abs(c) for c in crit)
    xs = [0.0]
    if top:
        xs += [max(r.real, 0.0) for r in _companion_roots(_trimseq([c / top for c in crit]))]
    with np.errstate(all="ignore"):
        vals = value(np.sqrt(xs))
    vals = vals[np.isfinite(vals)]
    est = min(limit, float(np.min(vals))) if vals.size else limit
    if est == math.inf:
        est = 0.0
    if est == -math.inf:
        return est, xs

    def holds(t: float) -> bool:
        num, den = t.as_integer_ratio()
        return _nonnegative(_lin(n, den, q, num))

    if holds(est):
        return est, xs
    tol = CERT_REL * max(1.0, abs(est))
    hi, lo, step = est, est - tol, tol
    while not holds(lo):
        if step > 1e300:
            return -math.inf, xs
        hi, step = lo, step * 16.0
        lo = est - step
    # the width is relative to lo, so a bracket far below est still closes
    while hi - lo > 2.0 * CERT_REL * max(1.0, abs(lo)):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if holds(mid) else (lo, mid)
    return lo, xs


def _negative_at(f: list[int], xs: list[float]) -> bool:
    """Whether f(x) < 0 at one of the points xs, each taken as the exact
    dyadic rational a/b it is (b > 0): f(a/b) has the sign of
    sum f_i a^i b^(deg f - i)."""
    n = len(f) - 1
    return any(sum(c * a ** i * b ** (n - i) for i, c in enumerate(f)) < 0
               for a, b in map(float.as_integer_ratio, xs))


def _axis_free_part(g: RationalFunction, axis) -> RationalFunction:
    """g minus the partial fractions of its axis poles, with real residues.

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
    if not factors:
        return g
    axis_poly = [1.0]
    for f in factors:
        axis_poly = _polymul(axis_poly, f)
    rest = _polydiv(g.den.coeffs, axis_poly)[0]
    num = g.num.coeffs
    for k, frac in enumerate(fracs):
        others = _polydiv(axis_poly, factors[k])[0]
        num = _polysub(num, _polymul(frac, _polymul(others, rest)))
    # every pole left keeps the nonzero principal part it has in g
    return _coprime(_polydiv(num, axis_poly)[0], rest)


def _re_value(g: RationalFunction):
    return lambda w: freq_response_array(g, w).real


def _real_part(g: RationalFunction, axis) -> tuple[RationalFunction, list[int], list[int]] | None:
    """(g_free, R, Q) with Re g(jw) = R(w^2)/Q(w^2) off the axis poles, g_free
    being g without the axis poles in ``axis`` (``_axis_free_part``); None
    when one of their residues is not real, so that Re g is unbounded below
    next to that pole.
    """
    if any(abs(p.residue.imag) > TOL_MARGIN * (1.0 + abs(p.residue)) for p in axis):
        return None
    g_free = _axis_free_part(g, axis)
    return (g_free, *_real_part_polys(g_free))


def real_part_margin(g: RationalFunction) -> float:
    """Certified infimum of Re g(jw) over w >= 0 off the axis poles, the
    w -> inf limit included.

    Axis poles with real residues leave Re g unchanged away from them, so they
    are removed first, as in ``classify_pr`` (a repeated axis pole stays).
    Never above the true infimum; -inf when Re g is unbounded below (an axis
    pole with a residue that is not real).
    """
    try:
        axis = imaginary_axis_residues(g)
    except RepeatedAxisPole:
        axis = []
    part = _real_part(g, axis)
    if part is None:
        return -math.inf
    g_free, r, q = part
    return _infimum(r, q, _re_value(g_free))[0]


def wspr_chain_constant(g: RationalFunction) -> float:
    """c_w = inf over x = w^2 >= 0 of (1 + x) * Re g(jw), certified like d.

    Re g(jw) >= c_w / (1 + w^2) at every frequency, so Parseval and causality
    give ``<u, g*u>_t >= c_w * int_0^t xi^2`` with xi = u filtered by
    1/(s + 1): the supplied-energy chain that every WSPR plant satisfies, with
    c_w > 0 there. Its x -> inf limit is d0.
    """
    r, q = _real_part_polys(g)
    return _infimum(_mul([1, 1], r), q, lambda w: (1.0 + w * w) * _re_value(g)(w))[0]


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

    ``quadrant_ok`` is the exact test that decides PR, Re g(jw) >= -TOL_MARGIN
    at every w: True for PR, WSPR and SSPR, False when it fails, and None when
    the grade is decided before it runs (an unstable plant, or an axis pole
    whose residue is not real and nonnegative). At relative degree zero the
    certified margin, then the points its estimate looked at, can settle it
    before the Sturm chain of R + TOL_MARGIN*Q; the meaning and the values
    stay those of that chain.
    """
    diagnostics: list[str] = []
    quad: bool | None = None

    def graded(grade: Grade, **margins) -> PRClassification:
        return PRClassification(grade, quadrant_ok=quad,
                                diagnostics=tuple(diagnostics), **margins)

    # the poles are found once; every pole test below reads them
    poles = g.poles()
    axis_poles = _axis_poles(poles)
    stability = _stability(poles, axis_poles)
    if stability is StabilityClass.UNSTABLE:
        diagnostics.append("denominator has a pole with positive real part "
                           "or a repeated axis pole")
        return graded(Grade.NOT_PR)
    axis = _residues(g, axis_poles)
    for info in axis:
        res = info.residue
        scale = 1.0 + abs(res)
        if abs(res.imag) > TOL_MARGIN * scale or res.real < -TOL_MARGIN * scale:
            diagnostics.append(
                f"axis pole at {info.location} has residue {res}, "
                "which is not real and nonnegative"
            )
            return graded(Grade.NOT_PR)

    # Re g(jw) = R/Q off the axis poles; PR allows Re g >= -TOL_MARGIN
    g_free, r, q = _real_part(g, axis)
    tol_num, tol_den = TOL_MARGIN.as_integer_ratio()
    widened = _lin(r, tol_den, q, -tol_num)
    infimum = None
    if g.relative_degree == 0:
        # R + TOL_MARGIN*Q = (R - d*Q) + (d + TOL_MARGIN)*Q with R - d*Q >= 0
        # for the certified d and Q >= 0, so d >= -TOL_MARGIN proves the
        # test; else a point of the estimate where it is negative disproves
        # it, and only when neither holds does the Sturm chain decide
        infimum, xs = _infimum(r, q, _re_value(g_free))
        quad = infimum >= -TOL_MARGIN or (
            not _negative_at(widened, xs) and _nonnegative(widened))
    else:
        quad = _nonnegative(widened)
    if not quad:
        if infimum is None:
            infimum = _infimum(r, q, _re_value(g_free))[0]
        diagnostics.append(
            "Re g(jw) < 0 at some w: R(w^2) + TOL_MARGIN*Q(w^2) changes sign "
            f"at w^2 > 0 or is negative at infinity; inf Re g(jw) = {infimum:.6g}"
        )
        return graded(Grade.NOT_PR)

    strictly_stable = stability is StabilityClass.STRICTLY_STABLE
    # Re g >= -TOL_MARGIN, and for relative degree >= 1 it tends to 0: d = 0
    margin = 0.0 if infimum is None else infimum
    if strictly_stable and g.relative_degree == 0 and margin > TOL_MARGIN:
        return graded(Grade.SSPR, d=margin)
    if strictly_stable and g.relative_degree == 1:
        # w^2 Re g -> d0, the ratio of the x^(n-1) and x^n coefficients
        d0 = r[-1] / q[-1] if len(r) + 1 == len(q) else 0.0
        if d0 > TOL_MARGIN and r[0] > 0 and (
                _variations(r) == 0 or _sign_changes(_sturm(r)) == 0):
            return graded(Grade.WSPR, d0=d0)

    single = sum(1 for p in poles if abs(p) <= TOL_AXIS) == 1
    g1_grade: Grade | None = None
    d1 = 0.0
    if single:
        try:
            sub = classify_pr(times_s(g))
            g1_grade = sub.grade
            if sub.grade is Grade.SSPR:
                d1 = sub.d
        except ImproperTransferFunction:
            diagnostics.append("s*g(s) is improper; no derived-function margin")
    return graded(Grade.PR, d=max(0.0, margin), single_pole_at_origin=single,
                  g1_grade=g1_grade, d1=d1)

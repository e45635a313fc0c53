"""Real polynomials and scalar rational transfer functions.

Coefficients are stored in ascending powers of s, so ``[2, 1]`` is ``s + 2``.
Rational functions are normalized at construction: the factors whose root
passes one root test in both polynomials are divided out, the denominator is
made monic, and properness (``deg den >= deg num``) is enforced. Outside
input always goes through that search; ``inverse``, ``times_s`` at an origin
pole and grading's axis-free part are coprime by construction and skip it.
A pole list is ``roots(den)``, solved on first use or handed over by
``times_s``; ``poles()`` returns a copy. Values are otherwise immutable, so
threads can share them: two threads that fill one list write the same value.
``freq_response_array`` evaluates g(jw) on a numpy array of frequencies;
``freq_response`` and the margin estimate's ``_response_jw`` evaluate one
frequency in Python floats, numpy's operations written out, with the
array's value bit for bit.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import LinAlgError, _umath_linalg

from .errors import (
    DegenerateInput,
    EvaluationAtPole,
    ImproperTransferFunction,
    RepeatedAxisPole,
    ZeroDenominator,
    ZeroNumerator,
    is_number,
)

# Tolerance for treating roots as one (repeated poles, a real root with a
# rounding-level imaginary part), relative to root scale.
ROOT_MATCH_TOL = 1e-8
# Grouping of roots into candidate multiple roots, relative to root scale, and
# the largest |p(r)|, relative to Horner's a-priori rounding bound
# sum |p_i| |r|^i, at which r still counts as a root of p.
CLUSTER_TOL = 1e-3
FACTOR_REM_TOL = 1e-12
# A pole is treated as lying on the imaginary axis when |Re| <= TOL_AXIS.
TOL_AXIS = 1e-9
# Relative threshold below which trailing coefficients are trimmed.
COEFF_TRIM_TOL = 1e-12
_FLOATS = frozenset((float,))


def _trim(coeffs) -> tuple[float, ...]:
    if isinstance(coeffs, np.ndarray):
        coeffs = coeffs.tolist()
    if not isinstance(coeffs, (list, tuple)):
        coeffs = [coeffs]
    if not coeffs:
        raise DegenerateInput("coefficient list must be a nonempty 1-d sequence")
    # floats at once, else numbers and numpy's real scalars; never a bool or
    # a str
    if not _FLOATS.issuperset(map(type, coeffs)) and not all(
            is_number(c) or isinstance(c, (np.floating, np.integer)) for c in coeffs):
        raise DegenerateInput(f"coefficients must be numbers, got {list(coeffs)!r}")
    vals = [float(c) for c in coeffs]
    if not all(map(math.isfinite, vals)):
        raise DegenerateInput("coefficients must be finite")
    scale = max(map(abs, vals))
    if scale == 0.0:
        return (0.0,)
    cut = COEFF_TRIM_TOL * scale
    end = len(vals)
    while abs(vals[end - 1]) <= cut:
        end -= 1
    return tuple(vals[:end])


def _horner(coeffs, x):
    """``npp.polyval(x, coeffs)`` in its operation order, without building
    numpy arrays for a scalar x (an array x is evaluated elementwise)."""
    if isinstance(x, (tuple, list)):
        x = np.asarray(x)
    val = coeffs[-1] + x * 0
    for c in coeffs[-2::-1]:
        val = c + val * x
    return val


@dataclass(frozen=True)
class Polynomial:
    """Real polynomial in ascending powers; trailing zeros are trimmed."""

    coeffs: tuple[float, ...]

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return self.coeffs == (0.0,)

    @property
    def leading(self) -> float:
        return self.coeffs[-1]

    def __call__(self, s):
        return _horner(self.coeffs, s)

    def times_s(self) -> "Polynomial":
        return Polynomial((0.0,) + self.coeffs)

    def isclose(self, other: "Polynomial", tol: float = 1e-10) -> bool:
        if len(self.coeffs) != len(other.coeffs):
            return False
        scale = max(np.max(np.abs(self.coeffs)), np.max(np.abs(other.coeffs)), 1.0)
        return bool(np.allclose(self.coeffs, other.coeffs, rtol=0.0, atol=tol * scale))


def _eigvals(a: np.ndarray) -> np.ndarray:
    """``np.linalg.eigvals(a)`` of a real square float64 matrix, bit for bit.

    It calls the LAPACK gufunc that ``np.linalg.eigvals`` calls, without the
    wrapper's array conversion, type promotion and finiteness pass, which on
    the short companion matrices of grading cost more than LAPACK itself.
    The contract stays: a non-finite entry raises before LAPACK sees it,
    non-convergence raises, and an all-real spectrum comes back real.
    """
    if not all(map(math.isfinite, a.ravel().tolist())):
        raise LinAlgError("Array must not contain infs or NaNs")
    try:
        with np.errstate(invalid="raise", over="ignore", divide="ignore", under="ignore"):
            w = _umath_linalg.eigvals(a, signature="d->D")
    except FloatingPointError:
        raise LinAlgError("Eigenvalues did not converge") from None
    return w if w.imag.any() else w.real


def _companion_roots(c) -> list:
    """The eigenvalues of the companion matrix that ``np.roots`` builds for
    the ascending coefficients c, last one nonzero, past their zeros at the
    low end: every root of c but those at zero, unsorted."""
    low = 0
    while c[low] == 0.0:
        low += 1
    n = len(c) - 1 - low
    if not n:
        return []
    companion = np.eye(n, k=-1)
    companion[0] = [-x / c[-1] for x in reversed(c[low:-1])]
    return _eigvals(companion).tolist()


def roots(p: Polynomial) -> list[complex]:
    """All roots of ``p`` (with multiplicity), sorted by real then imaginary
    part: ``_companion_roots``, the eigenvalues of ``np.roots``' companion
    matrix, then the roots at zero that its zero low-order coefficients give.
    """
    if p.is_zero:
        raise DegenerateInput("zero polynomial has no well-defined roots")
    if p.degree < 1:
        raise DegenerateInput("constant polynomial has no roots")
    rts = _companion_roots(p.coeffs)
    rts += [0.0] * (p.degree - len(rts))
    return sorted(map(complex, rts), key=lambda r: (r.real, r.imag))


def _mean(group: list[complex]) -> complex:
    """The mean of a cluster of roots."""
    return sum(group) / len(group)


def _cluster_roots(rts: list[complex], tol: float = ROOT_MATCH_TOL) -> list[tuple[complex, int]]:
    """Group nearly-identical roots into (location, multiplicity) pairs."""
    remaining = list(rts)
    clusters: list[tuple[complex, int]] = []
    while remaining:
        seed = remaining.pop(0)
        group = [seed]
        scale = 1.0 + abs(seed)
        rest = []
        for r in remaining:
            if abs(r - seed) <= tol * scale:
                group.append(r)
            else:
                rest.append(r)
        remaining = rest
        clusters.append((_mean(group), len(group)))
    return clusters


def _near(r: complex, rts: list[complex]) -> bool:
    """Whether a root of ``rts`` lies within CLUSTER_TOL of r, relative to its scale."""
    return any(abs(x - r) <= CLUSTER_TOL * (1.0 + abs(r)) for x in rts)


def _trimseq(c: list[float]) -> list[float]:
    """c without trailing zeros, keeping at least one coefficient."""
    end = len(c)
    while end > 1 and c[end - 1] == 0.0:
        end -= 1
    return c[:end]


def _polydiv(c1, c2) -> tuple[list[float], list[float]]:
    """``npp.polydiv(c1, c2)`` (quotient, remainder) on plain floats, in its
    operation order."""
    c1, c2 = _trimseq([float(c) for c in c1]), _trimseq([float(c) for c in c2])
    if len(c1) < len(c2):
        return [c1[0] * 0], c1
    if len(c2) == 1:
        return [c / c2[0] for c in c1], [c1[0] * 0]
    scl = c2[-1]
    c2 = [c / scl for c in c2[:-1]]
    n = len(c2)
    for j in range(len(c1) - 1, n - 1, -1):
        lead = c1[j]
        c1[j - n:j] = [a - b * lead for a, b in zip(c1[j - n:j], c2)]
    return [c / scl for c in c1[n:]], _trimseq(c1[:n])


def _mul(a: list, b: list) -> list:
    """The product of coefficient lists a and b, each sum from 0 along a."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


def _polymul(c1, c2) -> list[float]:
    """``npp.polymul(c1, c2)`` on plain floats, summed along the longer factor
    (where the factors part-overlap numpy may fuse multiply-adds)."""
    c1, c2 = _trimseq([float(c) for c in c1]), _trimseq([float(c) for c in c2])
    return _trimseq(_mul(c1, c2) if len(c1) >= len(c2) else _mul(c2, c1))


def _polysub(c1, c2) -> list[float]:
    """``npp.polysub(c1, c2)`` on plain floats."""
    c1, c2 = _trimseq([float(c) for c in c1]), _trimseq([float(c) for c in c2])
    return _trimseq([a - b for a, b in zip(c1, c2)] + c1[len(c2):] + [-b for b in c2[len(c1):]])


def _factor(r: complex) -> list[float] | None:
    """s - r for a real r, s^2 - 2 Re(r) s + |r|^2 for r above the real axis,
    None below it (its conjugate stands for the pair); no coefficient is -0.0."""
    if abs(r.imag) <= ROOT_MATCH_TOL * (1.0 + abs(r)):
        return [-r.real or 0.0, 1.0]
    return [abs(r) ** 2, -2.0 * r.real or 0.0, 1.0] if r.imag > 0.0 else None


def _is_root(p: Polynomial, r: complex) -> bool:
    """|p(r)| <= FACTOR_REM_TOL * sum |p_i| |r|^i, Horner's rounding bound; for
    r != 0 both past p's exact roots at 0, so that neither underflows to 0."""
    c = p.coeffs[next(i for i, x in enumerate(p.coeffs) if x != 0.0) if r else 0:]
    bound = FACTOR_REM_TOL * _horner([abs(x) for x in c], abs(r))
    return abs(_horner(c, r)) <= bound < math.inf


def _quotient(p: Polynomial, factor: list[float]) -> Polynomial:
    """p / factor, its remainder dropped: for the factor s, p past its zero
    constant term; else by composite deflation (Peters and Wilkinson 1971):
    past p's exact roots at 0, the coefficients below the largest term |p_k|
    (|r|/2)^k, r the factor's roots, come from the reversed division, the rest
    from the top, so no recurrence scales rounding up."""
    c = p.coeffs
    if factor == [0.0, 1.0]:
        return Polynomial(c[1:])
    low = next(i for i, x in enumerate(c) if x != 0.0) if factor[0] else 0
    body, size = c[low:], 0.5 * abs(factor[0]) ** (1.0 / (len(factor) - 1))
    k = max(range(len(body)), key=lambda i: abs(body[i]) * size ** i)
    bottom = _polydiv(body[::-1], factor[::-1])[0][::-1]
    return Polynomial([0.0] * low + bottom[:k] + _polydiv(body, factor)[0][k:])


def _own_factor(p: Polynomial, near: list[complex], k: int, factor: list[float]):
    """The factor of p's own copy of a candidate root, the mean of its roots
    ``near`` the candidate, if they are k and p divides by it k times; else
    ``factor``."""
    own = _factor(_mean(near))
    if len(near) != k or not own or len(own) != len(factor):
        return factor
    for _ in near:
        if not _is_root(p, _mean(near)):
            return factor
        p = _quotient(p, own)
    return own


def _cancel_common_roots(num: Polynomial, den: Polynomial):
    """Divide out the factors (s - r), or real quadratics of pairs r, r*, of
    num and den one at a time, solving the quotients for roots again after
    each. The candidates r are the means within CLUSTER_TOL (a split multiple
    root has an accurate mean) of the numerator roots near a denominator root
    and of the denominator roots near those, then each of those roots. The
    first candidate that ``_is_root`` of both divides out; each side is
    divided by its own copy, so the remainder it drops is its own rounding."""
    while not (num.is_zero or num.degree == 0 or den.degree == 0):
        num_roots, den_roots = roots(num), roots(den)
        # a common root has a root of the other side near it
        num_near = [r for r in num_roots if _near(r, den_roots)]
        den_near = [r for r in den_roots if _near(r, num_near)]
        means = [c for rts in (num_near, den_near) for c, _ in _cluster_roots(rts, CLUSTER_TOL)]
        for center in means + num_near + den_near:
            factor = _factor(center)
            if factor and len(factor) <= len(num.coeffs) and _is_root(num, center) and _is_root(den, center):
                near = [[r for r in rts if _near(center, [r])] or [center] for rts in (num_roots, den_roots)]
                num, den = (_quotient(p, _own_factor(p, n, min(map(len, near)), factor))
                            for p, n in zip((num, den), near))
                break
        else:
            break
    return num, den


class StabilityClass(str, enum.Enum):
    STRICTLY_STABLE = "StrictlyStable"
    CRITICALLY_STABLE = "CriticallyStable"
    UNSTABLE = "Unstable"


@dataclass(frozen=True)
class PoleInfo:
    """A pole location with multiplicity; residue only for simple poles."""

    location: complex
    multiplicity: int
    residue: complex | None = None


@dataclass(frozen=True)
class RationalFunction:
    """Proper rational function num(s)/den(s), cancelled and monic-denominator."""

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den, _search: bool = True):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ZeroDenominator("denominator is the zero polynomial")
        if _search and not num.is_zero:
            num, den = _cancel_common_roots(num, den)
        if num.degree > den.degree and not num.is_zero:
            raise ImproperTransferFunction(
                f"deg num ({num.degree}) exceeds deg den ({den.degree})"
            )
        # each coefficient divided by the lead, so the stored lead is exactly
        # 1 (a product with fl(1/lead) can leave 1 - 2^-53)
        lead = den.leading
        try:
            object.__setattr__(self, "num", Polynomial([c / lead for c in num.coeffs]))
            object.__setattr__(self, "den", Polynomial([c / lead for c in den.coeffs]))
        except DegenerateInput:
            # every coefficient is finite, so a quotient overflowed
            raise DegenerateInput(
                f"making the denominator monic overflows: a coefficient divided by "
                f"the leading coefficient {lead!r} is not finite") from None
        object.__setattr__(self, "_poles", None)

    @property
    def relative_degree(self) -> int:
        return self.den.degree - self.num.degree

    def poles(self) -> list[complex]:
        """``roots(den)``, solved on first use and kept, or handed over by
        ``times_s``."""
        if self.den.degree < 1:
            return []
        if self._poles is None:
            object.__setattr__(self, "_poles", roots(self.den))
        return list(self._poles)

    def zeros(self) -> list[complex]:
        if self.num.is_zero or self.num.degree < 1:
            return []
        return roots(self.num)

    def isclose(self, other: "RationalFunction", tol: float = 1e-10) -> bool:
        return self.num.isclose(other.num, tol) and self.den.isclose(other.den, tol)

    def __str__(self) -> str:
        return f"({list(self.num.coeffs)}) / ({list(self.den.coeffs)})"


def _coprime(num, den) -> RationalFunction:
    """``RationalFunction(num, den)`` without the common-root search, for a
    pair that has no common root by construction."""
    return RationalFunction(num, den, _search=False)


def ratfun_new(num, den) -> RationalFunction:
    """Build a normalized rational function from ascending coefficient lists."""
    return RationalFunction(num, den)


def _horner_jw(coeffs, w: float) -> tuple[float, float]:
    """``_horner(coeffs, 1j*np.asarray(w))``, real and imaginary part, at one
    float w: numpy's complex operations written out in floats, its complex
    promotions included (``1j*w`` is (0, 1)(w, 0), a float c is (c, 0))."""
    sr, si = 0.0 * w - 0.0, 0.0 + w
    vr, vi = coeffs[-1] + (sr * 0.0 - si * 0.0), 0.0 + (sr * 0.0 + si * 0.0)
    for c in coeffs[-2::-1]:
        vr, vi = c + (vr * sr - vi * si), 0.0 + (vr * si + vi * sr)
    return vr, vi


def _over_zero(a: float) -> float:
    """a / 0.0 as IEEE division gives it, where Python raises."""
    return math.copysign(math.inf, a) if a == a and a != 0.0 else math.nan


def _divide(ar: float, ai: float, br: float, bi: float) -> tuple[float, float]:
    """(ar + j ai) / (br + j bi) by numpy's complex division, Smith's rule
    with the reciprocal taken once (CPython divides by the denominator, and
    differs in the last bit); a zero denominator, or a NaN real part over a
    zero imaginary part, gives numpy's inf or NaN, not ZeroDivisionError."""
    if abs(br) >= abs(bi):
        if br == 0.0:
            return _over_zero(ar), _over_zero(ai)
        rat = bi / br
        scl = 1.0 / (br + bi * rat)
        return (ar + ai * rat) * scl, (ai - ar * rat) * scl
    if bi == 0.0:
        return math.nan, math.nan
    rat = br / bi
    scl = 1.0 / (bi + br * rat)
    return (ar * rat + ai) * scl, (ai * rat - ar) * scl


def _response_jw(num, den, w: float) -> tuple[float, float]:
    """``freq_response_array`` of the coefficient tuples num/den at one float
    w, bit for bit, as (real, imaginary) floats, without the pole guard."""
    return _divide(*_horner_jw(num, w), *_horner_jw(den, w))


def freq_response(g: RationalFunction, omega: float) -> complex:
    """Evaluate g at s = j*omega; conjugate symmetry holds for real omega.
    The value is ``freq_response_array``'s bit for bit; EvaluationAtPole when
    |den(j omega)| <= 1e-12 * max|den_k| * max(1, |omega|)^deg den."""
    w, n = float(omega), g.den.degree
    br, bi = _horner_jw(g.den.coeffs, w)
    # both sides over 2^(k*n), max(1, |omega|) = m*2^k, so neither overflows
    m, k = math.frexp(max(1.0, abs(w)))
    bound = 1e-12 * (max(abs(c) for c in g.den.coeffs) * m ** n)
    if math.ldexp(math.hypot(br, bi), -k * n) <= bound:
        raise EvaluationAtPole(f"omega={omega!r} lies on a pole of the function")
    return complex(*_divide(*_horner_jw(g.num.coeffs, w), br, bi))


def freq_response_array(g: RationalFunction, omegas: np.ndarray) -> np.ndarray:
    """Vectorized frequency response without the pole guard (caller filters)."""
    s = 1j * np.asarray(omegas, dtype=float)
    return _horner(g.num.coeffs, s) / _horner(g.den.coeffs, s)


def _axis_poles(poles: list[complex]) -> list[tuple[complex, int]]:
    """The clusters of ``poles`` on the imaginary axis, as (location,
    multiplicity) pairs."""
    return [(p, m) for p, m in _cluster_roots(poles) if abs(p.real) <= TOL_AXIS]


def _stability(poles: list[complex], axis_poles) -> StabilityClass:
    """Stability class of ``poles``, of which ``axis_poles`` lie on the axis."""
    if poles and max(p.real for p in poles) > TOL_AXIS:
        return StabilityClass.UNSTABLE
    if not axis_poles:
        return StabilityClass.STRICTLY_STABLE
    if any(m > 1 for _, m in axis_poles):
        return StabilityClass.UNSTABLE
    return StabilityClass.CRITICALLY_STABLE


def _residues(num, den, axis_poles) -> list[PoleInfo]:
    """Residues of num/den (coefficient tuples) at ``axis_poles``; a repeated one is an error."""
    out = []
    for location, mult in axis_poles:
        if mult > 1:
            raise RepeatedAxisPole(
                f"axis pole at {location} has multiplicity {mult}"
            )
        slope = Polynomial([k * c for k, c in enumerate(den)][1:])
        res = complex(_horner(num, location)) / complex(slope(location))
        out.append(PoleInfo(location=location, multiplicity=1, residue=res))
    return out


def stability_class(g: RationalFunction) -> StabilityClass:
    """Classify pole locations against the imaginary axis."""
    poles = g.poles()
    return _stability(poles, _axis_poles(poles))


def imaginary_axis_residues(g: RationalFunction) -> list[PoleInfo]:
    """Residues at all imaginary-axis poles; repeated axis poles are an error."""
    return _residues(g.num.coeffs, g.den.coeffs, _axis_poles(g.poles()))


def times_s(g: RationalFunction) -> RationalFunction:
    """s*g(s) in cancelled form; errors if the product is improper. At an
    origin pole, num/(den past its zero constant term), unsearched: the same
    companion matrix, so its poles are g's less the last zero ``roots`` adds."""
    if g.den.coeffs[0] == 0.0 and not g.num.is_zero:
        sg = _coprime(g.num.coeffs, g.den.coeffs[1:])
        poles = g.poles()
        del poles[max(k for k, p in enumerate(poles) if p == 0.0)]
        object.__setattr__(sg, "_poles", poles)
        return sg
    return RationalFunction(g.num.times_s(), g.den)


def inverse(g: RationalFunction) -> RationalFunction:
    """Return 1/g(s); errors on a zero numerator or an improper result.
    1/g of a cancelled g is cancelled: it is built without the search."""
    if g.num.is_zero:
        raise ZeroNumerator("cannot invert the zero function")
    return _coprime(g.den, g.num)

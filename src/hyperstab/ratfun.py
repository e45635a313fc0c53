"""Real polynomials and scalar rational transfer functions.

Coefficients are stored in ascending powers of s, so ``[2, 1]`` is ``s + 2``.
Rational functions are normalized at construction: common numerator/denominator
factors are divided out, the denominator is made monic, and properness
(``deg den >= deg num``) is enforced. Everything here is immutable after
construction and all operations are pure, so values can be shared across
threads freely.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npp

from .errors import (
    DegenerateInput,
    EvaluationAtPole,
    ImproperTransferFunction,
    RepeatedAxisPole,
    ZeroDenominator,
    ZeroNumerator,
)

# Tolerance for treating roots as one (repeated poles, a real root with a
# rounding-level imaginary part), relative to root scale.
ROOT_MATCH_TOL = 1e-8
# Grouping of numerator roots into candidate multiple roots, relative to root
# scale, and the largest remainder, relative to the largest coefficient, that
# still counts as exact division by a candidate common factor.
CLUSTER_TOL = 1e-3
FACTOR_REM_TOL = 1e-12
# A pole is treated as lying on the imaginary axis when |Re| <= TOL_AXIS.
TOL_AXIS = 1e-9
# Relative threshold below which trailing coefficients are trimmed.
COEFF_TRIM_TOL = 1e-12


def _trim(coeffs) -> tuple[float, ...]:
    arr = np.atleast_1d(np.asarray(coeffs, dtype=float))
    if arr.ndim != 1 or arr.size == 0:
        raise DegenerateInput("coefficient list must be a nonempty 1-d sequence")
    if not np.all(np.isfinite(arr)):
        raise DegenerateInput("coefficients must be finite")
    scale = np.max(np.abs(arr))
    if scale == 0.0:
        return (0.0,)
    keep = np.nonzero(np.abs(arr) > COEFF_TRIM_TOL * scale)[0]
    if keep.size == 0:
        return (0.0,)
    return tuple(float(c) for c in arr[: keep[-1] + 1])


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
        return npp.polyval(s, self.coeffs)

    def derivative(self) -> "Polynomial":
        if self.degree == 0:
            return Polynomial([0.0])
        return Polynomial(npp.polyder(self.coeffs))

    def scaled(self, factor: float) -> "Polynomial":
        return Polynomial([c * factor for c in self.coeffs])

    def times_s(self) -> "Polynomial":
        return Polynomial((0.0,) + self.coeffs)

    def isclose(self, other: "Polynomial", tol: float = 1e-10) -> bool:
        if len(self.coeffs) != len(other.coeffs):
            return False
        scale = max(np.max(np.abs(self.coeffs)), np.max(np.abs(other.coeffs)), 1.0)
        return bool(np.allclose(self.coeffs, other.coeffs, rtol=0.0, atol=tol * scale))


def roots(p: Polynomial) -> list[complex]:
    """All roots of ``p`` (with multiplicity) via the companion matrix.

    numpy's root finder diagonalizes the companion matrix, which is accurate
    for the small degrees this package deals with.
    """
    if p.is_zero:
        raise DegenerateInput("zero polynomial has no well-defined roots")
    if p.degree < 1:
        raise DegenerateInput("constant polynomial has no roots")
    rts = np.roots(np.asarray(p.coeffs[::-1], dtype=float))
    order = np.lexsort((rts.imag, rts.real))
    return [complex(r) for r in rts[order]]


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
        center = complex(np.mean(group))
        clusters.append((center, len(group)))
    return clusters


def _near(r: complex, rts: list[complex]) -> int:
    """How many of ``rts`` lie within CLUSTER_TOL of r, relative to its scale."""
    return sum(abs(x - r) <= CLUSTER_TOL * (1.0 + abs(r)) for x in rts)


def _quotient(p: Polynomial, factor: np.ndarray) -> np.ndarray | None:
    """p / factor, or None when the remainder is not negligible."""
    quo, rem = npp.polydiv(p.coeffs, factor)
    return quo if np.max(np.abs(rem)) <= FACTOR_REM_TOL * np.max(np.abs(p.coeffs)) else None


def _cancel_common_roots(num: Polynomial, den: Polynomial):
    """Divide out the product of the factors (s - r)^m, or real quadratics of
    pairs r, r*, that leave a negligible remainder in both num and den.

    The candidates r are the means of the numerator roots grouped within
    CLUSTER_TOL, then every root of either side, each only when a root of
    the other side lies within CLUSTER_TOL. A root of multiplicity m comes
    back from the eigenvalue solver split by about eps**(1/m), and the mean
    of the split group is accurate to rounding; a simple root is accurate by
    itself, also when a distinct root near it spoils the mean. m is at most
    the number of roots of either side near r, and the division of both
    sides by the product so far times (s - r)^m decides.
    """
    if num.is_zero or num.degree == 0 or den.degree == 0:
        return num, den
    num_roots, den_roots = roots(num), roots(den)
    # a common root has a root of the other side near it
    num_near = [r for r in num_roots if _near(r, den_roots)]
    if not num_near:
        return num, den
    den_near = [r for r in den_roots if _near(r, num_near)]
    means = [c for c, _ in _cluster_roots(num_near, CLUSTER_TOL)]
    common, taken, quotients = np.array([1.0]), [], (num, den)
    for center in means + num_near + den_near:
        if abs(center.imag) <= ROOT_MATCH_TOL * (1.0 + abs(center)):
            factor = np.array([-center.real, 1.0])
        elif center.imag > 0.0:
            factor = np.array([abs(center) ** 2, -2.0 * center.real, 1.0])
        else:
            continue
        if _near(center, taken):
            continue
        trial, size = common, len(common)
        for _ in range(min(_near(center, num_roots), _near(center, den_roots))):
            trial = npp.polymul(trial, factor)
            q_num = _quotient(num, trial)
            q_den = None if q_num is None else _quotient(den, trial)
            if q_den is None:
                break
            common, quotients = trial, (Polynomial(q_num), Polynomial(q_den))
        if len(common) > size:
            taken.append(center)
    return quotients


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

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise ZeroDenominator("denominator is the zero polynomial")
        if not num.is_zero:
            num, den = _cancel_common_roots(num, den)
        if num.degree > den.degree and not num.is_zero:
            raise ImproperTransferFunction(
                f"deg num ({num.degree}) exceeds deg den ({den.degree})"
            )
        lead = den.leading
        object.__setattr__(self, "num", num.scaled(1.0 / lead))
        object.__setattr__(self, "den", den.scaled(1.0 / lead))

    @property
    def relative_degree(self) -> int:
        return self.den.degree - self.num.degree

    def poles(self) -> list[complex]:
        if self.den.degree < 1:
            return []
        return roots(self.den)

    def zeros(self) -> list[complex]:
        if self.num.is_zero or self.num.degree < 1:
            return []
        return roots(self.num)

    def isclose(self, other: "RationalFunction", tol: float = 1e-10) -> bool:
        return self.num.isclose(other.num, tol) and self.den.isclose(other.den, tol)

    def __str__(self) -> str:
        return f"({list(self.num.coeffs)}) / ({list(self.den.coeffs)})"


def ratfun_new(num, den) -> RationalFunction:
    """Build a normalized rational function from ascending coefficient lists."""
    return RationalFunction(num, den)


def freq_response(g: RationalFunction, omega: float) -> complex:
    """Evaluate g at s = j*omega; conjugate symmetry holds for real omega."""
    s = 1j * float(omega)
    dval = complex(g.den(s))
    scale = max(abs(c) for c in g.den.coeffs) * max(1.0, abs(omega)) ** g.den.degree
    if abs(dval) <= 1e-12 * scale:
        raise EvaluationAtPole(f"omega={omega!r} lies on a pole of the function")
    return complex(g.num(s)) / dval


def freq_response_array(g: RationalFunction, omegas: np.ndarray) -> np.ndarray:
    """Vectorized frequency response without the pole guard (caller filters)."""
    s = 1j * np.asarray(omegas, dtype=float)
    return npp.polyval(s, g.num.coeffs) / npp.polyval(s, g.den.coeffs)


def stability_class(g: RationalFunction) -> StabilityClass:
    """Classify pole locations against the imaginary axis."""
    poles = g.poles()
    if not poles:
        return StabilityClass.STRICTLY_STABLE
    if max(p.real for p in poles) > TOL_AXIS:
        return StabilityClass.UNSTABLE
    axis = [(p, m) for p, m in _cluster_roots(poles) if abs(p.real) <= TOL_AXIS]
    if not axis:
        return StabilityClass.STRICTLY_STABLE
    if any(m > 1 for _, m in axis):
        return StabilityClass.UNSTABLE
    return StabilityClass.CRITICALLY_STABLE


def imaginary_axis_residues(g: RationalFunction) -> list[PoleInfo]:
    """Residues at all imaginary-axis poles; repeated axis poles are an error."""
    out = []
    for location, mult in _cluster_roots(g.poles()):
        if abs(location.real) > TOL_AXIS:
            continue
        if mult > 1:
            raise RepeatedAxisPole(
                f"axis pole at {location} has multiplicity {mult}"
            )
        res = complex(g.num(location)) / complex(g.den.derivative()(location))
        out.append(PoleInfo(location=location, multiplicity=1, residue=res))
    return out


def times_s(g: RationalFunction) -> RationalFunction:
    """Return s*g(s) in cancelled form; errors if the product is improper."""
    return RationalFunction(g.num.times_s(), g.den)


def inverse(g: RationalFunction) -> RationalFunction:
    """Return 1/g(s); errors on a zero numerator or an improper result."""
    if g.num.is_zero:
        raise ZeroNumerator("cannot invert the zero function")
    return RationalFunction(g.den, g.num)

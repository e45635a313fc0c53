"""Polynomial and rational-function construction, roots, residues."""

import importlib.util
import math
import os
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

from hyperstab import bundled_corpus_path, load_corpus, ratfun, realness
from hyperstab.errors import (
    DegenerateInput,
    EvaluationAtPole,
    ImproperTransferFunction,
    RepeatedAxisPole,
    ZeroDenominator,
    ZeroNumerator,
)
from hyperstab.ratfun import (
    Polynomial,
    _divide,
    _eigvals,
    _horner,
    _polydiv,
    _polymul,
    _polysub,
    _response_jw,
    RationalFunction,
    StabilityClass,
    freq_response,
    freq_response_array,
    imaginary_axis_residues,
    inverse,
    ratfun_new,
    roots,
    stability_class,
    times_s,
)


class TestConstruction:
    def test_identity(self):
        g = ratfun_new([1], [1])
        assert g.relative_degree == 0
        assert g.num.coeffs == (1.0,)
        assert g.den.coeffs == (1.0,)

    def test_lead_lag(self):
        g = ratfun_new([2, 1], [1, 1])
        assert g.relative_degree == 0
        assert g.num.coeffs == (2.0, 1.0)

    def test_tiny_root_is_no_root_of_a_power_of_s(self):
        # s^2 at r = -1e-203: r^2 and its rounding bound both underflow to 0,
        # so the root test is taken past the exact zeros at 0; s + 1e-203 is
        # no common factor, where it divided s^2 down to the zero polynomial
        g = ratfun_new([1e-203, 1], [0, 0, 1])
        assert (g.num.coeffs, g.den.coeffs) == ((1e-203, 1.0), (0.0, 0.0, 1.0))
        # s(s + 1e-203) has the root exactly: it cancels
        g = ratfun_new([1e-203, 1], [0, 1e-203, 1])
        assert (g.num.coeffs, g.den.coeffs) == ((1.0,), (0.0, 1.0))

    def test_common_factor_cancellation(self):
        # (s+a) / (s+a)^2 with (s+a)^2 = s^2 + 2as + a^2 expanded by hand; at
        # a = 0.375 the double pole's computed roots split off the real axis
        for a in (1.0, 0.375):
            g = ratfun_new([a, 1], [a * a, 2 * a, 1])
            assert g.num.isclose(Polynomial([1.0]))
            assert g.den.isclose(Polynomial([a, 1.0]))
            assert g.relative_degree == 1
        # (s+1)^2/(s+1)^3: the triple pole's computed roots split by about
        # 6e-6, yet the common factor is exact
        g = ratfun_new([1, 2, 1], [1, 3, 3, 1])
        assert g.num.isclose(Polynomial([1.0]))
        assert g.den.isclose(Polynomial([1.0, 1.0]))
        # (s+1)^3/(s+1)^4 and a repeated complex pair, (s^2+s+1)^2 (s+1) over
        # (s^2+s+1)^2 (s+2)
        g = ratfun_new([1, 3, 3, 1], [1, 4, 6, 4, 1])
        assert g.num.isclose(Polynomial([1.0]))
        assert g.den.isclose(Polynomial([1.0, 1.0]))
        pair2 = npp.polypow([1.0, 1.0, 1.0], 2)
        g = ratfun_new(npp.polymul(pair2, [1.0, 1.0]), npp.polymul(pair2, [2.0, 1.0]))
        assert g.num.isclose(Polynomial([1.0, 1.0]))
        assert g.den.isclose(Polynomial([2.0, 1.0]))
        # a simple pair, (s+2), cancels as well as the split one
        g = ratfun_new(npp.polymul(npp.polypow([1.0, 1.0], 2), [2.0, 1.0]),
                       npp.polymul(npp.polypow([1.0, 1.0], 3), [6.0, 5.0, 1.0]))
        assert g.num.isclose(Polynomial([1.0]))
        assert g.den.isclose(Polynomial([3.0, 4.0, 1.0]))
        # a common root next to a distinct one: the mean of the two is no
        # factor, the root itself is
        for b in (1.0005, 1.000001):
            g = ratfun_new(npp.polymul([1.0, 1.0], [b, 1.0]), npp.polymul([1.0, 1.0], [3.0, 1.0]))
            assert g.num.isclose(Polynomial([b, 1.0]))
            assert g.den.isclose(Polynomial([3.0, 1.0]))

    def test_common_factor_edge_cases(self):
        # g/g with the roots 0 and 1/999, within CLUSTER_TOL of each other:
        # each divides out, the second one next to the first
        g = ratfun_new([0, -1, 999], [0, -1, 999])
        assert g.num.coeffs == (1.0,) and g.den.coeffs == (1.0,)
        assert realness.classify_pr(g).grade is realness.Grade.SSPR
        # (1 + 5e5 s)/s^2 times s: s is common, neither the numerator's root
        # -2e-6 nor the mean -1e-6 of it and 0 is
        g = RationalFunction([0, 1, 5e5], [0, 0, 1])
        assert g.num.coeffs == (1.0, 5e5) and g.den.coeffs == (0.0, 1.0)
        # a triple common root next to a distinct root of the numerator
        cube = npp.polypow([4.91, 1], 3)
        g = ratfun_new(npp.polymul(cube, [4.5, 1]), npp.polymul(cube, npp.polymul([0.7, 1], [2.2, 1])))
        assert (g.num.degree, g.den.degree) == (1, 2)
        # a common pair in the right half-plane, 0.5 +- 9j: the product
        # (s+1)(s^2 - s + 81.25) has the s^2 coefficient 0
        pair = [81.25, -1.0, 1.0]
        g = ratfun_new(npp.polymul([1, 1], pair), npp.polymul(npp.polymul([1, 1], [2, 1]), pair))
        assert g.num.isclose(Polynomial([1.0])) and g.den.isclose(Polynomial([2.0, 1.0]))
        # g/g with a double root 9.5 and the pair 9.5 +- 0.25j next to it:
        # the cluster's quotients are solved again after each division
        p = _from_roots([9.5, 9.5, 0.25], [9.5 + 0.25j], 1.0)
        g = ratfun_new(p, p)
        assert g.num.coeffs == (1.0,) and g.den.coeffs == (1.0,)

    def test_common_roots_keep_the_other_poles_in_place(self):
        # the numerator's roots cluster near 7, so its copy of the shared
        # pair 7 +- 0.25j is off by about 1e-7, and the denominator, which
        # passes that copy, is divided by its own: the double pole at 0 and
        # the pairs +-3.75j and +-5.25j stay on the axis
        num = _from_roots([7.75, 6.0, 8.5], [7 + 0.25j, 7 + 0.5j], -0.14873275875583308)
        den = _from_roots([7.75, 0.0, 0.0], [7 + 0.25j, -6.25 + 3.75j, 3.75j, 5.25j], 1.0)
        g = ratfun_new(num, den)
        assert (g.num.degree, g.den.degree) == (4, 8)
        axis = [p for p in g.poles() if abs(p.real) < 1e-6]
        assert sorted(round(abs(p), 9) for p in axis) == [0.0, 0.0, 3.75, 3.75, 5.25, 5.25]
        assert g.den.coeffs[:2] == (0.0, 0.0)
        assert all(abs(p.real) <= ratfun.TOL_AXIS for p in axis)

    def test_near_misses_stay(self):
        g = ratfun_new([1.0, 1.0], [1.0001, 1.0])
        assert g.num.degree == 1 and g.den.degree == 1
        # (s - 90) is common, s + 0.02 and s + 0.02(1 + 1e-6) are not: each
        # root is tested against the rounding bound at its own modulus
        num = npp.polymul([-90.0, 1.0], [0.02, 1.0])
        den = npp.polymul(npp.polymul(npp.polymul([-90.0, 1.0], [0.02 * (1 + 1e-6), 1.0]),
                                      [0.05, 1.0]), [37.25, 10.0, 1.0])
        g = ratfun_new(num, den)
        assert (g.num.degree, g.den.degree) == (1, 4)

    def test_repeated_common_factor_products(self):
        # (s + a)^m (s + k0) over (s + a)^m (s + k1)(s + k2) reduces to
        # degrees 1/2 on all 900 draws on x86-64 with OpenBLAS; some root
        # tests on the way pass within 1% of the bound, so a few partial
        # reductions are allowed for other LAPACK rounding (the search before
        # the root test left 26 partial)
        partial = 0
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            for _ in range(300):
                a, k0, k1, k2 = rng.uniform(0.2, 10.0, 4)
                fac = npp.polypow([a, 1.0], int(rng.integers(1, 4)))
                g = ratfun_new(npp.polymul(fac, [k0, 1.0]),
                               npp.polymul(fac, npp.polymul([k1, 1.0], [k2, 1.0])))
                partial += (g.num.degree, g.den.degree) != (1, 2)
        assert partial <= 3

    def test_zero_denominator(self):
        with pytest.raises(ZeroDenominator):
            ratfun_new([1], [0])

    def test_improper_rejected(self):
        with pytest.raises(ImproperTransferFunction):
            ratfun_new([1, 2, 1], [1, 1])

    def test_denominator_made_monic(self):
        g = ratfun_new([4], [2, 2])
        assert g.den.coeffs == (1.0, 1.0)
        assert g.num.coeffs == (2.0,)
        # a product with fl(1/49) would leave the lead at 1 - 2^-53
        assert ratfun_new([1], [1, 49]).den.coeffs == (1 / 49, 1.0)
        rng = np.random.default_rng(7)
        leads = rng.uniform(0.01, 100.0, 10_000) * rng.choice([-1.0, 1.0], 10_000)
        for lead, c in zip(leads, rng.uniform(-5.0, 5.0, 10_000)):
            g = ratfun_new([1.0, c], [c, 2.0, lead])
            assert g.den.leading == 1.0
            assert g.num.coeffs == (1.0 / lead, c / lead)

    def test_monic_overflow_named(self):
        # the given coefficients are finite; 8 / 3.98e-308 overflows
        with pytest.raises(DegenerateInput, match="making the denominator monic overflows"):
            RationalFunction([8.0], [0.0, 3.982215350736441e-308])
        with pytest.raises(DegenerateInput, match="leading coefficient 1e-10 "):
            RationalFunction([1e300], [1e-10])

    def test_trailing_zeros_trimmed(self):
        p = Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.coeffs == (1.0, 2.0)
        assert p.degree == 1


class TestRoots:
    def test_linear(self):
        assert np.allclose(roots(Polynomial([1, 1])), [-1.0])

    def test_constant_has_no_roots(self):
        with pytest.raises(DegenerateInput, match="constant"):
            roots(Polynomial([3.0]))

    def test_zeros_and_text(self):
        g = ratfun_new([2, 1], [3, 4, 1])  # (s + 2)/((s + 1)(s + 3))
        assert np.allclose(g.zeros(), [-2.0])
        assert ratfun_new([1], [1, 1]).zeros() == []
        assert str(g) == "([2.0, 1.0]) / ([3.0, 4.0, 1.0])"

    def test_pure_imaginary_pair(self):
        rts = roots(Polynomial([1, 0, 1]))
        assert np.allclose(sorted(r.imag for r in rts), [-1.0, 1.0])
        assert np.allclose([r.real for r in rts], 0.0)

    def test_quadratic_formula(self):
        # s^2 + 2s + 2 = 0  ->  s = -1 +/- j
        rts = roots(Polynomial([2, 2, 1]))
        assert np.allclose(sorted(r.real for r in rts), [-1.0, -1.0])
        assert np.allclose(sorted(r.imag for r in rts), [-1.0, 1.0])

    def test_zero_polynomial_rejected(self):
        with pytest.raises(DegenerateInput):
            roots(Polynomial([0.0]))

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0),
            min_size=1,
            max_size=8,
        )
    )
    def test_root_coefficient_round_trip(self, real_roots):
        # well-separated real roots reconstruct the monic coefficients
        real_roots = sorted(real_roots)
        if any(b - a < 0.25 for a, b in zip(real_roots, real_roots[1:])):
            return
        coeffs = npp.polyfromroots(real_roots).real
        found = roots(Polynomial(coeffs))
        rebuilt = npp.polyfromroots(sorted(r.real for r in found)).real
        assert np.allclose(rebuilt, coeffs, rtol=1e-8, atol=1e-8)


def _bits(values) -> bytes:
    """The exact bytes of a sequence of complex numbers, signed zeros kept."""
    return np.array([complex(v) for v in values], dtype=complex).tobytes()


_coeff = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                   st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False))


def _eigvals_outcome(fn, a):
    """The dtype and exact bytes of fn(a), or the message of its LinAlgError."""
    try:
        w = fn(a)
    except np.linalg.LinAlgError as exc:
        return str(exc)
    return w.dtype, w.shape, w.tobytes()


# signed magnitudes from 1e-300 to 1e300, with zeros and small integers
_entry = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0]),
    st.floats(min_value=-10.0, max_value=10.0),
    st.builds(lambda m, e: m * 10.0 ** e, st.floats(min_value=-9.99, max_value=9.99),
              st.integers(min_value=-300, max_value=299)),
)
_square = st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.lists(_entry, min_size=n * n, max_size=n * n).map(
        lambda v: np.array(v, dtype=float).reshape(n, n)))


class TestEigvals:
    """``_eigvals`` is ``np.linalg.eigvals`` bit for bit, errors included."""

    @settings(max_examples=400, deadline=None)
    @given(_square)
    @example(np.array([[-2.7556e-262]]))
    @example(np.array([[1e300, -1e-300], [1.0, 0.0]]))
    def test_matches_numpy(self, a):
        assert _eigvals_outcome(_eigvals, a) == _eigvals_outcome(np.linalg.eigvals, a)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_entry, min_size=1, max_size=8), st.booleans())
    def test_companion_matrices_match_numpy(self, row, by_column):
        # companion matrices: np.roots' first row, the one grading builds,
        # and numpy.polynomial's last column
        a = np.eye(len(row), k=-1)
        if by_column:
            a[:, -1] = row
        else:
            a[0] = row
        assert _eigvals_outcome(_eigvals, a) == _eigvals_outcome(np.linalg.eigvals, a)

    @settings(max_examples=100, deadline=None)
    @given(_square, st.integers(min_value=0), st.sampled_from([np.inf, -np.inf, np.nan]))
    def test_non_finite_raises_as_numpy(self, a, where, bad):
        a = a.copy()
        a.flat[where % a.size] = bad
        with pytest.raises(np.linalg.LinAlgError) as mine:
            _eigvals(a)
        with pytest.raises(np.linalg.LinAlgError) as theirs:
            np.linalg.eigvals(a)
        assert str(mine.value) == str(theirs.value) == "Array must not contain infs or NaNs"

    def test_real_and_complex_spectra(self):
        real = _eigvals(np.array([[0.0, 1.0], [1.0, 0.0]]))
        pair = _eigvals(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert real.dtype == np.float64 and sorted(real.tolist()) == [-1.0, 1.0]
        assert pair.dtype == np.complex128 and sorted(pair.imag.tolist()) == [-1.0, 1.0]


class TestNumpyEquivalence:
    """The plain-float helpers give numpy's results bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_coeff, min_size=1, max_size=8),
           st.integers(min_value=0, max_value=3),
           st.floats(min_value=0.01, max_value=1e3))
    def test_roots_match_np_roots(self, coeffs, low_zeros, lead):
        # zero low-order coefficients give roots at 0; degree 1 is included
        p = Polynomial([0.0] * low_zeros + coeffs + [lead])
        if p.degree < 1:
            return
        expected = sorted(map(complex, np.roots(np.array(p.coeffs[::-1]))),
                          key=lambda r: (r.real, r.imag))
        assert _bits(roots(p)) == _bits(expected)

    def test_roots_match_np_roots_by_hand(self):
        for coeffs in ([3.0, 1.0], [0.0, 1.0], [0.0, 0.0, 2.0, -1.0], [-0.0, 1.0, 1.0],
                       [1.0, 0.0, 1.0], [2.0, 0.0, 0.0, 5.0], [1.0, 3.0, 3.0, 1.0]):
            p = Polynomial(coeffs)
            expected = sorted(map(complex, np.roots(np.array(p.coeffs[::-1]))),
                              key=lambda r: (r.real, r.imag))
            assert _bits(roots(p)) == _bits(expected), coeffs

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_coeff, min_size=1, max_size=8),
           st.floats(min_value=-1e3, max_value=1e3),
           st.floats(min_value=-1e3, max_value=1e3))
    def test_horner_matches_polyval(self, coeffs, a, b):
        c = tuple(coeffs)
        for x in (a, complex(a, b), 1j * b, 0.0, -0.0):
            assert _bits([_horner(c, x)]) == _bits([npp.polyval(x, c)])
        xs = np.array([a, b, 0.0, -0.0, 1e3])
        for arr in (xs, 1j * xs, xs + 1j * xs[::-1]):
            assert _horner(c, arr).tobytes() == npp.polyval(arr, c).tobytes()
        assert _horner(c, [a, b]).tobytes() == npp.polyval([a, b], c).tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_coeff, min_size=1, max_size=8),
           st.lists(_coeff, min_size=0, max_size=3),
           st.floats(min_value=0.01, max_value=1e3))
    def test_polydiv_matches_npp(self, c1, c2, lead):
        c2 = c2 + [lead]
        for a, b in ((c1, c2), (c1 + [0.0], c2 + [0.0, 0.0])):
            quo, rem = _polydiv(a, b)
            exp_quo, exp_rem = npp.polydiv(a, b)
            assert np.array(quo).tobytes() == exp_quo.tobytes()
            assert np.array(rem).tobytes() == exp_rem.tobytes()

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_coeff, min_size=1, max_size=8), st.lists(_coeff, min_size=1, max_size=8))
    def test_polymul_matches_npp(self, c1, c2):
        # numpy sums each coefficient from 0.0 along the longer factor, in
        # its own loop where the factors overlap fully and through BLAS ddot
        # where they overlap in part; ddot may fuse each multiply-add.
        # _polymul sums as numpy's own loop does, so the two agree bit for
        # bit on the fully overlapping coefficients, and on all of them when
        # a factor has at most two terms (no sum then adds a second rounded
        # product); elsewhere they may differ by rounding.
        for a, b in ((c1, c2), (c1 + [0.0], c2 + [-0.0, 0.0])):
            got, exp = np.array(_polymul(a, b)), npp.polymul(a, b)
            assert got.shape == exp.shape
            short, long = sorted(len(npp.polyadd(c, [0.0])) for c in (a, b))
            if short <= 2:
                assert got.tobytes() == exp.tobytes()
            assert got[short - 1:long].tobytes() == exp[short - 1:long].tobytes()
            scale = npp.polymul(np.abs(a), np.abs(b))[:got.size]
            assert np.all(np.abs(got - exp) <= 2 * short * np.finfo(float).eps * scale)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_coeff, min_size=1, max_size=8), st.lists(_coeff, min_size=1, max_size=8))
    def test_polysub_matches_npp(self, c1, c2):
        for a, b in ((c1, c2), (c1, c1), (c1 + [0.0], c2 + [-0.0, 0.0])):
            assert np.array(_polysub(a, b)).tobytes() == npp.polysub(a, b).tobytes()

    def test_trim_errors(self):
        for bad in ([], (), np.array([]), [[1.0, 2.0]], np.ones((2, 2)),
                    [1.0, float("nan")], [float("inf")], np.array([1.0, -np.inf])):
            with pytest.raises(DegenerateInput):
                Polynomial(bad)

    def test_trim_inputs(self):
        # numbers, numpy scalars and arrays, and a bare scalar all trim alike
        assert Polynomial([1, 2.5, 0, 1e-13]).coeffs == (1.0, 2.5)
        assert Polynomial(np.array([1, 2, 0])).coeffs == (1.0, 2.0)
        assert Polynomial([np.float32(0.5), np.int64(3)]).coeffs == (0.5, 3.0)
        assert Polynomial(4).coeffs == (4.0,)
        assert Polynomial([0.0, -0.0]).coeffs == (0.0,)
        assert all(type(c) is float for c in Polynomial(np.array([1.0, 2.0])).coeffs)


# roots a quarter apart, and conjugate pairs with them as real and
# imaginary parts; the axis and the origin are on the grid
_root = st.integers(min_value=-40, max_value=40).map(lambda k: k / 4.0)
_omega = st.integers(min_value=1, max_value=40).map(lambda k: k / 4.0)
_pair = st.tuples(_root, _omega).map(lambda p: complex(*p))


def _from_roots(real, pairs, gain):
    """gain times the monic polynomial with these real roots and pairs."""
    c = [gain]
    for r in real:
        c = npp.polymul(c, [-r, 1.0])
    for z in pairs:
        c = npp.polymul(c, [abs(z) ** 2, -2.0 * z.real, 1.0])
    return c


def _recipe_plant(shared, shared_pairs, zeros, zero_pairs, poles, pole_pairs, origin, omegas,
                  gain, sign, lead=1.0):
    """g from its roots, which lie 0.25 apart unless equal: the constructor
    divides out the common ones. Besides, den has `origin` poles at 0 (an
    exact-zero constant term; two make s*g improper when g has relative
    degree 0) and the pairs +-j*w; `lead` is its leading coefficient."""
    poles = poles + [0.0] * origin
    pole_pairs = pole_pairs + [1j * w for w in omegas]
    while len(zeros) + 2 * len(zero_pairs) > len(poles) + 2 * len(pole_pairs):
        (zeros or zero_pairs).pop()
    return RationalFunction(_from_roots(shared + zeros, shared_pairs + zero_pairs, sign * gain),
                            _from_roots(shared + poles, shared_pairs + pole_pairs, lead))


_RECIPE_ARGS = (
    st.lists(_root, max_size=2), st.lists(_pair, max_size=1),
    st.lists(_root, max_size=3), st.lists(_pair, max_size=1),
    st.lists(_root, max_size=3), st.lists(_pair, max_size=1),
    st.integers(min_value=0, max_value=2), st.lists(_omega, max_size=2, unique=True),
    st.floats(min_value=0.1, max_value=10.0), st.sampled_from([1.0, -1.0]),
)
_recipe = st.builds(_recipe_plant, *_RECIPE_ARGS)


def _built(fn, *args):
    """The exact bytes of the rational function fn(*args) returns, or the type
    and message of the error it raises."""
    try:
        g = fn(*args)
    except Exception as exc:  # noqa: BLE001 - the error itself is compared
        return type(exc), str(exc)
    return np.array(g.num.coeffs).tobytes(), np.array(g.den.coeffs).tobytes()


class TestFreqResponse:
    def test_dc_value(self):
        assert freq_response(ratfun_new([1], [1, 1]), 0.0) == pytest.approx(1 + 0j)

    def test_rationalized_by_hand(self):
        # 1/(1+j) = (1-j)/2
        val = freq_response(ratfun_new([1], [1, 1]), 1.0)
        assert val == pytest.approx(0.5 - 0.5j)

    def test_high_frequency_real_part_limit(self):
        # Re[(s+2)/(s+1)](jw) = (w^2+2)/(w^2+1) -> 1
        g = ratfun_new([2, 1], [1, 1])
        assert freq_response(g, 1e8).real == pytest.approx(1.0, abs=1e-10)

    def test_evaluation_at_pole(self):
        with pytest.raises(EvaluationAtPole):
            freq_response(ratfun_new([1], [0, 1]), 0.0)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e5))
    def test_conjugate_symmetry(self, omega):
        g = ratfun_new([2, 3, 1], [2, 2, 1])
        assert freq_response(g, -omega) == pytest.approx(
            np.conj(freq_response(g, omega)), rel=1e-12
        )


_part = st.one_of(st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan]), _entry)


def _hex(z) -> tuple[str, str]:
    """The exact bits of a complex value's two parts, every NaN one value
    (neither numpy nor Python fixes a NaN's sign or payload)."""
    return float(z.real).hex(), float(z.imag).hex()


def _raw(num, den):
    """A stand-in for a rational function with these coefficient tuples as
    given: not monic, not trimmed, its denominator possibly zero."""
    return SimpleNamespace(num=SimpleNamespace(coeffs=tuple(num)),
                           den=SimpleNamespace(coeffs=tuple(den)))


class TestScalarResponse:
    """The scalar evaluator ``_response_jw`` and ``freq_response`` are
    ``freq_response_array`` bit for bit, real and imaginary part: signed
    zeros, Horner overflow to inf or NaN and zero denominators included, and
    no ZeroDivisionError escapes."""

    @settings(max_examples=1000, deadline=None)
    @given(st.lists(_entry, min_size=1, max_size=6), st.lists(_entry, min_size=1, max_size=6),
           _part)
    @example([1.0], [0.0, 1.0], 0.0)  # 1/0 at a pole
    @example([0.0, -1.0], [-0.0, 0.0], -0.0)  # 0/0 over a zero polynomial
    @example([1.0], [1e300, 1e300, 1e300], 1e300)  # Horner overflows to inf
    @example([2.0, 1.0], [1.0, 3.0, 0.0, 1.0], 1e200)  # and to NaN
    def test_matches_the_array_evaluator(self, num, den, w):
        g = _raw(num, den)
        with np.errstate(all="ignore"):
            expected = freq_response_array(g, [w])[0]
        assert tuple(map(float.hex, _response_jw(g.num.coeffs, g.den.coeffs, w))) == _hex(expected)

    @settings(max_examples=1000, deadline=None)
    @given(_part, _part, _part, _part)
    @example(1.0, 2.0, math.nan, 0.0)  # a NaN real part over a zero imaginary part
    @example(-3.0, 0.0, 0.0, -0.0)  # a zero denominator: -inf and NaN
    @example(math.nan, 5.0, -0.0, 0.0)
    def test_division_matches_numpy(self, ar, ai, br, bi):
        with np.errstate(all="ignore"):
            expected = (np.array([complex(ar, ai)]) / np.array([complex(br, bi)]))[0]
        assert tuple(map(float.hex, _divide(ar, ai, br, bi))) == _hex(expected)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_coeff, min_size=1, max_size=4), st.lists(_coeff, min_size=1, max_size=4),
           st.one_of(st.sampled_from([0.0, -0.0]), st.floats(min_value=-1e6, max_value=1e6)))
    def test_freq_response_matches_the_array_evaluator(self, num, den, w):
        try:
            g = RationalFunction(num, [1.0] + den)
        except (ImproperTransferFunction, DegenerateInput):
            assume(False)
        try:
            value = freq_response(g, w)
        except EvaluationAtPole:
            return
        assert _hex(value) == _hex(freq_response_array(g, [w])[0])

    @pytest.mark.parametrize("num, den, w", [
        ([1.0], [1.0, 1.0, 1.0], 1e200),  # max(1, w)^2 overflows a float
        ([1.0], [1.0, 1.0], -1e300),
        ([2.0, 1.0], [3.0, 0.0, 0.0, 0.0, 1.0], 1e100),
    ])
    def test_large_frequency(self, num, den, w):
        g = ratfun_new(num, den)
        with np.errstate(all="ignore"):
            expected = freq_response_array(g, [w])[0]
        assert _hex(freq_response(g, w)) == _hex(expected)

    def test_large_frequency_value(self):
        # den(j 1e200) = -inf + 1e200j, and the value is -0.0 - 0.0j
        assert _hex(freq_response(ratfun_new([1], [1, 1, 1]), 1e200)) == _hex(complex(-0.0, -0.0))


class TestStability:
    @pytest.mark.parametrize(
        "num,den,expected",
        [
            ([1], [1, 1], StabilityClass.STRICTLY_STABLE),
            ([1], [0, 1], StabilityClass.CRITICALLY_STABLE),
            ([1], [-1, 1], StabilityClass.UNSTABLE),
            ([1], [1, 0, 1], StabilityClass.CRITICALLY_STABLE),
            ([1], [0, 0, 1], StabilityClass.UNSTABLE),  # repeated origin pole
        ],
    )
    def test_classes(self, num, den, expected):
        assert stability_class(ratfun_new(num, den)) is expected


class TestAxisResidues:
    def test_integrator(self):
        infos = imaginary_axis_residues(ratfun_new([1], [0, 1]))
        assert len(infos) == 1
        assert infos[0].residue == pytest.approx(1.0)
        assert infos[0].multiplicity == 1

    def test_no_axis_poles(self):
        assert imaginary_axis_residues(ratfun_new([2, 1], [1, 1])) == []

    def test_lc_pair_residues(self):
        # 1/(s^2+1): residue at +/-j is 1/(2s) evaluated there: -+ j/2
        infos = imaginary_axis_residues(ratfun_new([1], [1, 0, 1]))
        res = sorted((i.residue for i in infos), key=lambda r: r.imag)
        assert res[0] == pytest.approx(-0.5j)
        assert res[1] == pytest.approx(0.5j)

    def test_repeated_axis_pole(self):
        with pytest.raises(RepeatedAxisPole):
            imaginary_axis_residues(ratfun_new([1], [0, 0, 1]))


class TestDerivedFunctions:
    def test_times_s_cancels_origin_pole(self):
        assert times_s(ratfun_new([1], [0, 1])).num.coeffs == (1.0,)

    def test_times_s_symbolic_cancellation(self):
        g1 = times_s(ratfun_new([1, 1], [0, 2, 1]))
        assert g1.isclose(ratfun_new([1, 1], [2, 1]))

    def test_times_s_plain(self):
        g1 = times_s(ratfun_new([1], [1, 1]))
        assert g1.isclose(ratfun_new([0, 1], [1, 1]))

    def test_times_s_improper(self):
        with pytest.raises(ImproperTransferFunction):
            times_s(ratfun_new([2, 1], [1, 1]))

    def test_times_s_then_divide_round_trip(self):
        g = ratfun_new([1, 1], [2, 3, 1])
        g1 = times_s(g)
        back = RationalFunction(g1.num, g1.den.times_s())
        assert back.isclose(g)

    def test_inverse(self):
        assert inverse(ratfun_new([2, 1], [1, 1])).isclose(ratfun_new([1, 1], [2, 1]))

    def test_inverse_self(self):
        assert inverse(ratfun_new([1], [1])).isclose(ratfun_new([1], [1]))

    def test_inverse_improper(self):
        with pytest.raises(ImproperTransferFunction):
            inverse(ratfun_new([1], [1, 1]))

    def test_inverse_zero_numerator(self):
        with pytest.raises(ZeroNumerator):
            inverse(ratfun_new([0], [1, 1]))

    def test_inverse_involution(self):
        g = ratfun_new([6, 5, 1], [2, 3, 1])
        assert inverse(inverse(g)).isclose(g)

    # inverse, times_s and the axis-free part of a cancelled g are built
    # without the common-root search; each must be, bit for bit and error
    # for error, what the search-running constructor builds from the same
    # coefficients

    @staticmethod
    def assert_derived_as_constructed(g):
        if not g.num.is_zero:
            assert _built(inverse, g) == _built(RationalFunction, g.den, g.num)
        assert _built(times_s, g) == _built(RationalFunction, g.num.times_s(), g.den)
        try:
            axis = imaginary_axis_residues(g)
        except RepeatedAxisPole:
            return
        coeffs = g.num.coeffs, g.den.coeffs
        if realness._real_part(*coeffs, axis) is None:
            return  # a residue that is not real: grading takes no axis-free part
        free = _built(realness._axis_free_part, *coeffs, axis)
        with mock.patch.object(realness, "_coprime", RationalFunction):
            assert free == _built(realness._axis_free_part, *coeffs, axis)

    @settings(max_examples=300, deadline=None)
    @given(_recipe)
    def test_derived_functions_as_constructed(self, g):
        # the constructor's search can leave a common root in g when the
        # rounding of one side's coefficients moves its copy further than
        # the root test allows: shared [-8.25, -8.5], pair -9 +- 0.75j, zero
        # pair -9 +- 1j and zero 8.75 keep s + 8.5, whose numerator copy is
        # off by 3e-9. Such a g is not the cancelled g assumed.
        assume(not any(ratfun._near(z, g.poles()) for z in g.zeros()))
        self.assert_derived_as_constructed(g)

    @settings(max_examples=300, deadline=None)
    @given(st.builds(_recipe_plant, *_RECIPE_ARGS,
                     lead=st.sampled_from([1.0, 3.0, 49.0, -0.7]) | st.floats(0.01, 100.0)))
    def test_kept_poles_are_solved_poles(self, g):
        # the poles g and the functions derived from it hand out, solved on
        # first use or handed over by times_s, are roots(den) bit for bit,
        # and a caller's changes to the list reach no later call
        derived = [g]
        for fn in (inverse, times_s):
            try:
                derived.append(fn(g))
            except (ImproperTransferFunction, ZeroNumerator):
                pass
        try:
            axis = imaginary_axis_residues(g)
        except RepeatedAxisPole:
            axis = None
        coeffs = g.num.coeffs, g.den.coeffs
        if axis is not None and realness._real_part(*coeffs, axis) is not None:
            derived.append(realness._axis_free_part(*coeffs, axis))
        for h in derived:
            expected = _bits(roots(h.den) if h.den.degree >= 1 else [])
            poles = h.poles()
            assert _bits(poles) == expected
            poles.append(1j)
            poles[:1] = [7.0]
            assert _bits(h.poles()) == expected

    def test_grade_batch_and_corpus_plants_as_constructed(self):
        spec = importlib.util.spec_from_file_location("gen", os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "gen.py"))
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        plants = [RationalFunction(case["num"], case["den"]) for case in gen.grade_batch(401)]
        plants += [entry.plant for entry in load_corpus(bundled_corpus_path())]
        assert sum(g.den.coeffs[0] == 0.0 for g in plants) >= 40
        for g in plants:
            self.assert_derived_as_constructed(g)

    def test_origin_pole_cases(self):
        exact = ratfun_new([0.5, 1.0], [0.0, 2.0, 1.0])
        near = ratfun_new([0.5, 1.0], [1e-13, 2.0, 1.0])
        double = ratfun_new([3.0, 2.0, 1.0], [0.0, 0.0, 1.0])
        negative = ratfun_new([1.0, 0.0, 3.0], [0.0, -2.0, 0.0, -1.0])  # -0.0 coefficients
        for g in (exact, near, double, negative):
            self.assert_derived_as_constructed(g)
        with mock.patch.object(ratfun, "_coprime", side_effect=AssertionError):
            times_s(near)  # the generic path: this den has no exact root at 0
        with pytest.raises(ImproperTransferFunction, match=r"deg num \(2\) exceeds deg den \(1\)"):
            times_s(double)
        assert times_s(exact).den.coeffs == (2.0, 1.0)
        # num/(den past its constant term), every bit kept: -0.0 included
        assert -0.0 in negative.den.coeffs[1:]
        assert _built(times_s, negative) == (np.array(negative.num.coeffs).tobytes(),
                                             np.array(negative.den.coeffs[1:]).tobytes())

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_coeff, min_size=1, max_size=6), st.lists(_coeff, min_size=1, max_size=6),
           st.sampled_from([0.0, -0.0]))
    def test_times_s_at_origin_pole_as_constructed(self, num, den, zero):
        # raw coefficients, signed zeros among them, over a den whose
        # constant term is a signed zero: the sliced s*g is what the search
        # builds, and the poles it is handed are roots(den)
        try:
            g = RationalFunction(num, [zero] + den)
        except (DegenerateInput, ZeroDenominator, ImproperTransferFunction):
            assume(False)  # a lead so small that dividing by it overflows, or no g
        assume(g.den.coeffs[0] == 0.0 and not g.num.is_zero)
        # as in test_derived_functions_as_constructed: a g whose search kept a
        # common root (a subnormal one misses the root test) is not cancelled
        assume(not any(ratfun._near(z, g.poles()) for z in g.zeros()))
        assert _built(times_s, g) == _built(RationalFunction, g.num.times_s(), g.den)
        try:
            sg = times_s(g)
        except ImproperTransferFunction:
            return
        assert _bits(sg.poles()) == _bits(roots(sg.den) if sg.den.degree >= 1 else [])

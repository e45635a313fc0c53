"""Polynomial and rational-function construction, roots, residues."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as npp

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
    _horner,
    _mean,
    _polydiv,
    RationalFunction,
    StabilityClass,
    freq_response,
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
        # a near miss is not a common factor
        g = ratfun_new([1.0, 1.0], [1.0001, 1.0])
        assert g.num.degree == 1 and g.den.degree == 1

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
    @given(st.lists(st.tuples(_coeff, _coeff), min_size=1, max_size=9))
    def test_cluster_mean_matches_np_mean(self, parts):
        group = [complex(a, b) for a, b in parts]
        assert _bits([_mean(group)]) == _bits([np.mean(group)])

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

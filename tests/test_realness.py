"""Realness grading, margins and the ancillary frequency-domain checks."""

import importlib.util
import math
import os

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from hyperstab.errors import (DegenerateInput, ImproperTransferFunction, PoleOnGrid,
                              RepeatedAxisPole, ZeroDenominator)
from fractions import Fraction
from unittest import mock

from hyperstab import bundled_corpus_path, load_corpus, ratfun, realness
from hyperstab.ratfun import (RationalFunction, _trimseq, imaginary_axis_residues, inverse,
                              ratfun_new, times_s)
from hyperstab.realness import (
    TOL_MARGIN,
    Grade,
    _certify,
    _estimate,
    _lin,
    _mul,
    _negative_at,
    _nonnegative,
    _real_part,
    _real_part_polys,
    _odd_part,
    _sign_changes,
    _sturm,
    _variations,
    classify_pr,
    hodograph_quadrant_check,
    phase_deviation,
    real_part_margin,
    wspr_chain_constant,
)


class TestMargin:
    def test_unity(self):
        assert real_part_margin(ratfun_new([1], [1])) == pytest.approx(1.0)

    def test_minimum_at_infinity(self):
        # Re = (w^2+2)/(w^2+1): infimum 1 via the leading-coefficient limit
        assert real_part_margin(ratfun_new([2, 1], [1, 1])) == pytest.approx(1.0)

    def test_minimum_at_zero(self):
        # Re = (w^2-1)/(w^2+1): minimum -1 at w = 0
        assert real_part_margin(ratfun_new([-1, 1], [1, 1])) == pytest.approx(-1.0)

    def test_certified_to_the_ulp(self):
        # fl(-1/3) lies above -1/3: its exact test fails, and the margin is
        # certified one ulp below it
        third = -1 / 3
        assert Fraction(third) > Fraction(-1, 3)
        assert _certify([-1], [3], third) == math.nextafter(third, -math.inf)
        # an estimate of 0 backs off from one ulp of 1, not of 0
        assert _certify([-1], [2 ** 60], 0.0) == -math.ulp(1.0)
        # a missed feature: the back-off passes -1/3, then bisection closes in
        t = _certify([-1], [3], 1.0)
        assert Fraction(-1, 3) - 2 * realness.CERT_REL <= Fraction(t) <= Fraction(-1, 3)

    def test_interior_minimum_refined(self):
        # inverse of the biquad: minimum 2/3 at w = sqrt(2), found by calculus
        g = ratfun_new([2, 2, 1], [2, 3, 1])
        assert real_part_margin(g) == pytest.approx(2.0 / 3.0, abs=1e-9)

    @pytest.mark.parametrize("num, den, margin", [
        ([1], [0, 0, 1], -np.inf),  # 1/s^2: a repeated axis pole stays in
        ([1], [1, 0, 1], -np.inf),  # 1/(s^2 + 1): residue -j/2 is not real
        ([-1, 1], [0, 1], 1.0),  # (s - 1)/s = 1 - 1/s: Re = 1 off the pole
    ])
    def test_axis_pole_edges(self, num, den, margin):
        assert real_part_margin(ratfun_new(num, den)) == margin

    def test_axis_pole_excluded_vs_error(self):
        g = ratfun_new([0, 1], [1, 0, 1])  # poles at +/- j
        assert real_part_margin(g) == pytest.approx(0.0, abs=1e-12)


class TestClassify:
    @pytest.mark.parametrize(
        "num,den,grade",
        [
            ([2, 1], [1, 1], Grade.SSPR),
            ([1], [1, 1], Grade.WSPR),
            ([1], [0, 1], Grade.PR),
            ([1], [-1, 1], Grade.NOT_PR),
            ([-1, 1], [1, 1], Grade.NOT_PR),
        ],
    )
    def test_spec_examples(self, num, den, grade):
        assert classify_pr(ratfun_new(num, den)).grade is grade

    def test_sspr_margin(self):
        c = classify_pr(ratfun_new([2, 1], [1, 1]))
        assert c.d == pytest.approx(1.0, rel=1e-9)

    def test_wspr_margins(self):
        c = classify_pr(ratfun_new([1], [1, 1]))
        assert c.grade is Grade.WSPR
        assert c.d == 0.0
        assert c.d0 == pytest.approx(1.0, rel=1e-12)

    def test_single_origin_pole_case(self):
        c = classify_pr(ratfun_new([1], [0, 1]))
        assert c.grade is Grade.PR
        assert c.single_pole_at_origin
        assert c.g1_grade is Grade.SSPR
        assert c.d1 == pytest.approx(1.0)

    def test_origin_pole_with_lead(self):
        # (s+1)/(s(s+2)): residue 1/2, s*g = (s+1)/(s+2) SSPR with margin 1/2
        c = classify_pr(ratfun_new([1, 1], [0, 2, 1]))
        assert c.grade is Grade.PR
        assert c.single_pole_at_origin
        assert c.g1_grade is Grade.SSPR
        assert c.d1 == pytest.approx(0.5, rel=1e-9)

    def test_negative_residue_flips_verdict(self):
        good = classify_pr(ratfun_new([1], [0, 1]))
        bad = classify_pr(ratfun_new([-1], [0, 1]))
        assert good.grade is Grade.PR
        assert bad.grade is Grade.NOT_PR
        assert bad.diagnostics

    def test_not_pr_has_diagnostics(self):
        c = classify_pr(ratfun_new([1], [-1, 1]))
        assert c.diagnostics

    def test_relative_degree_two_is_not_strictly_graded(self):
        # 1/((s+1)(s+2)): real part goes negative above sqrt(2)
        c = classify_pr(ratfun_new([1], [2, 3, 1]))
        assert c.grade is Grade.NOT_PR

    def test_strictly_proper_never_sspr(self):
        for num, den in [([1], [1, 1]), ([1], [0, 1]), ([1, 1], [2, 3, 1])]:
            c = classify_pr(ratfun_new(num, den))
            assert c.grade is not Grade.SSPR

    def test_origin_pole_with_relative_degree_zero(self):
        # (s+1)/s is PR but s*g is improper, so no derived-function margin
        c = classify_pr(ratfun_new([1, 1], [0, 1]))
        assert c.grade is Grade.PR
        assert c.single_pole_at_origin
        assert c.g1_grade is None
        assert c.d1 == 0.0

    def test_lossless_lc(self):
        c = classify_pr(ratfun_new([0, 1], [1, 0, 1]))
        assert c.grade is Grade.PR
        assert not c.single_pole_at_origin

    @settings(max_examples=40, deadline=None)
    @given(st.floats(min_value=1e-3, max_value=1e3))
    def test_positive_scaling_invariance(self, alpha):
        base = ratfun_new([2, 1], [1, 1])
        scaled = ratfun_new([2 * alpha, alpha], [1, 1])
        c0, c1 = classify_pr(base), classify_pr(scaled)
        assert c0.grade is c1.grade
        assert c1.d == pytest.approx(alpha * c0.d, rel=1e-9)

    # (s + a)/(s + 3) with fl(a/3) above a/3: Re g(jw) = (3a + w^2)/(9 + w^2)
    # has its infimum a/3 = -5e-10 >= -TOL_MARGIN at w = 0, the estimate
    # fl(a/3) fails its exact test and no point of the estimate is negative.
    # Its margin certifies one ulp below fl(a/3); in the PR row it is
    # loosened to a lower bound under -TOL_MARGIN, so W's exact test decides
    BACKED_OFF = -1.4999999999999996e-09

    # 1/((s + 1)(s + 2)) has R = 2 - x (times 4^k): Descartes' rule does not
    # settle R + TOL_MARGIN*Q, and the estimate's minimum is a witness. No
    # case builds the Sturm chain of R + TOL_MARGIN*Q: Descartes' rule
    # settles it for BACKED_OFF, whose coefficients are all positive
    @pytest.mark.parametrize("num, den, grade, widened_tests", [
        ([2, 1], [1, 1], Grade.SSPR, 0),  # d = 1: the certified margin decides
        ([-1, 1], [1, 1], Grade.NOT_PR, 0),  # Re g(j0) = -1: a point of the estimate decides
        ([BACKED_OFF, 1], [3, 1], Grade.PR, 1),  # neither: the exact test decides
        ([1], [2, 3, 1], Grade.NOT_PR, 0),  # relative degree 2: a witness decides
    ])
    def test_quadrant_decision_at_relative_degree_zero(self, num, den, grade, widened_tests):
        assert Fraction(self.BACKED_OFF / 3) > Fraction(self.BACKED_OFF) / 3
        g = ratfun_new(num, den)
        r, q, _, _ = _real_part(g.num.coeffs, g.den.coeffs, [])
        tol_num, tol_den = TOL_MARGIN.as_integer_ratio()
        widened = _lin(r, tol_den, q, -tol_num)
        certify = _certify
        if grade is Grade.PR:
            def certify(n, q, est):
                return _certify(n, q, est) - TOL_MARGIN
        with mock.patch.object(realness, "_nonnegative", side_effect=_nonnegative) as spy, \
                mock.patch.object(realness, "_sturm", side_effect=_sturm) as chains, \
                mock.patch.object(realness, "_certify", side_effect=certify):
            c = classify_pr(g)
        assert c.grade is grade
        assert c.quadrant_ok is (grade is not Grade.NOT_PR)
        assert [call.args[0] for call in spy.call_args_list].count(widened) == widened_tests
        assert widened not in [call.args[0] for call in chains.call_args_list]
        if grade is Grade.NOT_PR:
            assert any("is exactly negative there and changes sign" in m for m in c.diagnostics)
        if grade is Grade.PR:
            est = self.BACKED_OFF / 3
            assert -TOL_MARGIN <= real_part_margin(g) == est - math.ulp(est)


def _sturm_nonnegative(f: list[int]) -> bool:
    """f >= 0 on [0, inf) decided by the Sturm chain alone, without the
    coefficient-sign shortcut: the reference for ``_nonnegative``."""
    if f == [0]:
        return True
    if f[-1] <= 0:
        return False
    while f[0] == 0:
        f = f[1:]
    chain = _sturm(f)
    if len(chain[-1]) > 1:
        chain = _sturm(_odd_part(f, chain))
    return _sign_changes(chain) == 0


_int_coeffs = st.lists(st.integers(-30, 30), min_size=1, max_size=6)


class TestDescartes:
    """Descartes' rule of signs decides without a Sturm chain exactly where
    the chain gives the same answer."""

    @settings(max_examples=500, deadline=None)
    @given(_int_coeffs, st.booleans(), st.lists(st.integers(0, 6), max_size=3),
           st.integers(0, 3), st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    def test_nonnegative_matches_sturm(self, base, positive, holes, k, square):
        # all-positive coefficients, interior zeros, a factor x^k and a squared
        # factor, alone and together
        f = [abs(c) for c in base] if positive else list(base)
        for i in holes:
            if i < len(f) - 1:
                f[i] = 0
        candidates = [f, [0] * k + f, _mul(f, _mul(square, square)),
                      [0] * k + _mul(f, _mul(square, square))]
        for c in map(_trimseq, candidates):
            assert _nonnegative(list(c)) is _sturm_nonnegative(list(c)), c

    @settings(max_examples=500, deadline=None)
    @given(_int_coeffs, st.integers(1, 30), st.booleans(),
           st.lists(st.integers(-4, 4), min_size=1, max_size=3))
    def test_one_sign_means_no_positive_root(self, rest, r0, positive, square):
        # the WSPR test: r(0) > 0 and no root in (0, inf)
        tail = [abs(c) for c in rest] if positive else rest
        for r in map(_trimseq, ([r0] + tail, _mul([r0] + tail, _mul(square, square)))):
            if r[0] <= 0:
                continue
            if _variations(r) == 0:
                assert _sign_changes(_sturm(r)) == 0, r

    def test_by_hand(self):
        for f, expected in (([1, 2, 1], True), ([0, 0, 3], True), ([1, 0, 0, 1], True),
                            ([1, -2, 1], True), ([-1, 0, 1], False), ([2, -3, 1], False),
                            ([0, 1, -2, 1], True), ([1], True), ([-1], False), ([0], True)):
            assert _nonnegative(f) is expected is _sturm_nonnegative(f), f


class TestWSPRChainConstant:
    """c_w = inf over x = w^2 >= 0 of (1 + x) Re g(jw), hand-derived."""

    def test_negative_constant(self):
        assert wspr_chain_constant(ratfun_new([-1], [1])) == -np.inf

    def test_infimum_approached_only_at_infinity(self):
        # g = 1/(s + 0.5): (1 + x) * 0.5/(0.25 + x) falls from 2 towards d0
        g = ratfun_new([1], [0.5, 1])
        assert wspr_chain_constant(g) == pytest.approx(0.5, rel=1e-12)
        assert classify_pr(g).d0 == pytest.approx(0.5, rel=1e-12)

    def test_interior_minimum(self):
        # g = 1/(s + 0.5) + 1/(s + 4): (1 + x) Re g = 0.5(1+x)/(0.25+x)
        # + 4(1+x)/(16+x), stationary where (16+x)/(0.25+x) = 4 sqrt(10)
        g = ratfun_new([4.5, 2], [2, 4.5, 1])
        r = 4.0 * np.sqrt(10.0)
        x = (16.0 - 0.25 * r) / (r - 1.0)
        expected = 0.5 * (1 + x) / (0.25 + x) + 4.0 * (1 + x) / (16.0 + x)
        assert classify_pr(g).grade is Grade.WSPR
        assert expected < 2.25  # below the x = 0 value 2.25 and d0 = 4.5
        assert wspr_chain_constant(g) == pytest.approx(expected, rel=1e-9)


class TestScalarEstimate:
    def test_grading_builds_no_array_response(self):
        # the margin estimate evaluates its few points as floats: grading the
        # seed-401 benchmark plants and the corpus never calls the array evaluator
        spec = importlib.util.spec_from_file_location("gen", os.path.join(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "gen.py"))
        gen = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gen)
        plants = [ratfun_new(case["num"], case["den"]) for case in gen.grade_batch(401)]
        plants += [entry.plant for entry in load_corpus(bundled_corpus_path())]
        with mock.patch.object(realness, "freq_response_array", side_effect=AssertionError), \
                mock.patch.object(ratfun, "freq_response_array", side_effect=AssertionError):
            for g in plants:
                classify_pr(g)
                real_part_margin(g)
                wspr_chain_constant(g)


class TestInverseClosure:
    @pytest.mark.parametrize(
        "num,den",
        [([1], [1]), ([2, 1], [1, 1]), ([2, 3, 1], [2, 2, 1])],
    )
    def test_sspr_inverse_is_sspr(self, num, den):
        g = ratfun_new(num, den)
        assert classify_pr(g).grade is Grade.SSPR
        assert classify_pr(inverse(g)).grade is Grade.SSPR


class TestPhaseDeviation:
    def test_unity(self):
        assert phase_deviation(ratfun_new([1], [1])) == pytest.approx(0.0)

    def test_first_order_lag_approaches_90(self):
        dev = phase_deviation(ratfun_new([1], [1, 1]))
        assert dev <= 90.0 + 1e-9
        assert dev > 89.99

    def test_double_lag_exceeds_90(self):
        # arg = -2 arctan(w) tends to -180 degrees
        dev = phase_deviation(ratfun_new([1], [1, 2, 1]))
        assert dev > 90.0
        assert dev < 180.0 + 1e-9

    def test_pole_in_range_raises(self):
        with pytest.raises(PoleOnGrid):
            phase_deviation(ratfun_new([0, 1], [1, 0, 1]))

    def test_pr_members_stay_within_90(self):
        for num, den in [([1], [0, 1]), ([1, 1], [0, 2, 1]), ([1], [1, 1]),
                         ([2, 1], [1, 1])]:
            g = ratfun_new(num, den)
            assert phase_deviation(g) <= 90.0 + 1e-9


class TestHodograph:
    def test_sspr_never_tangent(self):
        rep = hodograph_quadrant_check(ratfun_new([2, 1], [1, 1]))
        assert rep.ok
        assert rep.first_tangency_omega is None
        assert rep.min_real >= 1.0 - 1e-9

    def test_wspr_tangent_only_in_the_limit(self):
        rep = hodograph_quadrant_check(ratfun_new([1], [1, 1]))
        assert rep.ok
        # finite sweep: the real part dips below the tangency tolerance only
        # near the top of the grid
        assert rep.first_tangency_omega is None or rep.first_tangency_omega > 1e3

    def test_violation_at_dc(self):
        rep = hodograph_quadrant_check(ratfun_new([-1, 1], [1, 1]))
        assert not rep.ok
        assert rep.first_violation_omega is not None


class TestRandomPlantInvariants:
    @staticmethod
    def _random_stable_plant(rng):
        # distinct left-half-plane poles, random zeros, positive gain
        n = rng.integers(1, 4)
        poles = -rng.uniform(0.2, 5.0, n) * (1 + rng.uniform(0, 1, n))
        n_zeros = rng.integers(0, n + 1)
        zeros = -rng.uniform(0.1, 6.0, n_zeros)
        from numpy.polynomial import polynomial as npp

        num = npp.polyfromroots(zeros).real * rng.uniform(0.2, 3.0)
        den = npp.polyfromroots(poles).real
        return ratfun_new(num, den)

    def test_grade_consistency_over_random_plants(self):
        rng = np.random.default_rng(123)
        seen = set()
        for _ in range(60):
            g = self._random_stable_plant(rng)
            c = classify_pr(g)
            seen.add(c.grade)
            if c.grade is Grade.SSPR:
                assert g.relative_degree == 0
                assert c.d > 0.0
                assert classify_pr(inverse(g)).grade is Grade.SSPR
            if c.grade is Grade.WSPR:
                assert g.relative_degree == 1
                assert c.d == 0.0 and c.d0 > 0.0
            if c.grade in (Grade.PR, Grade.WSPR, Grade.SSPR):
                assert phase_deviation(g) <= 90.0 + 1e-6
            if c.grade is Grade.NOT_PR:
                assert c.diagnostics
        # the random family must actually exercise several grades
        assert Grade.SSPR in seen and Grade.NOT_PR in seen

    def test_margin_never_exceeds_dc_value(self):
        rng = np.random.default_rng(321)
        for _ in range(40):
            g = self._random_stable_plant(rng)
            from hyperstab.ratfun import freq_response

            dc = freq_response(g, 0.0).real
            assert real_part_margin(g) <= dc + 1e-12


class TestMultiAxisPoles:
    def test_lossless_ladder_with_origin_pole(self):
        # (s^2+1)/(s(s^2+4)): classic lossless driving-point function;
        # residues 1/4 at the origin and 3/8 at +/- 2j, Re g(jw) = 0
        g = ratfun_new([1, 0, 1], [0, 4, 0, 1])
        c = classify_pr(g)
        assert c.grade is Grade.PR
        assert c.single_pole_at_origin
        # s*g = (s^2+1)/(s^2+4) keeps axis poles with imaginary residues,
        # so the derived function earns no margin
        assert c.g1_grade is Grade.NOT_PR
        assert c.d1 == 0.0

    def test_residues_of_the_ladder(self):
        from hyperstab.ratfun import imaginary_axis_residues

        g = ratfun_new([1, 0, 1], [0, 4, 0, 1])
        infos = imaginary_axis_residues(g)
        by_loc = {round(i.location.imag, 6): i.residue for i in infos}
        assert by_loc[0.0] == pytest.approx(0.25)
        assert by_loc[2.0] == pytest.approx(0.375)
        assert by_loc[-2.0] == pytest.approx(0.375)


class TestCrossRelations:
    def test_hand_values_at_omega_one(self):
        # g = (s+1)/(s(s+2)): g(j) = (1-3j)/5, g1(j) = (3+j)/5 by hand
        g = ratfun_new([1, 1], [0, 2, 1])
        from hyperstab.ratfun import freq_response, times_s

        gj = freq_response(g, 1.0)
        g1j = freq_response(times_s(g), 1.0)
        assert gj == pytest.approx(0.2 - 0.6j)
        assert g1j == pytest.approx(0.6 + 0.2j)
        assert gj.real == pytest.approx(g1j.imag / 1.0)
        assert g1j.real == pytest.approx(-1.0 * gj.imag)


def _bandpass(w0, zeta):
    """B(s) = 2 zeta w0 s / (s^2 + 2 zeta w0 s + w0^2), ascending coefficients."""
    return np.array([0.0, 2.0 * zeta * w0]), np.array([w0 * w0, 2.0 * zeta * w0, 1.0])


def _re_bandpass(w, w0, zeta):
    """Re B(jw) = 1 / (1 + Q^2) with Q = (w0^2 - w^2) / (2 zeta w0 w)."""
    q = (w0 * w0 - w * w) / (2.0 * zeta * w0 * w)
    return 1.0 / (1.0 + q * q)


def _notch_plant(terms, tail=(1.0,)):
    """(1 - sum a B(s; w0, zeta)) * 1/tail(s) over one common denominator."""
    from numpy.polynomial import polynomial as npp

    den = np.array([1.0])
    for _, w0, zeta in terms:
        den = npp.polymul(den, _bandpass(w0, zeta)[1])
    num = den.copy()
    for i, (a, w0, zeta) in enumerate(terms):
        part = a * _bandpass(w0, zeta)[0]
        for j, (_, w1, z1) in enumerate(terms):
            if j != i:
                part = npp.polymul(part, _bandpass(w1, z1)[1])
        num = npp.polysub(num, part)
    return ratfun_new(num, npp.polymul(den, tail))


class TestNarrowNotches:
    """Features far narrower than any grid spacing, with hand-derived truth."""

    def test_roadmap_notch_is_not_pr(self):
        # g = 1 - 1.5 B(s; 1.2345, 1e-3) - 0.9 B(s; 100, 0.5); at w = 1.2345
        # the first term's real part is 1, so Re g = -0.5 - 0.9 Re B2
        g = _notch_plant([(1.5, 1.2345, 1e-3), (0.9, 100.0, 0.5)])
        at_notch = 1.0 - 1.5 - 0.9 * _re_bandpass(1.2345, 100.0, 0.5)
        assert at_notch == pytest.approx(-0.500137, abs=1e-6)
        c = classify_pr(g)
        assert c.grade is Grade.NOT_PR
        assert c.quadrant_ok is False
        assert any("changes sign" in msg for msg in c.diagnostics)
        margin = real_part_margin(g)
        assert at_notch - 1e-6 <= margin <= at_notch

    def test_micro_damped_notch_margin(self):
        # zeta = 1e-6: the dip at w = 1.2345 is 2.5e-6 rad/s wide
        g = _notch_plant([(0.7, 1.2345, 1e-6), (0.5, 100.0, 0.5)])
        at_notch = 0.3 - 0.5 * _re_bandpass(1.2345, 100.0, 0.5)
        assert at_notch == pytest.approx(0.299924, abs=1e-6)
        c = classify_pr(g)
        assert c.grade is Grade.SSPR
        assert c.d == pytest.approx(at_notch, abs=1e-6)
        assert c.d <= at_notch

    def test_wspr_chain_constant_sees_the_notch(self):
        # g = (1 - 0.97 B(s; 3, 1e-6)) / (s + 100). Near w = 3, with
        # Q = (9 - w^2)/(6e-6 w), (1 + w^2) Re g = 10 (100 - 97 c + 2.91 Q c)
        # / 10009 with c = 1/(1 + Q^2); the minimum over Q of
        # (2.91 Q - 97)/(1 + Q^2) is -(97 + sqrt(97^2 + 2.91^2))/2
        g = _notch_plant([(0.97, 3.0, 1e-6)], tail=(100.0, 1.0))
        assert classify_pr(g).grade is Grade.WSPR
        at_resonance = 10.0 * (0.03 * 100.0 / 10009.0)  # (1 + 9) Re g(3j)
        infimum = 10.0 * (100.0 - (97.0 + np.hypot(97.0, 2.91)) / 2.0) / 10009.0
        c_w = wspr_chain_constant(g)
        assert c_w <= at_resonance
        assert c_w == pytest.approx(infimum, rel=1e-6)


class TestTangency:
    """Re g(jw) touching zero at a finite frequency: a root of even
    multiplicity of R(w^2) that is no sign change, hand-derived."""

    def test_axis_pole_pair_with_constant_real_part(self):
        # (s^2 + s + 1)/(s^2 + 1) = 1 + s/(s^2 + 1): Re g(jw) = 1 off the
        # poles, so R = Q = (1 - w^2)^2 has a double root at w = 1
        c = classify_pr(ratfun_new([1, 1, 1], [1, 0, 1]))
        assert c.grade is Grade.PR
        assert c.d == pytest.approx(1.0, rel=1e-9)

    def test_tangent_relative_degree_zero_is_pr(self):
        # (s^2 + 1)/(s + 1)^2: Re g(jw) = (1 - w^2)^2/(1 + w^2)^2, zero at w = 1
        g = ratfun_new([1, 0, 1], [1, 2, 1])
        c = classify_pr(g)
        assert c.grade is Grade.PR
        assert c.d == 0.0
        assert -1e-9 <= real_part_margin(g) <= 0.0

    def test_rounded_axis_pair_is_pr(self):
        # s/(s^2 + 3) + 1/(s + 0.1) over the product denominator, whose
        # constant 0.1*3 rounds to 0.30000000000000004: den(j sqrt 3) is
        # about 2.8e-17, not 0. Off the poles Re g(jw) = 0.1/(w^2 + 0.01)
        from fractions import Fraction

        from numpy.polynomial import polynomial as npp

        den = npp.polymul([3.0, 0.0, 1.0], [0.1, 1.0])
        assert Fraction(den[0]) != 3 * Fraction(0.1)  # the product rounded
        num = npp.polyadd(npp.polymul([0.0, 1.0], [0.1, 1.0]), [3.0, 0.0, 1.0])
        c = classify_pr(ratfun_new(num, den))
        assert c.grade is Grade.PR
        assert c.d == 0.0
        # + 0.3: Re g(jw) = 0.3 + 0.1/(w^2 + 0.01), infimum 0.3 at infinity
        c = classify_pr(ratfun_new(npp.polyadd(num, 0.3 * den), den))
        assert c.grade is Grade.PR
        assert c.d == pytest.approx(0.3, abs=1e-9)
        # the margin removes the axis pair with its real residue first, so the
        # rounded product's dip next to the pole is gone: inf Re g = 0, at
        # infinity, and with 0.3 added it is 0.3
        assert abs(real_part_margin(ratfun_new(num, den))) <= TOL_MARGIN
        assert real_part_margin(ratfun_new(npp.polyadd(num, 0.3 * den), den)) \
            == pytest.approx(0.3, abs=TOL_MARGIN)

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 20.0), st.floats(0.05, 5.0), st.floats(0.01, 10.0))
    def test_axis_pair_plus_positive_part_is_pr(self, w0, r, a):
        # 2r s/(s^2 + w0^2) + 1/(s + a) with rounded product coefficients
        from numpy.polynomial import polynomial as npp

        pair = [w0 * w0, 0.0, 1.0]
        num = npp.polyadd(npp.polymul([0.0, 2.0 * r], [a, 1.0]), pair)
        c = classify_pr(ratfun_new(num, npp.polymul(pair, [a, 1.0])))
        assert c.grade is Grade.PR

    def test_tangent_relative_degree_one_is_not_wspr(self):
        # (s^2 + s + 2)/(s + 1)^3: Re g(jw) = 2 (1 - w^2)^2/(1 + w^2)^3 and
        # w^2 Re g -> 2, but Re g(j1) = 0, so the grade is PR and c_w = 0
        g = ratfun_new([2, 1, 1], [1, 3, 3, 1])
        c = classify_pr(g)
        assert c.grade is Grade.PR
        assert c.d0 == 0.0
        assert -1e-9 <= wspr_chain_constant(g) <= 0.0


def _stable_plant(poles, zeros, gain):
    """gain * prod(s - z) / prod(s - p) from (re, im) pairs in the left half
    plane; im > 0 adds the conjugate pair. Zeros that would make the plant
    improper are dropped."""
    from numpy.polynomial import polynomial as npp

    def expand(pairs):
        roots = [complex(re, im) for re, im in pairs]
        roots += [complex(re, -im) for re, im in pairs if im > 0.0]
        return npp.polyfromroots(roots).real if roots else np.array([1.0])

    den = expand(poles)
    while zeros and len(expand(zeros)) > len(den):
        zeros = zeros[:-1]
    return ratfun_new(gain * expand(zeros), den)


_root = st.tuples(st.floats(-5.0, -0.2), st.floats(0.0, 5.0))
_plants = st.builds(
    _stable_plant,
    st.lists(_root, min_size=1, max_size=2),
    st.lists(_root, min_size=0, max_size=2),
    st.floats(0.2, 3.0),
)


def _dense_min(values, omegas):
    """Sampled minimum, polished on 2001 points between the argmin's neighbours."""
    with np.errstate(all="ignore"):
        vals = values(omegas)
        vals[~np.isfinite(vals)] = np.inf
        k = int(np.argmin(vals))
        lo, hi = omegas[max(k - 1, 0)], omegas[min(k + 1, omegas.size - 1)]
        fine = values(np.linspace(lo, hi, 2001))
    return float(min(vals[k], np.min(fine[np.isfinite(fine)], initial=np.inf)))


class TestExactAgainstDenseSweep:
    """The certified margins never exceed a dense sweep of the same function,
    and match it when the plant has no sharp features."""

    OMEGAS = np.concatenate(([0.0], np.geomspace(1e-3, 1e6, 60001)))

    @staticmethod
    def _damping(g):
        return min((-p.real / abs(p) for p in g.poles() if abs(p) > 0.0), default=1.0)

    @settings(max_examples=40, deadline=None)
    @given(_plants)
    def test_margins_bounded_by_the_sweep(self, g):
        from hyperstab.ratfun import freq_response_array

        def re(w):
            return freq_response_array(g, w).real

        sweep_d = _dense_min(re, self.OMEGAS)
        if g.relative_degree == 0:
            sweep_d = min(sweep_d, g.num.leading / g.den.leading)
        else:
            sweep_d = min(sweep_d, 0.0)
        sweep_cw = _dense_min(lambda w: (1.0 + w * w) * re(w), self.OMEGAS)
        d, c_w = real_part_margin(g), wspr_chain_constant(g)
        assert d <= sweep_d + 1e-12 * max(1.0, abs(sweep_d))
        assert c_w <= sweep_cw + 1e-12 * max(1.0, abs(sweep_cw))
        # however the grading decided it, quadrant_ok is the Sturm-chain test
        # of R + TOL_MARGIN*Q >= 0
        r, q, _, _ = _real_part(g.num.coeffs, g.den.coeffs, imaginary_axis_residues(g))
        tol_num, tol_den = TOL_MARGIN.as_integer_ratio()
        assert classify_pr(g).quadrant_ok == _nonnegative(_lin(r, tol_den, q, -tol_num))
        if classify_pr(g).quadrant_ok:
            assert sweep_d >= -TOL_MARGIN - 1e-12 * max(1.0, abs(sweep_d))
        if self._damping(g) >= 0.3:
            assert d == pytest.approx(sweep_d, abs=1e-6 * max(1.0, abs(sweep_d)))
            assert c_w == pytest.approx(sweep_cw, abs=1e-6 * max(1.0, abs(sweep_cw)))


class TestWitness:
    """A NotPR grade of the real-part test is proven by an exact witness of
    R + TOL_MARGIN*Q < 0, with no Sturm chain and no certification, and
    grades exactly as the Sturm chain alone would."""

    @settings(max_examples=100, deadline=None)
    @given(_plants)
    def test_witness_decides_as_sturm(self, g):
        r, q, _, _ = _real_part(g.num.coeffs, g.den.coeffs, imaginary_axis_residues(g))
        tol_num, tol_den = TOL_MARGIN.as_integer_ratio()
        widened = _lin(r, tol_den, q, -tol_num)
        witnesses = []

        def spy_negative_at(f, xs):
            witnesses.append(_negative_at(f, xs))
            return witnesses[-1]

        with mock.patch.object(realness, "_negative_at", side_effect=spy_negative_at), \
                mock.patch.object(realness, "_certify", side_effect=_certify) as certify, \
                mock.patch.object(realness, "_sturm", side_effect=_sturm) as chains:
            c = classify_pr(g)
        # the plants are strictly stable, so only R + TOL_MARGIN*Q decides NotPR
        reference = _sturm_nonnegative(widened)
        assert c.quadrant_ok is reference
        assert (c.grade is Grade.NOT_PR) is (not reference)
        witness = witnesses[-1] if witnesses else None
        if witness is not None:
            assert c.grade is Grade.NOT_PR
            assert certify.call_count == 0 and chains.call_count == 0
            if witness == np.inf:
                assert widened[-1] < 0
            else:
                x = Fraction(witness)
                assert sum(c_i * x ** i for i, c_i in enumerate(widened)) < 0
                assert any(f"at w = {np.sqrt(witness):.6g}:" in m for m in c.diagnostics)
        # without the witness search, the grade and every margin are the same
        with mock.patch.object(realness, "_negative_at", return_value=None):
            unwitnessed = classify_pr(g)
        assert unwitnessed.quadrant_ok is c.quadrant_ok
        assert {k: v for k, v in unwitnessed.to_report().items() if k != "diagnostics"} \
            == {k: v for k, v in c.to_report().items() if k != "diagnostics"}
        if c.grade is Grade.NOT_PR:
            # the certified infimum, as real_part_margin reports it
            assert any(f"inf Re g(jw) = {real_part_margin(g):.6g}" in m
                       for m in unwitnessed.diagnostics)

    @pytest.mark.parametrize("num, den", [
        ([1], [2, 3, 1]),  # relative degree 2
        ([-1, 1], [1, 1]),  # relative degree 0
    ])
    def test_fallback_without_estimate_points(self, num, den):
        # with the estimate's points taken away no witness is found, and the
        # Sturm chain decides with the certified infimum in the diagnostic
        g = ratfun_new(num, den)

        def pointless(n, q, value):
            est, _, _ = _estimate(n, q, value)
            return est, [], []

        with mock.patch.object(realness, "_estimate", side_effect=pointless):
            c = classify_pr(g)
        assert c.grade is Grade.NOT_PR and c.quadrant_ok is False
        assert c.diagnostics == (
            "Re g(jw) < 0 at some w: R(w^2) + TOL_MARGIN*Q(w^2) changes sign at w^2 > 0 "
            f"or is negative at infinity; inf Re g(jw) = {real_part_margin(g):.6g}",)

    def test_negative_at_infinity(self):
        # (1 - 2s)/(1 + s): Re g(jw) -> -2, so the leading coefficient is the witness
        with mock.patch.object(realness, "_certify", side_effect=AssertionError):
            c = classify_pr(ratfun_new([1, -2], [1, 1]))
        assert c.grade is Grade.NOT_PR
        assert c.diagnostics == ("Re g(jw) -> -2 as w -> inf: "
                                 "R(w^2) + TOL_MARGIN*Q(w^2) is negative at infinity",)


def _axis_free_real_part(num, den, axis):
    """``_real_part`` as it is for any other axis pole, forced at an exact
    origin pole: R and Q of g less r0/s, built in floats."""
    g_free = realness._axis_free_part(num, den, axis)
    coeffs = g_free.num.coeffs, g_free.den.coeffs
    return (*_real_part_polys(*coeffs), lambda: coeffs, None)


_origin_coeff = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                          st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False))
# positive coefficients of degree <= 2 are Hurwitz, so that many draws are PR
_origin_side = (st.lists(_origin_coeff, min_size=1, max_size=6)
                | st.lists(st.floats(min_value=0.01, max_value=100.0), min_size=1, max_size=3))


class TestOriginPole:
    """An exact origin pole, g's only axis pole: g's R and Q and those of s*g
    come from one integer product, and s*g is graded without a second
    function."""

    @settings(max_examples=300, deadline=None)
    @given(_origin_side, _origin_side, st.sampled_from([0.0, -0.0]))
    def test_one_product_grades_as_two_passes(self, num, den, zero):
        # raw coefficients over a den whose constant term is a signed zero,
        # drawn as for times_s at an origin pole
        try:
            g = RationalFunction(num, [zero] + den)
        except (DegenerateInput, ZeroDenominator, ImproperTransferFunction):
            assume(False)
        assume(g.den.coeffs[0] == 0.0 and not g.num.is_zero)
        assume(not any(ratfun._near(z, g.poles()) for z in g.zeros()))
        c = classify_pr(g)
        # g1_grade and d1 are the grade and SSPR margin of s*g graded alone
        if c.grade is Grade.PR and c.single_pole_at_origin:
            try:
                sub = classify_pr(times_s(g))
            except ImproperTransferFunction:
                sub = None
            assert c.g1_grade is (sub and sub.grade)
            assert c.d1 == (sub.d if sub and sub.grade is Grade.SSPR else 0.0)
        else:
            assert (c.g1_grade, c.d1) == (None, 0.0)
        # the grade, quadrant_ok and d of the axis-free part in floats
        with mock.patch.object(realness, "_real_part", side_effect=_axis_free_real_part):
            forced = classify_pr(g)
        assert (c.grade, c.quadrant_ok) == (forced.grade, forced.quadrant_ok)
        try:
            axis = imaginary_axis_residues(g)
        except RepeatedAxisPole:
            return
        part = _real_part(g.num.coeffs, g.den.coeffs, axis)
        if part is None or part[3] is None:
            return
        r, q, _, _ = part
        # g's own R and Q are x*R and x*Q of the product, exactly
        x_r, x_q = _trimseq([0] + r), _trimseq([0] + q)
        assert _real_part_polys(g.num.coeffs, g.den.coeffs) == (x_r, x_q)
        # d is certified on g's own R and Q, where the float axis-free part
        # can round across the infimum (and its d exceed it) by an ulp or so
        t_num, t_den = c.d.as_integer_ratio()
        assert c.d == 0.0 or _nonnegative(_lin(r, t_den, q, t_num))
        assert c.d == pytest.approx(forced.d, rel=2 * realness.CERT_REL, abs=0.0)

    def test_integrator(self):
        # 1/s: Re g = 0 off the pole, decided by Descartes' rule with no
        # axis-free part built; s*g = 1 is SSPR with d1 = 1
        g = ratfun_new([1], [0, 1])
        with mock.patch.object(realness, "_axis_free_part", side_effect=AssertionError):
            c = classify_pr(g)
        assert (c.grade, c.quadrant_ok, c.single_pole_at_origin) == (Grade.PR, True, True)
        assert (c.g1_grade, c.d1) == (Grade.SSPR, 1.0)
        r, q, _, sg = _real_part(g.num.coeffs, g.den.coeffs, imaginary_axis_residues(g))
        assert (r, q, sg[:2]) == ([0], [1], ([1], [1]))

    @pytest.mark.parametrize("a, b, grade, g1_grade, d1", [
        # Re g = (b - a)/(w^2 + b^2) and s*g = (s + a)/(s + b), SSPR with
        # d1 = min(a/b, 1)
        (1.0, 2.0, Grade.PR, Grade.SSPR, 0.5),
        (0.25, 4.0, Grade.PR, Grade.SSPR, 0.0625),
        (4.0, 0.5, Grade.NOT_PR, None, 0.0),  # a > b: Re g < 0 at every w
    ])
    def test_lead_lag_over_an_integrator(self, a, b, grade, g1_grade, d1):
        # (s + a)/(s (s + b))
        g = ratfun_new([a, 1.0], [0.0, b, 1.0])
        c = classify_pr(g)
        assert (c.grade, c.g1_grade) == (grade, g1_grade)
        assert c.single_pole_at_origin is (grade is Grade.PR)
        assert c.d1 == pytest.approx(d1, rel=1e-9)
        if g1_grade is not None:
            assert c.d1 == classify_pr(times_s(g)).d

    def test_improper_s_times_g(self):
        # (1 + 5e5 s)/s = 5e5 + 1/s: PR with d = 5e5, and s*g is improper
        c = classify_pr(ratfun_new([1.0, 5e5], [0.0, 1.0]))
        assert (c.grade, c.single_pole_at_origin, c.g1_grade, c.d1) == (Grade.PR, True, None, 0.0)
        assert c.d == pytest.approx(5e5, rel=1e-9)
        assert c.diagnostics == ("s*g(s) is improper; no derived-function margin",)

    def test_origin_pole_beside_an_axis_pair(self):
        # 1/s + s/(s^2 + 1): the origin is not the only axis pole, so g takes
        # the axis-free path and s*g = (2 s^2 + 1)/(s^2 + 1) is graded on its
        # own, NotPR by its residue j/2 at j
        g = ratfun_new([1.0, 0.0, 2.0], [0.0, 1.0, 0.0, 1.0])
        with mock.patch.object(realness, "_products", side_effect=realness._products) as products:
            c = classify_pr(g)
        # R and Q of g less its three axis poles, over a constant den; s*g's
        # residue decides before its real part is taken
        assert [len(call.args[1]) for call in products.call_args_list] == [1]
        assert (c.grade, c.quadrant_ok, c.single_pole_at_origin) == (Grade.PR, True, True)
        assert (c.g1_grade, c.d1) == (Grade.NOT_PR, 0.0)
        assert classify_pr(times_s(g)).grade is Grade.NOT_PR

    @pytest.mark.parametrize("den", [[0.0, 1.0], [1e-12, 1.0], [0.0, 2.0, 1.0]])
    def test_zero_numerator_over_an_origin_pole(self, den):
        # 0/s is the zero function: PR, with no pole at the origin to grade
        # s*g for (s*0/s is 0/s again, which graded itself without end)
        c = classify_pr(RationalFunction([0.0], den))
        assert (c.grade, c.quadrant_ok, c.d) == (Grade.PR, True, 0.0)
        assert (c.single_pole_at_origin, c.g1_grade, c.d1) == (False, None, 0.0)
        assert real_part_margin(RationalFunction([0.0], den)) == 0.0

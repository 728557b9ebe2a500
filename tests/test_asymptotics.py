import math
from functools import lru_cache

import numpy as np
import pytest

from qensemble.asymptotics import (
    ScalingParams,
    _beta_tails,
    continuum_moment_limit,
    expansion_residual,
    m_p0,
    m_p1,
    shifted_semicircle_moment,
)
from qensemble.qcore import DomainError

#: lambda grid of the 50-digit comparisons, from the s -> 1 end, where the
#: incomplete beta's argument 1 - s is small, to s at the normal-float floor
REFERENCE_LAMS = (1e-8, 1e-3, 0.2, 1.0, 50.0, 700.0)


@lru_cache(maxsize=None)
def _inc_beta_50(lam, alpha, beta):
    """I_{1-e^(-lambda)}(alpha, beta) at 50 digits, by mpmath."""
    import mpmath

    with mpmath.workdps(50):
        x = -mpmath.expm1(-mpmath.mpf(lam))
        return mpmath.betainc(alpha, beta, 0, x, regularized=True)


def _reference(p, a, lam):
    """(M_p0, M_p1) at 50 digits from the paper's incomplete-beta sums."""
    import mpmath

    with mpmath.workdps(50):
        a, big_l = mpmath.mpf(a), mpmath.mpf(lam)
        s = mpmath.exp(-big_l)
        fact = mpmath.factorial
        m0 = m1 = mpmath.mpf(0)
        for l in range(p // 2 + 1):
            i_beta = _inc_beta_50(lam, l + 1, p - l)
            weight = (a + 1) ** (p - 2 * l) * (-a) ** l / (fact(l) * fact(p - 2 * l))
            m0 += weight * fact(p - l - 1) * i_beta
            piece = p * fact(p - l - 1) * i_beta / 2
            if l >= 1:
                piece += (
                    fact(p - 1) / fact(l - 1) * s ** (p - l) * (1 - s) ** (l - 1)
                    * (p - l + 2 - (p + 1) * s)
                )
            m1 += weight * piece
        return float(m0 / big_l), float(-big_l * p / 12 * m1)


def _rel_err(got, want):
    return abs(got - want) / abs(want) if want else abs(got)


class TestScalingParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            ScalingParams(a=0.5, lam=1.0)
        with pytest.raises(DomainError):
            ScalingParams(a=-1.0, lam=0.0)

    def test_cached_s(self):
        sp = ScalingParams(a=-1.0, lam=math.log(4))
        assert sp.s == pytest.approx(0.25)


class TestIncBetaReg:
    """The integer-order regularised incomplete beta I_t(l+1, p-l) of the
    coefficients, summed as a binomial tail by ``_beta_tails``."""

    def test_endpoints(self):
        assert _beta_tails(5, 0.0, 1.0) == [0.0] * 5
        assert _beta_tails(5, 1.0, 0.0) == [1.0] * 5

    def test_uniform(self):
        for t in (0.25, 0.7, 1e-300):
            assert _beta_tails(1, t, 1.0 - t) == [t]

    def test_against_mpmath(self):
        for lam in REFERENCE_LAMS:
            t, s = -math.expm1(-lam), math.exp(-lam)
            for p in range(1, 31):
                for l, got in enumerate(_beta_tails(p, t, s)):
                    want = float(_inc_beta_50(lam, l + 1, p - l))
                    assert _rel_err(got, want) < 1e-14, (lam, p, l)

    def test_shift_recurrence(self):
        # I_x(l+1, p-l) - I_x(l+2, p-l-1) = C(p, l+1) x^(l+1) (1-x)^(p-l-1)
        for x, p in ((0.3, 5), (0.7, 9), (0.05, 4)):
            tails = _beta_tails(p, x, 1.0 - x)
            for l in range(p - 1):
                g = math.gamma(p + 1) / (math.gamma(l + 2) * math.gamma(p - l))
                resid = tails[l] - tails[l + 1] - g * x ** (l + 1) * (1 - x) ** (p - l - 1)
                assert abs(resid) < 1e-12


class TestExpansionCoefficients:
    def test_first_coefficient_closed_form(self):
        for a in (-0.5, -2.0):
            for lam in (0.5, 1.0):
                sp = ScalingParams(a=a, lam=lam)
                want = (a + 1) * (1 - math.exp(-lam)) / lam
                assert m_p0(1, sp) == pytest.approx(want, rel=1e-14)

    def test_order_zero(self):
        sp = ScalingParams(a=-0.5, lam=1.0)
        assert m_p0(0, sp) == 1.0
        assert m_p1(0, sp) == 0.0

    @pytest.mark.parametrize("a", [-1.0, -0.5, -2.0, -5.0, -0.1])
    @pytest.mark.parametrize(
        "lam", [1e-8, 1e-3, 0.2, math.log(2), 1.0, 2.0, 50.0, 700.0]
    )
    def test_two_representations_agree(self, a, lam):
        # the binomial tails against the paper's incomplete-beta sums at 50
        # digits; the scipy route lost 1.7e-8 (M_p0) and 1.8e-7 (M_p1) at
        # lambda = 1e-8, taking 1 - s rounded and forming p-l+2-(p+1)s by
        # cancellation
        sp = ScalingParams(a=a, lam=lam)
        for p in range(1, 31):
            want0, want1 = _reference(p, a, lam)
            assert _rel_err(m_p0(p, sp), want0) < 1e-13, p
            assert _rel_err(m_p1(p, sp), want1) < 1e-13, p

    def test_even_moments_positive(self):
        for a in (-1.0, -0.5, -3.0):
            for lam in (0.3, 1.0, 2.5):
                sp = ScalingParams(a=a, lam=lam)
                for p in (2, 4, 6, 8):
                    assert m_p0(p, sp) > 0

    def test_minus_one_specialisations(self):
        import mpmath

        for half in range(1, 6):
            for lam in (1e-8, 0.3, 1.0, 3.0, 700.0):
                sp = ScalingParams(a=-1.0, lam=lam)
                i_beta = _inc_beta_50(lam, half + 1, half)
                with mpmath.workdps(50):
                    s = mpmath.exp(-mpmath.mpf(lam))
                    want0 = i_beta / (lam * half)
                    want1 = (
                        -lam
                        * half
                        / 6
                        * (
                            i_beta
                            + mpmath.factorial(2 * half - 1)
                            / (mpmath.factorial(half) * mpmath.factorial(half - 1))
                            * s**half
                            * (1 - s) ** (half - 1)
                            * (2 + half - (2 * half + 1) * s)
                        )
                    )
                assert m_p0(2 * half, sp) == pytest.approx(float(want0), rel=1e-12)
                assert m_p1(2 * half, sp) == pytest.approx(float(want1), rel=1e-12)

    def test_odd_coefficients_vanish_at_minus_one(self):
        sp = ScalingParams(a=-1.0, lam=1.0)
        for p in (1, 3, 5):
            assert m_p0(p, sp) == pytest.approx(0.0, abs=1e-15)
            assert m_p1(p, sp) == pytest.approx(0.0, abs=1e-15)


class TestExpansionResidual:
    def test_order_zero_is_exact(self):
        sp = ScalingParams(a=-0.5, lam=1.0)
        for N in (4, 16):
            assert expansion_residual(0, sp, N) == pytest.approx(0.0, abs=1e-12)

    def test_odd_vanishing_at_minus_one(self):
        sp = ScalingParams(a=-1.0, lam=1.0)
        for p in (1, 3, 5):
            for N in (8, 16):
                assert expansion_residual(p, sp, N) == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("p", range(1, 7))
    def test_cubic_decay_exponent(self, p):
        # the fitted decay exponent of |residual| in N should be >= 2.7
        sp = ScalingParams(a=-0.5, lam=1.0)
        enns = np.array([8, 16, 32, 64])
        res = np.array([abs(expansion_residual(p, sp, int(N))) for N in enns])
        assert np.all(res > 0)
        slope = np.polyfit(np.log(enns), np.log(res), 1)[0]
        assert -slope >= 2.7

    def test_scaled_residual_stability(self):
        sp = ScalingParams(a=-0.5, lam=1.0)
        vals = [abs(expansion_residual(2, sp, N)) * N**3 for N in (16, 32, 64)]
        assert (max(vals) - min(vals)) / min(vals) < 0.5


class TestContinuum:
    def test_semicircle_moments(self):
        assert shifted_semicircle_moment(2, 0.0) == 1.0
        assert shifted_semicircle_moment(3, 0.0) == 0.0
        assert shifted_semicircle_moment(2, 1.0) == 2.0
        assert shifted_semicircle_moment(4, 0.0) == 2.0

    def test_centered_limit(self):
        # a = -1 exactly: convergence is O(lambda)
        for p in (2, 4, 6):
            got = continuum_moment_limit(p, 0.0, 1e-3)
            want = shifted_semicircle_moment(p, 0.0)
            assert got == pytest.approx(want, rel=5e-3)

    def test_centered_odd_vanish(self):
        for p in (1, 3, 5):
            assert continuum_moment_limit(p, 0.0, 1e-3) == pytest.approx(0.0, abs=1e-12)

    def test_shifted_limit_converges(self):
        # r = 1: convergence is O(sqrt(lambda)), so probe a smaller lambda
        for p in (1, 2, 3):
            got = continuum_moment_limit(p, 1.0, 1e-8)
            want = shifted_semicircle_moment(p, 1.0)
            assert got == pytest.approx(want, rel=1e-3)

import math

import numpy as np
import pytest

from qensemble.asymptotics import (
    ScalingParams,
    continuum_moment_limit,
    expansion_residual,
    inc_beta_reg,
    m_p0,
    m_p0_alt,
    m_p1,
    shifted_semicircle_moment,
)
from qensemble.qcore import DomainError


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
    def test_endpoints(self):
        assert inc_beta_reg(0.0, 2.0, 3.0) == 0.0
        assert inc_beta_reg(1.0, 2.0, 3.0) == 1.0

    def test_uniform(self):
        for x in (0.0, 0.25, 0.7, 1.0):
            assert inc_beta_reg(x, 1.0, 1.0) == pytest.approx(x, rel=1e-14)

    def test_against_mpmath(self):
        import mpmath

        rng = np.random.default_rng(7)
        for _ in range(400):
            x = float(rng.uniform(0, 1))
            alpha = float(rng.uniform(0.05, 40))
            beta = float(rng.uniform(0.05, 40))
            with mpmath.workdps(30):
                ref = float(mpmath.betainc(alpha, beta, 0, x, regularized=True))
            assert inc_beta_reg(x, alpha, beta) == pytest.approx(
                ref, rel=1e-12, abs=1e-15
            )

    def test_shift_recurrence(self):
        for x, alpha, beta in ((0.3, 2.0, 3.0), (0.7, 1.5, 4.5), (0.05, 3.0, 2.0)):
            g = math.gamma(alpha + beta) / (math.gamma(alpha + 1) * math.gamma(beta))
            resid = (
                inc_beta_reg(x, alpha, beta)
                - inc_beta_reg(x, alpha + 1, beta - 1)
                - g * x**alpha * (1 - x) ** (beta - 1)
            )
            assert abs(resid) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            inc_beta_reg(1.5, 1.0, 1.0)
        with pytest.raises(DomainError):
            inc_beta_reg(0.5, -1.0, 1.0)


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

    @pytest.mark.parametrize("a", [-1.0, -0.5, -2.0])
    @pytest.mark.parametrize("lam", [0.2, math.log(2), 2.0])
    def test_two_representations_agree(self, a, lam):
        sp = ScalingParams(a=a, lam=lam)
        for p in range(1, 11):
            v1, v2 = m_p0(p, sp), m_p0_alt(p, sp)
            assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-14)

    def test_even_moments_positive(self):
        for a in (-1.0, -0.5, -3.0):
            for lam in (0.3, 1.0, 2.5):
                sp = ScalingParams(a=a, lam=lam)
                for p in (2, 4, 6, 8):
                    assert m_p0(p, sp) > 0

    def test_minus_one_specialisations(self):
        for half in range(1, 6):
            for lam in (0.3, 1.0, 3.0):
                sp = ScalingParams(a=-1.0, lam=lam)
                s = sp.s
                i_beta = inc_beta_reg(1 - s, half + 1, half)
                want0 = i_beta / (lam * half)
                want1 = (
                    -lam
                    * half
                    / 6.0
                    * (
                        i_beta
                        + math.factorial(2 * half - 1)
                        / (math.factorial(half) * math.factorial(half - 1))
                        * s**half
                        * (1 - s) ** (half - 1)
                        * (2 + half - (2 * half + 1) * s)
                    )
                )
                assert m_p0(2 * half, sp) == pytest.approx(want0, rel=1e-12)
                assert m_p1(2 * half, sp) == pytest.approx(want1, rel=1e-12)

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

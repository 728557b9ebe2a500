import math
from fractions import Fraction as F

import mpmath
import numpy as np
import pytest

from qensemble.moments import EnsembleParams
from qensemble.orthopoly import jacobi_matrix
from qensemble.qcore import (
    DomainError,
    QParams,
    TruncationError,
    jackson_integral,
    q_binomial,
    q_double_factorial,
    q_int,
    q_pochhammer_infinite,
    recurrence,
)

HALF = F(1, 2)


class TestQInt:
    def test_empty_sum(self):
        assert q_int(0, HALF) == 0

    def test_geometric_sum(self):
        assert q_int(3, HALF) == F(7, 4)

    @pytest.mark.parametrize("n", range(13))
    def test_classical_limit(self, n):
        assert q_int(n, F(1)) == n

    def test_negative_n(self):
        with pytest.raises(DomainError):
            q_int(-1, HALF)


class TestFactorials:
    def test_double_factorial_conventions(self):
        assert q_double_factorial(0, HALF) == 1
        assert q_double_factorial(-1, HALF) == 1
        with pytest.raises(DomainError):
            q_double_factorial(-2, HALF)

    def test_double_factorial_values(self):
        q = F(2, 3)
        assert q_double_factorial(4, q) == q_int(4, q) * q_int(2, q)
        assert q_double_factorial(5, q) == q_int(5, q) * q_int(3, q) * q_int(1, q)

    @pytest.mark.parametrize("n", range(13))
    def test_classical_limits(self, n):
        assert q_double_factorial(n, F(1)) == math.prod(range(n, 0, -2))


class TestQBinomial:
    def test_definition(self):
        for q in (HALF, F(2, 3)):
            assert q_binomial(2, 1, q) == 1 + q

    def test_domain(self):
        with pytest.raises(DomainError):
            q_binomial(3, 4, HALF)
        with pytest.raises(DomainError):
            q_binomial(3, -1, HALF)

    @pytest.mark.parametrize("q", [F(2, 5), F(1, 2), F(3, 4)])
    def test_gaussian_product_formula(self, q):
        for n in range(21):
            for k in range(n + 1):
                product = F(1)
                for i in range(1, k + 1):
                    product *= (1 - q ** (n - k + i)) / (1 - q**i)
                assert q_binomial(n, k, q) == product

    @pytest.mark.parametrize("q", [F(2, 5), F(1, 2)])
    def test_pascal_rule(self, q):
        for n in range(1, 21):
            for k in range(1, n):
                assert q_binomial(n, k, q) == q_binomial(n - 1, k - 1, q) + q**k * q_binomial(n - 1, k, q)

    @pytest.mark.parametrize("n,k", [(5, 2), (12, 7), (9, 0)])
    def test_classical_limit(self, n, k):
        assert q_binomial(n, k, F(1)) == math.comb(n, k)


class TestRecurrence:
    def test_one_home_for_every_mode(self):
        q, a = F(2, 3), F(-1, 2)
        assert recurrence(0, q, a) == (a + 1, 0)
        assert recurrence(0, 5e-324, -0.5) == (0.5, 0.0)  # 1/q overflows
        for n in range(1, 4):
            assert recurrence(n, q, a) == ((a + 1) * q**n, -a * q ** (n - 1) * (1 - q**n))
        # float mode: the ndarray path is the scalar formula element by
        # element; numpy integers keep numpy's pow, which can differ from
        # libm's in the last bit (0.9**12)
        fq, fa, N = 0.9, -1 / 3, 40
        b, lam = recurrence(np.arange(N), fq, fa)
        assert list(zip(b, lam)) == [recurrence(np.int64(n), fq, fa) for n in range(N)]
        # and the Jacobi matrix reads its entries from it
        diag, offdiag = jacobi_matrix(EnsembleParams(a=fa, q=fq, N=N))
        assert np.array_equal(diag, b)
        np.testing.assert_allclose(offdiag**2, lam[1:], rtol=1e-15, atol=0)

    @pytest.mark.parametrize("a", [F(-1), F(-1, 2), F(-2), F(-3)])
    def test_lambda_positive_and_b_signed_by_a_plus_one(self, a):
        # lam_n > 0 for n >= 1 is what makes the Jacobi matrix symmetric real
        for q in (F(1, 2), F(2, 3)):
            for n in range(1, 12):
                b, lam = recurrence(n, q, a)
                assert lam > 0
                assert (b > 0) - (b < 0) == (a + 1 > 0) - (a + 1 < 0)

    def test_a_minus_one_is_discrete_q_hermite(self):
        q = F(2, 3)
        for n in range(8):
            assert recurrence(n, q, F(-1)) == (0, (1 - q**n) * q ** abs(n - 1))

    def test_reflection_a_to_one_over_a(self):
        # (b, lam) at a equal (a b, a^2 lam) at 1/a: the recurrence of
        # a^n U_n(x/a) at 1/a, which maps a < -1 onto -1 < a < 0
        q = F(1, 2)
        for a in (F(-2), F(-3), F(-1, 3)):
            for n in range(8):
                b, lam = recurrence(n, q, a)
                rb, rlam = recurrence(n, q, 1 / a)
                assert (b, lam) == (a * rb, a * a * rlam)


class TestPochhammer:
    def test_infinite_at_zero(self):
        assert q_pochhammer_infinite(0.0, 0.5) == 1.0

    def test_infinite_vanishing_factor(self):
        assert q_pochhammer_infinite(1.0, 0.5) == 0.0

    def test_infinite_against_direct_product(self):
        # (1/2; 1/2)_inf by a 60-term product
        direct = 1.0
        for l in range(60):
            direct *= 1.0 - 0.5 * 0.5**l
        assert q_pochhammer_infinite(0.5, 0.5) == pytest.approx(direct, rel=1e-11)

    @pytest.mark.parametrize(
        "z,q", [(0.3, 0.5), (-2.0, 0.7), (0.9, 0.9), (-0.4, 0.25), (2.5, 0.6)]
    )
    def test_infinite_against_mpmath(self, z, q):
        ref = float(mpmath.qp(z, q))
        assert q_pochhammer_infinite(z, q) == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("z", [-math.inf, math.inf, math.nan])
    def test_infinite_refuses_nonfinite_z(self, z):
        with pytest.raises(DomainError, match="finite z"):
            q_pochhammer_infinite(z, 0.5)

    def test_infinite_domain(self):
        with pytest.raises(DomainError):
            q_pochhammer_infinite(0.5, 1.0)


def lattice_values(f, a, q):
    """The pairs (f(q^k), f(a q^k)), k = 0, 1, ..., that jackson_integral sums."""
    qk = 1.0
    while True:
        yield f(qk), f(a * qk)
        qk *= q


class TestJacksonIntegral:
    def test_constant(self):
        for q in (0.5, 2 / 3):
            got = jackson_integral(lattice_values(lambda x: 1.0, -1.0, q), -1.0, q)
            assert got == pytest.approx(2.0, abs=1e-12)

    def test_odd_function(self):
        got = jackson_integral(lattice_values(lambda x: x, -1.0, 0.5), -1.0, 0.5)
        assert got == pytest.approx(0.0, abs=1e-13)

    @pytest.mark.parametrize("p", range(11))
    def test_power_closed_form(self, p):
        q = 0.6
        expected = (1 - q) * (1 + (-1) ** p) / (1 - q ** (p + 1))
        got = jackson_integral(lattice_values(lambda x: x**p, -1.0, q), -1.0, q, trunc_tol=1e-12)
        assert got == pytest.approx(expected, abs=1e-11)

    def test_asymmetric_interval(self):
        # int_a^1 dx = 1 - a on the bilateral lattice
        got = jackson_integral(lattice_values(lambda x: 1.0, -2.5, 0.5), -2.5, 0.5)
        assert got == pytest.approx(3.5, abs=1e-11)

    def test_nonfinite_propagation(self):
        def bad(x):
            return float("nan") if 0 < x < 0.01 else 1.0

        with pytest.raises(TruncationError, match="lattice point x=0.0078125"):
            jackson_integral(lattice_values(bad, -1.0, 0.5), -1.0, 0.5)

    @pytest.mark.parametrize("n", [0, 3, 4, 40])
    def test_values_that_end_early_are_refused(self, n):
        # a decade at q = 1/2 is four points; the tail bound is met at k = 48
        with pytest.raises(TruncationError, match=f"ended at k={n}"):
            jackson_integral([(1.0, 1.0)] * n, -1.0, 0.5)


class TestQParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            QParams(q=F(3, 2), a=F(-1))
        with pytest.raises(DomainError):
            QParams(q=HALF, a=F(1, 2))

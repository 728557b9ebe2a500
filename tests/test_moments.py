import itertools
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qensemble.combinat import h_sum, moment_component_via_matching, moment_via_motzkin
from qensemble.moments import (
    EnsembleParams,
    moment_closed,
    qgauss_integral,
    symmetry_pair,
)
from qensemble.qcore import (
    DomainError,
    QParams,
    q_binomial,
    q_double_factorial,
    q_factorial,
)

QS = (F(1, 2), F(2, 3))
AS = (F(-1), F(-1, 2), F(-2), F(-3))

RATIONAL_Q = st.fractions(min_value=0, max_value=1, max_denominator=9).filter(
    lambda x: 0 < x < 1
)
_UNIT_A = st.fractions(min_value=-1, max_value=0, max_denominator=6).filter(
    lambda x: x < 0
)
# both sides of -1, so the 1/a symmetry maps each side onto the other
RATIONAL_A = st.one_of(_UNIT_A, _UNIT_A.map(lambda x: 1 / x))


def component(p, j, qp):
    """The j-th moment component m_{j+1,p} - m_{j,p}, with m_{0,p} = 0."""

    def m(N):
        return moment_closed(EnsembleParams(q=qp.q, a=qp.a, N=N), p) if N else 0

    return m(j + 1) - m(j)


def triple_sum(p, N, q, a):
    """The closed form's sum over j < N and 0 <= l <= min(k, j), k <= p//2,
    with every q-binomial built from scratch, where moment_closed updates
    one q-binomial per step in j."""
    total = 0
    for j in range(N):
        for k in range(p // 2 + 1):
            for l in range(min(k, j) + 1):
                total += (
                    (a + 1) ** (p - 2 * k)
                    * (-a) ** k
                    * (1 - q) ** k
                    * q ** (-l * (p - l) + l * (l - 1) // 2)
                    * q_factorial(p, q)
                    / (q_double_factorial(p - 2 * l, q) * q_factorial(l, q))
                    * h_sum(k - l, p - 2 * k, q)
                    * q ** (j * (p - l))
                    * q_binomial(j, l, q)
                )
    return total


class TestEnsembleParams:
    def test_validation(self):
        with pytest.raises(DomainError):
            EnsembleParams(a=F(1, 2), q=F(1, 2), N=1)
        with pytest.raises(DomainError):
            EnsembleParams(a=F(-1), q=F(3, 2), N=1)
        with pytest.raises(DomainError):
            EnsembleParams(a=F(-1), q=F(1, 2), N=0)

    def test_subclass_of_QParams(self):
        params = EnsembleParams(q=F(1, 2), a=F(-2), N=3)
        assert isinstance(params, QParams)
        assert (params.q, params.a, params.N) == (F(1, 2), F(-2), 3)

    def test_positional_construction_rejected(self):
        # positional fields (q, a, N) would swap silently with a, q order
        with pytest.raises(TypeError):
            QParams(F(1, 2), F(-1, 2))
        with pytest.raises(TypeError):
            EnsembleParams(F(-1, 2), F(1, 2), 3)


class TestExplicitLowMoments:
    @pytest.mark.parametrize("q,a", list(itertools.product(QS, AS)))
    def test_first_three(self, q, a):
        for N in range(1, 5):
            params = EnsembleParams(a=a, q=q, N=N)
            assert moment_closed(params, 0) == N
            assert moment_closed(params, 1) == (a + 1) * (1 - q**N) / (1 - q)
            expected2 = (
                (1 - q**N)
                / (q * (1 - q**2))
                * ((a * a + 1) * q + q**N * (q + a * (1 + 2 * q + q * q + a * q)))
            )
            assert moment_closed(params, 2) == expected2


class TestMomentComponent:
    QP = QParams(q=F(1, 2), a=F(-1, 2))

    def test_order_zero(self):
        for j in range(5):
            assert component(0, j, self.QP) == 1

    def test_order_one_telescopes(self):
        q, a = self.QP.q, self.QP.a
        for j in range(5):
            assert component(1, j, self.QP) == (a + 1) * q**j

    def test_order_two_matches_motzkin(self):
        assert component(2, 0, self.QP) == moment_via_motzkin(2, 0, self.QP)

    def test_negative_order_rejected(self):
        with pytest.raises(DomainError):
            moment_closed(EnsembleParams(a=F(-1, 2), q=F(1, 2), N=3), -1)

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(q=RATIONAL_Q, a=RATIONAL_A, N=st.integers(1, 10), p=st.integers(0, 10))
    @example(q=F(2, 3), a=F(-1, 2), N=2, p=9)  # N - 1 < p//2: l stops at N - 1
    @example(q=F(1, 2), a=F(-3), N=8, p=5)  # N - 1 > p//2: l stops at p//2
    def test_closed_form_is_sum_of_components(self, q, a, N, p):
        # moment_closed folds the j-sum into per-l weights updated in j;
        # triple_sum builds each q-binomial from scratch
        assert moment_closed(EnsembleParams(a=a, q=q, N=N), p) == triple_sum(p, N, q, a)


class TestTripleEquality:
    @pytest.mark.parametrize("q,a", [(F(1, 2), F(-1, 2)), (F(2, 3), F(-2))])
    def test_all_routes_agree(self, q, a):
        qp = QParams(q=q, a=a)
        for p in range(7):
            for j in range(3):
                closed = component(p, j, qp)
                assert closed == moment_via_motzkin(p, j, qp)
                assert closed == moment_component_via_matching(p, j, qp, cap=12)


def transfer_matrix_moments(a, q, N, p_max):
    """m_{N,p} = sum_{j<N} (T^p)_{jj} for p <= p_max, where T is the Jacobi
    matrix T[n,n] = b_n = (a+1) q^n, T[n,n+1] = 1 and
    T[n+1,n] = lam_{n+1} = -a (1-q^(n+1)) q^n, truncated at height N + p_max."""
    size = N + p_max
    b = [(a + 1) * q**n for n in range(size)]
    lam = [-a * (1 - q**n) * q ** (n - 1) if n else 0 for n in range(size)]
    moments = [0] * (p_max + 1)
    for j in range(N):
        v = [F(n == j) for n in range(size)]  # T^p e_j
        for p in range(p_max + 1):
            moments[p] += v[j]
            v = [
                b[n] * v[n]
                + (v[n + 1] if n + 1 < size else 0)
                + (lam[n] * v[n - 1] if n else 0)
                for n in range(size)
            ]
    return moments


class TestTransferMatrix:
    """The closed form at large p, including a < -1, against a local
    transfer-matrix sum; the 1/a symmetry checks cannot see a broken
    q-binomial weight or h_sum argument there."""

    @pytest.mark.parametrize(
        "a,q,N,p_max",
        [(F(-1, 2), F(2, 3), 6, 24), (F(-3), F(1, 2), 5, 20), (F(-1), F(5, 7), 4, 22)],
    )
    def test_closed_form_matches(self, a, q, N, p_max):
        params = EnsembleParams(a=a, q=q, N=N)
        want = transfer_matrix_moments(a, q, N, p_max)
        assert [moment_closed(params, p) for p in range(p_max + 1)] == want


class TestSymmetry:
    def test_first_moment_example(self):
        # a = -2, p = 1: both sides reduce to (1/2)(1-q^N)/(1-q)
        params = EnsembleParams(a=F(-2), q=F(1, 2), N=3)
        lhs, rhs = symmetry_pair(params, 1)
        assert lhs == rhs == F(1, 2) * (1 - F(1, 2) ** 3) / F(1, 2)

    def test_fixed_point(self):
        params = EnsembleParams(a=F(-1), q=F(2, 3), N=2)
        lhs, rhs = symmetry_pair(params, 4)
        assert lhs == rhs

    @pytest.mark.parametrize("q,a", list(itertools.product(QS, AS)))
    def test_exact_grid(self, q, a):
        for N in (1, 2, 3):
            for p in range(7):
                lhs, rhs = symmetry_pair(EnsembleParams(a=a, q=q, N=N), p)
                assert lhs == rhs

    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(q=RATIONAL_Q, a=RATIONAL_A, N=st.integers(1, 6), p=st.integers(0, 8))
    def test_random_rationals(self, q, a, N, p):
        lhs, rhs = symmetry_pair(EnsembleParams(a=a, q=q, N=N), p)
        assert lhs == rhs


class TestSpecialCases:
    def test_odd_moments_vanish_at_minus_one(self):
        for q in QS:
            for N in range(1, 6):
                params = EnsembleParams(a=F(-1), q=q, N=N)
                for p in (1, 3, 5, 7, 9):
                    assert moment_closed(params, p) == 0

    def test_even_moment_positivity(self):
        for a in (F(-1, 2), F(-1, 4)):
            for N in range(1, 5):
                params = EnsembleParams(a=a, q=F(2, 3), N=N)
                for p in (2, 4, 6, 8):
                    assert moment_closed(params, p) > 0

    @staticmethod
    def qgue_moment(params, p):
        """Spectral moment at a = -1 via the reduced double sum over (j, l):
        only k = p/2 survives for even p, and odd moments vanish."""
        if params.a != -1:
            raise DomainError("qgue_moment requires a = -1")
        if p % 2 == 1:
            return 0
        q = params.q
        pfact = q_factorial(p, q)
        total = 0
        for j in range(params.N):
            for l in range(min(p // 2, j) + 1):
                expo = -l * (p - l) + l * (l - 1) // 2
                total = total + (
                    q**expo
                    * pfact
                    / (q_double_factorial(p - 2 * l, q) * q_factorial(l, q))
                    * q ** (j * (p - l))
                    * q_binomial(j, l, q)
                )
        return (1 - q) ** (p // 2) * total

    def test_qgue_reduction(self):
        for q in QS:
            for N in range(1, 5):
                params = EnsembleParams(a=F(-1), q=q, N=N)
                for p in range(9):
                    assert self.qgue_moment(params, p) == moment_closed(params, p)

    def test_qgue_domain(self):
        with pytest.raises(DomainError):
            self.qgue_moment(EnsembleParams(a=F(-1, 2), q=F(1, 2), N=1), 2)

    def test_qgauss_integral(self):
        q = F(1, 3)
        assert qgauss_integral(0, q) == 1 - q
        assert qgauss_integral(1, q) == (1 - q) ** 2
        assert qgauss_integral(2, q) == (1 - q) ** 3 * (1 - q**3) / (1 - q)


class TestFloatMode:
    def test_float_matches_exact(self):
        for q, a in itertools.product(QS, AS):
            exact = EnsembleParams(a=a, q=q, N=3)
            approx = EnsembleParams(a=float(a), q=float(q), N=3)
            for p in range(7):
                want = float(moment_closed(exact, p))
                got = moment_closed(approx, p)
                assert got == pytest.approx(want, rel=1e-12, abs=1e-12)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(
        N=st.integers(4, 220),
        c=st.sampled_from((1, 2, 3)),
        a=st.fractions(min_value=-1, max_value=0, max_denominator=12).filter(
            lambda x: x < 0
        ),
        p=st.integers(0, 4),
    )
    @example(N=200, c=1, a=F(-1, 2), p=3)
    def test_float_matches_exact_near_one(self, N, c, a, p):
        # q = (N - c)/N is the large-N scaling q = e^(-lambda/N) at lambda ~ c;
        # a in [-1, 0) keeps every term nonnegative, so the relative bound
        # cannot hide a cancellation.
        exact = EnsembleParams(a=a, q=F(N - c, N), N=N)
        want = float(moment_closed(exact, p))
        approx = EnsembleParams(a=float(a), q=(N - c) / N, N=N)
        assert moment_closed(approx, p) == pytest.approx(want, rel=1e-10)

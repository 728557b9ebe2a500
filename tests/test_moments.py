import itertools
import math
from collections import Counter
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qensemble import combinat, moments
from qensemble.combinat import h_sum, moment_component_via_matching, moment_via_motzkin
from qensemble.moments import (
    EnsembleParams,
    moment_closed,
    qgauss_integral,
    symmetry_pair,
)
from qensemble.qcore import DomainError, QParams
from qarith import q_binomial, q_double_factorial, q_factorial

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


def test_q_factorial_product():
    assert q_factorial(3, F(1, 2)) == F(1) * F(3, 2) * F(7, 4)


@pytest.mark.parametrize("n", range(13))
def test_q_factorial_classical_limits(n):
    assert q_factorial(n, F(1)) == math.factorial(n)


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
                assert closed == moment_component_via_matching(p, j, qp)


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
        [
            (F(-1, 2), F(2, 3), 6, 24),
            (F(-3), F(1, 2), 5, 20),
            (F(-1), F(5, 7), 4, 22),
            (F(-2), F(2, 3), 3, 30),
        ],
    )
    def test_closed_form_matches(self, a, q, N, p_max):
        params = EnsembleParams(a=a, q=q, N=N)
        want = transfer_matrix_moments(a, q, N, p_max)
        assert [moment_closed(params, p) for p in range(p_max + 1)] == want


class TestWorkCount:
    """One moment_closed call builds one table of [m]_q at q = u/d and runs
    the h_sum recursion once per k, not once per (k, l), in both arithmetic
    modes."""

    @pytest.mark.parametrize(
        "q,a,N,p",
        [
            (F(1, 2), F(-1, 2), 1, 0),
            (F(2, 3), F(-2), 3, 12),
            (F(2, 3), F(-2), 8, 20),
            (0.9, -0.5, 30, 6),
        ],
    )
    def test_q_int_and_recursion_counts(self, monkeypatch, q, a, N, p):
        counts = Counter()

        def counted(name, fn):
            def wrapper(*args):
                counts[name] += 1
                return fn(*args)

            return wrapper

        monkeypatch.setattr(moments, "_q_int_ints", counted("table", moments._q_int_ints))
        monkeypatch.setattr(moments, "_h_prefixes_int", counted("h", moments._h_prefixes_int))
        moment_closed(EnsembleParams(q=q, a=a, N=N), p)
        assert counts["table"] == 1
        assert counts["h"] == p // 2 + 1


# q = u/d with d <= 1000; a = -1, an int a or -s/t with t <= 1000
INTEGER_Q = st.integers(2, 1000).flatmap(
    lambda d: st.integers(1, d - 1).map(lambda u: F(u, d))
)
INTEGER_A = st.one_of(
    st.just(F(-1)),
    st.integers(-9, -1),
    st.builds(lambda s, t: F(-s, t), st.integers(1, 1000), st.integers(1, 1000)),
)

# every arithmetic operation a Fraction can take part in
FRACTION_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__rfloordiv__",
    "__mod__", "__rmod__", "__divmod__", "__rdivmod__", "__pow__", "__rpow__",
    "__neg__", "__pos__", "__abs__",
)


class TestIntegerRoute:
    """The exact closed form runs on integers over powers of d and builds
    one Fraction, at the end."""

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(q=INTEGER_Q, a=INTEGER_A, N=st.integers(1, 10), p_max=st.integers(0, 16))
    @example(q=F(997, 1000), a=F(-7, 3), N=10, p_max=16)  # the largest integers
    @example(q=F(1, 1000), a=-3, N=10, p_max=16)  # an int a, u = 1
    @example(q=F(999, 1000), a=F(-1), N=1, p_max=16)  # N - 1 < p//2, b_h = 0
    def test_matches_transfer_matrix(self, q, a, N, p_max):
        params = EnsembleParams(a=a, q=q, N=N)
        want = transfer_matrix_moments(a, q, N, p_max)
        got = [moment_closed(params, p) for p in range(p_max + 1)]
        assert got == want
        assert all(type(v) is F for v in got)

    def test_one_fraction_and_no_fraction_arithmetic(self, monkeypatch):
        # a silent fallback to Fraction arithmetic would pass every value
        # test above
        seen = []

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                seen.append(name)
                return fn(*args, **kwargs)

            return wrapper

        cases = [
            (EnsembleParams(q=q, a=a, N=N), p)
            for q, a in ((F(997, 1000), F(-7, 3)), (F(2, 3), -2), (F(1, 2), F(-1)))
            for N, p in ((1, 0), (3, 7), (8, 12))
        ]
        q = F(997, 1000)
        for name in FRACTION_OPS:
            monkeypatch.setattr(F, name, spy(name, getattr(F, name)))
        for module in (moments, combinat):
            monkeypatch.setattr(module, "Fraction", spy("Fraction", F))
        for params, p in cases:
            seen.clear()
            value = moment_closed(params, p)
            assert seen == ["Fraction"] and type(value) is F
        for b, c in ((0, 0), (2, 3), (4, 6)):
            seen.clear()
            value = h_sum(b, c, q)
            assert seen == ["Fraction"] and type(value) is F

    def test_inexact_division_is_refused(self):
        with pytest.raises(ArithmeticError, match="remainder"):
            combinat._exact_div(7, 2)
        assert combinat._exact_div(-12, 4) == -3


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

    @pytest.mark.parametrize("a,q", [(F(-2), F(1, 2)), (-2.0, 0.5)], ids=["exact", "float"])
    def test_negative_p_is_refused(self, a, q):
        # refused by moment_closed, which symmetry_pair calls first
        with pytest.raises(DomainError, match="p must be nonnegative"):
            symmetry_pair(EnsembleParams(a=a, q=q, N=3), -1)

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

    @pytest.mark.parametrize("q", [F(1, 2), F(2, 3), F(997, 1000)])
    def test_one_particle_at_minus_one_is_the_qgauss_integral(self, q):
        # the paper's a = -1 reduction: at N = 1 the spectral measure is
        # w dqx over its mass 1 - q, so (1-q) m_{1,2p} is the q-Gaussian
        # integral, and every odd moment vanishes
        params = EnsembleParams(q=q, a=F(-1), N=1)
        for p in range(10):
            assert (1 - q) * moment_closed(params, 2 * p) == qgauss_integral(p, q)
            assert moment_closed(params, 2 * p + 1) == 0


# float.hex of float moment_closed(p), p = 0..6, at q = e^(-1/N): the
# closed form's integer scheme run on floats at d = t = 1.  A change in its
# order of operations shows here.  Every pin is within 52 ulp of the exact
# value at the same binary q and a.
FLOAT_PINS = {
    (2, -0.5): (
        "0x1.0000000000000p+1", "0x1.9b4597e37cb05p-1", "0x1.dab205a44675fp-1",
        "0x1.8e9986974dae1p-1", "0x1.96f6d922a15d0p-1", "0x1.853332d03d1d2p-1",
        "0x1.85cbfebbdb51bp-1",
    ),
    (2, -2.5): (
        "0x1.0000000000000p+1", "-0x1.347431ea9d844p+1", "0x1.803a99bcd8f8fp+2",
        "-0x1.b065c0f8b515cp+3", "0x1.09d4ef48151a0p+5", "-0x1.44519dd455a0dp+6",
        "0x1.921a69e4256c4p+7",
    ),
    (8, -0.5): (
        "0x1.0000000000000p+3", "0x1.584b7dc7c6f44p+1", "0x1.63415dffdb7dep+1",
        "0x1.04b6fd2f0dabbp+1", "0x1.e87c44d7c3ba1p+0", "0x1.acf53820226e4p+0",
        "0x1.922c1007e8172p+0",
    ),
    (8, -2.5): (
        "0x1.0000000000000p+3", "-0x1.02389e55d5373p+3", "0x1.1c941001d2afap+4",
        "-0x1.18e23b1f0d1d5p+5", "0x1.387e06bdf373ep+6", "-0x1.5d1c94d991453p+7",
        "0x1.920dd525603a1p+8",
    ),
    (128, -0.5): (
        "0x1.0000000000000p+7", "0x1.44e95f7ea4b29p+5", "0x1.3db9d61c052f9p+5",
        "0x1.b951671f99616p+4", "0x1.889555dc88577p+4", "0x1.47456482245dcp+4",
        "0x1.23e7ae3a438e0p+4",
    ),
    (128, -2.5): (
        "0x1.0000000000000p+7", "-0x1.e75e0f3df70bep+6", "0x1.fcb38f3b9f469p+7",
        "-0x1.db43c1e229645p+8", "0x1.f59ed07f798c5p+9", "-0x1.0a0020009f604p+11",
        "0x1.2336e67a7e8d6p+12",
    ),
    (512, -0.5): (
        "0x1.0000000000000p+9", "0x1.43f63e6048762p+7", "0x1.3be04932ccf5ap+7",
        "0x1.b5787a701b4d0p+6", "0x1.84083b90984d0p+6", "0x1.4289ddd92ce36p+6",
        "0x1.1ed9fd70f6293p+6",
    ),
    (512, -2.5): (
        "0x1.0000000000000p+9", "-0x1.e5f15d906cb13p+8", "0x1.f9bd10bf8b1f3p+9",
        "-0x1.d71ee44df9fd8p+10", "0x1.efcd7f9dad56fp+11", "-0x1.062718086f2f5p+13",
        "0x1.1e2bb6f384bc9p+14",
    ),
}


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

    @pytest.mark.parametrize("q", [0.5, 0.9])
    def test_qgauss_integral_float_matches_exact(self, q):
        # F(q) is the binary q itself, so the two sides differ by rounding alone
        for p in range(11):
            want = qgauss_integral(p, F(q))
            assert qgauss_integral(p, q) == pytest.approx(float(want), rel=1e-14, abs=0)

    @pytest.mark.parametrize(
        "route",
        [
            # inf from p = 130 and NaN from p = 200
            lambda: moment_closed(EnsembleParams(q=0.99, a=-0.5, N=3), 130),
            lambda: moment_closed(EnsembleParams(q=0.99, a=-0.5, N=3), 200),
            # the scale [n-1]_q! overflows; the value is 1
            lambda: h_sum(170, 0, 0.9),
            lambda: combinat.alpha_closed(400, 200, 0, 0.9),
        ],
        ids=["closed-inf", "closed-nan", "h-sum", "alpha-closed"],
    )
    def test_overflow_is_refused_at_the_one_exit(self, route):
        with pytest.raises(OverflowError, match="a float route overflowed"):
            route()

    def test_last_finite_moment_before_the_overflow_is_kept(self):
        # p = 120 at q = 0.99, a = -0.5, N = 3 is finite and 1.02e-14
        # relative from the exact value at q = 99/100 (a minute in Fractions)
        got = moment_closed(EnsembleParams(q=0.99, a=-0.5, N=3), 120)
        assert got == pytest.approx(7.103087631999197e-13, rel=2e-14, abs=0)

    @pytest.mark.parametrize("N,a", sorted(FLOAT_PINS))
    def test_float_bits_pinned(self, N, a):
        params = EnsembleParams(q=math.exp(-1 / N), a=a, N=N)
        got = [moment_closed(params, p).hex() for p in range(7)]
        assert got == list(FLOAT_PINS[(N, a)])

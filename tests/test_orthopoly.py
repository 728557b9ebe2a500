import math
from fractions import Fraction as F

import numpy as np
import pytest
from scipy.linalg import eigvalsh_tridiagonal

from qensemble import orthopoly, verify
from qensemble.moments import EnsembleParams, moment_closed
from qensemble.orthopoly import (
    _CHRISTOFFEL_SLACK,
    JACKSON_TOL,
    _recurrence_steps,
    jackson_moment,
    jacobi_matrix,
    lattice_weight,
    orthonormality_residual,
    zeros,
)
from qensemble.qcore import (
    DomainError,
    QParams,
    jackson_integral,
    q_pochhammer_infinite,
    recurrence,
)

FQP = QParams(q=0.5, a=-0.5)


def weight(x, params):
    """Orthogonality weight (qx, qx/a; q)_inf / (q, a, q/a; q)_inf at any x in
    the closed interval [a, 1], from four infinite products at x: the
    pointwise oracle of lattice_weight."""
    q, a = float(params.q), float(params.a)
    x = float(x)
    if not a <= x <= 1:
        raise DomainError(f"weight defined on [a, 1] = [{a}, 1], got x={x}")
    norm = math.prod(q_pochhammer_infinite(z, q) for z in (q, a, q / a))
    num = q_pochhammer_infinite(q * x, q) * q_pochhammer_infinite(q * x / a, q)
    return num / norm


def u_poly(n, x, params):
    """Monic polynomial value U_n(x) by the forward three-term recurrence
    U_{m+1} = (x - b_m) U_m - lam_m U_{m-1}, in the arithmetic of x, q
    and a: the monic oracle of the zeros and of the recurrence."""
    q, a = params.q, params.a
    prev, cur = 0, 1
    for m in range(n):
        b, lam = recurrence(m, q, a)
        prev, cur = cur, (x - b) * cur - lam * prev
    return cur


def q_pochhammer_finite(z, q, n):
    """Finite product (z; q)_n = (1-z)(1-zq)...(1-zq^(n-1)), exact for
    Fraction z and q."""
    return math.prod((1 - z * q**i for i in range(n)), start=F(1))


def _density_sum(x, w, q, steps):
    """One-point density rho_N(x) = sum_{j<N} p_j(x)^2 w(x), where p_j are
    the orthonormal polynomials, from the weight value w = w(x) and the
    N - 1 steps of _recurrence_steps.

    The recurrence runs on the scaled values v_j = p_j(x) sqrt(w), whose
    squares are the terms of the sum (Gautschi, SIAM Rev. 9 (1967)), so no
    intermediate value leaves the float range unless the sum does.  A sum
    that is not finite (far outside the oscillatory region at large N) is
    returned as inf.
    """
    prev, cur = 0.0, math.sqrt(w / (1.0 - q))  # v_{-1}, v_0
    total = cur * cur
    for b, r, r_next in steps:
        prev, cur = cur, ((x - b) * cur - r * prev) / r_next
        total += cur * cur
    return total if math.isfinite(total) else math.inf


def density_n(x, params):
    """One-point density rho_N(x) = sum_{j<N} p_j(x)^2 w(x) at any x in
    [a, 1], from weight(x) and the recurrence steps jackson_moment uses."""
    x, q, a = float(x), float(params.q), float(params.a)
    return _density_sum(x, weight(x, params), q, _recurrence_steps(q, a, params.N))


def lattice_values(f, a, q):
    """The pairs (f(q^k), f(a q^k)), k = 0, 1, ..., that jackson_integral sums."""
    qk = 1.0
    while True:
        yield f(qk), f(a * qk)
        qk *= q


class TestUPoly:
    QP = QParams(q=F(1, 2), a=F(-1, 2))

    def test_low_orders(self):
        x = F(3, 7)
        q, a = self.QP.q, self.QP.a
        assert u_poly(0, x, self.QP) == 1
        assert u_poly(1, x, self.QP) == x - (a + 1)
        expected2 = x * x - (a + 1) * (1 + q) * x + (a + 1) ** 2 * q + a * (1 - q)
        assert u_poly(2, x, self.QP) == expected2

    def test_float_matches_exact(self):
        for n in range(8):
            want = float(u_poly(n, F(1, 3), self.QP))
            got = u_poly(n, 1 / 3, FQP)
            assert got == pytest.approx(want, rel=1e-13, abs=1e-15)

    def test_reflection_a_to_one_over_a(self):
        q, x = F(1, 2), F(3, 7)
        for a in (F(-2), F(-3)):
            for n in range(6):
                want = a**n * u_poly(n, x / a, QParams(q=q, a=1 / a))
                assert u_poly(n, x, QParams(q=q, a=a)) == want

    def test_subnormal_q_stays_finite(self):
        # q^(-1) overflows at a subnormal q; the m = 0 step must not form it
        qp = QParams(q=5e-324, a=-0.5)
        x = 0.3
        assert u_poly(1, x, qp) == x - 0.5
        for n in range(6):
            assert math.isfinite(u_poly(n, x, qp))


class TestWeight:
    def test_positive_on_lattice(self):
        q, a = 0.5, -0.5
        for k in range(12):
            assert weight(q**k, FQP) > 0
            assert weight(a * q**k, FQP) > 0

    def test_total_mass(self):
        for q, a in ((0.5, -1.0), (2 / 3, -0.5), (0.5, -2.0)):
            qp = QParams(q=q, a=a)
            total = jackson_integral(lattice_values(lambda x: weight(x, qp), a, q), a, q, 1e-12)
            assert total == pytest.approx(1 - q, abs=1e-11)

    def test_even_at_minus_one(self):
        qp = QParams(q=0.5, a=-1.0)
        for x in (0.25, 0.5, 0.9):
            assert weight(x, qp) == pytest.approx(weight(-x, qp), rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            weight(1.5, FQP)
        with pytest.raises(DomainError):
            weight(-0.6, FQP)

    @pytest.mark.parametrize("a", [-1 / 3, -0.5, -1.0, -2.0, -5.0])
    @pytest.mark.parametrize("q", [0.5, 2 / 3, 0.9, math.exp(-1 / 8), math.exp(-1.5)])
    def test_lattice_weight_matches_pointwise(self, q, a):
        # every k the total-mass integral reaches at the library's tightest
        # truncation bound, ORTHOGONALITY_TOL
        qp = QParams(q=q, a=a)
        ks = []

        def values():
            for k, (x, w_plus, w_minus) in enumerate(lattice_weight(qp)):
                assert x == pytest.approx(q**k, rel=1e-13, abs=0), k
                assert w_plus == pytest.approx(weight(x, qp), rel=1e-13, abs=0), (x, k)
                assert w_minus == pytest.approx(weight(a * x, qp), rel=1e-13, abs=0), (x, k)
                ks.append(k)
                yield w_plus, w_minus

        total = jackson_integral(values(), a, q, orthopoly.ORTHOGONALITY_TOL)
        assert total == pytest.approx(1 - q, abs=1e-12)
        assert ks == list(range(len(ks)))


class TestDensityN:
    def test_single_level(self):
        params = EnsembleParams(a=-0.5, q=0.5, N=1)
        for x in (-0.4, 0.0, 0.3, 0.99):
            assert density_n(x, params) == pytest.approx(
                weight(x, FQP) / 0.5, rel=1e-13
            )

    def test_nonnegative_on_lattice(self):
        # both branches of the q-lattice of the measure, down to |x| ~ 1e-8
        params = EnsembleParams(a=-0.5, q=0.5, N=6)
        for k in range(27):
            assert density_n(0.5**k, params) >= 0
            assert density_n(-0.5 * 0.5**k, params) >= 0

    def test_normalisation(self):
        for N in (1, 2, 4):
            params = EnsembleParams(a=-0.5, q=0.5, N=N)
            assert jackson_moment(params, 0) == pytest.approx(N, abs=1e-8)

    def test_first_moment(self):
        params = EnsembleParams(a=-0.5, q=0.5, N=2)
        assert jackson_moment(params, 1) == pytest.approx(0.75, abs=1e-8)

    def test_large_n_scaled_regime_finite(self):
        # double-scaling parameters at N = 400: recurrence values span many
        # orders of magnitude but the scaled evaluation stays finite
        N = 400
        params = EnsembleParams(a=-0.5, q=math.exp(-1.0 / N), N=N)
        for x in (-0.3, 0.1, 0.7):
            val = density_n(x, params)
            assert math.isfinite(val) and val >= 0

    def test_deep_recurrence_never_raises(self):
        # fixed q with N far beyond where monic values leave double range;
        # between lattice points the true value explodes, and the scaled
        # evaluation reports it as inf instead of raising
        params = EnsembleParams(a=-1.0, q=0.5, N=80)
        val = density_n(0.3, params)
        assert val >= 0


def _lattice_rho(q, a, n_max, ks):
    """{x: [rho_1(x), ..., rho_n_max(x)]} at the lattice points x = q^k and
    a q^k, k in ks, by the orthonormal recurrence at 50 digits.  There the
    weight is a finite product over one infinite one:
    w(q^k) = 1 / ((q; q)_k (q/a; q)_k (a; q)_inf) and
    w(a q^k) = 1 / ((q; q)_k (a; q)_{k+1} (q/a; q)_inf)."""
    import mpmath

    with mpmath.workdps(50):
        q, a = mpmath.mpf(q), mpmath.mpf(a)
        b = [(1 + a) * q**j for j in range(n_max)]
        r = [mpmath.sqrt(-a * (1 - q**j) * q ** (j - 1)) for j in range(n_max + 1)]
        a_inf, qa_inf = mpmath.qp(a, q), mpmath.qp(q / a, q)
        qk, q_k, qa_k, a_k1 = mpmath.mpf(1), 1, 1, 1 - a
        out = {}
        for k in range(max(ks) + 1):
            if k in ks:
                for x, w in ((qk, 1 / (q_k * qa_k * a_inf)), (a * qk, 1 / (q_k * a_k1 * qa_inf))):
                    prev, cur, total, sums = 0, mpmath.sqrt(w / (1 - q)), 0, []
                    for j in range(n_max):
                        total += cur * cur
                        sums.append(float(total))
                        prev, cur = cur, ((x - b[j]) * cur - r[j] * prev) / r[j + 1]
                    out[float(x)] = sums
            qk *= q
            q_k, qa_k, a_k1 = q_k * (1 - qk), qa_k * (1 - qk / a), a_k1 * (1 - a * qk)
        return out


# (q, the N compared): fixed q, or the scaling q = e^(-lambda/N)
LATTICE_GRID = [(q, (1, 2, 5, 10, 20, 30)) for q in (0.5, 2 / 3, 0.9)] + [
    (math.exp(-lam / N), (N,)) for lam in (1.0, 3.0) for N in (5, 10, 20, 30)
]


@pytest.mark.parametrize("a", [-0.5, -2.0, -1 / 3])
@pytest.mark.parametrize("q,ns", LATTICE_GRID)
def test_density_n_matches_50_digit_recurrence(q, ns, a):
    """rho_N at lattice points down to |x| ~ 1e-8 (about 20 per branch),
    wherever the Christoffel bound of jackson_moment holds."""
    k_max = int(math.log(1e-8) / math.log(q)) + 1
    ks = set(range(0, k_max, max(1, k_max // 20)))
    checked = 0
    for x, want in _lattice_rho(q, a, max(ns), ks).items():
        for N in ns:
            got = density_n(x, EnsembleParams(q=q, a=a, N=N))
            if got * (1.0 - q) * abs(x) > 1.0 + _CHRISTOFFEL_SLACK:
                continue
            assert got == pytest.approx(want[N - 1], rel=1e-10, abs=0), (N, x)
            checked += 1
    # the bound fails only near x = 1 at the largest N: most points count
    assert checked >= len(ns) * len(ks)


class TestJacksonMoments:
    @pytest.mark.parametrize("q,a", [(F(1, 2), F(-1)), (F(2, 3), F(-1, 2))])
    def test_matches_closed_form(self, q, a):
        for N in (1, 3):
            exact = EnsembleParams(a=a, q=q, N=N)
            fparams = EnsembleParams(a=float(a), q=float(q), N=N)
            for p in range(5):
                want = float(moment_closed(exact, p))
                assert jackson_moment(fparams, p) == pytest.approx(want, abs=1e-8)

    @pytest.mark.parametrize("N", range(1, 9))
    def test_matches_exact_closed_form_on_scaling_grid(self, N):
        # float_expansion's Jackson grid: q = e^(-lambda/N), lambda in [1, 3]
        for lam in (1.0, 2.0, 3.0):
            for a in (-5.0, -2.0, -1.0, -0.5, -0.2):
                fparams = EnsembleParams(q=math.exp(-lam / N), a=a, N=N)
                exact = EnsembleParams(q=F(fparams.q), a=F(a), N=N)
                for p in range(7):
                    want = float(moment_closed(exact, p))
                    got = jackson_moment(fparams, p)
                    assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), (lam, a, p)

    def test_matches_pointwise_weight_oracle(self):
        # float_expansion's Jackson grid and C05's; the oracle takes weight(x)
        # at every lattice point, so a dropped, repeated or mispaired point,
        # or a recurrence step out of order, shows far above 1e-13
        grid = [
            EnsembleParams(q=math.exp(-lam / N), a=a, N=N)
            for N in range(1, 9)
            for lam in (1.0, 2.0, 3.0)
            for a in (-5.0, -2.0, -1.0, -0.5, -0.2)
        ] + [
            EnsembleParams(q=float(q), a=float(a), N=N)
            for q, a in ((F(1, 2), F(-1)), (F(2, 3), F(-1, 2)), (F(1, 2), F(-2)))
            for N in range(1, 5)
        ]
        for params in grid:
            q, a = params.q, params.a
            steps = _recurrence_steps(q, a, params.N)
            for p in range(7):
                values = lattice_values(
                    lambda x: x**p * _density_sum(x, weight(x, params), q, steps), a, q
                )
                want = jackson_integral(values, a, q, JACKSON_TOL)
                got = jackson_moment(params, p)
                assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (params, p)

    def test_infinite_products_per_call_do_not_grow_with_the_lattice(self, monkeypatch):
        calls = []

        def counted(z, q):
            calls.append(z)
            return q_pochhammer_infinite(z, q)

        monkeypatch.setattr(orthopoly, "q_pochhammer_infinite", counted)
        # lattices of about 40 to 700 points per side
        for q in (0.5, 0.9, 0.99):
            for N in (1, 8):
                calls.clear()
                jackson_moment(EnsembleParams(q=q, a=-0.5, N=N), 2)
                # (a; q)_inf for w(1) and (q/a; q)_inf for w(a)
                assert calls == [-0.5, q / -0.5]

    def test_recurrence_calls_per_call_do_not_grow_with_the_lattice(self, monkeypatch):
        calls = []

        def counted(n, q, a):
            calls.append(n)
            return recurrence(n, q, a)

        monkeypatch.setattr(orthopoly, "recurrence", counted)
        # lattices of about 40 to 700 points per side
        for q in (0.5, 0.9, 0.99):
            for N in (1, 8):
                calls.clear()
                jackson_moment(EnsembleParams(q=q, a=-0.5, N=N), 2)
                assert calls == list(range(N))

    def test_lam_underflow_is_refused_as_by_jacobi_matrix(self):
        # at q = 1/2, lam_n = -a (1-q^n) q^(n-1) underflows to 0 from n = 1075
        params = EnsembleParams(q=0.5, a=-0.5, N=1100)
        with pytest.raises(DomainError) as jacobi:
            jacobi_matrix(params)
        for route in (lambda: density_n(0.5, params), lambda: jackson_moment(params, 0)):
            with pytest.raises(DomainError) as exc:
                route()
            assert str(exc.value) == str(jacobi.value)
            assert "q=0.5, a=-0.5, N=1100" in str(exc.value)
            assert str(exc.value).endswith("from n=1075")

    def test_exact_params_give_float_bits(self):
        # the route takes float() of q and a itself; C05's grid
        for q, a in ((F(1, 2), F(-1)), (F(2, 3), F(-1, 2)), (F(1, 2), F(-2))):
            for N in range(1, 5):
                exact = EnsembleParams(a=a, q=q, N=N)
                fparams = EnsembleParams(a=float(a), q=float(q), N=N)
                for p in range(7):
                    assert jackson_moment(exact, p) == jackson_moment(fparams, p)


class TestOrthogonality:
    def test_off_diagonal_small(self):
        # each pair is within the degree of its larger index
        for m, n in ((0, 1), (2, 0), (1, 3)):
            assert orthonormality_residual(FQP, max(m, n)) < 1e-11

    def test_diagonal_small(self):
        for n in range(4):
            assert orthonormality_residual(FQP, n) < 1e-11

    @pytest.mark.parametrize(
        "q,a",
        list(verify.ORTHO_PAIRS) + [(F(1, 2), F(-1, 2)), (F(9, 10), F(-1, 2)), (F(2, 3), F(-2))],
    )
    def test_orthonormal_residual_to_degree_six(self, q, a):
        # at (1/2, -1/2) and (9/10, -1/2) the monic residual over
        # sqrt(h_m h_n), with h_n in closed form, reaches 4.2e-9 and 1.1e-9
        # at m = n = 6, past C04's 1e-9
        assert orthonormality_residual(QParams(q=q, a=a), 6) <= 1e-12

    def test_each_product_has_its_own_truncated_integral(self, monkeypatch):
        # one Jackson integral per pair i <= j <= n, each of the pair's own
        # values over the one walk: the Gram entries, not one shared sum
        integrals = []

        def recorded(values, a, q, trunc_tol):
            integrals.append(jackson_integral(values, a, q, trunc_tol))
            return integrals[-1]

        monkeypatch.setattr(orthopoly, "jackson_integral", recorded)
        residual = orthonormality_residual(FQP, 3)
        pairs = [(i, j) for j in range(4) for i in range(j + 1)]
        assert len(integrals) == len(pairs)
        assert residual == max(abs(g - (i == j)) for g, (i, j) in zip(integrals, pairs)) < 1e-11

    @pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
    def test_c04_walks_the_lattice_once_per_q_a(self, monkeypatch, quick):
        # one walk per Gram (q, a) and one per q-Gaussian q: 3 + 2
        calls = []

        def counted(params):
            calls.append(params)
            return lattice_weight(params)

        monkeypatch.setattr(orthopoly, "lattice_weight", counted)
        assert verify.run_check("C04", quick).passed
        assert len(calls) == 5

    def test_negative_degree_is_refused(self):
        with pytest.raises(DomainError):
            orthonormality_residual(FQP, -1)

    @pytest.mark.parametrize("q", verify.EXACT_QS)
    @pytest.mark.parametrize("a", verify.EXACT_AS)
    def test_koekoek_norm_is_the_lambda_product(self, q, a):
        # h_n = (-a)^n (1-q) (q; q)_n q^(n(n-1)/2) under the normalised
        # Jackson measure (Koekoek, Lesky & Swarttouw, 14.24) equals
        # h_0 lam_1 ... lam_n with h_0 = 1 - q
        for n in range(11):
            koekoek = (-a) ** n * (1 - q) * q_pochhammer_finite(q, q, n) * q ** (n * (n - 1) // 2)
            lams = math.prod((recurrence(i, q, a)[1] for i in range(1, n + 1)), start=F(1))
            assert koekoek == (1 - q) * lams, n


class TestJacobiAndZeros:
    def test_matrix_entries(self):
        params = EnsembleParams(a=-0.5, q=0.5, N=3)
        diag, offdiag = jacobi_matrix(params)
        assert diag == pytest.approx([0.5, 0.25, 0.125])
        assert offdiag == pytest.approx(
            [math.sqrt(0.25), math.sqrt(0.5 * 0.75 * 0.5)]
        )

    def test_single_zero(self):
        params = EnsembleParams(a=-0.5, q=0.5, N=1)
        assert zeros(params) == pytest.approx([0.5])

    def test_two_by_two_invariants(self):
        params = EnsembleParams(a=-0.5, q=0.5, N=2)
        z = zeros(params)
        diag, offdiag = jacobi_matrix(params)
        assert z.sum() == pytest.approx(diag.sum(), abs=1e-12)
        det = diag[0] * diag[1] - offdiag[0] ** 2
        assert z.prod() == pytest.approx(det, abs=1e-12)

    @pytest.mark.parametrize(
        "a,q,N",
        [
            (-0.5, 0.5, 25),
            (-2.0, 0.8, 40),
            (-1.0, math.exp(-1 / 60), 60),
            # N = 2000 in the two-hard-edge and the mixed phase of a = -1/3
            (-1 / 3, math.exp(-math.log(10) / 2000), 2000),
            (-1 / 3, math.exp(-math.log(2) / 2000), 2000),
        ],
    )
    def test_against_lapack(self, a, q, N):
        # LAPACK's stebz bisects on Sturm counts, an algorithm independent
        # of the MRRR solver (stemr) behind zeros()
        params = EnsembleParams(a=a, q=q, N=N)
        diag, offdiag = jacobi_matrix(params)
        ref = eigvalsh_tridiagonal(diag, offdiag, lapack_driver="stebz")
        assert np.abs(zeros(params) - ref).max() < 5e-12

    def test_polynomial_residual_at_zeros(self):
        # |U_N(z_i)| should vanish relative to the local derivative scale
        # prod_{j != i} |z_i - z_j|
        for N in (5, 10, 20):
            params = EnsembleParams(a=-0.5, q=0.5, N=N)
            qp = QParams(q=0.5, a=-0.5)
            z = zeros(params)
            for i, zi in enumerate(z):
                scale = np.prod(np.abs(zi - np.delete(z, i)))
                assert abs(u_poly(N, float(zi), qp)) <= 1e-8 * scale

    def test_interlacing(self):
        # zeros for consecutive degrees of one fixed measure interleave
        a, q = -0.5, math.exp(-1.0 / 50)
        prev = zeros(EnsembleParams(a=a, q=q, N=1))
        for N in range(2, 51):
            z = zeros(EnsembleParams(a=a, q=q, N=N))
            assert np.all(z[:-1] <= prev + 1e-10)
            assert np.all(prev <= z[1:] + 1e-10)
            prev = z

    def test_zeros_inside_interval(self):
        # unclipped, LAPACK put the smallest zero at N = 1000 3.6e-15 below a
        # and the largest 6.7e-15 above 1
        cases = (
            (-0.5, 0.5, 30),
            (-2.0, 0.7, 30),
            (-1 / 3, math.exp(-0.7 / 50), 50),
            (-0.5, math.exp(-10 / 1000), 1000),
        )
        for a, q, N in cases:
            z = zeros(EnsembleParams(a=a, q=q, N=N))
            assert a <= z[0] and z[-1] <= 1
            assert np.all(np.diff(z) > 0)

    def test_power_sums_match_trace_identities(self):
        for N in (10, 40):
            params = EnsembleParams(a=-0.5, q=math.exp(-1.0 / N), N=N)
            diag, offdiag = jacobi_matrix(params)
            z = zeros(params)
            assert z.sum() == pytest.approx(diag.sum(), abs=1e-10)
            expected_sq = (diag**2).sum() + 2 * (offdiag**2).sum()
            assert (z**2).sum() == pytest.approx(expected_sq, abs=1e-10)

    def test_trace_equals_first_moment_scale(self):
        a, q, N = -0.5, 0.5, 12
        diag, _ = jacobi_matrix(EnsembleParams(a=a, q=q, N=N))
        assert diag.sum() == pytest.approx((a + 1) * (1 - q**N) / (1 - q), rel=1e-14)

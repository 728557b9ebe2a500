import itertools
import math
import re
import warnings

import numpy as np
import pytest

from qensemble import density
from qensemble.asymptotics import ScalingParams, m_p0
from qensemble.density import (
    Piece,
    RegimeKind,
    cdf_at_sorted,
    density_cdf,
    density_moment,
    edge_params,
    limiting_density,
    regime,
    support,
    zero_distribution_distance,
)
from qensemble.qcore import DomainError, validate_a

A3 = -1 / 3
FIG_LAMBDAS = {
    "A": math.log(7 / 6),
    "D": math.log(4 / 3),
    "B": math.log(2),
    "E": math.log(4),
    "C": math.log(10),
}

# a < -1 against 1/a: a = -3 in each of its three phases, and a = -1e300 in
# the mixed phase, the only one reachable before e^(-lambda) / 1e300 underflows
REFLECTION_CASES = [(-3.0, FIG_LAMBDAS[key]) for key in "ABC"] + [
    (-1e300, 1.0),
    (-1e300, 20.0),
]


def rho_minus_one(x, lam):
    """Published closed form of the density at the symmetric point a = -1."""
    s = math.exp(-lam)
    b = 2 * math.sqrt((1 - s) * s)
    out = 0.0
    if abs(x) < b:
        root = math.sqrt(1 - x * x)
        ratio = (1 - root) / (1 + root) * (root + 1 - 2 * s) / (root - 1 + 2 * s)
        out += 2 / (math.pi * lam * abs(x)) * math.atan(math.sqrt(ratio))
    if lam > math.log(2) and b < abs(x) < 1:
        out += 1 / (lam * abs(x))
    return out


def _check_outside(y, pieces):
    """Refuse a y on the hull of the support, where both transforms' integrands are singular."""
    lower, upper = pieces[0].lo, pieces[-1].hi
    if not (y > upper or y < lower):
        raise DomainError(
            f"y={y} must lie outside [{lower}, {upper}] for the integral form"
        )


def stieltjes(y, a, lam):
    """Stieltjes transform G(y) of the limiting density via its
    one-dimensional integral form
    (1/lambda) int_0^(1-s) dt / ((1-t) sqrt((y-(a+1)(1-t))^2 + 4at(1-t))),
    taken in v = log(1-t) over [-lambda, 0], where dt / (1-t) = -dv.
    ``y`` must lie outside the interval where the square root can vanish;
    the violated bound is named otherwise."""
    pieces = support(a, lam)  # also checks (a, lambda)
    s = math.exp(-lam)
    if abs(y) <= abs(a + 1.0) * s:
        raise DomainError(
            f"|y|={abs(y)} must exceed |a+1| e^-lambda = {abs(a + 1) * s}"
        )
    _check_outside(y, pieces)

    # analytic branch: the square root behaves like y - (a+1)(1-t), which is
    # negative throughout the t-window when y lies left of the support
    branch = 1.0 if y > pieces[-1].hi else -1.0
    c = 1.0 - a  # the quadratic is scaled by 1/c^2, so that |a| cannot overflow

    def g(v):
        one_t = math.exp(v)
        r = (y - (a + 1.0) * one_t) / c
        quadratic = r * r + 4.0 * (a / c) * (-math.expm1(v) / c) * one_t
        return branch / (c * math.sqrt(quadratic))

    # QUADPACK of its own, with the target and the refusal the library's
    # integrals once had: an oracle on the library's rule would share its error
    from scipy.integrate import quad

    val, err = quad(g, -lam, 0.0, epsabs=1e-10, epsrel=1e-11, limit=200, full_output=1)[:2]
    if not err <= max(1e-8, 1e-7 * max(1.0, abs(val))):
        raise ArithmeticError(f"stieltjes oracle: quad error estimate {err:.2e}")
    return val / lam


def stieltjes_via_density(y, a, lam):
    """Defining integral int rho(x) / (y - x) dx, by the integrator of
    density_cdf and density_moment.  On a plateau
    1 / (x (y - x)) = (1/x + 1/(y - x)) / y gives a closed form."""
    _check_outside(y, support(a, lam))
    plateau = lambda lo, hi: math.copysign(1.0, lo) * (
        math.log(hi / lo) + math.log((y - lo) / (y - hi))
    ) / (lam * y)
    return density._integral(a, lam, math.inf, lambda x: 1.0 / (y - x), plateau)

class TestRegime:
    def test_figure_panels(self):
        expected = {
            "A": RegimeKind.TWO_SOFT_EDGES,
            "D": RegimeKind.SOFT_HARD_MIXED,  # boundary -> larger-lambda side
            "B": RegimeKind.SOFT_HARD_MIXED,
            "E": RegimeKind.TWO_HARD_EDGES,  # boundary -> larger-lambda side
            "C": RegimeKind.TWO_HARD_EDGES,
        }
        for panel, lam in FIG_LAMBDAS.items():
            assert regime(A3, lam).kind is expected[panel], panel

    def test_thresholds(self):
        reg = regime(A3, 1.0)
        assert reg.lambda1 == pytest.approx(math.log(4 / 3), abs=1e-15)
        assert reg.lambda2 == pytest.approx(math.log(4), abs=1e-15)

    def test_minus_one_has_two_phases(self):
        assert regime(-1.0, 0.5).kind is RegimeKind.TWO_SOFT_EDGES
        assert regime(-1.0, math.log(2)).kind is RegimeKind.TWO_HARD_EDGES
        assert regime(-1.0, 2.0).kind is RegimeKind.TWO_HARD_EDGES

    def test_a_below_minus_one_has_regime_of_inverse(self):
        for lam in FIG_LAMBDAS.values():
            assert regime(-3.0, lam) == regime(A3, lam)

    def test_support_pieces(self):
        u, v = edge_params(A3, FIG_LAMBDAS["A"])
        assert support(A3, FIG_LAMBDAS["A"]) == (Piece(u - v, u + v, arc=True),)
        u, v = edge_params(A3, FIG_LAMBDAS["B"])
        assert support(A3, FIG_LAMBDAS["B"]) == (
            Piece(u - v, u + v, arc=True),
            Piece(u + v, 1.0, arc=False),
        )
        u, v = edge_params(A3, FIG_LAMBDAS["C"])
        assert support(A3, FIG_LAMBDAS["C"]) == (
            Piece(A3, u - v, arc=False),
            Piece(u - v, u + v, arc=True),
            Piece(u + v, 1.0, arc=False),
        )
        # a < -1 is evaluated directly; its pieces are those of 1/a under
        # x -> a x, in reverse order
        for a, lam in REFLECTION_CASES:
            got = support(a, lam)
            inverse = support(1 / a, lam)
            want = [Piece(a * p.hi, a * p.lo, p.arc) for p in reversed(inverse)]
            assert [p.arc for p in got] == [p.arc for p in want], (a, lam)
            for p, r in zip(got, want):
                assert (p.lo, p.hi) == pytest.approx((r.lo, r.hi), rel=1e-12), (a, lam)


def x0x1(x: float, a: float) -> tuple[float, float]:
    """Roots-of-the-resolvent pair:
    x0 = (a^2 + 1 - x(a+1)) / (a-1)^2, x1 = sqrt(4a(x-a)(x-1)) / (a-1)^2."""
    validate_a(a)
    radicand = 4.0 * a * (x - a) * (x - 1.0)
    if radicand < 0:
        raise DomainError(f"x={x} outside [a, 1]: negative radicand")
    denom = (a - 1.0) ** 2
    return (a * a + 1.0 - x * (a + 1.0)) / denom, math.sqrt(radicand) / denom


class TestX0X1:
    def test_vanishing_at_interval_ends(self):
        for a in (-0.5, -2.0):
            assert x0x1(a, a)[1] == 0.0
            assert x0x1(1.0, a)[1] == 0.0

    def test_symmetric_point(self):
        x0, x1 = x0x1(0.0, -1.0)
        assert x0 == pytest.approx(0.5)
        assert x1 == pytest.approx(0.5)

    def test_domain(self):
        with pytest.raises(DomainError):
            x0x1(1.2, -0.5)


class TestLimitingDensity:
    def test_zero_outside_support(self):
        lam = FIG_LAMBDAS["A"]
        u, v = edge_params(A3, lam)
        # the last two are exact integers past the float range
        for x in (A3 + 1e-6, u - v - 1e-9, u + v + 1e-9, 0.999, -5.0, 5.0, -(10**400), 10**400):
            assert limiting_density(x, A3, lam) == 0.0

    def test_matches_published_minus_one_form(self):
        for lam in (0.3, math.log(2) + 0.1, 1.0, 2.5):
            u, v = edge_params(-1.0, lam)
            xs = [x for x in np.linspace(-0.995, 0.995, 101)
                  if abs(x) > 1e-3 and abs(abs(x) - (u + v)) > 1e-6]
            assert len(xs) >= 95
            for x in xs:
                assert limiting_density(x, -1.0, lam) == pytest.approx(
                    rho_minus_one(x, lam), abs=1e-12
                )

    def test_removable_singularity_at_zero(self):
        for a, lam in ((-1.0, 1.0), (A3, math.log(2)), (A3, math.log(10))):
            v0 = limiting_density(0.0, a, lam)
            assert v0 > 0
            assert v0 == pytest.approx(limiting_density(1e-9, a, lam), rel=1e-9)
            assert v0 == pytest.approx(limiting_density(-1e-9, a, lam), rel=1e-9)

    @pytest.mark.parametrize(
        "a,lam", [(-1.0, 1.0)] + [(a, lam) for a in (A3, -1.0) for lam in (38.0, 40.0, 100.0)]
    )
    def test_zero_value_closed_form(self, a, lam):
        # at lambda >= 38, 1 - e^(-lambda) rounds to 1 = x0 + x1 at x = 0
        s = math.exp(-lam)
        r = ((1 + a) / (1 - a)) ** 2
        assert limiting_density(0.0, a, lam) == pytest.approx(
            2 / (math.pi * lam) * (1 - a) / (-4 * a) * math.sqrt((1 - s - r) / s), rel=1e-15
        )

    def test_plateau_is_exact(self):
        for lam_key, pieces in (("B", 1), ("C", 2)):
            lam = FIG_LAMBDAS[lam_key]
            u, v = edge_params(A3, lam)
            plateau_regions = [(u + v, 1.0)]
            if pieces == 2:
                plateau_regions.append((A3, u - v))
            for lo, hi in plateau_regions:
                for x in np.linspace(lo + 1e-7, hi - 1e-7, 9):
                    assert limiting_density(x, A3, lam) == 1.0 / (lam * abs(x))

    def test_continuity_at_interior_matching_point(self):
        lam = FIG_LAMBDAS["B"]
        u, v = edge_params(A3, lam)
        left = limiting_density(u + v - 1e-14, A3, lam)
        right = limiting_density(u + v + 1e-14, A3, lam)
        assert abs(left - right) < 1e-6

    def test_soft_edges_vanish_like_square_root(self):
        lam = FIG_LAMBDAS["A"]
        u, v = edge_params(A3, lam)
        eps = np.logspace(-6, -3, 10)
        for edge, sgn in ((u + v, -1), (u - v, +1)):
            vals = np.array([limiting_density(edge + sgn * e, A3, lam) for e in eps])
            slope = np.polyfit(np.log(eps), np.log(vals), 1)[0]
            assert abs(slope - 0.5) < 0.05

    def test_hard_edge_one_sided_limits(self):
        lam = FIG_LAMBDAS["C"]
        assert limiting_density(1.0, A3, lam) == pytest.approx(1 / lam)
        assert limiting_density(A3, A3, lam) == pytest.approx(1 / (lam * abs(A3)))

    @pytest.mark.parametrize("a", [-1e-17, -1e-300, -1e300])
    def test_hard_edge_at_extreme_a(self, a):
        # a^2 + 1 - x(a+1), the x0 + x1 numerator, once rounded to 0 at x = 1
        # for |a| < ~1e-16 and divided by zero; at a = -1e300 the hard edge
        # is x = a, where the kinks' terms are scaled by 1/(1-a) not to overflow
        lam = 1.0
        edge, value = (a, (-1 / a) / lam) if a < -1 else (1.0, 1 / lam)
        assert limiting_density(edge, a, lam) == pytest.approx(value, rel=1e-15)

    @pytest.mark.parametrize(
        "a,lam", [(-1e-6, 1407.2), (-0.5, 1420.3), (-1.0, 1421.0), (-3.0, 1422.1)]
    )
    def test_density_past_float_range_is_refused(self, a, lam):
        # rho(0) grows like e^(lambda/2); once it passes ~8e304 a denominator
        # underflows, and x = 0 was a bare ZeroDivisionError
        match = re.escape(f"a={a}, lambda={lam}: the density at x=0.0")
        with pytest.raises(ArithmeticError, match=match):
            limiting_density(0.0, a, lam)
        assert 7e304 < limiting_density(0.0, a, lam - 0.1) < math.inf
        # finite values keep their bits
        assert limiting_density(0.0, -1.0, 1300.0) == 4.789829033262396e278

    def test_reflection_map(self):
        # rho^(a)(x) = -(1/a) rho^(1/a)(x/a), the map of the exact moment
        # symmetry; both sides are evaluated directly
        for a, lam in REFLECTION_CASES:
            xs = [a * y for y in np.linspace(1.0, 0.0, 41)] + [-2.5, -0.7, 0.2, 0.9]
            for x in xs:
                lhs = limiting_density(x, a, lam)
                rhs = (-1 / a) * limiting_density(x / a, 1 / a, lam)
                assert lhs == pytest.approx(rhs, rel=1e-12), (a, lam, x)


class TestIntegralRepresentation:
    # Plateau points of the default_rng(3) samples drawn below, where the
    # window 1 - e^(-lam) covers all of [alpha, beta] and (beta - x0)/x1 rounds
    # to one ulp below 1.
    PLATEAU_PINS = [
        (A3, FIG_LAMBDAS["B"], 0.9407771386051258),
        (A3, FIG_LAMBDAS["C"], 0.4488911647746447),
        (A3, FIG_LAMBDAS["C"], 0.5310991816922737),
        (A3, FIG_LAMBDAS["C"], 0.5470124231023372),
        (A3, FIG_LAMBDAS["C"], 0.9407771386051258),
        (-0.8, 1.2, -0.7963208298511126),
    ]

    @staticmethod
    def window_integral(x, a, lam):
        """Density as the raw t-window integral
        (1/(pi lam)) int dt / ((1-t)(1-a) sqrt((t-alpha)(beta-t))),
        evaluated on t in (alpha, hi), hi = min(1-s, beta), after
        t = x0 + x1 sin(theta), which removes both square-root endpoints.

        The upper limit uses the half-angle form
        theta_hi = pi/2 - 2 asin(sqrt((beta - hi) / (2 x1))),
        which is exactly pi/2 when hi == beta. A plain asin((hi - x0)/x1)
        is not: at plateau points the ratio can round to 1 - 1.1e-16, and
        asin's square-root sensitivity near 1 turns that ulp into a missing
        1.5e-8 rad of the range (a relative error of about 1e-8).

        Raises ArithmeticError if quad's error estimate exceeds the
        accuracy requested of it."""
        from scipy.integrate import quad

        s = math.exp(-lam)
        x0, x1 = x0x1(x, a)
        alpha, beta = x0 - x1, x0 + x1
        hi = min(1 - s, beta)
        if hi <= alpha or x1 == 0:
            return 0.0
        theta_hi = math.pi / 2 - 2 * math.asin(math.sqrt((beta - hi) / (2 * x1)))
        epsabs, epsrel = 1e-13, 1e-12
        val, err = quad(
            lambda th: 1.0 / ((1 - a) * (1 - (x0 + x1 * math.sin(th)))),
            -math.pi / 2,
            theta_hi,
            epsabs=epsabs,
            epsrel=epsrel,
        )
        if err > max(epsabs, epsrel * abs(val)):
            raise ArithmeticError(
                f"window_integral oracle: quad error estimate {err:.2e} "
                f"above the requested epsabs={epsabs:.0e}, epsrel={epsrel:.0e}"
            )
        return val / (math.pi * lam)

    @staticmethod
    def window_integral_mp(x, a, lam):
        """The same t-window integral in mpmath at 30 digits, taken in t
        directly by tanh-sinh quadrature (no substitution, no asin)."""
        import mpmath

        with mpmath.workdps(30):
            x, a, lam = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(lam)
            denom = (a - 1) ** 2
            x0 = (a * a + 1 - x * (a + 1)) / denom
            x1 = mpmath.sqrt(4 * a * (x - a) * (x - 1)) / denom
            alpha, beta = x0 - x1, x0 + x1
            hi = min(1 - mpmath.exp(-lam), beta)
            val = mpmath.quad(
                lambda t: 1 / ((1 - t) * (1 - a) * mpmath.sqrt((t - alpha) * (beta - t))),
                [alpha, hi],
            )
            return float(val / (mpmath.pi * lam))

    @pytest.mark.parametrize("a,lam,x", PLATEAU_PINS)
    def test_window_integral_matches_mpmath_at_plateau(self, a, lam, x):
        x0, x1 = x0x1(x, a)
        assert x0 + x1 <= 1 - math.exp(-lam)  # the window covers [alpha, beta]
        assert self.window_integral(x, a, lam) == pytest.approx(
            self.window_integral_mp(x, a, lam), rel=1e-12
        )

    @pytest.mark.parametrize(
        "a,lam",
        [
            (A3, FIG_LAMBDAS["A"]),
            (A3, FIG_LAMBDAS["B"]),
            (A3, FIG_LAMBDAS["C"]),
            (-1.0, 0.4),
            (-0.8, 1.2),
            # the window integral holds for every a: one lambda per phase
            (-3.0, FIG_LAMBDAS["A"]),
            (-3.0, FIG_LAMBDAS["B"]),
            (-3.0, FIG_LAMBDAS["C"]),
        ],
    )
    def test_closed_form_matches_window_integral(self, a, lam):
        rng = np.random.default_rng(3)
        xs = rng.uniform(a + 1e-3, 1 - 1e-3, 40)
        for x in xs:
            want = self.window_integral(float(x), a, lam)
            got = limiting_density(float(x), a, lam)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize(
        "lam,fs",
        [(1e-10, (-0.5, 0.0, 0.5))]
        + [(lam, (-0.999, -0.9, 0.0, 0.5, 0.99, 0.999)) for lam in (30.0, 40.0)],
    )
    def test_closed_form_matches_mpmath_at_extreme_lambda(self, lam, fs):
        # lambda = 1e-10: 1 - e^(-lambda) was once taken as 1.0 - exp(-lambda),
        # which is off by 8e-8 relative there (nearer the edges of an arc 1e-5
        # wide, x itself carries too few digits).  lambda = 30, 40: the arc lies
        # within 1e-6 of 0; atan(|x| w) / (|x| w) was once taken by its series
        # wherever |x| < 1e-6, though |x| w reaches O(1) near the soft edges,
        # and rho came out up to 7e5 times too large there
        u, v = edge_params(A3, lam)
        for f in fs:
            x = u + f * v
            assert limiting_density(x, A3, lam) == pytest.approx(
                self.window_integral_mp(x, A3, lam), rel=1e-11
            ), f


class TestDensityIntegrals:
    @pytest.mark.parametrize("lam", [FIG_LAMBDAS["A"], FIG_LAMBDAS["B"], FIG_LAMBDAS["C"]])
    def test_normalisation(self, lam):
        assert density_moment(0, A3, lam) == pytest.approx(1.0, abs=1e-6)

    def test_normalisation_at_large_lambda(self):
        # the narrow arc of test_closed_form_matches_mpmath_at_extreme_lambda
        # once made this quadrature refuse every lambda from ~28 on; the
        # refusal of a plateau reaching x = 0 must not reach a of this size
        lambdas = (30.0, 40.0, 100.0, 690.0, 700.0, 708.0)
        for a, lam in itertools.product((-0.5, -3.0), lambdas):
            assert density_moment(0, a, lam) == pytest.approx(1.0, abs=1e-6)
            assert density_cdf(0.5, a, lam) == pytest.approx(
                1.0 - math.log(2.0) / lam, abs=1e-6
            )

    @pytest.mark.parametrize(
        "a,lam", [(-1e-100, 300.0), (-1e300, 700.0), (-1e-15, 100.0), (-1e12, 40.0), (-1e-12, 40.0)]
    )
    def test_normalisation_where_beta_is_small(self, a, lam):
        # beta - e^(-lambda) taken as (1 - e^(-lambda)) - (1 - beta) cancelled
        # on the arc: the mass was 0.99538, 0.99802 and 0.999996 at the first
        # three points, and the last two raised "did not converge", the last
        # after a raw IntegrationWarning
        x = sum(piece.lo + piece.hi for piece in support(a, lam) if piece.arc) / 2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert density_moment(0, a, lam) == pytest.approx(1.0, abs=1e-12)
            want = cdf_at_sorted([x], a, lam)[0]
            assert density_cdf(x, a, lam) == pytest.approx(want, abs=1e-10)

    def test_high_moments_at_huge_a_raise_no_warning(self):
        # p <= 6 over an arc of half-width 2e3 centred at -1e12, which the
        # narrow-arc check also integrates: they meet m_p0, and no warning
        # is raised on the way
        sp = ScalingParams(a=-1e12, lam=1e-6)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for p in range(1, 7):
                err = abs(density_moment(p, -1e12, 1e-6) - m_p0(p, sp))
                assert err <= 1e-10 * 1e12**p, p

    def test_nan_quadrature_is_refused(self, monkeypatch):
        # NaN > bound is False, so a NaN value or error estimate must be
        # refused explicitly.  One half-arc of one node, x = 0, per rule: the
        # weights give the value and the check sum
        for value_weight, message in (
            (math.nan, "non-finite value"),
            (0.5, "did not converge: error estimate nan"),
        ):
            rules = (((0.0,), (value_weight,)), ((0.0,), (math.nan,)))
            monkeypatch.setattr(density, "_arc_samples", lambda *args: (rules,))
            with pytest.raises(ArithmeticError, match=message):
                density_moment(0, -0.5, 1.0)

    def test_cdf_endpoints_and_monotonicity(self):
        lam = FIG_LAMBDAS["B"]
        u, v = edge_params(A3, lam)
        assert density_cdf(u - v, A3, lam) == pytest.approx(0.0, abs=1e-12)
        assert density_cdf(1.0, A3, lam) == pytest.approx(1.0, abs=1e-6)
        xs = np.linspace(A3, 1.0, 25)
        vals = [density_cdf(x, A3, lam) for x in xs]
        assert all(b - a >= -1e-12 for a, b in zip(vals, vals[1:]))

    def test_cdf_at_sorted_matches_pointwise(self):
        lam = FIG_LAMBDAS["C"]
        xs = np.array([-0.3, -0.1, 0.05, 0.4, 0.9])
        batch = cdf_at_sorted(xs, A3, lam)
        for x, val in zip(xs, batch):
            assert val == pytest.approx(density_cdf(x, A3, lam), abs=1e-9)

    def test_first_moment(self):
        for a, lam in ((A3, FIG_LAMBDAS["B"]), (-0.5, 1.0)):
            want = (a + 1) * (1 - math.exp(-lam)) / lam
            assert density_moment(1, a, lam) == pytest.approx(want, abs=1e-6)

    @pytest.mark.parametrize("lam", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("p", [2, 4])
    def test_even_moments_at_minus_one(self, p, lam):
        sp = ScalingParams(a=-1.0, lam=lam)
        assert density_moment(p, -1.0, lam) == pytest.approx(m_p0(p, sp), abs=1e-6)

    def test_moment_symmetry(self):
        lam = math.log(2)
        for p in range(7):
            lhs = density_moment(p, -3.0, lam)
            rhs = (-3.0) ** p * density_moment(p, -1 / 3, lam)
            assert lhs == pytest.approx(rhs, abs=1e-6)

    @pytest.mark.parametrize("lam", [1e-8, 1e-10, 1e-12, 1e-14])
    @pytest.mark.parametrize("a", [-0.5, -3.0])
    def test_small_lambda_mass_and_second_moment(self, a, lam):
        # the half-width v took 1 - e^(-lambda) as 1.0 - e^(-lambda), which
        # cancels: |mass - 1| was 4.4e-8 at lambda = 1e-12 and 9.6e-6 at 1e-14
        assert abs(density_moment(0, a, lam) - 1.0) < 1e-10
        m2 = m_p0(2, ScalingParams(a=a, lam=lam))
        assert abs(density_moment(2, a, lam) - m2) < 1e-10 * max(1.0, -a) ** 2

    @pytest.mark.parametrize("a,lam", [(-1e-6, 1e-200), (-0.5, 1e-200), (-3.0, 1e-200)])
    def test_narrow_arc_is_refused(self, a, lam):
        # x has too few digits across the arc: the mass came out 0 at
        # lambda = 1e-200, with no error
        match = re.escape(f"a={a}, lambda={lam}: the arc [") + ".* too narrow"
        with pytest.raises(ArithmeticError, match=match):
            density_moment(0, a, lam)
        with pytest.raises(ArithmeticError, match=match):
            density_cdf(0.5, a, lam)

    def test_narrow_arc_is_resolved_through_the_edge_offset(self):
        # the mass was 3.4e-8 off here while the density took x - (1+a)
        # from the rounded node x, and the arc was refused; from the edge's
        # offset the moments p <= 2 are within 7.0e-11 of m_p0
        a, lam = -1e-6, 1e-14
        sp = ScalingParams(a=a, lam=lam)
        for p in range(3):
            assert abs(density_moment(p, a, lam) - m_p0(p, sp)) < 1e-9, p

    def test_narrow_arc_check_passes_where_the_arc_is_resolved(self):
        # the check runs on these arcs (centre > 1e4 half-widths from 0) and
        # passes; at a = -1 the arc is centred on 0 and never checked
        for a, lam in ((-0.5, 1e-18), (-0.1, 1e-16), (-1e-6, 1e-12)):
            assert abs(density_moment(0, a, lam) - 1.0) < 1e-10, (a, lam)
        assert abs(density_moment(0, -1.0, 1e-200) - 1.0) < 1e-15

    @pytest.mark.parametrize("a,lam", [(-1e-12, 1e-8), (-1e-15, 3e-8), (-1e-9, 1e-7)])
    def test_narrow_arc_moments_are_checked(self, a, lam):
        # the mass passed the check (at most 5.4e-10 off) while the first
        # moment was 2e-9 off m_p0 at the first point and the second moment
        # 1.1e-9 and 1.5e-9 off at the others, with no error
        sp = ScalingParams(a=a, lam=lam)
        for p in range(3):
            try:
                value = density_moment(p, a, lam)
            except ArithmeticError as exc:
                assert str(exc).startswith(f"a={a}, lambda={lam}: the arc [")
                assert "too narrow" in str(exc)
            else:
                assert abs(value - m_p0(p, sp)) <= 1e-9, p

    def test_narrow_arc_first_moment_refusal(self):
        match = re.escape("a=-1e-12, lambda=1e-08: the arc [") + ".* its first moment is off"
        with pytest.raises(ArithmeticError, match=match):
            density_moment(0, -1e-12, 1e-8)

    def test_narrow_arc_moment_check_skips_unconverged_quadrature(self):
        # at a = -1e15 the arc's first-moment quadrature does not converge,
        # so density_moment(1) refuses by itself; the mass, which its check
        # admits, is still served
        a, lam = -1e15, 1e-6
        assert abs(density_moment(0, a, lam) - 1.0) < 1e-9
        with pytest.raises(ArithmeticError, match="did not converge"):
            density_moment(1, a, lam)

    def test_underflowed_plateau_edge_is_refused(self):
        # e^(-lambda) underflows, so a plateau piece ends at 0 and its log
        # mass is infinite; cdf_at_sorted needs no plateau mass (TestMixtureCDF)
        with pytest.raises(ArithmeticError, match="lambda=1440.*underflowed"):
            density_cdf(0.5, -0.5, 1440.0)

    @pytest.mark.parametrize("a", [-1e-300, -1e-20])
    def test_plateau_reaching_zero_is_refused(self, a):
        # -a e^(-lambda) underflows, so the half-width v is 0 and the left
        # plateau (a, u - v) reaches past x = 0, where 1/(lambda |x|) is not
        # integrable: the log mass gave 1.0132 (a = -1e-300) and 1.93
        # (a = -1e-20) for the total mass, with no error
        match = f"a={a}, lambda=700.0: the plateau .* reaches x = 0"
        with pytest.raises(ArithmeticError, match=match):
            density_moment(0, a, 700.0)
        with pytest.raises(ArithmeticError, match=match):
            density_cdf(0.5, a, 700.0)
        # the transform's plateau integrals gave 0.0272 at a = -1e-20, where
        # a unit mass on [a, 1] has a transform in [1/2, 1] at y = 2
        with pytest.raises(ArithmeticError, match=match):
            stieltjes_via_density(2.0, a, 700.0)

    @pytest.mark.parametrize("a", [A3, -1.0, -3.0])
    def test_subnormal_edges_are_refused(self, a):
        # past lambda ~708.4, e^(-lambda) is subnormal and the support edges
        # keep a few digits: the mass would be off by up to 5e-6, or inf
        for lam in (709.0, 742.0, 745.0):
            with pytest.raises(ArithmeticError, match="underflowed"):
                density_moment(0, a, lam)
        assert density_moment(0, a, 708.0) == pytest.approx(1.0, abs=1e-12)

    def test_quadrature_goes_through_density_quad(self, monkeypatch):
        # the one module-level name a tracer can wrap to count quadratures
        lam = FIG_LAMBDAS["B"]
        xs = np.array([-0.3, 0.05, 0.4])
        calls = {
            "density_cdf": lambda: density_cdf(0.2, A3, lam),
            "density_moment": lambda: density_moment(2, A3, lam),
        }
        plain = {name: call() for name, call in calls.items()}
        original = density.quad
        count = [0]

        def counted(*args, **kwargs):
            count[0] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(density, "quad", counted)
        for name, call in calls.items():
            count[0] = 0
            assert call() == plain[name], name
            assert count[0] >= 1, name
        # the arcsine mixture is the quadrature-free route
        count[0] = 0
        cdf_at_sorted(xs, A3, lam)
        assert count[0] == 0


SWEEP_LAMBDAS = [1e-6, 1e-3, 0.05, 0.3, 1.0, 5.0, 20.0, 40.0, 100.0, 300.0, 700.0, 708.0]


def _check_both_references(a, lam):
    """density_moment against m_p0 (p <= 6) and density_cdf against the
    arcsine mixture at the support's edges and midpoints, to 1e-9.  The only
    refusals are the documented ones: a plateau that reaches x = 0, and x^p
    past the float range."""
    try:
        pieces = support(a, lam)
    except ArithmeticError as exc:
        # refused only where the half-width v underflowed to 0
        assert "reaches x = 0" in str(exc) and edge_params(a, lam)[1] == 0.0
        with pytest.raises(ArithmeticError, match="reaches x = 0"):
            density_moment(0, a, lam)
        return
    sp = ScalingParams(a=a, lam=lam)
    for p in range(7):
        if p * math.log10(-a) > 300:
            with pytest.raises(OverflowError):
                density_moment(p, a, lam)
            continue
        err = abs(density_moment(p, a, lam) - m_p0(p, sp)) / max(1.0, -a) ** p
        assert err < 1e-9, (lam, p)
    xs = sorted({x for pc in pieces for x in (pc.lo, 0.5 * (pc.lo + pc.hi), pc.hi)})
    xs = [x for x in xs if a < x < 1.0]
    for x, want in zip(xs, cdf_at_sorted(xs, a, lam)):
        assert abs(density_cdf(x, a, lam) - want) < 1e-9, (lam, x)


@pytest.mark.parametrize(
    "a",
    [-1e-300, -1e-100, -1e-15, -1e-6, -0.05, A3, -0.5, -1.0, -3.0, -1e3, -1e12, -1e100, -1e300],
)
def test_density_integrals_match_both_references(a):
    """The two references from lambda = 1e-6 to 708."""
    for lam in SWEEP_LAMBDAS:
        _check_both_references(a, lam)


# lambda - lambda_c on both sides of each phase threshold lambda_c
THRESHOLD_OFFSETS = [1e-12, 1e-10, 1e-8, 1e-6, 3e-5, 1e-4, 3e-4, 1e-3, 1e-2]


@pytest.mark.parametrize("a", [A3, -0.5, -3.0, -0.05, -1e-6, -1e6, -0.9, -1.1])
def test_density_integrals_near_phase_thresholds(a):
    """The two references next to both thresholds, where an arc edge comes
    within d of its wall.  The wall's square root in the t-kinks then turns
    at sqrt(d) from the edge, which QUADPACK missed under x = e +/- w^2:
    8.7e-9 off at a = -0.5, lambda_1 - 1e-4, with an error estimate of 6e-11."""
    reg = regime(a, 1.0)
    for lam_c in (reg.lambda1, reg.lambda2):
        for off in THRESHOLD_OFFSETS:
            for lam in (lam_c - off, lam_c + off):
                if lam > 0.0:
                    _check_both_references(a, lam)


def _phase_lambdas(a):
    """One lambda inside each phase of a (two at a = -1, where the mixed
    phase is empty), and lambda = 20 deep in the two-hard-edge phase."""
    reg = regime(a, 1.0)
    lams = [0.5 * reg.lambda1, 2.0 * reg.lambda2, 20.0]
    if reg.lambda2 > reg.lambda1:
        lams.insert(1, 0.5 * (reg.lambda1 + reg.lambda2))
    return lams


class TestMixtureCDF:
    """cdf_at_sorted, the arcsine mixture of the recurrence, against
    density_cdf, the quadrature of the density; both evaluate a < -1
    directly, with no map from 1/a."""

    @pytest.mark.parametrize(
        "a,lam",
        [(a, lam) for a in (-1.0, -0.5, A3, -3.0) for lam in _phase_lambdas(a)],
    )
    def test_matches_density_cdf(self, a, lam):
        pieces = support(a, lam)
        xs = list(np.linspace(a, 1.0, 41))
        xs += [0.0, 1e-9, -1e-9, 1e-3, -1e-3, 1 + a - 1e-3, 1 + a + 1e-3]
        for p in pieces:
            xs += [p.lo, p.lo + 1e-9, p.hi - 1e-9, p.hi]
        xs = np.array(sorted(x for x in xs if a <= x <= 1.0))
        got = cdf_at_sorted(xs, a, lam)
        assert np.all(np.diff(got) >= 0.0)
        assert got.min() >= 0.0 and got.max() <= 1.0
        for x, val in zip(xs, got):
            assert val == pytest.approx(density_cdf(x, a, lam), abs=1e-10), x

    @staticmethod
    def mixture_cdf_mp(x, a, lam):
        """The arcsine mixture int_0^1 F((x - b(s)) / (2 r(s))) ds in mpmath
        at 30 digits, by tanh-sinh quadrature in s split at the kinks."""
        import mpmath

        with mpmath.workdps(30):
            x, a, lam = mpmath.mpf(x), mpmath.mpf(a), mpmath.mpf(lam)
            c = 1 - a
            # the kinks: roots of (1-a)^2 t^2 + (4a - 2x(1+a)) t + x^2
            half_b = 2 * a - x * (1 + a)
            beta = (-half_b + mpmath.sqrt(half_b**2 - (c * x) ** 2)) / c**2
            kinks = [-mpmath.log(t) / lam for t in ((x / c) ** 2 / beta, beta)]
            points = sorted({mpmath.mpf(0), mpmath.mpf(1)} | {s for s in kinks if 0 < s < 1})

            def arcsine_cdf(s):
                t = mpmath.exp(-lam * s)
                r = mpmath.sqrt(-a * t * (1 - t))
                y = (x - (1 + a) * t) / (2 * r) if r else mpmath.sign(x - (1 + a) * t)
                return mpmath.asin(y) / mpmath.pi + 0.5 if abs(y) < 1 else float(y > 0)

            return float(mpmath.quad(arcsine_cdf, points))

    @pytest.mark.parametrize(
        "a,lam,x",
        [
            # the worst points of the 64-node rule: x = +-1e-300 at lambda = 1440,
            # 1.3e-13 from the mixture
            (-1e6, 1440.0, 1e-300),
            (-1e-6, 1440.0, -1e-306),
            (-0.5, 1440.0, 1e-300),
            (-3.0, 1440.0, -1e-300),
            # next to x = 1 + a, where the kinks meet t = 1
            (-0.5, 0.2, 0.5 - 1e-9),
            (A3, 0.2, 1 + A3 + 1e-9),
            (A3, 0.75, 1 + A3 + 1e-9),
        ],
    )
    def test_matches_30_digit_mixture(self, a, lam, x):
        # the bound of the _GL_ORDER comment in density.py
        assert abs(cdf_at_sorted([x], a, lam)[0] - self.mixture_cdf_mp(x, a, lam)) <= 2e-13

    def test_rule_is_built_once(self):
        density._gauss_legendre.cache_clear()
        for _ in range(2):
            cdf_at_sorted([-0.25, 0.25], -0.5, 1.0)
        info = density._gauss_legendre.cache_info()
        assert info.misses == 1 and info.hits >= 1

    def test_outside_the_support(self):
        xs = [-math.inf, -3.5, -3.0, 1.0, 2.0, math.inf]
        assert list(cdf_at_sorted(xs, -3.0, 1.0)) == [0.0, 0.0, 0.0, 1.0, 1.0, 1.0]

    def test_nan_is_refused(self):
        # NaN once passed the sort check, since NaN < x is False
        with pytest.raises(DomainError, match="NaN"):
            cdf_at_sorted([0.1, math.nan, 0.3], -0.5, 1.0)

    def test_unsorted_is_refused(self):
        with pytest.raises(DomainError, match="sorted"):
            cdf_at_sorted([0.3, 0.1], -0.5, 1.0)


class TestStieltjes:
    def test_dual_routes_agree(self):
        for y, a, lam in ((5.0, -0.5, 1.0), (-3.0, -0.5, 1.0), (2.0, A3, math.log(2))):
            assert stieltjes(y, a, lam) == pytest.approx(
                stieltjes_via_density(y, a, lam), abs=1e-8
            )

    @pytest.mark.parametrize("lam", [40.0, 100.0, 300.0, 700.0, 708.0])
    @pytest.mark.parametrize("a", [-0.5, -1.0, -3.0])
    @pytest.mark.parametrize("y", [2.0, -4.5])
    def test_dual_routes_agree_at_large_lambda(self, y, a, lam):
        # the t-form divided by 1 - t, which rounds to 0 at t = 1 - e^(-lambda)
        # from lambda ~ 38 (ZeroDivisionError), and did not converge at 36;
        # the defining integral's plateau quadrature did not converge from
        # lambda ~ 300, where its closed form now stands
        assert stieltjes(y, a, lam) == pytest.approx(
            stieltjes_via_density(y, a, lam), rel=1e-12
        )

    def test_total_mass_asymptotics(self):
        y = 1e4
        assert y * stieltjes(y, -0.5, 1.0) == pytest.approx(1.0, abs=1e-3)

    def test_series_tail_bound(self):
        y, a, lam = 5.0, -0.5, 1.0
        sp = ScalingParams(a=a, lam=lam)
        series = sum(m_p0(p, sp) / y ** (p + 1) for p in range(13))
        bound = 2 * max(abs(m_p0(p, sp)) for p in range(14)) / y**14
        assert abs(stieltjes(y, a, lam) - series) < max(bound, 1e-12)

    def test_reflection(self):
        got = stieltjes(4.0, -3.0, 1.0)
        want = stieltjes_via_density(4.0, -3.0, 1.0)
        assert got == pytest.approx(want, abs=1e-8)

    def test_domain_errors_name_bounds(self):
        with pytest.raises(DomainError, match="outside"):
            stieltjes(0.5, A3, math.log(2))
        with pytest.raises(DomainError, match="exceed"):
            stieltjes(1e-9, -0.5, 3.0)
        # the defining integral shares the support check; y = 0.9 raised a
        # bare ZeroDivisionError from the quadrature
        with pytest.raises(DomainError, match="outside"):
            stieltjes_via_density(0.9, A3, math.log(2))


class TestZeroDistribution:
    def test_distance_decreases(self):
        lam = FIG_LAMBDAS["B"]
        d = [zero_distribution_distance(A3, lam, n) for n in (100, 200, 400)]
        assert d[0] > d[1] > d[2]
        assert d[2] < 0.01

    def test_symmetric_case(self):
        assert zero_distribution_distance(-1.0, 1.0, 400) < 0.01

    def test_large_lambda(self):
        # an arc 6e-9 wide between two plateaus
        assert zero_distribution_distance(-0.5, 40.0, 2000) <= 2 / 2000

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            zero_distribution_distance(A3, 1.0, 5)

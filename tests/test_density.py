import math

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
    stieltjes,
    stieltjes_via_density,
    support,
    x0x1,
    zero_distribution_distance,
)
from qensemble.qcore import DomainError

A3 = -1 / 3
FIG_LAMBDAS = {
    "A": math.log(7 / 6),
    "D": math.log(4 / 3),
    "B": math.log(2),
    "E": math.log(4),
    "C": math.log(10),
}


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
        # a = -3 carries the pieces of a = -1/3 mapped under x -> -3x
        assert support(-3.0, FIG_LAMBDAS["B"]) == (
            Piece(-3.0, -3.0 * (u + v), arc=False),
            Piece(-3.0 * (u + v), -3.0 * (u - v), arc=True),
        )
        u, v = edge_params(A3, FIG_LAMBDAS["C"])
        assert support(A3, FIG_LAMBDAS["C"]) == (
            Piece(A3, u - v, arc=False),
            Piece(u - v, u + v, arc=True),
            Piece(u + v, 1.0, arc=False),
        )
        assert support(-3.0, FIG_LAMBDAS["C"]) == (
            Piece(-3.0, -3.0 * (u + v), arc=False),
            Piece(-3.0 * (u + v), -3.0 * (u - v), arc=True),
            Piece(-3.0 * (u - v), 1.0, arc=False),
        )


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
        for x in (A3 + 1e-6, u - v - 1e-9, u + v + 1e-9, 0.999, -5.0, 5.0):
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

    def test_reflection_map(self):
        for x in (-2.5, -0.7, 0.2, 0.9):
            lhs = limiting_density(x, -3.0, 1.0)
            rhs = (-1 / -3.0) * limiting_density(x / -3.0, 1 / -3.0, 1.0)
            assert lhs == rhs


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
        ],
    )
    def test_closed_form_matches_window_integral(self, a, lam):
        rng = np.random.default_rng(3)
        xs = rng.uniform(a + 1e-3, 1 - 1e-3, 40)
        for x in xs:
            want = self.window_integral(float(x), a, lam)
            got = limiting_density(float(x), a, lam)
            assert got == pytest.approx(want, rel=1e-9, abs=1e-11)


class TestDensityIntegrals:
    @pytest.mark.parametrize("lam", [FIG_LAMBDAS["A"], FIG_LAMBDAS["B"], FIG_LAMBDAS["C"]])
    def test_normalisation(self, lam):
        assert density_moment(0, A3, lam) == pytest.approx(1.0, abs=1e-6)

    def test_nan_quadrature_is_refused(self):
        # quad returns (nan, nan) here, and NaN > bound is False
        with pytest.raises(ArithmeticError):
            density_moment(0, -0.5, 700.0)

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

    def test_quadrature_goes_through_density_quad(self, monkeypatch):
        # the one module-level name a tracer can wrap to count quadratures
        lam = FIG_LAMBDAS["B"]
        xs = np.array([-0.3, 0.05, 0.4])
        calls = {
            "density_cdf": lambda: density_cdf(0.2, A3, lam),
            "density_moment": lambda: density_moment(2, A3, lam),
            "cdf_at_sorted": lambda: list(cdf_at_sorted(xs, A3, lam)),
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


class TestStieltjes:
    def test_dual_routes_agree(self):
        for y, a, lam in ((5.0, -0.5, 1.0), (-3.0, -0.5, 1.0), (2.0, A3, math.log(2))):
            assert stieltjes(y, a, lam) == pytest.approx(
                stieltjes_via_density(y, a, lam), abs=1e-8
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


class TestZeroDistribution:
    def test_distance_decreases(self):
        lam = FIG_LAMBDAS["B"]
        d = [zero_distribution_distance(A3, lam, n) for n in (100, 200, 400)]
        assert d[0] > d[1] > d[2]
        assert d[2] < 0.01

    def test_symmetric_case(self):
        assert zero_distribution_distance(-1.0, 1.0, 400) < 0.01

    def test_small_n_rejected(self):
        with pytest.raises(DomainError):
            zero_distribution_distance(A3, 1.0, 5)

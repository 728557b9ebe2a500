"""Limiting spectral density, its phase regimes, CDF, moments and transform.

The density on (a, 1) under the scaling q = e^(-lambda/N) consists of an
arctan bulge supported on (u-v, u+v) plus, depending on lambda, plateau
pieces where it equals 1/(lambda |x|) exactly.  The number of soft edges
drops from two to one to zero as lambda crosses log(1-a) and
log(1-a) - log(-a).

The formulas hold for every a < 0, with no case split at a = -1: the
density, its support and its Stieltjes transform are evaluated directly,
and both the density and the mixture CDF below read the t-kinks from
:func:`_kinks`.  The map of a < -1 to the 1/a ensemble under x -> x/a (the
exact moment symmetry m^(1/a) = a^(-p) m^(a)) is therefore a property the
tests check, not a definition; only :func:`regime` folds a < -1 to 1/a, to
report the thresholds of 1/a.

The CDF has two routes.  :func:`density_cdf`, like :func:`density_moment`
and :func:`stieltjes_via_density`, is one call of :func:`_integral`: a
closed form on each plateau and adaptive quadrature on the arc, to one
absolute target.  On the arc :func:`_density` takes beta - e^(-lambda)
without cancellation at tiny or huge |a|.  :func:`cdf_at_sorted` needs no
adaptive quadrature: it is the limiting zero distribution of the
recurrence, a mixture of arcsine laws (Kuijlaars and Van Assche, J. Approx.
Theory 99 (1999)), evaluated by a fixed Gauss-Legendre rule.  Their
agreement checks the claim that the density is the zero distribution.

The density, its regime and its support are scalar :mod:`math`.  numpy
enters only on the mixture-CDF path (:func:`cdf_at_sorted` and
:func:`zero_distribution_distance`), and ``scipy.integrate`` only inside
:func:`quad`, so importing this module loads neither.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cache
from typing import TYPE_CHECKING, Callable, Sequence

from .moments import EnsembleParams
from .orthopoly import zeros
from .qcore import DomainError, validate_a, validate_lambda

if TYPE_CHECKING:
    import numpy as np


class RegimeKind(str, Enum):
    TWO_SOFT_EDGES = "TwoSoftEdges"
    SOFT_HARD_MIXED = "SoftHardMixed"
    TWO_HARD_EDGES = "TwoHardEdges"


@dataclass(frozen=True)
class DensityRegime:
    kind: RegimeKind
    lambda1: float  # log(1-a): right edge reaches the hard wall at 1
    lambda2: float  # log(1-a) - log(-a): left edge reaches the hard wall at a


@dataclass(frozen=True)
class Piece:
    """One piece of the support: an arc (square-root soft edges at lo and
    hi) or a plateau, where the density is exactly 1/(lambda |x|)."""

    lo: float
    hi: float
    arc: bool


def edge_params(a: float, lam: float) -> tuple[float, float]:
    """Bulge center u = (1+a) e^(-lambda) and half-width
    v = 2 sqrt(-a (1-e^(-lambda)) e^(-lambda))."""
    validate_a(a)
    validate_lambda(lam)
    s = math.exp(-lam)
    return (1.0 + a) * s, 2.0 * math.sqrt(-a * (1.0 - s) * s)


def regime(a: float, lam: float) -> DensityRegime:
    """Classify lambda against the two phase thresholds; a < -1 has the
    regime and thresholds of 1/a.

    Boundary values are assigned to the larger-lambda regime.  At a = -1
    the thresholds coincide and the mixed phase is empty.
    """
    validate_a(a)
    validate_lambda(lam)
    if a < -1:
        a = 1.0 / a
    lambda1 = math.log(1.0 - a)
    lambda2 = lambda1 - math.log(-a)
    if lam < lambda1:
        kind = RegimeKind.TWO_SOFT_EDGES
    elif lam < lambda2:
        kind = RegimeKind.SOFT_HARD_MIXED
    else:
        kind = RegimeKind.TWO_HARD_EDGES
    return DensityRegime(kind=kind, lambda1=lambda1, lambda2=lambda2)


def support(a: float, lam: float) -> tuple[Piece, ...]:
    """Ordered arc and plateau pieces of the support, for every a < 0.

    The hard edges follow :func:`regime`, so a lambda on a threshold gets
    its phase's pieces however the edges round.  The mixed phase has one
    hard edge, at the nearer wall: 1 for a > -1, a for a < -1.
    """
    kind = regime(a, lam).kind
    u, v = edge_params(a, lam)
    mixed = kind is RegimeKind.SOFT_HARD_MIXED
    both = kind is RegimeKind.TWO_HARD_EDGES
    left = (Piece(a, u - v, arc=False),) if both or (mixed and a < -1) else ()
    right = (Piece(u + v, 1.0, arc=False),) if both or (mixed and a > -1) else ()
    return left + (Piece(u - v, u + v, arc=True),) + right


def _kinks(x: float | np.ndarray, a: float) -> tuple:
    """The t-kinks alpha <= beta, the roots of
    (1-a)^2 t^2 + (4a - 2x(1+a)) t + x^2, as (beta, 1 - alpha, 1 - beta),
    for x in [a, 1]: a float or an ndarray.

    Each is formed without cancellation, and every term is scaled by
    1/(1-a), so that |a| up to the float limit cannot overflow.  Their
    product gives alpha = (x/(1-a))^2 / beta.
    """
    c = 1.0 - a
    root = 2.0 * ((-a / c) * ((x - a) / c) * (1.0 - x)) ** 0.5
    beta = ((1.0 + a) * (x / c) - 2.0 * (a / c) + root) / c
    # 1 - alpha as terms >= 0 on [a, 1]: x = 1 cannot round it to 0
    beta_t = (a / c) * ((a - x) / c) + ((1.0 - x) / c + root) / c
    return beta, beta_t, ((x - (1.0 + a)) / c) ** 2 / beta_t


def limiting_density(x: float, a: float, lam: float) -> float:
    """Limiting spectral density at x; 0 outside the support, one-sided
    limits at exact edges (0 at a soft edge, 1/(lambda |x|) at a hard one).

    A density that does not evaluate to a finite float (at x = 0 from
    lambda ~ 1407, where rho(0) ~ 8e304) raises ArithmeticError naming a,
    lambda and x.
    """
    validate_a(a)
    validate_lambda(lam)
    try:
        rho = _density(x, a, lam)
    except ZeroDivisionError:  # a denominator underflowed under a huge rho
        rho = math.inf
    if not math.isfinite(rho):
        raise ArithmeticError(
            f"a={a}, lambda={lam}: the density at x={x} does not evaluate to a finite float"
        )
    return rho


def _density(x: float, a: float, lam: float) -> float:
    """``limiting_density`` without its parameter checks, for integrands
    whose caller checked (a, lambda) once rather than at every node.

    The t-window [e^(-lambda), 1] meets the kinks [alpha, beta] of
    :func:`_kinks`: not at all (0), wholly (plateau), or in part (arc),
    where rho = 2 atan(|x| w) / (pi lambda |x|).
    """
    if x < a or x > 1.0:
        return 0.0
    x, a, lam = float(x), float(a), float(lam)
    beta, beta_t, alpha_t = _kinks(x, a)
    h = math.exp(-0.5 * lam)
    tstar = -math.expm1(-lam)
    # beta - e^(-lambda); tstar - (1 - beta) cancels once beta is small (tiny
    # or huge |a|), beta - e^(-lambda) once e^(-lambda) nears 1
    gap = beta - math.exp(-lam) if beta < 0.5 else tstar - alpha_t
    if gap <= 0.0:
        return 0.0  # beta <= e^(-lambda)
    # alpha / e^(-lambda), from alpha itself: (1 - alpha) - tstar would vanish
    # at x = 0 once tstar rounds to 1 (lambda > ~37).  x is measured in units
    # of h, the arc's width, since x^2 on the arc turns subnormal at lambda
    # ~700; once h underflows too (lambda > ~1490) the arc is gone.  Near
    # x = 0 a denominator below underflows from lambda ~1407 (rho(0) ~ 8e304),
    # which :func:`limiting_density` refuses
    z = x / ((1.0 - a) * h) if h else math.inf
    ratio = z * z / beta  # z ** 2 would raise OverflowError, not give inf
    if ratio >= 1.0:
        return 1.0 / (lam * abs(x))
    w = math.sqrt(gap / (1.0 - ratio)) / (h * (1.0 - a) * beta)
    xw = abs(x) * w
    if xw < 1e-3:  # atan(xw) / xw, to 1e-19; it is 1 at x = 0
        return 2.0 / (math.pi * lam) * w * (1.0 - xw * xw / 3.0 + xw**4 / 5.0)
    return 2.0 / (math.pi * lam * abs(x)) * math.atan(xw)


# ---------------------------------------------------------------------------
# integration machinery


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, loaded on first use; every quadrature here
    goes through this name."""
    from scipy import integrate

    return integrate.quad(*args, **kwargs)


# absolute error target of every quadrature here; never make it looser
_TOL = 1e-10


def _quad(f: Callable[[float], float], lo: float, hi: float) -> float:
    if hi <= lo:
        return 0.0
    # full_output keeps scipy's IntegrationWarning off stderr: the test below
    # judges the result
    val, abserr = quad(f, lo, hi, epsabs=_TOL, epsrel=1e-11, limit=200, full_output=1)[:2]
    if not math.isfinite(val):
        raise ArithmeticError(
            f"quadrature returned a non-finite value on [{lo}, {hi}]"
        )
    if not abserr <= max(100.0 * _TOL, 1e-7 * max(1.0, abs(val))):  # NaN fails too
        raise ArithmeticError(
            f"quadrature did not converge: error estimate {abserr:.2e} "
            f"for target {_TOL:.2e}"
        )
    return val


def _half_arc(
    f: Callable[[float], float], e: float, sign: float, d: float, y_lo: float, y_hi: float
) -> float:
    """Integral of f(e + sign y) over y in [y_lo, y_hi], from an arc edge e
    that lies d inside its wall.  y = w^2 takes out the edge's square root.
    Near a phase threshold the wall's sqrt(d + y) in the t-kinks turns at
    y ~ d, inside the range, where QUADPACK's error estimate misses it; there
    y = d sinh^2(u) makes both smooth: sqrt(d) sinh(u) and sqrt(d) cosh(u)."""
    if not 0.0 < d < y_hi:
        return _quad(lambda w: 2.0 * w * f(e + sign * w * w), math.sqrt(y_lo), math.sqrt(y_hi))
    rd = math.sqrt(d)

    def g(u: float) -> float:
        s = rd * math.sinh(u)  # sqrt(y); s * s stays finite where sinh(u)^2 would not
        return 2.0 * s * rd * math.cosh(u) * f(e + sign * s * s)

    return _quad(g, math.asinh(math.sqrt(y_lo / d)), math.asinh(math.sqrt(y_hi / d)))


def _arc_integral(f: Callable[[float], float], hi: float, piece: Piece, a: float) -> float:
    """Integrate f over [piece.lo, hi] inside an arc piece, one half from
    each edge: the left edge lies e1 - a inside the wall a, the right one
    1 - e2 inside the wall 1."""
    e1, e2 = piece.lo, piece.hi
    mid = min(0.5 * (e1 + e2), hi)
    total = 0.0
    if mid > e1:
        total += _half_arc(f, e1, 1.0, e1 - a, 0.0, mid - e1)
    if hi > mid:
        total += _half_arc(f, e2, -1.0, 1.0 - e2, max(e2 - hi, 0.0), e2 - mid)
    return total


def _check_plateaus(pieces: Sequence[Piece], a: float, lam: float) -> None:
    """Refuse a support whose edges have lost their digits, before any
    integral over its plateaus."""
    if math.exp(-lam) < sys.float_info.min:
        raise ArithmeticError(
            f"lambda={lam}: e^(-lambda) underflowed below the normal floats, "
            "so the support edges have lost their digits"
        )
    for piece in pieces:
        # the arc always covers x = 0, where 1/(lambda |x|) is not integrable;
        # a plateau reaches 0 only once -a e^(-lambda) underflows, which
        # makes the half-width v 0 (a = -1e-20 at lambda = 700)
        if not piece.arc and piece.lo <= 0.0 <= piece.hi:
            raise ArithmeticError(
                f"a={a}, lambda={lam}: the plateau [{piece.lo}, {piece.hi}] "
                "reaches x = 0, so the support edges have lost their digits"
            )


def _integral(
    a: float, lam: float, hi: float, f: Callable[[float], float], plateau: Callable
) -> float:
    """Integral of f rho over the support up to hi.  ``plateau(lo, hi)`` is
    the closed form of int f(x) / (lambda |x|) dx over a sign-definite
    plateau piece; f rho is integrated over the arc by quadrature."""
    pieces = support(a, lam)
    _check_plateaus(pieces, a, lam)
    total = 0.0
    for piece in pieces:
        seg_hi = min(hi, piece.hi)
        if seg_hi <= piece.lo:
            continue
        if not piece.arc:
            total += plateau(piece.lo, seg_hi)
            continue
        try:
            total += _arc_integral(lambda x: f(x) * _density(x, a, lam), seg_hi, piece, a)
        except ArithmeticError as exc:
            raise ArithmeticError(f"a={a}, lambda={lam}: {exc}") from None
    return total


def density_cdf(x: float, a: float, lam: float) -> float:
    """CDF of the limiting density, by closed-form plateau masses plus
    adaptive quadrature of the arc with square-root substitutions."""
    plateau = lambda lo, hi: abs(math.log(hi / lo)) / lam
    return _integral(a, lam, float(x), lambda t: 1.0, plateau)


def density_moment(p: int, a: float, lam: float) -> float:
    """p-th moment of the limiting density; converges to the leading
    expansion coefficient of the scaled spectral moments."""
    if p < 0:
        raise DomainError("p must be nonnegative")

    def plateau(lo: float, hi: float) -> float:
        if p == 0:
            return abs(math.log(hi / lo)) / lam
        return math.copysign(1.0, lo) * (hi**p - lo**p) / (lam * p)

    return _integral(a, lam, math.inf, lambda x: x**p, plateau)


def _check_outside(y: float, pieces: Sequence[Piece]) -> None:
    """Refuse a y on the hull of the support, where both transforms' integrands are singular."""
    lower, upper = pieces[0].lo, pieces[-1].hi
    if not (y > upper or y < lower):
        raise DomainError(
            f"y={y} must lie outside [{lower}, {upper}] for the integral form"
        )


def stieltjes(y: float, a: float, lam: float) -> float:
    """Stieltjes transform G(y) via its one-dimensional integral form
    (1/lambda) int_0^(1-s) dt / ((1-t) sqrt((y-(a+1)(1-t))^2 + 4at(1-t))),
    taken in v = log(1-t) over [-lambda, 0], where dt / (1-t) = -dv.

    ``y`` must lie outside the interval where the square root can vanish;
    the violated bound is named otherwise.  An independent route for tests
    is :func:`stieltjes_via_density`.
    """
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

    def g(v: float) -> float:
        one_t = math.exp(v)
        r = (y - (a + 1.0) * one_t) / c
        quadratic = r * r + 4.0 * (a / c) * (-math.expm1(v) / c) * one_t
        return branch / (c * math.sqrt(quadratic))

    return _quad(g, -lam, 0.0) / lam


def stieltjes_via_density(y: float, a: float, lam: float) -> float:
    """Defining integral int rho(x) / (y - x) dx, for cross-validation.  On a
    plateau 1 / (x (y - x)) = (1/x + 1/(y - x)) / y gives a closed form."""
    _check_outside(y, support(a, lam))
    plateau = lambda lo, hi: math.copysign(1.0, lo) * (
        math.log(hi / lo) + math.log((y - lo) / (y - hi))
    ) / (lam * y)
    return _integral(a, lam, math.inf, lambda x: 1.0 / (y - x), plateau)


@cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n-point Gauss-Legendre rule on [-1, 1] from numpy's leggauss,
    built on first use and kept read-only."""
    import numpy as np

    x, w = np.polynomial.legendre.leggauss(n)
    x.flags.writeable = w.flags.writeable = False
    return x, w


# Order of the Gauss-Legendre rule for each of the two parts of the
# arcsine-mixture CDF.  With 64 nodes every value lies within 2e-13 of a
# 30-digit evaluation of the mixture, up to lambda = 1440 and |x| = 1e-300
# (1.3e-13 at x = +-1e-300, lambda = 1440; 48 nodes: 6e-11 there).
_GL_ORDER = 64
# points per block, so the (points x nodes) work arrays stay small
_BLOCK = 128
# below v = v_hi - _V_SPAN, in v = log(1-t), the measure ds = e^v dv / (lambda t)
# (t >= 1/2, e^v_hi <= 1 - e^-lambda <= lambda) holds less than 2 e^-45 < 1e-19
_V_SPAN = 45.0


def _kink_rule(
    near: np.ndarray, far: np.ndarray, lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Nodes z and weights w, one row per point, with sum(f(z) w) ~ the
    integral of f over [lo, hi], after the cosine substitution
    z = near + (far - near) sin^2(theta/2).  The map is flat at both kinks
    near and far, which takes out the square-root behaviour of f there.
    [lo, hi] lies between near and far, in either order of the two."""
    import numpy as np

    nodes, weights = _gauss_legendre(_GL_ORDER)
    span = far - near

    def angle(z: np.ndarray) -> np.ndarray:
        return 2.0 * np.arctan2(np.sqrt((z - near) / span), np.sqrt((far - z) / span))

    th_lo = angle(lo)[:, None]
    half = 0.5 * (angle(hi)[:, None] - th_lo)
    theta = th_lo + half * (1.0 + nodes)
    z = near[:, None] + span[:, None] * np.sin(0.5 * theta) ** 2
    w = half * weights * (0.5 * span[:, None]) * np.sin(theta)
    return z, w


def _arcsine_cdf(y: np.ndarray) -> np.ndarray:
    """CDF of the arcsine law on [-1, 1]; |y| can pass 1 by rounding."""
    import numpy as np

    return 0.5 + np.arcsin(np.clip(y, -1.0, 1.0)) / math.pi


def _mixture_cdf(x: np.ndarray, a: float, lam: float) -> np.ndarray:
    """Arcsine-mixture CDF at points strictly inside (a, 1), for every a < 0.

    With t = e^(-lambda s), |x - b| < 2r holds for t between the kinks
    alpha <= beta of :func:`_kinks`.  Below alpha the integrand is [x > 0],
    above beta it is [x > 1+a], so that mass is a length in s.  Between them
    it is integrated in two parts: t <= 1/2 in s, where t = 0 lies at
    s = +inf, and t >= 1/2 in v = log(1 - t), where t = 1 (r = 0, a pole of
    the arcsine argument) lies at v = -inf.  So a kink close to t = 0 or
    t = 1 (x near 0 or near 1+a) sits next to no other singular point of
    its part.
    """
    import numpy as np

    beta, beta_t, alpha_t = _kinks(x, a)  # beta, 1 - alpha, 1 - beta
    eps = x - (1.0 + a)
    with np.errstate(divide="ignore"):  # x = 0 or x = 1 + a
        log_x = np.log(np.abs(x))
        s_alpha = -(2.0 * log_x - 2.0 * math.log(1.0 - a) - np.log(beta)) / lam
        v_beta = np.log(alpha_t)
    s_beta = -np.log(beta) / lam
    v_alpha = np.log(beta_t)
    cdf = np.where(x > 0.0, np.maximum(0.0, 1.0 - s_alpha), 0.0)
    cdf += np.where(eps > 0.0, np.minimum(1.0, s_beta), 0.0)

    # between the kinks |y| <= 1, so neither numerator term below overflows
    lo = np.maximum(s_beta, math.log(2.0) / lam)
    hi = np.minimum(s_alpha, 1.0)
    k = np.flatnonzero(lo < hi)
    # hi <= 1, so a kink beyond s = 2 is at least the part's length away
    s, w = _kink_rule(s_beta[k], np.minimum(s_alpha[k], 2.0), lo[k], hi[k])
    # x / sqrt(t) through logs: no 0/0 where x = 0 and t underflows
    x_rt = np.sign(x[k])[:, None] * np.exp(log_x[k][:, None] + 0.5 * lam * s)
    y = (x_rt - (1.0 + a) * np.exp(-0.5 * lam * s)) / (
        2.0 * np.sqrt(-a * -np.expm1(-lam * s))
    )
    cdf[k] += (_arcsine_cdf(y) * w).sum(axis=1)

    hi = np.minimum(np.minimum(v_alpha, -math.log(2.0)), math.log(-math.expm1(-lam)))
    lo = np.maximum(v_beta, hi - _V_SPAN)
    k = np.flatnonzero(lo < hi)
    v, w = _kink_rule(v_alpha[k], lo[k], lo[k], hi[k])
    t = -np.expm1(v)
    y = (eps[k][:, None] * np.exp(-0.5 * v) + (1.0 + a) * np.exp(0.5 * v)) / (
        2.0 * np.sqrt(-a * t)
    )
    cdf[k] += (_arcsine_cdf(y) * w * np.exp(v) / (lam * t)).sum(axis=1)
    return np.clip(cdf, 0.0, 1.0)  # the sums can step past 1 by an ulp


def cdf_at_sorted(xs: Sequence[float], a: float, lam: float) -> np.ndarray:
    """CDF of the limiting density at an ascending array of points, as the
    limiting zero distribution of the recurrence: the mixture of arcsine laws
    CDF(x) = int_0^1 F((x - b(s)) / (2 r(s))) ds, with b(s) = (1+a) e^(-lambda s),
    r(s)^2 = -a e^(-lambda s) (1 - e^(-lambda s)) and F the arcsine CDF on
    [-1, 1] (Kuijlaars and Van Assche, J. Approx. Theory 99 (1999)).

    No adaptive quadrature is involved: a fixed Gauss-Legendre rule after a
    cosine substitution at the kinks, for every a < 0 alike.  -inf and +inf
    give 0 and 1; NaN is refused.
    """
    import numpy as np

    validate_a(a)
    validate_lambda(lam)
    xs = np.asarray(xs, dtype=float)
    if np.isnan(xs).any():
        raise DomainError("points must not be NaN")
    if np.any(np.diff(xs) < 0):
        raise DomainError("points must be sorted ascending")
    vals = (xs >= 1.0).astype(float)
    inside = np.flatnonzero((xs > a) & (xs < 1.0))
    for start in range(0, inside.size, _BLOCK):
        k = inside[start : start + _BLOCK]
        vals[k] = _mixture_cdf(xs[k], a, lam)
    return vals


def zero_distribution_distance(a: float, lam: float, N: int) -> float:
    """Kolmogorov-Smirnov distance between the empirical distribution of
    the N polynomial zeros at q = e^(-lambda/N) and the limiting CDF."""
    import numpy as np

    if N < 10:
        raise DomainError("N must be at least 10")
    validate_lambda(lam)  # before it enters q; EnsembleParams checks a
    q = math.exp(-lam / N)
    zs = zeros(EnsembleParams(a=float(a), q=q, N=N))
    limit_cdf = cdf_at_sorted(zs, a, lam)
    i = np.arange(N)
    return float(
        np.maximum(limit_cdf - i / N, (i + 1) / N - limit_cdf).max()
    )

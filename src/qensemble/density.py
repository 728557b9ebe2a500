"""Limiting spectral density, its phase regimes, CDF and moments.

The density on (a, 1) under the scaling q = e^(-lambda/N) consists of an
arctan bulge supported on (u-v, u+v) plus, depending on lambda, plateau
pieces where it equals 1/(lambda |x|) exactly.  The number of soft edges
drops from two to one to zero as lambda crosses log(1-a) and
log(1-a) - log(-a).

The formulas hold for every a < 0, with no case split at a = -1: the
density and its support are evaluated directly, and both the density and
the mixture CDF below read the t-kinks from :func:`_kinks`.  The map of
a < -1 to the 1/a ensemble under x -> x/a (the exact moment symmetry
m^(1/a) = a^(-p) m^(a)) is therefore a property the tests check, not a
definition; only :func:`regime` folds a < -1 to 1/a, to report the
thresholds of 1/a.

The CDF has two routes.  :func:`density_cdf`, like :func:`density_moment`,
is one call of :func:`_integral`: a closed form on each plateau and, on
each half of the arc, a 64-point Gauss-Legendre rule whose distance from
a 48-point rule is its error estimate, which :func:`quad` judges against
one absolute target.  :func:`_arc_samples` keeps the density's samples at
the nodes of an arc for the next moment of the same (a, lambda).  On the
arc :func:`_density` takes beta - e^(-lambda) without cancellation at tiny
or huge |a|, and x - (1+a) from the edge's offset.  An arc too narrow for the digits of x
(small lambda, centre far from 0) has its mass and first two moments
checked against their closed forms first, and is refused when one misses.
:func:`cdf_at_sorted` is the limiting zero distribution of the recurrence,
a mixture of arcsine laws (Kuijlaars and Van Assche, J. Approx. Theory 99
(1999)), on the same 64-point rule.  Their agreement, which the acceptance
check C09 tests, checks the claim that the density is the zero
distribution: the closed-form density and the arcsine mixture are
different integrands.

The density, its regime and its support are scalar :mod:`math`.  numpy
enters with the Gauss-Legendre nodes, which the integrals and the mixture
CDF take from its ``leggauss``; no function here loads scipy, and importing
this module loads neither.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from functools import cache, lru_cache
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
    t = -math.expm1(-lam)  # 1 - e^(-lambda): 1.0 - s cancels at small lambda
    # v from sqrt(-a t) e^(-lambda/2): the radicand -a t s is subnormal at
    # a = -1e-15, lambda = 708, where its square root lost several percent.
    # v is 0 only where that radicand underflows to 0, which support refuses
    v = 2.0 * math.sqrt(-a * t) * math.exp(-0.5 * lam) if -a * t * s else 0.0
    return (1.0 + a) * s, v


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

    The arc always covers x = 0, where 1/(lambda |x|) is not integrable.  A
    plateau reaches past 0 only once -a e^(-lambda) underflows, which makes
    the half-width v 0 while the centre u is not (a = -1e-20 at
    lambda = 700); such a support has lost its digits and is refused with
    an ArithmeticError naming a and lambda.  Once e^(-lambda) underflows
    too (lambda > ~745), u = v = 0 and the plateaus only end at 0.
    """
    kind = regime(a, lam).kind
    u, v = edge_params(a, lam)
    mixed = kind is RegimeKind.SOFT_HARD_MIXED
    both = kind is RegimeKind.TWO_HARD_EDGES
    left = (Piece(a, u - v, arc=False),) if both or (mixed and a < -1) else ()
    right = (Piece(u + v, 1.0, arc=False),) if both or (mixed and a > -1) else ()
    for piece in left + right:
        if piece.lo < 0.0 < piece.hi:
            raise ArithmeticError(
                f"a={a}, lambda={lam}: the plateau [{piece.lo}, {piece.hi}] "
                "reaches x = 0, so the support edges have lost their digits"
            )
    return left + (Piece(u - v, u + v, arc=True),) + right


def _kinks(x: float | np.ndarray, a: float, eps: float | np.ndarray) -> tuple:
    """The t-kinks alpha <= beta, the roots of
    (1-a)^2 t^2 + (4a - 2x(1+a)) t + x^2, as (beta, 1 - alpha, 1 - beta),
    for x in [a, 1]: a float or an ndarray, with eps = x - (1+a).

    Each is formed without cancellation, and every term is scaled by
    1/(1-a), so that |a| up to the float limit cannot overflow.  Their
    product gives alpha = (x/(1-a))^2 / beta.
    """
    c = 1.0 - a
    root = 2.0 * ((-a / c) * ((x - a) / c) * (1.0 - x)) ** 0.5
    beta = ((1.0 + a) * (x / c) - 2.0 * (a / c) + root) / c
    # 1 - alpha as terms >= 0 on [a, 1]: x = 1 cannot round it to 0
    beta_t = (a / c) * ((a - x) / c) + ((1.0 - x) / c + root) / c
    return beta, beta_t, (eps / c) ** 2 / beta_t


def limiting_density(x: float, a: float, lam: float) -> float:
    """Limiting spectral density at x; 0 outside the support, one-sided
    limits at exact edges (0 at a soft edge, 1/(lambda |x|) at a hard one).

    A density that does not evaluate to a finite float (at x = 0 from
    lambda ~ 1407, where rho(0) ~ 8e304) raises ArithmeticError naming a,
    lambda and x.
    """
    validate_a(a)
    validate_lambda(lam)
    if x < a or x > 1.0:  # before x - (1+a), which an exact x past the floats overflows
        return 0.0
    try:
        rho = _density(x, a, lam, float(x) - (1.0 + a))
    except ZeroDivisionError:  # a denominator underflowed under a huge rho
        rho = math.inf
    if not math.isfinite(rho):
        raise ArithmeticError(
            f"a={a}, lambda={lam}: the density at x={x} does not evaluate to a finite float"
        )
    return rho


def _density(x: float, a: float, lam: float, eps: float) -> float:
    """``limiting_density`` without its parameter checks, for integrands
    whose caller checked (a, lambda) once rather than at every node, with
    eps = x - (1+a), which an arc node has to more digits than x.

    The t-window [e^(-lambda), 1] meets the kinks [alpha, beta] of
    :func:`_kinks`: not at all (0), wholly (plateau), or in part (arc),
    where rho = 2 atan(|x| w) / (pi lambda |x|).
    """
    if x < a or x > 1.0:
        return 0.0
    x, a, lam = float(x), float(a), float(lam)
    beta, beta_t, alpha_t = _kinks(x, a, eps)
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

# absolute error target of every quadrature here; never make it looser
_TOL = 1e-10

# Gauss-Legendre orders on each half of an arc: the first gives the value,
# its difference from the second the error estimate
_ARC_RULES = (64, 48)


def quad(f: Callable[[float], float], rules: tuple) -> float:
    """Sum of f(x) w over the nodes of the first rule in ``rules`` (see
    :func:`_arc_samples`), refused unless its distance from the sum over the
    second is within the target.  Every arc integral goes through this name."""
    val, check = (sum(f(x) * w for x, w in zip(xs, ws)) for xs, ws in rules)
    abserr = abs(val - check)
    if not math.isfinite(val):
        raise ArithmeticError("quadrature returned a non-finite value")
    if not abserr <= max(100.0 * _TOL, 1e-7 * max(1.0, abs(val))):  # NaN fails too
        raise ArithmeticError(
            f"quadrature did not converge: error estimate {abserr:.2e} "
            f"for target {_TOL:.2e}"
        )
    return val


@lru_cache(maxsize=8)
def _arc_samples(a: float, lam: float, arc: Piece, hi: float) -> tuple:
    """Nodes x and their weights times rho(x) over [arc.lo, hi] inside an
    arc, for each rule of ``_ARC_RULES``: one half from each edge e, with
    x = e + sign y over a range of y, where e lies d inside its wall (the
    left edge inside a, the right one inside 1).  They do not depend on what
    is integrated against the density, so every moment of one (a, lambda)
    shares them.  y = w^2 takes out the edge's square root.  Near a phase
    threshold the wall's sqrt(d + y) in the t-kinks turns at y ~ d, inside
    the range, where a rule in w misses it; there y = d sinh^2(u) makes both
    smooth: sqrt(d) sinh(u) and sqrt(d) cosh(u).  The density takes x - (1+a)
    as the edge's offset plus sign y: across a narrow arc far from 0 the
    rounded x has too few digits for it."""
    e1, e2 = arc.lo, arc.hi
    mid = min(0.5 * (e1 + e2), hi)
    halves = []
    # per edge: e, sign, d, the range of y, and whether [e1, mid] or [mid, hi] is not empty
    for e, sign, d, (y_lo, y_hi), kept in (
        (e1, 1.0, e1 - a, (0.0, mid - e1), mid > e1),
        (e2, -1.0, 1.0 - e2, (max(e2 - hi, 0.0), e2 - mid), hi > mid),
    ):
        if not kept:
            continue
        wall = 0.0 < d < y_hi
        if wall:
            rd = math.sqrt(d)
            lo, top = math.asinh(math.sqrt(y_lo / d)), math.asinh(math.sqrt(y_hi / d))
        else:
            lo, top = math.sqrt(y_lo), math.sqrt(y_hi)
        centre, half = 0.5 * (lo + top), 0.5 * (top - lo)
        rules = []
        for n in _ARC_RULES:
            nodes, weights = _gauss_legendre(n)
            xs, ws = [], []
            for u, hw in zip((centre + half * nodes).tolist(), (half * weights).tolist()):
                if wall:
                    s = rd * math.sinh(u)  # sqrt(y); s * s stays finite where sinh(u)^2 would not
                    jac = 2.0 * s * rd * math.cosh(u)
                else:
                    s, jac = u, 2.0 * u
                y = sign * s * s
                xs.append(e + y)
                ws.append(hw * jac * _density(e + y, a, lam, e - (1.0 + a) + y))
            rules.append((tuple(xs), tuple(ws)))
        halves.append(tuple(rules))
    return tuple(halves)


def _arc_integral(
    f: Callable[[float], float], a: float, lam: float, arc: Piece, hi: float
) -> float:
    """Integral of f rho over [arc.lo, hi] inside an arc piece."""
    return sum((quad(f, half) for half in _arc_samples(a, lam, arc, hi)), 0.0)


def _check_underflow(lam: float) -> None:
    """Refuse a support whose edges have lost their digits to an underflowed
    e^(-lambda), before any integral over its plateaus."""
    if math.exp(-lam) < sys.float_info.min:
        raise ArithmeticError(
            f"lambda={lam}: e^(-lambda) underflowed below the normal floats, "
            "so the support edges have lost their digits"
        )


def _plateau_moment(p: int, lo: float, hi: float, lam: float) -> float:
    """p-th moment of 1/(lambda |x|) over a sign-definite plateau [lo, hi];
    its mass at p = 0."""
    if p == 0:
        return abs(math.log(hi / lo)) / lam
    return math.copysign(1.0, lo) * (hi**p - lo**p) / (lam * p)


# an arc whose centre lies more than this many half-widths from 0 has its
# quadrature moments checked: x carries few digits across such an arc, and
# below this the mass was never off by more than 5e-13
_NARROW = 1e4


def _check_narrow_arc(arc: Piece, pieces: Sequence[Piece], a: float, lam: float) -> None:
    """Refuse a narrow arc whose quadrature mass, first or second moment
    misses its closed form, m_p0 minus the plateau moments, by more than
    10 ``_TOL`` max(1, |a|)^p: there x has too few digits across
    the arc for any integral over it (at lambda = 1e-200 the mass came out
    0, and at a = -1e-12, lambda = 1e-8 the first moment was 2e-9 off while
    the mass passed)."""
    if abs(arc.lo + arc.hi) <= _NARROW * (arc.hi - arc.lo):
        return
    # loaded here: the density command and the grid never integrate
    from .asymptotics import ScalingParams, m_p0

    sp = ScalingParams(a=a, lam=lam)
    scale = max(1.0, -a)  # the largest |x| on the support [a, 1]
    for p, what in enumerate(("mass", "first moment", "second moment")):
        try:
            want = m_p0(p, sp) - sum(
                _plateau_moment(p, piece.lo, piece.hi, lam) for piece in pieces if not piece.arc
            )
            got = _arc_integral(lambda x: x**p, a, lam, arc, arc.hi)
        except ArithmeticError:
            if not p:
                raise
            # x^p is past the float range, or its quadrature does not
            # converge: density_moment(p) refuses it by itself
            continue
        miss = abs(got - want)
        if not miss <= 10.0 * _TOL * scale**p:
            raise ArithmeticError(
                f"the arc [{arc.lo}, {arc.hi}] is too narrow for the digits of x: "
                f"its {what} is off by {miss:.1e}"
            )


def _integral(
    a: float, lam: float, hi: float, f: Callable[[float], float], plateau: Callable
) -> float:
    """Integral of f rho over the support up to hi.  ``plateau(lo, hi)`` is
    the closed form of int f(x) / (lambda |x|) dx over a sign-definite
    plateau piece; f rho is integrated over the arc by quadrature."""
    _check_underflow(lam)
    pieces = support(a, lam)
    total = 0.0
    for piece in pieces:
        seg_hi = min(hi, piece.hi)
        if not piece.arc:
            if seg_hi > piece.lo:
                total += plateau(piece.lo, seg_hi)
            continue
        try:
            # before the empty-range test: an arc below the float spacing is empty
            _check_narrow_arc(piece, pieces, a, lam)
            if seg_hi > piece.lo:
                total += _arc_integral(f, a, lam, piece, seg_hi)
        except ArithmeticError as exc:
            raise ArithmeticError(f"a={a}, lambda={lam}: {exc}") from None
    return total


def density_cdf(x: float, a: float, lam: float) -> float:
    """CDF of the limiting density, by closed-form plateau masses plus
    Gauss-Legendre rules on the arc after square-root substitutions."""
    plateau = lambda lo, hi: _plateau_moment(0, lo, hi, lam)
    return _integral(a, lam, float(x), lambda t: 1.0, plateau)


def density_moment(p: int, a: float, lam: float) -> float:
    """p-th moment of the limiting density; converges to the leading
    expansion coefficient of the scaled spectral moments."""
    if p < 0:
        raise DomainError("p must be nonnegative")
    plateau = lambda lo, hi: _plateau_moment(p, lo, hi, lam)
    return _integral(a, lam, math.inf, lambda x: x**p, plateau)


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

    eps = x - (1.0 + a)
    beta, beta_t, alpha_t = _kinks(x, a, eps)  # beta, 1 - alpha, 1 - beta
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

    A fixed Gauss-Legendre rule after a cosine substitution at the kinks,
    for every a < 0 alike, and no density values.  -inf and +inf
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

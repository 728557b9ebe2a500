"""Limiting spectral density, its phase regimes, CDF, moments and transform.

The density on (a, 1) under the scaling q = e^(-lambda/N) consists of an
arctan bulge supported on (u-v, u+v) plus, depending on lambda, plateau
pieces where it equals 1/(lambda |x|) exactly.  The number of soft edges
drops from two to one to zero as lambda crosses log(1-a) and
log(1-a) - log(-a).

Explicit formulas apply for a in [-1, 0); a < -1 is the pushforward of the
1/a ensemble under x -> x/a (consistent with the exact moment symmetry
m^(1/a) = a^(-p) m^(a)).  :func:`regime` and :func:`support` accept every
a < 0 and are the one place that map sets the phase and the support
pieces; the density and its Stieltjes transform apply it pointwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
import scipy

from .moments import EnsembleParams
from .orthopoly import zeros
from .qcore import DomainError, validate_a, validate_lambda


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
    v = 2 sqrt(-a (1-e^(-lambda)) e^(-lambda)), for a in [-1, 0)."""
    if not -1 <= a < 0:
        raise DomainError(f"edge_params requires a in [-1, 0), got a={a}")
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
    """Ordered arc and plateau pieces of the support, for every a < 0;
    for a < -1, the pieces of 1/a mapped under x -> a x."""
    kind = regime(a, lam).kind
    unit_a = 1.0 / a if a < -1 else a
    u, v = edge_params(unit_a, lam)
    arc = Piece(u - v, u + v, arc=True)
    if kind is RegimeKind.TWO_SOFT_EDGES:
        pieces: tuple[Piece, ...] = (arc,)
    elif kind is RegimeKind.SOFT_HARD_MIXED:
        pieces = (arc, Piece(u + v, 1.0, arc=False))
    else:
        pieces = (Piece(unit_a, u - v, arc=False), arc, Piece(u + v, 1.0, arc=False))
    if a < -1:
        return tuple(Piece(a * p.hi, a * p.lo, p.arc) for p in reversed(pieces))
    return pieces


def x0x1(x: float, a: float) -> tuple[float, float]:
    """Roots-of-the-resolvent pair:
    x0 = (a^2 + 1 - x(a+1)) / (a-1)^2, x1 = sqrt(4a(x-a)(x-1)) / (a-1)^2."""
    validate_a(a)
    radicand = 4.0 * a * (x - a) * (x - 1.0)
    if radicand < 0:
        raise DomainError(f"x={x} outside [a, 1]: negative radicand")
    denom = (a - 1.0) ** 2
    return (a * a + 1.0 - x * (a + 1.0)) / denom, math.sqrt(radicand) / denom


def _density_unit(x: float, a: float, lam: float) -> float:
    """Density for a in [-1, 0) at x in [a, 1].

    The arctan argument is evaluated through the cancellation-free identity
    1 - x0 - x1 = x^2 / (x(a+1) - 2a + sqrt(4a(x-a)(x-1))), which makes the
    removable singularity at x = 0 explicit and keeps soft-edge values
    accurate.
    """
    s = math.exp(-lam)
    tstar = 1.0 - s
    T = x * (a + 1.0) - 2.0 * a
    P = 4.0 * a * (x - a) * (x - 1.0)
    sqrt_p = math.sqrt(max(P, 0.0))
    denom2 = (a - 1.0) ** 2
    beta = (a * a + 1.0 - x * (a + 1.0) + sqrt_p) / denom2  # x0 + x1
    alpha = (x - (a + 1.0)) ** 2 / (denom2 * beta)  # x0 - x1, via the product
    if tstar <= alpha:
        return 0.0  # no overlap with the spectral t-window
    # beta - tstar as s - (1 - beta): tstar rounds to 1 = beta(0) once
    # lambda > ~37, and the difference would then vanish at x = 0
    gap = s - x * x / (T + sqrt_p)
    if gap <= 0.0:
        return 1.0 / (lam * abs(x))  # full overlap: plateau
    w = (1.0 - a) / (T + sqrt_p) * math.sqrt((tstar - alpha) / gap)
    ax = abs(x)
    if ax < 1e-6:
        xw = ax * w
        return 2.0 / (math.pi * lam) * w * (1.0 - xw * xw / 3.0 + xw**4 / 5.0)
    return 2.0 / (math.pi * lam * ax) * math.atan(ax * w)


def limiting_density(x: float, a: float, lam: float) -> float:
    """Limiting spectral density at x; 0 outside the support, one-sided
    limits at exact edges (0 at a soft edge, 1/(lambda |x|) at a hard one)."""
    validate_a(a)
    validate_lambda(lam)
    return _density(x, a, lam)


def _density(x: float, a: float, lam: float) -> float:
    """``limiting_density`` without its parameter checks, for integrands
    whose caller checked (a, lambda) once rather than at every node."""
    if a < -1:
        return (-1.0 / a) * _density(x / a, 1.0 / a, lam)
    if x < a or x > 1.0:
        return 0.0
    return _density_unit(float(x), float(a), float(lam))


# ---------------------------------------------------------------------------
# integration machinery


def quad(*args, **kwargs):
    """``scipy.integrate.quad``, loaded on first use; every quadrature here
    goes through this name."""
    return scipy.integrate.quad(*args, **kwargs)


def _quad(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    if hi <= lo:
        return 0.0
    val, abserr = quad(f, lo, hi, epsabs=tol, epsrel=1e-11, limit=200)
    if not math.isfinite(val):
        raise ArithmeticError(
            f"quadrature returned a non-finite value on [{lo}, {hi}]"
        )
    if not abserr <= max(100.0 * tol, 1e-7 * max(1.0, abs(val))):  # NaN fails too
        raise ArithmeticError(
            f"quadrature did not converge: error estimate {abserr:.2e} "
            f"for target {tol:.2e}"
        )
    return val


def _arc_integral(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    piece: Piece,
    tol: float,
) -> float:
    """Integrate f over [lo, hi] inside an arc piece, removing the
    square-root edge behaviour by substituting x = e +/- w^2 on each half."""
    if hi <= lo:
        return 0.0
    e1, e2 = piece.lo, piece.hi
    mid = min(max(0.5 * (e1 + e2), lo), hi)
    total = 0.0
    if mid > lo:  # left half: x = e1 + w^2
        w_lo = math.sqrt(max(lo - e1, 0.0))
        w_hi = math.sqrt(mid - e1)
        total += _quad(lambda w: 2.0 * w * f(e1 + w * w), w_lo, w_hi, tol)
    if hi > mid:  # right half: x = e2 - w^2
        w_lo = math.sqrt(max(e2 - hi, 0.0))
        w_hi = math.sqrt(e2 - mid)
        total += _quad(lambda w: 2.0 * w * f(e2 - w * w), w_lo, w_hi, tol)
    return total


def _plateau_mass(p: int, lam: float, lo: float, hi: float) -> float:
    """Closed form of int_lo^hi x^p / (lambda |x|) dx on a sign-definite
    interval (plateau pieces never straddle 0)."""
    if hi <= lo:
        return 0.0
    if p == 0:
        if lo == 0.0 or hi == 0.0:
            raise ArithmeticError(
                f"lambda={lam}: a support edge underflowed to 0, so the "
                "plateau mass log(|hi|/|lo|) / lambda is infinite"
            )
        return abs(math.log(abs(hi) / abs(lo))) / lam
    sign = 1.0 if lo > 0 else -1.0
    return sign * (hi**p - lo**p) / (lam * p)


def _mass(
    pieces: Sequence[Piece], a: float, lam: float, lo: float, hi: float, p: int, tol: float
) -> float:
    """Integral of x^p rho over [lo, hi] across the support pieces."""
    total = 0.0
    for piece in pieces:
        seg_lo, seg_hi = max(lo, piece.lo), min(hi, piece.hi)
        if seg_hi <= seg_lo:
            continue
        if not piece.arc:
            total += _plateau_mass(p, lam, seg_lo, seg_hi)
        else:
            f = (lambda x: _density(x, a, lam)) if p == 0 else (
                lambda x: x**p * _density(x, a, lam)
            )
            try:
                total += _arc_integral(f, seg_lo, seg_hi, piece, tol)
            except ArithmeticError as exc:
                raise ArithmeticError(f"a={a}, lambda={lam}: {exc}") from None
    return total


def density_cdf(x: float, a: float, lam: float) -> float:
    """CDF of the limiting density, by closed-form plateau masses plus
    adaptive quadrature of the arc with square-root substitutions."""
    pieces = support(a, lam)
    return _mass(pieces, a, lam, pieces[0].lo, float(x), 0, 1e-10)


def density_moment(p: int, a: float, lam: float) -> float:
    """p-th moment of the limiting density; converges to the leading
    expansion coefficient of the scaled spectral moments."""
    if p < 0:
        raise DomainError("p must be nonnegative")
    pieces = support(a, lam)
    return _mass(pieces, a, lam, pieces[0].lo, pieces[-1].hi, p, 1e-9)


def stieltjes(y: float, a: float, lam: float) -> float:
    """Stieltjes transform G(y) via its one-dimensional t-integral form
    (1/lambda) int_0^(1-s) dt / ((1-t) sqrt((y-(a+1)(1-t))^2 + 4at(1-t))).

    ``y`` must lie outside the interval where the square root can vanish;
    the violated bound is named otherwise.  An independent route for tests
    is :func:`stieltjes_via_density`.
    """
    pieces = support(a, lam)  # also checks (a, lambda)
    if a < -1:
        return (1.0 / a) * stieltjes(y / a, 1.0 / a, lam)
    s = math.exp(-lam)
    if abs(y) <= abs(a + 1.0) * s:
        raise DomainError(
            f"|y|={abs(y)} must exceed |a+1| e^-lambda = {abs(a + 1) * s}"
        )
    lower, upper = pieces[0].lo, pieces[-1].hi
    if not (y > upper or y < lower):
        raise DomainError(
            f"y={y} must lie outside [{lower}, {upper}] for the integral form"
        )

    # analytic branch: the square root behaves like y - (a+1)(1-t), which is
    # negative throughout the t-window when y lies left of the support
    branch = 1.0 if y > upper else -1.0

    def g(t: float) -> float:
        quadratic = (y - (a + 1.0) * (1.0 - t)) ** 2 + 4.0 * a * t * (1.0 - t)
        return branch / ((1.0 - t) * math.sqrt(quadratic))

    return _quad(g, 0.0, 1.0 - s, 1e-10) / lam


def stieltjes_via_density(y: float, a: float, lam: float) -> float:
    """Defining integral int rho(x) / (y - x) dx, for cross-validation."""
    total = 0.0
    for piece in support(a, lam):
        f = lambda x: _density(x, a, lam) / (y - x)
        if piece.arc:
            total += _arc_integral(f, piece.lo, piece.hi, piece, 1e-10)
        else:
            total += _quad(f, piece.lo, piece.hi, 1e-10)
    return total


def cdf_at_sorted(xs: Sequence[float], a: float, lam: float) -> np.ndarray:
    """CDF of the limiting density at an ascending array of points,
    accumulated segment by segment so each region is integrated once."""
    xs = np.asarray(xs, dtype=float)
    if np.any(np.diff(xs) < 0):
        raise DomainError("points must be sorted ascending")
    vals = np.empty(xs.size)
    pieces = support(a, lam)
    cursor = pieces[0].lo
    cum = 0.0
    for i, x in enumerate(xs):
        cum += _mass(pieces, a, lam, cursor, float(x), 0, 1e-9)
        vals[i] = cum
        cursor = float(x)
    return vals


def zero_distribution_distance(a: float, lam: float, N: int) -> float:
    """Kolmogorov-Smirnov distance between the empirical distribution of
    the N polynomial zeros at q = e^(-lambda/N) and the limiting CDF."""
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

"""Limiting spectral density, its phase regimes, CDF, moments and transform.

The density on (a, 1) under the scaling q = e^(-lambda/N) consists of an
arctan bulge supported on (u-v, u+v) plus, depending on lambda, plateau
pieces where it equals 1/(lambda |x|) exactly.  The number of soft edges
drops from two to one to zero as lambda crosses log(1-a) and
log(1-a) - log(-a).

Explicit formulas apply for a in [-1, 0); a < -1 is the pushforward of the
1/a ensemble under x -> x/a (consistent with the exact moment symmetry
m^(1/a) = a^(-p) m^(a)), so every evaluator here routes a < -1 through that
map.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from .moments import EnsembleParams
from .orthopoly import zeros
from .qcore import DomainError, validate_lambda


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
class SupportSpec:
    u: float
    v: float
    intervals: tuple[tuple[float, float], ...]


def reflect(a: float) -> float:
    """Symmetry pivot a -> 1/a mapping (-inf, -1) onto (-1, 0)."""
    if not a < 0:
        raise DomainError(f"a must be negative, got {a}")
    return 1.0 / a


def _check_unit_range(a: float) -> None:
    if not -1 <= a < 0:
        raise DomainError(
            f"explicit formulas require a in [-1, 0); got a={a} "
            "(apply the reflect() symmetry map first)"
        )


def edge_params(a: float, lam: float) -> tuple[float, float]:
    """Bulge center u = (1+a) e^(-lambda) and half-width
    v = 2 sqrt(-a (1-e^(-lambda)) e^(-lambda))."""
    _check_unit_range(a)
    validate_lambda(lam)
    s = math.exp(-lam)
    return (1.0 + a) * s, 2.0 * math.sqrt(-a * (1.0 - s) * s)


def regime(a: float, lam: float) -> DensityRegime:
    """Classify lambda against the two phase thresholds.

    Boundary values are assigned to the larger-lambda regime.  At a = -1
    the thresholds coincide and the mixed phase is empty.
    """
    _check_unit_range(a)
    validate_lambda(lam)
    lambda1 = math.log(1.0 - a)
    lambda2 = lambda1 - math.log(-a)
    if lam < lambda1:
        kind = RegimeKind.TWO_SOFT_EDGES
    elif lam < lambda2:
        kind = RegimeKind.SOFT_HARD_MIXED
    else:
        kind = RegimeKind.TWO_HARD_EDGES
    return DensityRegime(kind=kind, lambda1=lambda1, lambda2=lambda2)


def support(a: float, lam: float) -> SupportSpec:
    """Support interval(s) of the limiting density for a in [-1, 0)."""
    u, v = edge_params(a, lam)
    kind = regime(a, lam).kind
    if kind is RegimeKind.TWO_SOFT_EDGES:
        intervals = ((u - v, u + v),)
    elif kind is RegimeKind.SOFT_HARD_MIXED:
        intervals = ((u - v, 1.0),)
    else:
        intervals = ((a, 1.0),)
    return SupportSpec(u=u, v=v, intervals=intervals)


def x0x1(x: float, a: float) -> tuple[float, float]:
    """Roots-of-the-resolvent pair:
    x0 = (a^2 + 1 - x(a+1)) / (a-1)^2, x1 = sqrt(4a(x-a)(x-1)) / (a-1)^2."""
    if not a < 0:
        raise DomainError(f"a must be negative, got {a}")
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
    if tstar >= beta:
        return 1.0 / (lam * abs(x))  # full overlap: plateau
    w = (1.0 - a) / (T + sqrt_p) * math.sqrt((tstar - alpha) / (beta - tstar))
    ax = abs(x)
    if ax < 1e-6:
        xw = ax * w
        return 2.0 / (math.pi * lam) * w * (1.0 - xw * xw / 3.0 + xw**4 / 5.0)
    return 2.0 / (math.pi * lam * ax) * math.atan(ax * w)


def limiting_density(x: float, a: float, lam: float) -> float:
    """Limiting spectral density at x; 0 outside the support, one-sided
    limits at exact edges (0 at a soft edge, 1/(lambda |x|) at a hard one)."""
    if not a < 0:
        raise DomainError(f"a must be negative, got {a}")
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


@dataclass(frozen=True)
class _Piece:
    lo: float
    hi: float
    kind: str  # "arc" or "plateau"
    e1: float  # arc soft-substitution anchors (arc pieces only)
    e2: float


def _support_pieces(a: float, lam: float) -> list[_Piece]:
    """Ordered decomposition of the support into arc and plateau pieces,
    valid for every a < 0 (mapped through the symmetry for a < -1)."""
    if a < -1:
        inner = _support_pieces(1.0 / a, lam)
        out = [
            _Piece(
                lo=a * p.hi,
                hi=a * p.lo,
                kind=p.kind,
                e1=a * p.e2,
                e2=a * p.e1,
            )
            for p in inner
        ]
        return sorted(out, key=lambda p: p.lo)
    u, v = edge_params(a, lam)
    kind = regime(a, lam).kind
    arc = _Piece(lo=u - v, hi=u + v, kind="arc", e1=u - v, e2=u + v)
    if kind is RegimeKind.TWO_SOFT_EDGES:
        return [arc]
    if kind is RegimeKind.SOFT_HARD_MIXED:
        return [arc, _Piece(u + v, 1.0, "plateau", 0.0, 0.0)]
    return [
        _Piece(a, u - v, "plateau", 0.0, 0.0),
        arc,
        _Piece(u + v, 1.0, "plateau", 0.0, 0.0),
    ]


def _quad(f: Callable[[float], float], lo: float, hi: float, tol: float) -> float:
    if hi <= lo:
        return 0.0
    val, abserr = quad(f, lo, hi, epsabs=tol, epsrel=1e-11, limit=200)
    if abserr > max(100.0 * tol, 1e-7 * max(1.0, abs(val))):
        raise ArithmeticError(
            f"quadrature did not converge: error estimate {abserr:.2e} "
            f"for target {tol:.2e}"
        )
    return val


def _arc_integral(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    piece: _Piece,
    tol: float,
) -> float:
    """Integrate f over [lo, hi] inside an arc piece, removing the
    square-root edge behaviour by substituting x = e +/- w^2 on each half."""
    if hi <= lo:
        return 0.0
    e1, e2 = piece.e1, piece.e2
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
        return abs(math.log(abs(hi) / abs(lo))) / lam
    sign = 1.0 if lo > 0 else -1.0
    return sign * (hi**p - lo**p) / (lam * p)


def _mass(a: float, lam: float, lo: float, hi: float, p: int, tol: float) -> float:
    """Integral of x^p rho over [lo, hi] across the piece decomposition."""
    pieces = _support_pieces(a, lam)
    total = 0.0
    for piece in pieces:
        seg_lo, seg_hi = max(lo, piece.lo), min(hi, piece.hi)
        if seg_hi <= seg_lo:
            continue
        if piece.kind == "plateau":
            total += _plateau_mass(p, lam, seg_lo, seg_hi)
        else:
            f = (lambda x: _density(x, a, lam)) if p == 0 else (
                lambda x: x**p * _density(x, a, lam)
            )
            total += _arc_integral(f, seg_lo, seg_hi, piece, tol)
    return total


def density_cdf(x: float, a: float, lam: float, tol: float = 1e-10) -> float:
    """CDF of the limiting density, by closed-form plateau masses plus
    adaptive quadrature of the arc with square-root substitutions."""
    if not a < 0:
        raise DomainError(f"a must be negative, got {a}")
    lo = a if a <= -1 else -1.0  # any point at or below the support
    lo = min(lo, _support_pieces(a, lam)[0].lo)
    return _mass(a, lam, lo, float(x), 0, tol)


def density_moment(p: int, a: float, lam: float, tol: float = 1e-9) -> float:
    """p-th moment of the limiting density; converges to the leading
    expansion coefficient of the scaled spectral moments."""
    if p < 0:
        raise DomainError("p must be nonnegative")
    if not a < 0:
        raise DomainError(f"a must be negative, got {a}")
    pieces = _support_pieces(a, lam)
    return _mass(a, lam, pieces[0].lo, pieces[-1].hi, p, tol)


def stieltjes(y: float, a: float, lam: float, tol: float = 1e-10) -> float:
    """Stieltjes transform G(y) via its one-dimensional t-integral form
    (1/lambda) int_0^(1-s) dt / ((1-t) sqrt((y-(a+1)(1-t))^2 + 4at(1-t))).

    ``y`` must lie outside the interval where the square root can vanish;
    the violated bound is named otherwise.  An independent route for tests
    is :func:`stieltjes_via_density`.
    """
    if not a < 0:
        raise DomainError(f"a must be negative, got {a}")
    if a < -1:
        return (1.0 / a) * stieltjes(y / a, 1.0 / a, lam, tol)
    s = math.exp(-lam)
    u, v = edge_params(a, lam)
    reg = regime(a, lam)
    if abs(y) <= abs(a + 1.0) * s:
        raise DomainError(
            f"|y|={abs(y)} must exceed |a+1| e^-lambda = {abs(a + 1) * s}"
        )
    upper = u + v if lam < reg.lambda1 else 1.0
    lower = u - v if lam < reg.lambda2 else a
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

    return _quad(g, 0.0, 1.0 - s, tol) / lam


def stieltjes_via_density(
    y: float, a: float, lam: float, tol: float = 1e-10
) -> float:
    """Defining integral int rho(x) / (y - x) dx, for cross-validation."""
    if not a < 0:
        raise DomainError(f"a must be negative, got {a}")
    pieces = _support_pieces(a, lam)
    total = 0.0
    for piece in pieces:
        f = lambda x: _density(x, a, lam) / (y - x)
        if piece.kind == "plateau":
            total += _quad(f, piece.lo, piece.hi, tol)
        else:
            total += _arc_integral(f, piece.lo, piece.hi, piece, tol)
    return total


def cdf_at_sorted(xs: Sequence[float], a: float, lam: float, tol: float = 1e-9) -> np.ndarray:
    """CDF of the limiting density at an ascending array of points,
    accumulated segment by segment so each region is integrated once."""
    xs = np.asarray(xs, dtype=float)
    if np.any(np.diff(xs) < 0):
        raise DomainError("points must be sorted ascending")
    vals = np.empty(xs.size)
    cursor = min(
        _support_pieces(a, lam)[0].lo, xs[0] if xs.size else 0.0
    )
    cum = 0.0
    for i, x in enumerate(xs):
        cum += _mass(a, lam, cursor, float(x), 0, tol)
        vals[i] = cum
        cursor = float(x)
    return vals


def zero_distribution_distance(a: float, lam: float, N: int) -> float:
    """Kolmogorov-Smirnov distance between the empirical distribution of
    the N polynomial zeros at q = e^(-lambda/N) and the limiting CDF."""
    if N < 10:
        raise DomainError("N must be at least 10")
    if not a < 0:
        raise DomainError(f"a must be negative, got {a}")
    q = math.exp(-lam / N)
    zs = zeros(EnsembleParams(a=float(a), q=q, N=N))
    limit_cdf = cdf_at_sorted(zs, a, lam)
    i = np.arange(N)
    return float(
        np.maximum(limit_cdf - i / N, (i + 1) / N - limit_cdf).max()
    )

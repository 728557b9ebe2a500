"""Large-N expansion coefficients of the scaled spectral moments.

Under the scaling q = exp(-lambda/N) the moments expand as
q^(p/2) m_{N,p} = M_p0 * N + M_p1 / N + O(N^-3); this module provides the
two coefficients and the continuum (lambda -> 0) reference values.

The coefficients are sums of regularised incomplete beta functions
I_{1-s}(l+1, p-l), s = e^(-lambda).  Their orders are integers, so each is
a finite binomial tail, and the module needs only :mod:`math`: importing it
loads neither numpy nor scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .moments import EnsembleParams, moment_closed
from .qcore import DomainError, validate_a, validate_lambda


@dataclass(frozen=True)
class ScalingParams:
    """Double-scaling parameters: fixed a < 0 and lambda > 0, q = e^(-lambda/N)."""

    a: float
    lam: float

    def __post_init__(self) -> None:
        validate_a(self.a)
        validate_lambda(self.lam)

    @property
    def s(self) -> float:
        """e^(-lambda), recomputed on every access; below 1, and 0 once it
        underflows (lambda > ~745)."""
        return math.exp(-self.lam)


def _beta_tails(p: int, t: float, s: float) -> list[float]:
    """I_t(l+1, p-l) for l = 0, ..., p-1, at t = 1 - s.

    At integer orders the regularised incomplete beta is the binomial tail
    sum_{j>l} C(p, j) t^j s^(p-j) (DLMF 8.17.5), so the whole row is the
    suffix sums of p positive terms.  t and s are passed separately so that
    neither is formed as 1 minus the other.
    """
    tails = [0.0] * p
    acc = 0.0
    for j in range(p, 0, -1):
        acc += math.comb(p, j) * t**j * s ** (p - j)
        tails[j - 1] = acc
    return tails


def m_p0(p: int, sp: ScalingParams) -> float:
    """Leading expansion coefficient,
    (1/lambda) sum_{l<=p/2} (a+1)^(p-2l) (-a)^l (p-l-1)! / (l! (p-2l)!)
    I_{1-s}(l+1, p-l)."""
    if p < 0:
        raise DomainError("p must be nonnegative")
    if p == 0:
        return 1.0  # m_{N,0} = N exactly
    a, lam, s = sp.a, sp.lam, sp.s
    tails = _beta_tails(p, -math.expm1(-lam), s)
    total = 0.0
    for l in range(p // 2 + 1):
        total += (
            (a + 1.0) ** (p - 2 * l)
            * (-a) ** l
            * math.factorial(p - l - 1)
            / (math.factorial(l) * math.factorial(p - 2 * l))
            * tails[l]
        )
    return total / lam


def m_p1(p: int, sp: ScalingParams) -> float:
    """Subleading (1/N) expansion coefficient.

    The l = 0 term of the second piece carries 1/(l-1)! and is zero by the
    reciprocal-Gamma convention.  Its factor (1-s)^(l-1) (p-l+2-(p+1)s) is
    written t^(l-1) ((1-l) + (p+1) t) with t = 1 - s, which does not cancel
    as s -> 1.
    """
    if p < 0:
        raise DomainError("p must be nonnegative")
    if p == 0:
        return 0.0  # m_{N,0} = N has no 1/N correction
    a, lam, s = sp.a, sp.lam, sp.s
    t = -math.expm1(-lam)
    tails = _beta_tails(p, t, s)
    total = 0.0
    for l in range(p // 2 + 1):
        piece = 0.5 * p * math.factorial(p - l - 1) * tails[l]
        if l >= 1:
            piece += (
                math.factorial(p - 1)
                / math.factorial(l - 1)
                * s ** (p - l)
                * t ** (l - 1)
                * ((1 - l) + (p + 1) * t)
            )
        total += (
            (a + 1.0) ** (p - 2 * l)
            * (-a) ** l
            / (math.factorial(p - 2 * l) * math.factorial(l))
            * piece
        )
    return -lam * p / 12.0 * total


def expansion_residual(p: int, sp: ScalingParams, N: int) -> float:
    """q^(p/2) m_{N,p} - M_p0 N - M_p1 / N at q = e^(-lambda/N).

    Decays like 1/N^3; used to confirm the expansion order empirically.
    """
    if N < 1:
        raise DomainError("N must be positive")
    q = math.exp(-sp.lam / N)
    m = moment_closed(EnsembleParams(a=float(sp.a), q=q, N=N), p)
    value = q ** (p / 2.0) * m - m_p0(p, sp) * N - m_p1(p, sp) / N
    if not math.isfinite(value):
        raise ArithmeticError(f"moment evaluation overflowed at p={p}, N={N}")
    return value


def shifted_semicircle_moment(p: int, r: float) -> float:
    """p-th moment of the unit semicircle density shifted by r:
    sum_l C(p, 2l) r^(p-2l) Catalan(l)."""
    if p < 0:
        raise DomainError("p must be nonnegative")
    total = 0.0
    for l in range(p // 2 + 1):
        catalan = math.comb(2 * l, l) // (l + 1)
        total += math.comb(p, 2 * l) * float(r) ** (p - 2 * l) * catalan
    return total


def continuum_moment_limit(p: int, r: float, lam: float) -> float:
    """lambda^(-p/2) M_p0 evaluated at a = -1 + r sqrt(lambda).

    As lambda -> 0 this converges to the shifted-semicircle moment.
    """
    validate_lambda(lam)
    a = -1.0 + r * math.sqrt(lam)
    if not a < 0:
        raise DomainError("r sqrt(lambda) must stay below 1")
    sp = ScalingParams(a=a, lam=lam)
    return lam ** (-p / 2.0) * m_p0(p, sp)

"""Large-N expansion coefficients of the scaled spectral moments.

Under the scaling q = exp(-lambda/N) the moments expand as
q^(p/2) m_{N,p} = M_p0 * N + M_p1 / N + O(N^-3); this module provides the
two coefficients, the special functions they are built from, and the
continuum (lambda -> 0) reference values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import scipy

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
        """Cached e^(-lambda), always in (0, 1)."""
        return math.exp(-self.lam)


def inc_beta_reg(x: float, alpha: float, beta: float) -> float:
    """Regularised incomplete beta function I_x(alpha, beta), from
    :func:`scipy.special.betainc`."""
    if not (0.0 <= x <= 1.0):
        raise DomainError(f"x must lie in [0, 1], got {x}")
    if alpha <= 0 or beta <= 0:
        raise DomainError("alpha and beta must be positive")
    return float(scipy.special.betainc(alpha, beta, x))


def m_p0(p: int, sp: ScalingParams) -> float:
    """Leading expansion coefficient, an incomplete-beta sum over l <= p/2."""
    if p < 0:
        raise DomainError("p must be nonnegative")
    if p == 0:
        return 1.0  # m_{N,0} = N exactly
    a, lam, s = sp.a, sp.lam, sp.s
    total = 0.0
    for l in range(p // 2 + 1):
        total += (
            (a + 1.0) ** (p - 2 * l)
            * (-a) ** l
            * math.factorial(p - l - 1)
            / (math.factorial(l) * math.factorial(p - 2 * l))
            * inc_beta_reg(1.0 - s, l + 1, p - l)
        )
    return total / lam


def m_p0_alt(p: int, sp: ScalingParams) -> float:
    """Same coefficient with the inner beta replaced by its finite binomial
    sum sum_{j=l+1}^p C(p, j) (1-s)^j s^(p-j)."""
    if p < 0:
        raise DomainError("p must be nonnegative")
    if p == 0:
        return 1.0
    a, lam, s = sp.a, sp.lam, sp.s
    total = 0.0
    for l in range(p // 2 + 1):
        binsum = sum(
            math.comb(p, j) * (1.0 - s) ** j * s ** (p - j)
            for j in range(l + 1, p + 1)
        )
        total += (
            (a + 1.0) ** (p - 2 * l)
            * (-a) ** l
            * math.factorial(p - l - 1)
            / (math.factorial(l) * math.factorial(p - 2 * l))
            * binsum
        )
    return total / lam


def m_p1(p: int, sp: ScalingParams) -> float:
    """Subleading (1/N) expansion coefficient.

    The l = 0 term of the second piece carries 1/(l-1)! and is zero by the
    reciprocal-Gamma convention.
    """
    if p < 0:
        raise DomainError("p must be nonnegative")
    if p == 0:
        return 0.0  # m_{N,0} = N has no 1/N correction
    a, lam, s = sp.a, sp.lam, sp.s
    total = 0.0
    for l in range(p // 2 + 1):
        piece = 0.5 * p * math.factorial(p - l - 1) * inc_beta_reg(
            1.0 - s, l + 1, p - l
        )
        if l >= 1:
            piece += (
                math.factorial(p - 1)
                / math.factorial(l - 1)
                * s ** (p - l)
                * (1.0 - s) ** (l - 1)
                * (p - l + 2 - (p + 1) * s)
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

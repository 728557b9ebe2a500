"""Al-Salam-Carlitz polynomials, weight, one-point density and zeros.

Float-mode counterpart of the exact moment machinery: the weight is
evaluated through truncated infinite products, the Christoffel-Darboux-style
density through the orthonormal three-term recurrence, moments through the
Jackson q-integral, and polynomial zeros as eigenvalues of the symmetric
tridiagonal recurrence matrix.  Every recurrence coefficient comes from
:func:`qensemble.qcore.recurrence`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy

from .moments import EnsembleParams
from .qcore import (
    DomainError,
    QParams,
    Scalar,
    jackson_integral,
    q_pochhammer_finite,
    q_pochhammer_infinite,
    recurrence,
)


def u_poly(n: int, x: Scalar, params: QParams) -> Scalar:
    """Monic polynomial value U_n(x) by the forward three-term recurrence
    U_{m+1} = (x - b_m) U_m - lam_m U_{m-1}."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    q, a = params.q, params.a
    prev: Scalar = 0
    cur: Scalar = 1
    for m in range(n):
        b, lam = recurrence(m, q, a)
        prev, cur = cur, (x - b) * cur - lam * prev
    return cur


@lru_cache(maxsize=64)
def _weight_norm(q: float, a: float, tol: float) -> float:
    """Normalisation (q, a, q/a; q)_inf, cached per parameter pair."""
    return (
        q_pochhammer_infinite(q, q, tol)
        * q_pochhammer_infinite(a, q, tol)
        * q_pochhammer_infinite(q / a, q, tol)
    )


def weight(x: float, params: QParams, tol: float = 1e-14) -> float:
    """Orthogonality weight (qx, qx/a; q)_inf / (q, a, q/a; q)_inf.

    Defined on the closed interval [a, 1]; the Jackson lattice includes both
    endpoints (k = 0 points), where the products remain finite.
    """
    q, a = float(params.q), float(params.a)
    x = float(x)
    if not a <= x <= 1:
        raise DomainError(f"weight defined on [a, 1] = [{a}, 1], got x={x}")
    num = q_pochhammer_infinite(q * x, q, tol) * q_pochhammer_infinite(
        q * x / a, q, tol
    )
    return num / _weight_norm(q, a, tol)


def density_n(x: float, params: EnsembleParams) -> float:
    """One-point density rho_N(x) = sum_{j<N} p_j(x)^2 * w(x), where p_j are
    the orthonormal polynomials.

    The recurrence is run in a binary-scaled representation (mantissa plus
    power-of-two exponent) so intermediate polynomial values cannot
    overflow or underflow even when x sits far outside the oscillatory
    region at large N.
    """
    q, a = float(params.q), float(params.a)
    x = float(x)
    w = weight(x, params.qparams, 1e-14)
    # orthonormal recurrence x p_j = r_{j+1} p_{j+1} + b_j p_j + r_j p_{j-1},
    # r_j = sqrt(lam_j); b and r carry over from one step to the next
    b, lam = recurrence(0, q, a)
    r = math.sqrt(lam)
    total = 0.0
    prev = 0.0  # p_{j-1} mantissa
    cur = 1.0 / math.sqrt(1.0 - q)  # p_0
    exp2 = 0  # shared power-of-two exponent
    for j in range(params.N):
        # accumulate p_j^2 * w at true scale; a genuinely out-of-range value
        # (far outside the oscillatory region at large N) becomes inf rather
        # than raising
        t = cur * cur * w
        if t != 0.0:
            if exp2:
                try:
                    t = math.ldexp(t, 2 * exp2)
                except OverflowError:
                    t = math.inf
            total += t
        if j == params.N - 1:
            break
        b1, lam1 = recurrence(j + 1, q, a)
        r1 = math.sqrt(lam1)
        prev, cur = cur, ((x - b) * cur - r * prev) / r1
        b, r = b1, r1
        m = max(abs(prev), abs(cur))
        if m > 1e150:
            prev = math.ldexp(prev, -512)
            cur = math.ldexp(cur, -512)
            exp2 += 512
        elif 0.0 < m < 1e-150:
            prev = math.ldexp(prev, 512)
            cur = math.ldexp(cur, 512)
            exp2 -= 512
    return total


def jackson_moment(params: EnsembleParams, p: int, tol: float = 1e-10) -> float:
    """Moment m_{N,p} via the Jackson q-integral of x^p rho_N over [a, 1]."""
    if p < 0:
        raise DomainError("p must be nonnegative")
    a, q = float(params.a), float(params.q)

    def f(x: float) -> float:
        return x**p * density_n(x, params)

    return jackson_integral(f, a, q, trunc_tol=tol)


def norm_sq(n: int, params: QParams) -> float:
    """Squared norm h_n of U_n under the unnormalised Jackson measure:
    (-a)^n (1-q) (q; q)_n (q, a, q/a; q)_inf q^(n(n-1)/2)."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    q, a = float(params.q), float(params.a)
    return (
        (-a) ** n
        * (1.0 - q)
        * q_pochhammer_finite(q, q, n)
        * _weight_norm(q, a, 1e-15)
        * q ** (n * (n - 1) / 2.0)
    )


def orthogonality_check(
    m: int, n: int, params: QParams, tol: float = 1e-12
) -> float:
    """Residual of the orthogonality relation.

    Returns the Jackson integral of (qx, qx/a; q)_inf U_m U_n minus
    delta_{mn} h_n, with h_n from :func:`norm_sq`.
    ``tol`` controls the quadrature truncation; callers compare the residual
    against tol times the natural norm scale.
    """
    if m < 0 or n < 0:
        raise DomainError("m and n must be nonnegative")
    q, a = float(params.q), float(params.a)
    fparams = QParams(q=q, a=a)

    def f(x: float) -> float:
        wprod = q_pochhammer_infinite(q * x, q, 1e-15) * q_pochhammer_infinite(
            q * x / a, q, 1e-15
        )
        return wprod * u_poly(m, x, fparams) * u_poly(n, x, fparams)

    lhs = jackson_integral(f, a, q, trunc_tol=tol)
    return lhs - (norm_sq(n, fparams) if m == n else 0.0)


@dataclass(frozen=True)
class JacobiMatrix:
    """Symmetric tridiagonal matrix of the orthonormal recurrence; its
    eigenvalues are exactly the zeros of U_N."""

    diag: np.ndarray
    offdiag: np.ndarray

    def __post_init__(self) -> None:
        if self.diag.size < 1 or self.offdiag.size != self.diag.size - 1:
            raise DomainError("offdiag must have length len(diag) - 1")
        if self.offdiag.size and not np.all(self.offdiag > 0):
            raise DomainError("offdiag entries must be strictly positive")


def jacobi_matrix(params: EnsembleParams) -> JacobiMatrix:
    """Recurrence matrix with diag b_n (n < N) and offdiag sqrt(lam_n)
    (1 <= n < N)."""
    diag, lam = recurrence(np.arange(params.N), float(params.q), float(params.a))
    return JacobiMatrix(diag=diag, offdiag=np.sqrt(lam[1:]))


def zeros(params: EnsembleParams) -> np.ndarray:
    """All N zeros of U_N, ascending, as eigenvalues of the Jacobi matrix
    (Golub-Welsch), computed by LAPACK's MRRR tridiagonal solver (stemr)."""
    jm = jacobi_matrix(params)
    return scipy.linalg.eigvalsh_tridiagonal(jm.diag, jm.offdiag)

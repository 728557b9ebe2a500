"""Al-Salam-Carlitz polynomials, weight, one-point density and zeros.

Float-mode counterpart of the exact moment machinery: the weight and the
Christoffel-Darboux-style density are evaluated through truncated infinite
products and the orthonormal three-term recurrence, moments through the
Jackson q-integral, and polynomial zeros as eigenvalues of the symmetric
tridiagonal recurrence matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Sequence

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal

from .moments import EnsembleParams
from .qcore import (
    DomainError,
    QParams,
    Scalar,
    jackson_integral,
    q_pochhammer_finite,
    q_pochhammer_infinite,
)


def u_poly(n: int, x: Scalar, params: QParams) -> Scalar:
    """Monic polynomial value U_n(x) by the forward three-term recurrence
    x U_n = U_{n+1} + (a+1) q^n U_n - a q^(n-1) (1-q^n) U_{n-1}."""
    if n < 0:
        raise DomainError("n must be nonnegative")
    q, a = params.q, params.a
    prev: Scalar = 0
    cur: Scalar = 1
    for m in range(n):
        lam = a * q ** (m - 1) * (1 - q**m) if m >= 1 else 0
        prev, cur = cur, (x - (a + 1) * q**m) * cur + lam * prev
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


def density_n(x: float, params: EnsembleParams, tol: float = 1e-14) -> float:
    """One-point density rho_N(x) = sum_{j<N} p_j(x)^2 * w(x), where p_j are
    the orthonormal polynomials.

    The recurrence is run in a binary-scaled representation (mantissa plus
    power-of-two exponent) so intermediate polynomial values cannot
    overflow or underflow even when x sits far outside the oscillatory
    region at large N.
    """
    q, a = float(params.q), float(params.a)
    x = float(x)
    w = weight(x, params.qparams, tol)
    # orthonormal recurrence x p_n = off_{n+1} p_{n+1} + diag_n p_n + off_n p_{n-1}
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
        off_j = math.sqrt(-a * (1.0 - q**j) * q ** (j - 1)) if j >= 1 else 0.0
        off_j1 = math.sqrt(-a * (1.0 - q ** (j + 1)) * q**j)
        diag_j = (a + 1.0) * q**j
        prev, cur = cur, ((x - diag_j) * cur - off_j * prev) / off_j1
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


@dataclass(frozen=True)
class DensityProfile:
    """Finite-N density sampled on a grid of abscissae in [a, 1]."""

    grid: np.ndarray
    values: np.ndarray
    params: EnsembleParams


def density_profile(
    params: EnsembleParams,
    grid: Optional[Sequence[float]] = None,
    tol: float = 1e-12,
) -> DensityProfile:
    """Evaluate rho_N on a grid (default: the q-lattice of the measure,
    both branches, truncated at |x| < 1e-8)."""
    a, q = float(params.a), float(params.q)
    if grid is None:
        kmax = int(math.ceil(math.log(1e-8) / math.log(q)))
        pts = [q**k for k in range(kmax)] + [a * q**k for k in range(kmax)]
        grid_arr = np.array(sorted(pts))
    else:
        grid_arr = np.asarray(sorted(grid), dtype=float)
        if grid_arr.size and (grid_arr[0] < a or grid_arr[-1] > 1):
            raise DomainError("grid points must lie in [a, 1]")
    vals = np.array([density_n(x, params, tol) for x in grid_arr])
    return DensityProfile(grid=grid_arr, values=vals, params=params)


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
    """Recurrence matrix with diag b_n = (a+1) q^n (n < N) and offdiag
    a_n = sqrt(-a (1-q^n) q^(n-1)) (1 <= n < N)."""
    a, q, N = float(params.a), float(params.q), params.N
    n = np.arange(N)
    diag = (a + 1.0) * q**n
    m = np.arange(1, N)
    offdiag = np.sqrt(-a * (1.0 - q**m) * q ** (m - 1))
    return JacobiMatrix(diag=diag, offdiag=offdiag)


def zeros(params: EnsembleParams) -> np.ndarray:
    """All N zeros of U_N, ascending, as eigenvalues of the Jacobi matrix
    (Golub-Welsch), computed by LAPACK's MRRR tridiagonal solver (stemr)."""
    jm = jacobi_matrix(params)
    return eigvalsh_tridiagonal(jm.diag, jm.offdiag)

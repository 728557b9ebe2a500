"""Al-Salam-Carlitz polynomials, weight, one-point density and zeros.

Float-mode counterpart of the exact moment machinery: the weight is
evaluated through truncated infinite products at a point x, and on the
Jackson lattice {q^k} union {a q^k} through running finite products, into
which the infinite ones telescope (:func:`lattice_weight`); the
Christoffel-Darboux-style density through the orthonormal three-term
recurrence, moments through the Jackson q-integral (refused where the
density breaks the Christoffel bound on the lattice), and polynomial zeros
as eigenvalues of the symmetric tridiagonal recurrence matrix, which
:func:`jacobi_matrix` returns as the plain pair (diag, offdiag).  Every
recurrence coefficient comes from :func:`qensemble.qcore.recurrence`, once
per call: as a list of steps for the density, as arrays for the matrix.

The scalar routes (``u_poly``, ``weight``, ``lattice_weight``,
``jackson_moment``, ``norm_sq``, ``orthogonality_check``) use only
:mod:`math`.  numpy and ``scipy.linalg`` are imported inside
:func:`jacobi_matrix` and :func:`zeros`, so importing this module loads
neither.
"""

from __future__ import annotations

import math
import sys
from functools import lru_cache
from typing import TYPE_CHECKING, Callable

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

if TYPE_CHECKING:
    import numpy as np


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
def _weight_norm(q: float, a: float) -> float:
    """Normalisation (q, a, q/a; q)_inf, cached per parameter pair.  As q
    nears 1, (q; q)_inf underflows and the other two overflow; a product
    that is not a finite positive float, or a q/a past the float range,
    raises ArithmeticError naming q and a."""
    try:
        norm = (
            q_pochhammer_infinite(q, q)
            * q_pochhammer_infinite(a, q)
            * q_pochhammer_infinite(q / a, q)
        )
    except DomainError as exc:
        raise ArithmeticError(f"q={q}, a={a}: {exc}") from exc
    if not 0.0 < norm < math.inf:  # NaN fails too
        raise ArithmeticError(
            f"q={q}, a={a}: the weight normalisation (q, a, q/a; q)_inf = {norm} "
            "is not a finite positive float"
        )
    return norm


def weight(x: float, params: QParams) -> float:
    """Orthogonality weight (qx, qx/a; q)_inf / (q, a, q/a; q)_inf.

    Defined on the closed interval [a, 1]; the Jackson lattice includes both
    endpoints (k = 0 points), where the products remain finite.
    """
    q, a = float(params.q), float(params.a)
    x = float(x)
    if not a <= x <= 1:
        raise DomainError(f"weight defined on [a, 1] = [{a}, 1], got x={x}")
    norm = _weight_norm(q, a)  # refuses (q, a) before q x / a can overflow
    num = q_pochhammer_infinite(q * x, q) * q_pochhammer_infinite(q * x / a, q)
    return num / norm


def lattice_weight(params: QParams) -> Callable[[float, int], float]:
    """The weight on the Jackson lattice, as w(x, k) at x = q^k or x = a q^k.

    There the infinite products of :func:`weight` telescope,
    (q^(k+1); q)_inf = (q; q)_inf / (q; q)_k, into the finite-product form
    of the Al-Salam-Carlitz I masses (Koekoek, Lesky & Swarttouw,
    *Hypergeometric Orthogonal Polynomials and their q-Analogues*, 14.24):

        w(q^k)   = w(1) / prod_{i=1..k} (1 - q^i)(1 - q^i/a),
        w(a q^k) = w(a) / prod_{i=1..k} (1 - q^i)(1 - a q^i),

    with w(1) = 1/(a; q)_inf and w(a) = 1/((1 - a)(q/a; q)_inf).  The end
    points w(1) and w(a) come from :func:`weight`, once per call: there the
    forward recurrence of :func:`_density_sum` loses its digits first and the
    Christoffel guard of :func:`jackson_moment` acts, and both routes see the
    same bits.  One running product per side of the lattice is extended as
    far as k reaches.  A pair (q, a) whose normalisation :func:`weight`
    refuses is refused with the same message; a running product that leaves
    the normal float range raises ArithmeticError naming q and a.
    """
    q, a = float(params.q), float(params.a)
    fparams = QParams(q=q, a=a)  # a Fraction q that rounds to 1.0 is refused
    w_one, w_a = weight(1.0, fparams), weight(a, fparams)
    prod_plus = prod_minus = 1.0
    plus, minus = [w_one], [w_a]

    def w(x: float, k: int) -> float:
        nonlocal prod_plus, prod_minus
        while len(plus) <= k:
            qi = q ** len(plus)
            prod_plus *= (1.0 - qi) * (1.0 - qi / a)
            prod_minus *= (1.0 - qi) * (1.0 - a * qi)
            if not (
                sys.float_info.min <= prod_plus < math.inf
                and sys.float_info.min <= prod_minus < math.inf
            ):
                raise ArithmeticError(
                    f"q={q}, a={a}: the running lattice products at k={len(plus)} "
                    f"({prod_plus}, {prod_minus}) leave the normal float range"
                )
            plus.append(w_one / prod_plus)
            minus.append(w_a / prod_minus)
        return plus[k] if x > 0 else minus[k]

    return w


def _lam_underflow(q: float, a: float, N: int, n: int) -> DomainError:
    """The refusal of the first lam_n (n >= 1) that underflows to 0."""
    return DomainError(
        f"offdiag entries must be strictly positive: at q={q}, a={a}, N={N}, "
        f"lam_n = -a (1-q^n) q^(n-1) underflows to 0 from n={n}"
    )


def _recurrence_steps(q: float, a: float, N: int) -> list[tuple[float, float, float]]:
    """The steps (b_j, r_j, r_{j+1}), j < N - 1, of the orthonormal recurrence
    x p_j = r_{j+1} p_{j+1} + b_j p_j + r_j p_{j-1}, with r_j = sqrt(lam_j)
    and (b_j, lam_j) from :func:`recurrence`.  A lam_n that underflows to 0
    would be a division by zero; it is refused as in :func:`jacobi_matrix`."""
    b, lam = zip(*(recurrence(n, q, a) for n in range(N)))
    if 0.0 in lam[1:]:
        raise _lam_underflow(q, a, N, lam.index(0.0, 1))
    r = [math.sqrt(v) for v in lam]
    return list(zip(b, r, r[1:]))


def _density_sum(x: float, w: float, q: float, steps: list) -> float:
    """One-point density rho_N(x) = sum_{j<N} p_j(x)^2 w(x), where p_j are
    the orthonormal polynomials, from the weight value w = w(x) and the
    N - 1 steps of :func:`_recurrence_steps`.

    The recurrence runs on the scaled values v_j = p_j(x) sqrt(w), whose
    squares are the terms of the sum (Gautschi, SIAM Rev. 9 (1967)), so no
    intermediate value leaves the float range unless the sum does.  A sum
    that is not finite (far outside the oscillatory region at large N) is
    returned as inf.
    """
    prev, cur = 0.0, math.sqrt(w / (1.0 - q))  # v_{-1}, v_0
    total = cur * cur
    for b, r, r_next in steps:
        prev, cur = cur, ((x - b) * cur - r * prev) / r_next
        total += cur * cur
    return total if math.isfinite(total) else math.inf


# Slack of the Christoffel bound in :func:`jackson_moment`.  Rounding alone
# can put a sound lattice point a few ulps over 1 (x = 1 gives 1 exactly at
# N = 20 with q = e^(-3/N), a = -0.5); once the forward recurrence loses
# digits the overshoot grows geometrically (1 + 6.1e-12 at N = 30, 1 + 3.6e-8
# at 35, 1.0016 at 40).  1e-10 clears rounding by four orders
_CHRISTOFFEL_SLACK = 1e-10

#: Jackson-sum truncation bound of :func:`jackson_moment`
JACKSON_TOL = 1e-10
#: Jackson-sum truncation bound of :func:`orthogonality_check`
ORTHOGONALITY_TOL = 1e-13


def jackson_moment(params: EnsembleParams, p: int) -> float:
    """Moment m_{N,p} via the Jackson q-integral of x^p rho_N over [a, 1].

    The Jackson measure gives each lattice point x the mass (1-q)|x| w(x),
    and the Christoffel function 1 / sum_j p_j(x)^2 of a positive measure is
    at least the mass at x, so rho_N(x) (1-q)|x| <= 1 there.  A point past that bound means
    the forward recurrence in :func:`_density_sum` has lost its digits (near
    x = 1 once q^N is small), and is refused with ArithmeticError.  The
    weight comes from :func:`lattice_weight`, the recurrence steps from one
    :func:`_recurrence_steps` table, and the sum stops at ``JACKSON_TOL``.
    """
    if p < 0:
        raise DomainError("p must be nonnegative")
    a, q, N = float(params.a), float(params.q), params.N
    w = lattice_weight(params)
    steps = _recurrence_steps(q, a, N)

    def f(x: float, k: int) -> float:
        rho = _density_sum(x, w(x, k), q, steps)
        bound = rho * (1.0 - q) * abs(x)
        if bound > 1.0 + _CHRISTOFFEL_SLACK:
            raise ArithmeticError(
                f"N={N}, q={q}, a={a}: rho_N(x) (1-q)|x| = {bound:.6g} exceeds the "
                f"Christoffel bound 1 at lattice point x={x}: the recurrence lost "
                "its digits"
            )
        return x**p * rho

    return jackson_integral(f, a, q, trunc_tol=JACKSON_TOL)


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
        * _weight_norm(q, a)
        * q ** (n * (n - 1) / 2.0)
    )


def orthogonality_check(m: int, n: int, params: QParams) -> float:
    """Residual of the orthogonality relation.

    Returns the Jackson integral of (qx, qx/a; q)_inf U_m U_n minus
    delta_{mn} h_n, with h_n from :func:`norm_sq`, truncated at
    ``ORTHOGONALITY_TOL``.  On the lattice (qx, qx/a; q)_inf is
    (q, a, q/a; q)_inf times the weight of :func:`lattice_weight`.
    """
    if m < 0 or n < 0:
        raise DomainError("m and n must be nonnegative")
    q, a = float(params.q), float(params.a)
    fparams = QParams(q=q, a=a)
    w = lattice_weight(fparams)
    norm = _weight_norm(q, a)

    def f(x: float, k: int) -> float:
        return norm * w(x, k) * u_poly(m, x, fparams) * u_poly(n, x, fparams)

    lhs = jackson_integral(f, a, q, trunc_tol=ORTHOGONALITY_TOL)
    return lhs - (norm_sq(n, fparams) if m == n else 0.0)


def jacobi_matrix(params: EnsembleParams) -> tuple[np.ndarray, np.ndarray]:
    """Symmetric tridiagonal matrix of the orthonormal recurrence, as the
    pair (diag, offdiag): diag b_n (n < N) and offdiag sqrt(lam_n)
    (1 <= n < N).  Its eigenvalues are exactly the zeros of U_N.

    lam_n = -a (1-q^n) q^(n-1) underflows to 0 once q^(n-1) is small enough
    (q = e^(-lambda/N) with lambda(N-2)/N past ~745), which leaves the
    matrix reducible; the refusal names q, N and the first such n.
    """
    import numpy as np

    q, a, N = float(params.q), float(params.a), params.N
    diag, lam = recurrence(np.arange(N), q, a)
    underflowed = np.flatnonzero(lam[1:] <= 0.0)
    if underflowed.size:
        raise _lam_underflow(q, a, N, int(underflowed[0]) + 1)
    return diag, np.sqrt(lam[1:])


def zeros(params: EnsembleParams) -> np.ndarray:
    """All N zeros of U_N, ascending, as eigenvalues of the Jacobi matrix
    (Golub-Welsch), computed by LAPACK's MRRR tridiagonal solver (stemr).

    The zeros lie strictly inside (a, 1), but the solver's rounding can put
    the outermost a few ulps outside, so they are clipped to [a, 1]."""
    import numpy as np
    from scipy.linalg import eigvalsh_tridiagonal

    diag, offdiag = jacobi_matrix(params)
    return np.clip(eigvalsh_tridiagonal(diag, offdiag), float(params.a), 1.0)

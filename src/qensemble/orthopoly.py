"""Al-Salam-Carlitz polynomials, lattice weight, one-point density and zeros.

Float-mode counterpart of the exact moment machinery: the weight
(qx, qx/a; q)_inf / (q, a, q/a; q)_inf on the Jackson lattice
{q^k} union {a q^k} comes from two infinite products at the end points
and running finite products, into which the infinite ones telescope
(:func:`lattice_weight`); the Christoffel-Darboux-style density through the
orthonormal three-term recurrence, run for both points of a lattice index
in one loop; moments through one pass of the Jackson q-integral over the
lattice (refused where the density breaks the Christoffel bound there), and
polynomial zeros as eigenvalues of the symmetric tridiagonal recurrence
matrix, which :func:`jacobi_matrix` returns as the plain pair
(diag, offdiag).  Every recurrence coefficient comes from
:func:`qensemble.qcore.recurrence`, once per call: as a list of steps for
the density, as arrays for the matrix.

The scalar routes (``lattice_weight``, ``jackson_moment``,
``orthogonality_check``) use only :mod:`math`.  numpy and
``scipy.linalg`` are imported inside :func:`jacobi_matrix` and
:func:`zeros`, so importing this module loads neither.
"""

from __future__ import annotations

import math
import sys
from typing import TYPE_CHECKING, Iterator

from .moments import EnsembleParams
from .qcore import (
    DomainError,
    QParams,
    TruncationError,
    jackson_integral,
    q_pochhammer_infinite,
    recurrence,
)

if TYPE_CHECKING:
    import numpy as np


def _infinite_product(q: float, a: float, name: str, z: float) -> float:
    """(z; q)_inf.  A product that is not a finite positive float, or one
    that cannot be formed (a z past the float range, or a product that does
    not converge), raises ArithmeticError naming q, a and the product."""
    try:
        value = q_pochhammer_infinite(z, q)
    except (DomainError, TruncationError) as exc:
        raise ArithmeticError(f"q={q}, a={a}: {name}: {exc}") from exc
    if not 0.0 < value < math.inf:  # NaN fails too
        raise ArithmeticError(
            f"q={q}, a={a}: {name} = {value} is not a finite positive float"
        )
    return value


def lattice_weight(params: QParams) -> Iterator[tuple[float, float, float]]:
    """The weight on the Jackson lattice: yields (x, w(x), w(a x)) at
    x = q^k for k = 0, 1, ....

    There the infinite products of the weight
    (qx, qx/a; q)_inf / (q, a, q/a; q)_inf telescope,
    (q^(k+1); q)_inf = (q; q)_inf / (q; q)_k, into the finite-product form
    of the Al-Salam-Carlitz I masses (Koekoek, Lesky & Swarttouw,
    *Hypergeometric Orthogonal Polynomials and their q-Analogues*, 14.24):

        w(q^k)   = w(1) / prod_{i=1..k} (1 - q^i)(1 - q^i/a),
        w(a q^k) = w(a) / prod_{i=1..k} (1 - q^i)(1 - a q^i),

    with w(1) = 1/(a; q)_inf and w(a) = 1/((1 - a)(q/a; q)_inf): two
    infinite products per call, since (q; q)_inf and (q/a; q)_inf cancel
    between the numerators and the normalisation.  The quotient of the
    pointwise weight gives the end weights with other rounding, no more
    accurate; that rounding matters only to a Christoffel guard of
    :func:`jackson_moment` sitting on its knife edge.  One running product
    per side is extended point by point.  The end products are formed, and
    refused, at the call; a running product that leaves the normal float
    range raises ArithmeticError naming q and a.
    """
    q, a = float(params.q), float(params.a)
    QParams(q=q, a=a)  # a Fraction q that rounds to 1.0 is refused
    w_one = 1.0 / _infinite_product(q, a, "the end product (a; q)_inf", a)
    w_a = 1.0 / ((1.0 - a) * _infinite_product(q, a, "the end product (q/a; q)_inf", q / a))

    def walk() -> Iterator[tuple[float, float, float]]:
        x = 1.0
        prod_plus = prod_minus = 1.0
        k = 0
        while True:
            yield x, w_one / prod_plus, w_a / prod_minus
            x *= q
            k += 1
            prod_plus *= (1.0 - x) * (1.0 - x / a)
            prod_minus *= (1.0 - x) * (1.0 - a * x)
            if not (
                sys.float_info.min <= prod_plus < math.inf
                and sys.float_info.min <= prod_minus < math.inf
            ):
                raise ArithmeticError(
                    f"q={q}, a={a}: the running lattice products at k={k} "
                    f"({prod_plus}, {prod_minus}) leave the normal float range"
                )

    return walk()


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

    One pass over the lattice: at x = q^k and at a x the weight comes from
    :func:`lattice_weight`, and rho_N = sum_{j<N} p_j^2 w runs the
    orthonormal recurrence of :func:`_recurrence_steps` on the scaled values
    v_j = p_j sqrt(w) (Gautschi, SIAM Rev. 9 (1967)) for both points in one
    loop over the steps.  The Jackson measure gives each lattice point x the
    mass (1-q)|x| w(x), and the Christoffel function 1 / sum_j p_j(x)^2 of a
    positive measure is at least the mass at x, so rho_N(x) (1-q)|x| <= 1
    there.  A point past that bound (or whose sum is not finite) means the
    forward recurrence has lost its digits (near x = 1 once q^N is small),
    and is refused with ArithmeticError.  The sum stops at ``JACKSON_TOL``.
    """
    if p < 0:
        raise DomainError("p must be nonnegative")
    a, q, N = float(params.a), float(params.q), params.N
    lattice = lattice_weight(params)
    steps = _recurrence_steps(q, a, N)
    mass = 1.0 - q
    limit = 1.0 + _CHRISTOFFEL_SLACK

    def values() -> Iterator[tuple[float, float]]:
        for x, w_plus, w_minus in lattice:
            xm = a * x
            prev_p = prev_m = 0.0  # v_{-1}
            cur_p, cur_m = math.sqrt(w_plus / mass), math.sqrt(w_minus / mass)
            rho_p, rho_m = cur_p * cur_p, cur_m * cur_m
            for b, r, r_next in steps:
                prev_p, cur_p = cur_p, ((x - b) * cur_p - r * prev_p) / r_next
                prev_m, cur_m = cur_m, ((xm - b) * cur_m - r * prev_m) / r_next
                rho_p += cur_p * cur_p
                rho_m += cur_m * cur_m
            # one test for both points; the refusal names the first past the bound
            if not (rho_p * mass * x <= limit and rho_m * mass * -xm <= limit):
                point, rho = (x, rho_p) if not rho_p * mass * x <= limit else (xm, rho_m)
                raise ArithmeticError(
                    f"N={N}, q={q}, a={a}: rho_N(x) (1-q)|x| = "
                    f"{rho * mass * abs(point):.6g} exceeds the Christoffel bound 1 "
                    f"at lattice point x={point}: the recurrence lost its digits"
                )
            yield x**p * rho_p, xm**p * rho_m

    return jackson_integral(values(), a, q, trunc_tol=JACKSON_TOL)


def orthogonality_check(m: int, n: int, params: QParams) -> float:
    """Residual of the orthonormality relation.

    Returns the Jackson integral of v_m v_n minus delta_{mn}, truncated at
    ``ORTHOGONALITY_TOL``, where v_j = p_j sqrt(w) are the scaled values of
    the orthonormal polynomials that :func:`jackson_moment` runs, from
    v_0 = sqrt(w / (1-q)) over the weights of :func:`lattice_weight` and the
    steps of :func:`_recurrence_steps`.  With h_n the squared norm of the
    monic U_n, this is (int U_m U_n w - delta_{mn} h_n) / sqrt(h_m h_n).
    """
    if m < 0 or n < 0:
        raise DomainError("m and n must be nonnegative")
    q, a = float(params.q), float(params.a)
    steps = _recurrence_steps(q, a, max(m, n) + 1)
    mass = 1.0 - q

    def f(x: float, w: float) -> float:
        prev, cur = 0.0, math.sqrt(w / mass)  # v_{-1}, v_0
        v = [cur]
        for b, r, r_next in steps:
            prev, cur = cur, ((x - b) * cur - r * prev) / r_next
            v.append(cur)
        return v[m] * v[n]

    values = ((f(x, w_plus), f(a * x, w_minus)) for x, w_plus, w_minus in lattice_weight(params))
    return jackson_integral(values, a, q, trunc_tol=ORTHOGONALITY_TOL) - (1.0 if m == n else 0.0)


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

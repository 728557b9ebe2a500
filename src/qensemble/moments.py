"""Closed-form spectral moments of the ensemble and reference values.

The central object is the exact triple sum ``moment_closed`` over
(j, k, l).  Its per-j component m_{j+1,p} - m_{j,p} must agree exactly with
the two combinatorial routes in :mod:`qensemble.combinat`, which is the
package's main correctness gate.  The arithmetic mode is the scalar type of
q and a: Fraction parameters give exact rationals, float ones floats.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinat import h_sum
from .qcore import (
    DomainError,
    QParams,
    Scalar,
    _one_like,
    q_double_factorial,
    q_factorial,
    q_int,
)


@dataclass(frozen=True, kw_only=True)
class EnsembleParams(QParams):
    """Validated (q, a, N) bundle: a QParams plus N, a positive integer."""

    N: int

    def __post_init__(self) -> None:
        super().__post_init__()
        if not (isinstance(self.N, int) and self.N >= 1):
            raise DomainError(f"N must be a positive integer, got {self.N}")


def moment_closed(params: EnsembleParams, p: int) -> Scalar:
    """Spectral moment m_{N,p}: expected power sum E[sum_i x_i^p].

    Sums (a+1)^(p-2k) (-a)^k (1-q)^k q^(-l(p-l)+l(l-1)/2)
    [p]_q!/([p-2l]_q!! [l]_q!) h_sum(k-l, p-2k) q^(j(p-l)) qbinom(j, l)
    over j < N and 0 <= l <= min(k, j), k <= p//2; exact rational for exact
    params.  The j-sum is taken inside the (k, l) double sum: the weight of l
    is S_l = sum_{l <= j < N} q^(j(p-l)) qbinom(j, l), built in one pass over
    j with qbinom(j, l) = qbinom(j-1, l) [j]_q / [j-l]_q.
    """
    if p < 0:
        raise DomainError("p must be nonnegative")
    q, a, N = params.q, params.a, params.N
    qint = [q_int(m, q) for m in range(N)]
    pfact = q_factorial(p, q)
    coeffs = []
    for l in range(min(p // 2, N - 1) + 1):
        binom = _one_like(q)
        s = q ** (l * (p - l))
        for j in range(l + 1, N):
            binom = binom * qint[j] / qint[j - l]
            s = s + q ** (j * (p - l)) * binom
        coeffs.append(
            q ** (-l * (p - l) + l * (l - 1) // 2)
            * pfact
            / (q_double_factorial(p - 2 * l, q) * q_factorial(l, q))
            * s
        )
    total: Scalar = 0
    for k in range(p // 2 + 1):
        prefactor = (a + 1) ** (p - 2 * k) * (-a) ** k * (1 - q) ** k
        inner: Scalar = 0
        for l in range(min(k, len(coeffs) - 1) + 1):
            inner = inner + coeffs[l] * h_sum(k - l, p - 2 * k, q)
        total = total + prefactor * inner
    return total


def symmetry_pair(params: EnsembleParams, p: int) -> tuple[Scalar, Scalar]:
    """Return (m_{N,p} at parameter 1/a, a^(-p) m_{N,p} at parameter a).

    The two entries are equal; callers assert the equality.
    """
    if p < 0:
        raise DomainError("p must be nonnegative")
    a = Fraction(params.a) if isinstance(params.a, int) else params.a
    inv = 1 / a
    reflected = EnsembleParams(a=inv, q=params.q, N=params.N)
    return (moment_closed(reflected, p), a ** (-p) * moment_closed(params, p))


def qgauss_integral(p: int, q: Scalar) -> Scalar:
    """q-deformed Gaussian integral: int x^(2p) w(x) dqx at a = -1 equals
    (1-q)^(p+1) [2p-1]_q!!."""
    if p < 0:
        raise DomainError("p must be nonnegative")
    return (1 - q) ** (p + 1) * q_double_factorial(2 * p - 1, q)

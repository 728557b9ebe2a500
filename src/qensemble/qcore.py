"""Exact rational arithmetic and q-calculus primitives.

All operations work in two modes with identical signatures:

* exact mode -- arguments are :class:`fractions.Fraction` (or int) and every
  result is an exact rational;
* float mode -- arguments are floats and results are double precision.

Exact mode is the oracle for float mode throughout the package.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Union

Scalar = Union[Fraction, int, float]


class DomainError(ValueError):
    """Raised when an argument lies outside an operation's domain."""


class TruncationError(ArithmeticError):
    """Raised when a truncated series/lattice sum cannot reach the tolerance."""


def _validate_q(q: Scalar) -> None:
    if not 0 < q < 1:
        raise DomainError(f"q must lie in (0,1), got {q}")


def validate_lambda(lam: Scalar) -> None:
    """Reject a scaling parameter lambda (q = e^(-lambda/N)) that is not
    finite and positive; lambda = inf would collapse q to 0."""
    if not (lam > 0 and math.isfinite(lam)):
        raise DomainError(f"lambda must be finite and positive, got {lam}")


def validate_a(a: Scalar) -> None:
    """Reject an a that is not finite and negative.  Unlike math.isfinite,
    the comparison also works for a Fraction too large for a float."""
    if not -math.inf < a < 0:
        raise DomainError(f"a must be finite and negative, got {a}")


@dataclass(frozen=True, kw_only=True)
class QParams:
    """Parameter bundle (q, a) with 0 < q < 1 and -inf < a < 0.

    Keyword-only, so a positional a and q cannot be swapped.  Fraction (or
    int) fields give exact results and float fields float ones: every float
    route takes float() of q and a itself.
    """

    q: Scalar
    a: Scalar

    def __post_init__(self) -> None:
        _validate_q(self.q)
        validate_a(self.a)


def recurrence(n, q, a):
    """Monic Al-Salam-Carlitz recurrence x U_n = U_{n+1} + b_n U_n + lam_n U_{n-1}:
    (b_n, lam_n) = ((a+1) q^n, -a (1-q^n) q^(n-1)), also the Motzkin step
    weights and, through sqrt(lam_n), the Jacobi matrix.  Fraction or float
    scalars, or an integer ndarray n with float q and a.  The exponent |n-1|
    gives lam_0 = 0 without q^(-1), which overflows at a subnormal float q.
    """
    return (a + 1) * q**n, -a * (1 - q**n) * q ** abs(n - 1)


def q_int(n: int, q: Scalar) -> Scalar:
    """q-deformed integer [n]_q = 1 + q + ... + q^(n-1) = (1-q^n)/(1-q).

    Accepts q = 1 (returns n) so classical limits can be checked.
    """
    if n < 0:
        raise DomainError(f"q_int requires n >= 0, got {n}")
    if q == 1:
        return n if isinstance(q, int) else type(q)(n)
    return (1 - q**n) / (1 - q)


def q_double_factorial(n: int, q: Scalar) -> Scalar:
    """[n]_q!! = [n]_q [n-2]_q ... down to [1]_q or [2]_q.

    Convention: [0]_q!! = [-1]_q!! = 1.  (The value at n = -1 is needed so
    that the boundary cases of the matching-sum closed form are consistent.)
    """
    if n < -1:
        raise DomainError(f"q_double_factorial requires n >= -1, got {n}")
    result = _one_like(q)
    m = n
    while m >= 2:
        result = result * q_int(m, q)
        m -= 2
    return result


def q_binomial(n: int, k: int, q: Scalar) -> Scalar:
    """Gaussian binomial coefficient [n]_q! / ([k]_q! [n-k]_q!).

    Evaluated as the product of the min(k, n-k) ratios [n-i+1]_q / [i]_q,
    so float mode stays finite where [n]_q! alone would overflow.
    """
    if k < 0 or k > n:
        raise DomainError(f"q_binomial requires 0 <= k <= n, got n={n}, k={k}")
    if isinstance(q, int):
        q = Fraction(q)  # keep the division exact
    result = _one_like(q)
    for i in range(1, min(k, n - k) + 1):
        result = result * q_int(n - i + 1, q) / q_int(i, q)
    return result


#: log-tail bound at which :func:`q_pochhammer_infinite` truncates
PRODUCT_TOL = 1e-15


def q_pochhammer_infinite(z: float, q: float) -> float:
    """Infinite product (z; q)_inf = prod_{l>=0} (1 - z q^l), float mode.

    The product is truncated once the log-tail bound
    sum_{l>L} |z| q^l / (1 - |z| q^l) drops below ``PRODUCT_TOL``, so the
    relative error is of order PRODUCT_TOL.  A vanishing factor
    (z q^l = 1) yields an exact 0.  A z that is not finite is refused at
    once: no truncation point exists for it.
    """
    z = float(z)
    q = float(q)
    if not abs(q) < 1:
        raise DomainError(f"q_pochhammer_infinite requires |q| < 1, got q={q}")
    if not math.isfinite(z):
        raise DomainError(f"q_pochhammer_infinite requires a finite z, got z={z}")
    if z == 0.0:
        return 1.0
    # tail bound after the factor of l: with t = |z q^(l+1)|,
    # sum_{m>l} |z q^m| / (1-|z q^m|) <= t/((1-|q|)(1-t)), below PRODUCT_TOL
    # exactly when t < tstop
    c = PRODUCT_TOL * (1.0 - abs(q))
    tstop = c / (1.0 + c)
    result = 1.0
    zq = z
    for _ in range(100000):
        result *= 1.0 - zq
        if result == 0.0:
            return 0.0
        zq *= q
        if abs(zq) < tstop:
            return result
    raise TruncationError("q_pochhammer_infinite did not converge")


def jackson_integral(
    values: Iterable[tuple[float, float]],
    a: float,
    q: float,
    trunc_tol: float = 1e-12,
) -> float:
    """Jackson q-integral of f over [a, 1] with a < 0.

    Evaluates (1-q) sum_k [ q^k f(q^k) - a q^k f(a q^k) ] over the bilateral
    geometric lattice {q^k} union {a q^k}.  ``values`` yields the pairs
    (f(q^k), f(a q^k)) for k = 0, 1, ..., so the integrand can walk the
    lattice once and carry finite products along it in place of infinite
    ones at x.
    Truncation: after each decade of lattice points the geometric tail is
    bounded by 10 x the largest |f| seen in that decade (safety factor 10);
    summation stops once the bound is below ``trunc_tol``.  A value that is
    not finite, or values that end before the bound is met, raise
    TruncationError.
    """
    validate_a(a)
    a = float(a)
    q = float(q)
    _validate_q(q)
    if trunc_tol <= 0:
        raise DomainError("trunc_tol must be positive")
    # number of lattice points per decade in x
    chunk = max(1, math.ceil(math.log(0.1) / math.log(q)))
    pairs = iter(values)
    total = 0.0
    qk = 1.0
    k = 0
    while True:
        fmax = 0.0
        start = k
        for fp, fm in itertools.islice(pairs, chunk):
            if not (math.isfinite(fp) and math.isfinite(fm)):
                bad = qk if not math.isfinite(fp) else a * qk
                raise TruncationError(
                    f"non-finite integrand value at lattice point x={bad!r}"
                )
            total += qk * (fp - a * fm)
            fmax = max(fmax, abs(fp), abs(fm))
            qk *= q
            k += 1
        if k - start < chunk:
            raise TruncationError(
                f"jackson_integral: the integrand values ended at k={k}, "
                "before the tail bound was met"
            )
        # tail of the final integral: (1-q) * sum_{m>k} q^m (|f| + |a f|)
        # <= fmax*(1+|a|)*q^(k+1), padded by safety factor 10 (f decays
        # toward 0 for the integrands we use, so fmax over the last decade
        # bounds the tail values)
        tail = 10.0 * fmax * (1.0 + abs(a)) * qk
        if tail < trunc_tol:
            break
        if k > 10_000_000:
            raise TruncationError("jackson_integral truncation did not converge")
    return (1.0 - q) * total


def _one_like(q: Scalar) -> Scalar:
    """Multiplicative unit in the arithmetic mode of q."""
    if isinstance(q, float):
        return 1.0
    if isinstance(q, Fraction):
        return Fraction(1)
    return 1

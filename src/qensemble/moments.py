"""Closed-form spectral moments of the ensemble and reference values.

The central object is the exact triple sum ``moment_closed`` over
(j, k, l).  Its per-j component m_{j+1,p} - m_{j,p} must agree exactly with
the two combinatorial routes in :mod:`qensemble.combinat`, which is the
package's main correctness gate.  The arithmetic mode is the scalar type of
q and a: Fraction (or int) parameters give exact rationals, float ones
floats.  Like every route of the package, the closed form has one
implementation, an integer scheme over one common denominator: exact mode
runs it on integers and builds one Fraction, at the end; float mode runs it
on floats at d = t = 1, and exact mode is its oracle in C01.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .combinat import _arithmetic, _dfact_ints, _h_prefixes_int, _q_int_ints, _r_steps
from .qcore import DomainError, QParams, Scalar


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
    over j < N and 0 <= l <= min(k, j), k <= p//2.  The j-sum is taken
    inside the (k, l) double sum: the weight of l is
    S_l = sum_{l <= j < N} q^(j(p-l)) qbinom(j, l), built in one pass over j
    with qbinom(j, l) = qbinom(j-1, l) [j]_q / [j-l]_q.

    Each shared quantity is built once per call: one table of [m]_q,
    m < max(N, p+1), gives the q-binomial updates, [p]_q!, [l]_q! and the
    double factorials, and for each k one run of the h_sum recursion with
    c = p-2k and entries up to k gives, as prefix sums, every
    h_sum(k-l, p-2k) of the l-sum.

    The sum is taken at q = u/d, a = s/t on integers and divided once.
    m_{N,p} is a polynomial in q and a with integer coefficients (a sum of
    q^(cr + 2 ne) over matchings), of degree p in a and
    E = floor(p^2/4) + (N-1) p in q, so it is one integer over t^p d^E.
    Every q-polynomial is held as an integer over a power of d:
    A_m = d^(m-1) [m]_q, G = d^(l(j-l)) qbinom(j, l), updated as
    G A_j / A_(j-l), and the weight of l with q^(-l(p-l)) folded in,
    q^(-l(p-l)) S_l = sum_{i < N-l} q^(i(p-l)) qbinom(i+l, l), so that u
    never enters a denominator.  Over the common d^c, c the exponent at
    l = 0, the weight of l is u^(l(l-1)/2) W_l T_l d^(l^2), with
    W_l = F_p / (D_(p-2l) F_l) the integer [p]_q!/([p-2l]_q!! [l]_q!).
    The h_sum runs are scaled by F_(p-1), the integer [p-1]_q!, which the
    total then divides exactly.  Exact parameters (neither q nor a a float)
    give the exact rational, one Fraction; otherwise the same sum runs on
    floats at d = t = 1 (:func:`qensemble.combinat._arithmetic`).
    """
    if p < 0:
        raise DomainError("p must be nonnegative")
    N = params.N
    u, d, s, t, div, end = _arithmetic(params.q, params.a)
    qint = _q_int_ints(max(N, p + 1), u, d)
    fact = [1, 1]  # F_m = A_2 ... A_m, the integer [m]_q!
    for m in range(2, p + 1):
        fact.append(fact[-1] * qint[m])
    dfact = _dfact_ints(qint[: p + 1])
    dp = d**p
    weights = []
    for l in range(min(p // 2, N - 1) + 1):
        g = 1
        up = u ** (p - l)
        power = 1  # u^(i(p-l))
        acc = 1  # sum_{i' <= i} G_(i'+l) u^(i'(p-l)) d^((i-i')p)
        for j in range(l + 1, N):
            g = div(g * qint[j], qint[j - l])
            power *= up
            acc = acc * dp + g * power
        w = div(fact[p], dfact[p - 2 * l] * fact[l])
        weights.append(u ** (l * (l - 1) // 2) * w * acc * d ** (l * l))
    scale = fact[p - 1] if p else 1
    steps = _r_steps(p, dfact, d)
    half = p // 2
    base = (-s) * t * (d - u)
    total = 0
    for k in range(half + 1):
        h = _h_prefixes_int(k, p - 2 * k, steps, scale, div)
        inner = 0
        for l in range(min(k, len(weights) - 1) + 1):
            inner += weights[l] * h[k - l]
        total += (s + t) ** (p - 2 * k) * base**k * d ** (half - k) * inner
    return end(div(total, scale), t**p * d ** (half * (p - half) + (N - 1) * p))


def symmetry_pair(params: EnsembleParams, p: int) -> tuple[Scalar, Scalar]:
    """Return (m_{N,p} at parameter 1/a, a^(-p) m_{N,p} at parameter a).

    The two entries are equal; callers assert the equality.
    """
    a = Fraction(params.a) if isinstance(params.a, int) else params.a
    inv = 1 / a
    reflected = EnsembleParams(a=inv, q=params.q, N=params.N)
    return (moment_closed(reflected, p), a ** (-p) * moment_closed(params, p))


def qgauss_integral(p: int, q: Scalar) -> Scalar:
    """q-deformed Gaussian integral: int x^(2p) w(x) dqx at a = -1 equals
    (1-q)^(p+1) [2p-1]_q!!, at q = u/d the integer D_(2p-1) of
    :func:`qensemble.combinat._dfact_ints` over d^(p(p-1)), divided once."""
    if p < 0:
        raise DomainError("p must be nonnegative")
    u, d, _, _, _, end = _arithmetic(q)
    # the table holds A_0 ... A_(2p-1); at p = 0 it is [A_0], and D_0 = 1 = D_(-1)
    dfact = _dfact_ints(_q_int_ints(2 * p, u, d))[-1]
    return (1 - q) ** (p + 1) * end(dfact, d ** (p * (p - 1)))

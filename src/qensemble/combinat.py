"""Weighted Motzkin paths and generalized matchings.

Two independent combinatorial routes to the ensemble's moment components:
exhaustive weighted Motzkin-path sums, and statistic-weighted sums over
generalized matchings (partial matchings whose unmatched vertices are typed
as isolated or vertical).  Both enumerations are exhaustive, deterministic
and exact, so they serve as brute-force oracles for the closed formulas.

Each Motzkin path is weighed while an unmemoised recursion walks its steps,
so every path is visited and the route stays independent of the transfer matrix.

A matching's statistic cr + 2 ne counts crossings (arc/arc interleaved,
isolated or vertical strictly inside an arc, isolated before vertical) and
nestings (arc strictly inside an arc, isolated before an arc).  It is added
up while the matching is built vertex by vertex, with m open arcs:

- closing the i-th oldest open arc (i = 0, ..., m-1) adds (m-1-i) + 2i;
- an isolated vertex adds m;
- a vertical adds m + #isolated so far;
- an opener adds 2 #isolated so far.

Each choice gives a different matching, so every matching is visited once.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable

from .qcore import (
    DomainError,
    QParams,
    Scalar,
    _one_like,
    q_binomial,
    q_double_factorial,
    q_int,
    recurrence,
)

#: Size caps keeping exhaustive enumeration fast.  The moment routes take
#: theirs as a default, which a caller may raise; ``alpha_bruteforce`` has
#: no such argument.
MOTZKIN_CAP = 14
MATCHING_CAP = 10


class ResourceCapError(RuntimeError):
    """Raised when an exhaustive enumeration exceeds its size cap."""


def _motzkin_sum(
    p: int, j: int, coeffs: Callable[[int], tuple[Scalar, Scalar]]
) -> Scalar:
    """Sum of the weights of the Motzkin paths of length p from height j to j,
    with ``coeffs(h) = (b_h, lam_h)``: b_h per East step at height h, lam_h per
    SouthEast step leaving h.  Steps are tried SouthEast < East < NorthEast, so
    paths are weighed left to right and summed in lexicographic order."""
    if p < 0 or j < 0:
        raise DomainError("p and j must be nonnegative")
    total: Scalar = 0

    def rec(h: int, r: int, w: Scalar) -> None:
        nonlocal total
        if abs(h - j) > r:
            return
        if r == 0:
            total = total + w
            return
        if h:
            rec(h - 1, r - 1, w * coeffs(h)[1])
        rec(h, r - 1, w * coeffs(h)[0])
        rec(h + 1, r - 1, w)

    rec(j, p, 1)
    return total


def moment_via_motzkin(
    p: int, j: int, params: QParams, cap: int = MOTZKIN_CAP
) -> Scalar:
    """Moment component as a weighted sum over all Motzkin paths p, j -> j.

    Steps weigh the unrescaled :func:`qensemble.qcore.recurrence`
    coefficients, built once per height and call, so the value is exactly
    rational in exact mode.  Guarded by ``cap`` since the number of paths
    grows exponentially with p.
    """
    if p > cap:
        raise ResourceCapError(f"moment_via_motzkin: p={p} exceeds cap {cap}")
    coeffs = lru_cache(maxsize=None)(partial(recurrence, q=params.q, a=params.a))
    return _motzkin_sum(p, j, coeffs)


# ---------------------------------------------------------------------------
# generalized matchings


@lru_cache(maxsize=None)
def _stat_histogram(
    n: int, arcs: int, verticals: int, opener_prefix: int
) -> tuple[tuple[int, int], ...]:
    """Histogram {cr + 2 ne: multiplicity} over the generalized matchings on
    [n] with the given arc and vertical counts whose first ``opener_prefix``
    vertices are all openers or isolated.  Empty when the counts are
    infeasible.

    One exhaustive recursion over vertices 1..n places each vertex and adds
    its share of the statistic, which depends only on the number m of open
    arcs and the number of isolated vertices so far (see the module
    docstring).  Cached so that weighted sums at many (q, a) reuse one
    enumeration.
    """
    if n < 0 or arcs < 0 or verticals < 0 or opener_prefix < 0:
        raise DomainError("counts must be nonnegative")
    counter: Counter[int] = Counter()

    def rec(v: int, m: int, to_open: int, verts: int, iso: int, s: int) -> None:
        # every open arc and every arc still to open needs a closer; every
        # pending vertical needs a vertex
        if m + 2 * to_open + verts > n - v + 1:
            return
        if v > n:
            counter[s] += 1
            return
        if v > opener_prefix:
            # close the i-th oldest open arc: the m-1-i newer ones cross it,
            # the i older ones nest it
            for i in range(m):
                rec(v + 1, m - 1, to_open, verts, iso, s + m - 1 + i)
            if verts:
                rec(v + 1, m, to_open, verts - 1, iso, s + m + iso)
        rec(v + 1, m, to_open, verts, iso + 1, s + m)
        if to_open:
            rec(v + 1, m + 1, to_open - 1, verts, iso, s + 2 * iso)

    rec(1, 0, arcs, verticals, 0, 0)
    return tuple(sorted(counter.items()))


def _matching_sum(
    n: int, arcs: int, verticals: int, opener_prefix: int, q: Scalar
) -> Scalar:
    """Sum of q^(cr + 2 ne) over the family of :func:`_stat_histogram`."""
    total: Scalar = 0
    for s, mult in _stat_histogram(n, arcs, verticals, opener_prefix):
        total = total + mult * q**s
    return total


def h_sum(b: int, c: int, q: Scalar) -> Scalar:
    """Sum over weakly increasing tuples 0 <= j_1 <= ... <= j_c <= b of
    prod_k r(2 j_k + k - 1), where r(m) = [m-1]_q!! / [m]_q!!.

    Computed by recursion over the last tuple entry in O(b c) steps: the sum
    h_k[j] over length-k tuples ending in j is r(2j+k-1) sum_{j'<=j} h_{k-1}[j'],
    from h_0 = (1, 0, ..., 0).  Boundary values: (b, 0) -> 1 and
    (0, c) -> 1 / [c-1]_q!!.
    """
    if b < 0 or c < 0:
        raise DomainError("h_sum requires b, c >= 0")
    if isinstance(q, int):
        q = Fraction(q)  # keep the divisions exact
    one = _one_like(q)
    r = [one]  # r(0) = [-1]_q!! / [0]_q!! = 1
    for m in range(1, 2 * b + c):
        r.append(one / (q_int(m, q) * r[-1]))
    h = [one] + [0 * one] * b
    for k in range(1, c + 1):
        prefix = 0 * one
        for j in range(b + 1):
            prefix = prefix + h[j]
            h[j] = r[2 * j + k - 1] * prefix
    return sum(h, 0 * one)


def alpha_bruteforce(n: int, b: int, c: int, q: Scalar) -> Scalar:
    """Sum of q^(cr + 2 ne) over all generalized matchings in Mat(n, b, c),
    for n up to ``MATCHING_CAP``."""
    if n > MATCHING_CAP:
        raise ResourceCapError(f"alpha_bruteforce: n={n} exceeds cap {MATCHING_CAP}")
    return _matching_sum(n, b, c, 0, q)


def alpha_closed(n: int, b: int, c: int, q: Scalar) -> Scalar:
    """Closed form qbinom(n, 2b+c) [2b+c-1]_q!! h_sum(b, c); needs n >= 2b+c."""
    if not n >= 2 * b + c >= 0:
        raise DomainError("alpha_closed requires n >= 2b + c >= 0")
    return (
        q_binomial(n, 2 * b + c, q)
        * q_double_factorial(2 * b + c - 1, q)
        * h_sum(b, c, q)
    )


def alpha_recurrence(n: int, b: int, c: int, q: Scalar) -> Scalar:
    """Same sum via the four-term recurrence obtained by classifying the
    first vertex (isolated / opener / vertical)."""
    if not n >= 2 * b + c >= 0:
        raise DomainError("alpha_recurrence requires n >= 2b + c >= 0")
    memo: dict[tuple[int, int, int], Scalar] = {}

    def rec(nn: int, bb: int, cc: int) -> Scalar:
        if bb < 0 or cc < 0 or nn < 0 or 2 * bb + cc > nn:
            return 0
        if nn == 0:
            return _one_like(q)
        key = (nn, bb, cc)
        if key not in memo:
            memo[key] = (
                q ** (2 * bb + cc) * rec(nn - 1, bb, cc)
                + q_int(nn - 1, q) * rec(nn - 2, bb - 1, cc)
                + rec(nn - 1, bb, cc - 1)
            )
        return memo[key]

    return rec(n, b, c)


def moment_component_via_matching(
    p: int, j: int, params: QParams, cap: int = MATCHING_CAP
) -> Scalar:
    """Moment component as a statistic-weighted sum over generalized
    matchings on [p + j] whose first j vertices are isolated or openers.

    Returns sum_k (a+1)^(p-2k) (-a)^k (1-q)^k  sum_M q^(cr + 2 ne), the
    unrescaled component, hence exactly rational in exact mode.
    """
    if p < 0 or j < 0:
        raise DomainError("p and j must be nonnegative")
    if p + j > cap:
        raise ResourceCapError(
            f"moment_component_via_matching: p+j={p + j} exceeds cap {cap}"
        )
    q, a = params.q, params.a
    total: Scalar = 0
    for k in range(p // 2 + 1):
        inner = _matching_sum(p + j, k, p - 2 * k, j, q)
        total = total + (a + 1) ** (p - 2 * k) * (-a) ** k * (1 - q) ** k * inner
    return total

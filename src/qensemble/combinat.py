"""Weighted Motzkin paths and generalized matchings.

Two independent combinatorial routes to the ensemble's moment components:
exhaustive weighted Motzkin-path sums, and statistic-weighted sums over
generalized matchings (partial matchings whose unmatched vertices are typed
as isolated or vertical).  Both enumerations are exhaustive, deterministic
and exact, so they serve as brute-force oracles for the closed formulas.

Each Motzkin path is weighed while an unmemoised recursion walks its steps,
so every path is visited and the route stays independent of the transfer matrix.
Both recursions call a child only when the walk can still finish from it:
the Motzkin walk a height within r - 1 steps of j, taking the last step back
to j inline, and the matching recursion an isolated vertex only when a
vertex is left over for it (every other choice keeps the rest feasible).
No call is spent on a dead branch, every path and every matching is still
visited once, in the same order, and no partial walk is cached.
Every route has one implementation, an integer scheme over one common
denominator taken from q = u/d and a = s/t alone.  The walk multiplies the
integers b_h L and lam_h L^2, with L = t d^max(0, 2H - 1) and H = j + p // 2
the highest height a path reaches.  A matching histogram is evaluated at
q = u/d as one integer over d^S, S its top statistic (:func:`_histogram_int`),
and the matching component lifts the term of every k to t^p d^E, E the
largest power of d among them.  :func:`h_sum` runs its recursion on integers
at q = u/d (:func:`_h_prefixes_int`, also the run of the closed form in
:mod:`qensemble.moments`), and :func:`alpha_closed` reads its q-binomial
and q-double factorial from the same tables of q-integers.
:func:`_arithmetic` picks the mode once per call.  In exact mode every
division is exact and each route builds one Fraction, at the end, so its
value is the one the step-by-step Fraction products gave.  Every route
returns through that last step, ``end``, at every p and for an empty family
too (the empty Motzkin path at p = 0, an infeasible :func:`alpha_bruteforce`
family), so a call's value has its mode's type: Fraction in exact mode,
float in float mode.  Float mode runs the same scheme on floats at
d = t = 1, where the Motzkin steps and the matching sums are the float
products of the recurrence coefficients and of q^c, bit for bit; its
``end`` refuses an overflowed value with OverflowError, so no float route
returns inf or NaN.  Every enumeration is
refused before it starts once its size, counted in closed form
(:func:`motzkin_count`, :func:`matching_count`), passes
:data:`ENUMERATION_BUDGET`: that counted size is the library's only bound
on enumeration work, whatever p, j or n.

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

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import truediv
from typing import Callable

from .qcore import DomainError, QParams, Scalar

#: Most Motzkin paths or generalized matchings one enumeration may visit,
#: counted before it starts: one moment component, one ``alpha_bruteforce``
#: family, or all components of a CLI request.  It admits every component
#: C01 checks and one of p = 10, j = 3 of either route.  The largest
#: requests it admits under the CLI's default ``--cap`` of 14,
#: ``moments --N 4 --p-max 14 --method motzkin`` (2.45e6 paths) and
#: ``--N 3 --p-max 10 --method matching`` (9.7e5 matchings), take about
#: 1.2 s and 0.9 s (2 vCPUs, Python 3.11).
ENUMERATION_BUDGET = 3_000_000


class ResourceCapError(RuntimeError):
    """Raised when an enumeration's counted size passes
    :data:`ENUMERATION_BUDGET`, or a CLI request passes its ``--cap``."""


# every call of a route counts its component, so each count is cached per
# shape (p, j); bounded, since a CLI request counts every j < N
@lru_cache(maxsize=256)
def motzkin_count(p: int, j: int) -> int:
    """Number of Motzkin paths of length p from height j to j: C(p, 2k)
    places for k up- and k down-steps, times the C(2k, k) - C(2k, k-j-1)
    orders that stay >= 0 (reflection principle)."""
    return sum(
        math.comb(p, 2 * k)
        * (math.comb(2 * k, k) - (math.comb(2 * k, k - j - 1) if k > j else 0))
        for k in range(p // 2 + 1)
    )


def _mat_count(n: int, b: int, c: int) -> int:
    """|Mat(n, b, c)|, the generalized matchings on [n] with b arcs and c
    verticals: C(n, 2b + c) C(2b + c, 2b) (2b - 1)!!, alpha_closed(n, b, c, 1).
    Needs nonnegative counts."""
    return (
        math.comb(n, 2 * b + c) * math.comb(2 * b + c, 2 * b) * math.prod(range(2 * b - 1, 0, -2))
    )


@lru_cache(maxsize=256)
def matching_count(p: int, j: int) -> int:
    """Number of generalized matchings on [p + j] with k arcs and p - 2k
    verticals, summed over k.  The opener-prefix family of
    :func:`moment_component_via_matching` is a subset of these."""
    return sum(_mat_count(p + j, k, p - 2 * k) for k in range(p // 2 + 1))


def check_budget(what: str, count: int) -> None:
    """Refuse an enumeration of ``count`` objects past
    :data:`ENUMERATION_BUDGET`, before it starts."""
    if count > ENUMERATION_BUDGET:
        raise ResourceCapError(
            f"{what}: at least {count} objects to enumerate, "
            f"past the budget of {ENUMERATION_BUDGET}"
        )


# ---------------------------------------------------------------------------
# one integer scheme, two arithmetic modes


def _exact_div(num: int, den: int) -> int:
    """num / den for a den that divides num.  A remainder means the integer
    scheme itself is wrong, never its input, so it raises."""
    quo, rem = divmod(num, den)
    if rem:
        raise ArithmeticError("an exact integer division left a remainder")
    return quo


def _float_end(num: float, den: float) -> float:
    """num / den, the last step of a float route.  A numerator, denominator
    or quotient that is not finite means a float of the scheme overflowed,
    and the route's value is lost: it raises OverflowError."""
    quo = num / den
    # a numerator that is not finite gives a quotient that is not finite
    if not (math.isfinite(quo) and math.isfinite(den)):
        raise OverflowError(f"a float route overflowed: {num} / {den} = {quo}")
    return quo


def _arithmetic(
    q: Scalar, a: Scalar = 0
) -> tuple[Scalar, Scalar, Scalar, Scalar, Callable, Callable]:
    """The arithmetic of one call, (u, d, s, t, div, end) with q = u/d and
    a = s/t: ``div`` is each division of the integer scheme, ``end`` its last.

    A float q or a makes the call float: u = q and s = a as floats over
    d = t = 1.0, ``div`` is float division and ``end`` is
    :func:`_float_end`, float division that refuses a value that is not
    finite.  Otherwise (Fraction or int) u, d, s, t are the integer
    numerators and denominators, ``div`` is :func:`_exact_div` and ``end``
    builds the call's one Fraction."""
    if isinstance(q, float) or isinstance(a, float):
        return float(q), 1.0, float(a), 1.0, truediv, _float_end
    return q.numerator, q.denominator, a.numerator, a.denominator, _exact_div, Fraction


def _motzkin_sum(p: int, j: int, weights: list[tuple[Scalar, Scalar]]) -> Scalar:
    """Sum of the weights of the Motzkin paths of length p from height j to j,
    with ``weights[h] = (b_h, lam_h)`` for every height h the paths reach,
    h <= j + p // 2: b_h per East step at height h, lam_h per SouthEast step
    leaving h.  Steps are tried SouthEast < East < NorthEast, so paths are
    weighed left to right and summed in lexicographic order.  The empty
    path, p = 0, weighs the int 1.

    The walk is called only at a height h from which it can still end at j,
    |h - j| <= r with r steps left, so it tests each child before calling it,
    and it takes the last step, the one back to j, inline.  Every path is
    still visited once, in that order, and no partial walk is cached."""
    if p < 0 or j < 0:
        raise DomainError("p and j must be nonnegative")
    if p == 0:
        return 1
    total: Scalar = 0

    def rec(h: int, r: int, w: Scalar) -> None:
        # here |h - j| <= r and r >= 1
        nonlocal total
        if r == 1:
            if h == j - 1:  # NorthEast, weight 1
                total = total + w
            else:
                b, lam = weights[h]
                total = total + w * (b if h == j else lam)
            return
        b, lam = weights[h]
        r -= 1
        if h and j - h < r:
            rec(h - 1, r, w * lam)
        if abs(h - j) <= r:
            rec(h, r, w * b)
        if h - j < r:
            rec(h + 1, r, w)

    rec(j, p, 1)
    return total


def moment_via_motzkin(p: int, j: int, params: QParams) -> Scalar:
    """Moment component as a weighted sum over all Motzkin paths p, j -> j.

    Steps weigh the unrescaled :func:`qensemble.qcore.recurrence`
    coefficients b_h = (a+1) q^h and lam_h = -a (1-q^h) q^(h-1), so the value
    is exactly rational in exact mode.  There, at q = u/d and a = s/t, a
    path reaches the heights h <= H = j + p // 2, and
    L = t d^e, e = max(0, 2H - 1), is a common denominator of every
    b_h = (s+t) u^h / (t d^h) and lam_h = (-s)(d^h - u^h) u^(h-1) / (t d^(2h-1))
    among them.  The walk indexes a table of the integers b_h L and
    lam_h L^2, built from u, d, s and t alone.  Every path has
    #E + 2 #SE = p, so each weighs its value times L^p, and the sum is one
    Fraction over L^p: the only Fraction of the call, at p = 0 too.  Float
    mode runs the same walk at d = t = 1 (:func:`_arithmetic`), whose steps
    are the float products of :func:`qensemble.qcore.recurrence`, bit for
    bit.  Refused past :data:`ENUMERATION_BUDGET` paths, since their
    number grows exponentially with p.
    """
    check_budget(f"moment_via_motzkin: p={p}, j={j}", motzkin_count(p, j))
    u, d, s, t, _, end = _arithmetic(params.q, params.a)
    top = j + p // 2
    e = max(0, 2 * top - 1)
    weights = [
        (
            (s + t) * u**h * d ** (e - h),
            -s * t * (d**h - u**h) * u ** (h - 1) * d ** (2 * e + 1 - 2 * h) if h else 0,
        )
        for h in range(top + 1)
    ]
    return end(_motzkin_sum(p, j, weights), (t * d**e) ** p)


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
    docstring).  It is entered only for feasible counts and calls an
    isolated vertex only when a vertex is left over for it, the one choice
    that could leave too few vertices for the open arcs, the arcs still to
    open and the pending verticals; every matching is still visited once,
    in the same order.  Cached per family, so that weighted sums at many
    (q, a) reuse one enumeration; the recursion itself caches nothing.
    Needs nonnegative counts.
    """
    counter: Counter[int] = Counter()

    def rec(v: int, m: int, to_open: int, verts: int, iso: int, s: int) -> None:
        # here m + 2 to_open + verts <= n - v + 1: every open arc and every
        # arc still to open needs a closer, every pending vertical a vertex
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
        # an isolated vertex is the one choice that leaves as much to place
        if m + 2 * to_open + verts <= n - v:
            rec(v + 1, m, to_open, verts, iso + 1, s + m)
        if to_open:
            rec(v + 1, m + 1, to_open - 1, verts, iso, s + 2 * iso)

    if 2 * arcs + verticals <= n:
        rec(1, 0, arcs, verticals, 0, 0)
    return tuple(sorted(counter.items()))


def _histogram_int(
    hist: tuple[tuple[int, int], ...], u: Scalar, d: Scalar
) -> tuple[Scalar, int]:
    """A histogram of :func:`_stat_histogram` summed at q = u/d as one
    integer over d^S, S its top statistic: the pair
    (sum mult u^c d^(S-c), S); at d = 1 the float sum of mult q^c, in
    increasing c.  An empty histogram, an infeasible family, is 0 over d^0."""
    top = hist[-1][0] if hist else 0
    return sum(mult * u**c * d ** (top - c) for c, mult in hist), top


# ---------------------------------------------------------------------------
# q-polynomials at q = u/d: integers over a power of d in exact mode, floats
# at d = 1 in float mode


def _q_int_ints(n: int, u: Scalar, d: Scalar) -> list[Scalar]:
    """A_m = d^(m-1) [m]_q at q = u/d for m < n, integers in exact mode:
    A_0 = 0 and A_m = d A_(m-1) + u^(m-1)."""
    ints = [0]
    power = 1  # u^(m-1)
    for _ in range(1, n):
        ints.append(d * ints[-1] + power)
        power *= u
    return ints


def _dfact_ints(qint: list[Scalar]) -> list[Scalar]:
    """D_m = A_m A_(m-2) ..., the integer [m]_q!! = D_m / d^e(m) with
    e(m) = floor(m/2) ceil(m/2), for m < len(qint); D_0 = D_1 = 1."""
    dfact: list[Scalar] = []
    for m, A in enumerate(qint):
        dfact.append(A * dfact[m - 2] if m >= 2 else 1)
    return dfact


def _r_steps(n: int, dfact: list[Scalar], d: Scalar) -> list[tuple[Scalar, Scalar]]:
    """r(m) = [m-1]_q!! / [m]_q!! for m < n as the integer pair
    (D_(m-1) d^floor(m/2), D_m): e(m) - e(m-1) = floor(m/2)."""
    return [((dfact[m - 1] if m else 1) * d ** (m // 2), dfact[m]) for m in range(n)]


def _h_prefixes_int(
    b: int, c: int, steps: list[tuple[Scalar, Scalar]], scale: Scalar, div: Callable
) -> list[Scalar]:
    """[h_sum(0, c), ..., h_sum(b, c)], each times ``scale`` = F_(n-1) =
    A_2 ... A_(n-1), the integer d^e [n-1]_q!, n = 2b + c: one run of the
    recursion of :func:`h_sum` with entries up to b, given ``steps`` from
    :func:`_r_steps` and the division step ``div`` of :func:`_arithmetic`.

    An entry h_c[j] depends only on the entries j' <= j of h_{c-1}, so the
    run with entries up to b holds the run for every b' <= b, and its
    running prefix sums are the h_sum(b', c).  Consecutive arguments m of r
    in one tuple differ by an odd number, so a tuple's product is a
    polynomial in q over [M]_q!!, M its last argument.  [n-1]_q! is a
    multiple of every such [M]_q!!, so every entry of the run scaled by
    F_(n-1) is an integer, and each r(m) step is one multiplication and one
    division by D_m, exact on integers."""
    h = [scale] + [0] * b
    for k in range(1, c + 1):
        prefix = 0
        for j in range(b + 1):
            prefix += h[j]
            num, den = steps[2 * j + k - 1]
            h[j] = div(prefix * num, den)
    return list(accumulate(h))


def h_sum(b: int, c: int, q: Scalar) -> Scalar:
    """Sum over weakly increasing tuples 0 <= j_1 <= ... <= j_c <= b of
    prod_k r(2 j_k + k - 1), where r(m) = [m-1]_q!! / [m]_q!!.

    Computed by recursion over the last tuple entry in O(b c) steps: the sum
    h_k[j] over length-k tuples ending in j is r(2j+k-1) sum_{j'<=j} h_{k-1}[j'],
    from h_0 = (1, 0, ..., 0), and h_sum is the sum of the final entries.
    The value is the last prefix sum of one run, whose prefix sums also give
    :func:`qensemble.moments.moment_closed` every h_sum(b', c) with b' <= b.
    The run is :func:`_h_prefixes_int` at q = u/d, divided once, at the end:
    on integers for an exact q (Fraction or int), on floats at d = 1 for a
    float one.  Boundary values: (b, 0) -> 1 and (0, c) -> 1 / [c-1]_q!!.
    """
    if b < 0 or c < 0:
        raise DomainError("h_sum requires b, c >= 0")
    n = 2 * b + c
    u, d, _, _, div, end = _arithmetic(q)
    qint = _q_int_ints(n, u, d)
    scale = math.prod(qint[2:n])
    steps = _r_steps(n, _dfact_ints(qint), d)
    return end(_h_prefixes_int(b, c, steps, scale, div)[-1], scale)


def alpha_bruteforce(n: int, b: int, c: int, q: Scalar) -> Scalar:
    """Sum of q^(cr + 2 ne) over all generalized matchings in Mat(n, b, c),
    refused past :data:`ENUMERATION_BUDGET` matchings."""
    if n < 0 or b < 0 or c < 0:
        raise DomainError("counts must be nonnegative")
    check_budget(f"alpha_bruteforce: n={n}, b={b}, c={c}", _mat_count(n, b, c))
    u, d, _, _, _, end = _arithmetic(q)
    num, top = _histogram_int(_stat_histogram(n, b, c, 0), u, d)
    return end(num, d**top)


def alpha_closed(n: int, b: int, c: int, q: Scalar) -> Scalar:
    """Closed form qbinom(n, m) [m-1]_q!! h_sum(b, c), m = 2b + c; needs n >= m.

    At q = u/d, with A_k from :func:`_q_int_ints`, D_k from
    :func:`_dfact_ints` and e(k) = floor(k/2) ceil(k/2), the first two
    factors are A_(n-m+1) ... A_n D_(m-1) / (A_1 ... A_m d^(m(n-m) + e(m-1))),
    one division by ``end`` of :func:`_arithmetic`."""
    m = 2 * b + c
    if not n >= m >= 0:
        raise DomainError("alpha_closed requires n >= 2b + c >= 0")
    u, d, _, _, _, end = _arithmetic(q)
    qint = _q_int_ints(n + 1, u, d)
    num = math.prod(qint[n - m + 1 :]) * (_dfact_ints(qint[:m])[-1] if m else 1)
    den = math.prod(qint[1 : m + 1]) * d ** (m * (n - m) + (m // 2) * ((m - 1) // 2))
    return end(num, den) * h_sum(b, c, q)


def alpha_recurrence(n: int, b: int, c: int, q: Scalar) -> Scalar:
    """Same sum via the four-term recurrence obtained by classifying the
    first vertex (isolated / opener / vertical).  A scalar recursion in q's
    own arithmetic, independent of the integer tables: its unit is q**0 and
    its [n-1]_q the geometric sum 1 + q + ... + q^(n-2)."""
    if not n >= 2 * b + c >= 0:
        raise DomainError("alpha_recurrence requires n >= 2b + c >= 0")
    memo: dict[tuple[int, int, int], Scalar] = {}

    def rec(nn: int, bb: int, cc: int) -> Scalar:
        if bb < 0 or cc < 0 or nn < 0 or 2 * bb + cc > nn:
            return 0
        if nn == 0:
            return q**0
        key = (nn, bb, cc)
        if key not in memo:
            memo[key] = (
                q ** (2 * bb + cc) * rec(nn - 1, bb, cc)
                + sum(q**i for i in range(nn - 1)) * rec(nn - 2, bb - 1, cc)
                + rec(nn - 1, bb, cc - 1)
            )
        return memo[key]

    return rec(n, b, c)


def moment_component_via_matching(p: int, j: int, params: QParams) -> Scalar:
    """Moment component as a statistic-weighted sum over generalized
    matchings on [p + j] whose first j vertices are isolated or openers.

    Returns sum_k (a+1)^(p-2k) (-a)^k (1-q)^k  sum_M q^(cr + 2 ne), the
    unrescaled component, hence exactly rational in exact mode.  There, at
    q = u/d and a = s/t, the term of k is the integer
    (s+t)^(p-2k) (-st)^k (d-u)^k X_k over t^p d^(k + S_k), with X_k / d^S_k
    the matching sum from :func:`_histogram_int`.  Every term is lifted to
    the largest power E of d, and the call builds one Fraction, over
    t^p d^E, even when the component is 0.  No family is empty: isolating
    the j prefix vertices leaves exactly the p vertices that k arcs and
    p - 2k verticals need.  Float mode runs the same sum at d = t = 1
    (:func:`_arithmetic`).  Refused past :data:`ENUMERATION_BUDGET`
    matchings, since their number grows factorially with p + j.
    """
    if p < 0 or j < 0:
        raise DomainError("p and j must be nonnegative")
    check_budget(f"moment_component_via_matching: p={p}, j={j}", matching_count(p, j))
    u, d, s, t, _, end = _arithmetic(params.q, params.a)
    terms = []  # (numerator over t^p d^e, e)
    for k in range(p // 2 + 1):
        num, top = _histogram_int(_stat_histogram(p + j, k, p - 2 * k, j), u, d)
        terms.append(((s + t) ** (p - 2 * k) * (-s * t) ** k * (d - u) ** k * num, k + top))
    E = max(e for _, e in terms)
    return end(sum(num * d ** (E - e) for num, e in terms), t**p * d**E)

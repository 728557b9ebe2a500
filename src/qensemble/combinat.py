"""Weighted Motzkin paths and generalized matchings.

Two independent combinatorial routes to the ensemble's moment components:
exhaustive weighted Motzkin-path sums, and statistic-weighted sums over
generalized matchings (partial matchings whose unmatched vertices are typed
as isolated or vertical).  Both enumerations are exhaustive, deterministic
and exact, so they serve as brute-force oracles for the closed formulas.

Enumeration order is fixed and documented: Motzkin paths are generated in
lexicographic order of their step tuples with SouthEast(-1) < East(0) <
NorthEast(+1); matchings are generated by scanning vertices 1..n and, at
each vertex, trying choices in the order close-oldest-open-arc, ...,
close-newest-open-arc, isolated, vertical, open-new-arc.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, partial
from typing import Callable, Iterator

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

NORTH_EAST = 1
EAST = 0
SOUTH_EAST = -1

#: Default size caps keeping exhaustive enumeration fast; override per call.
MOTZKIN_CAP = 14
MATCHING_CAP = 10


class ResourceCapError(RuntimeError):
    """Raised when an exhaustive enumeration exceeds its size cap."""


@dataclass(frozen=True)
class MotzkinPath:
    """Lattice path with steps in {NORTH_EAST, EAST, SOUTH_EAST} staying >= 0."""

    start_height: int
    steps: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.start_height < 0:
            raise DomainError("start_height must be nonnegative")
        h = self.start_height
        for s in self.steps:
            if s not in (NORTH_EAST, EAST, SOUTH_EAST):
                raise DomainError(f"invalid step {s!r}")
            h += s
            if h < 0:
                raise DomainError("path drops below height 0")

    def heights(self) -> tuple[int, ...]:
        """Heights at which each step starts."""
        out = []
        h = self.start_height
        for s in self.steps:
            out.append(h)
            h += s
        return tuple(out)


def enumerate_motzkin(p: int, j: int) -> Iterator[MotzkinPath]:
    """All Motzkin paths of length p from height j back to height j, in
    lexicographic order of step tuples (SouthEast < East < NorthEast)."""
    if p < 0 or j < 0:
        raise DomainError("p and j must be nonnegative")

    def gen(prefix: list[int], h: int, r: int) -> Iterator[tuple[int, ...]]:
        if r == 0:
            if h == j:
                yield tuple(prefix)
            return
        if abs(h - j) > r:
            return
        for step in (SOUTH_EAST, EAST, NORTH_EAST):
            if step == SOUTH_EAST and h == 0:
                continue
            prefix.append(step)
            yield from gen(prefix, h + step, r - 1)
            prefix.pop()

    for steps in gen([], j, p):
        yield MotzkinPath(j, steps)


def path_weight(
    w: MotzkinPath, coeffs: Callable[[int], tuple[Scalar, Scalar]]
) -> Scalar:
    """Product of step weights, with ``coeffs(h) = (b_h, lam_h)``: an East
    step at height h weighs b_h, a SouthEast step leaving height h weighs
    lam_h and a NorthEast step weighs 1."""
    result: Scalar = 1
    h = w.start_height
    for s in w.steps:
        if s == EAST:
            result = result * coeffs(h)[0]
        elif s == SOUTH_EAST:
            result = result * coeffs(h)[1]
        h += s
    return result


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
    total: Scalar = 0
    for w in enumerate_motzkin(p, j):
        total = total + path_weight(w, coeffs)
    return total


# ---------------------------------------------------------------------------
# generalized matchings


@dataclass(frozen=True)
class GeneralizedMatching:
    """Partial matching on [n] whose unmatched vertices are typed.

    ``arcs`` are (opener, closer) pairs with opener < closer; ``verticals``
    are the vertices carrying a vertical line; the remaining vertices are
    isolated.
    """

    n: int
    arcs: frozenset[tuple[int, int]]
    verticals: frozenset[int]

    def __post_init__(self) -> None:
        used: set[int] = set()
        for o, c in self.arcs:
            if not 1 <= o < c <= self.n:
                raise DomainError(f"invalid arc ({o}, {c})")
            if o in used or c in used:
                raise DomainError("arcs share a vertex")
            used.update((o, c))
        for v in self.verticals:
            if not 1 <= v <= self.n:
                raise DomainError(f"invalid vertical {v}")
            if v in used:
                raise DomainError("vertical on an arc vertex")
            used.add(v)

    @property
    def isolated(self) -> frozenset[int]:
        used = {v for arc in self.arcs for v in arc} | set(self.verticals)
        return frozenset(v for v in range(1, self.n + 1) if v not in used)


def crossings(m: GeneralizedMatching) -> int:
    """Number of crossings: arc/arc interleaved, isolated or vertical strictly
    inside an arc, and isolated-before-vertical pairs."""
    arcs = sorted(m.arcs)
    iso = sorted(m.isolated)
    vert = sorted(m.verticals)
    cr = 0
    for i, (a, b) in enumerate(arcs):
        for c, d in arcs[i + 1 :]:
            if a < c < b < d or c < a < d < b:
                cr += 1
        for c in iso:
            if a < c < b:
                cr += 1
        for c in vert:
            if a < c < b:
                cr += 1
    for a in iso:
        for b in vert:
            if a < b:
                cr += 1
    return cr


def nestings(m: GeneralizedMatching) -> int:
    """Number of nestings: arc strictly inside an arc, and isolated vertex
    strictly before an arc."""
    arcs = sorted(m.arcs)
    iso = sorted(m.isolated)
    ne = 0
    for i, (a, b) in enumerate(arcs):
        for c, d in arcs[i + 1 :]:
            if a < c < d < b or c < a < b < d:
                ne += 1
        for c in iso:
            if c < a:
                ne += 1
    return ne


def stat(m: GeneralizedMatching) -> int:
    """Matching statistic cr(M) + 2 ne(M)."""
    return crossings(m) + 2 * nestings(m)


def enumerate_matchings(
    n: int, arcs: int, verticals: int, opener_prefix: int = 0
) -> Iterator[GeneralizedMatching]:
    """All generalized matchings on [n] with the given arc/vertical counts
    whose first ``opener_prefix`` vertices are all openers or isolated (no
    closer and no vertical there).  Yields nothing when the counts are
    infeasible.
    """
    if n < 0 or arcs < 0 or verticals < 0 or opener_prefix < 0:
        raise DomainError("counts must be nonnegative")
    done_arcs: list[tuple[int, int]] = []
    vert_list: list[int] = []

    def rec(v: int, open_arcs: tuple[int, ...], to_open: int, verts: int
            ) -> Iterator[GeneralizedMatching]:
        if v > n:
            if not open_arcs and to_open == 0 and verts == 0:
                yield GeneralizedMatching(
                    n, frozenset(done_arcs), frozenset(vert_list)
                )
            return
        remaining = n - v + 1
        # every open arc and every arc still to open needs a closer; every
        # pending vertical needs a vertex
        if len(open_arcs) + 2 * to_open + verts > remaining:
            return
        in_prefix = v <= opener_prefix
        # close one of the open arcs (oldest first)
        if not in_prefix:
            for idx in range(len(open_arcs)):
                done_arcs.append((open_arcs[idx], v))
                rest = open_arcs[:idx] + open_arcs[idx + 1 :]
                yield from rec(v + 1, rest, to_open, verts)
                done_arcs.pop()
        # isolated vertex
        yield from rec(v + 1, open_arcs, to_open, verts)
        # vertical
        if not in_prefix and verts > 0:
            vert_list.append(v)
            yield from rec(v + 1, open_arcs, to_open, verts - 1)
            vert_list.pop()
        # open a new arc
        if to_open > 0:
            yield from rec(v + 1, open_arcs + (v,), to_open - 1, verts)

    yield from rec(1, (), arcs, verticals)


@lru_cache(maxsize=None)
def _stat_histogram(
    n: int, arcs: int, verticals: int, opener_prefix: int
) -> tuple[tuple[int, int], ...]:
    """Histogram {stat value: multiplicity} over the matching family,
    cached so that weighted sums at many (q, a) reuse one enumeration."""
    counter: Counter[int] = Counter()
    for m in enumerate_matchings(n, arcs, verticals, opener_prefix):
        counter[stat(m)] += 1
    return tuple(sorted(counter.items()))


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


def alpha_bruteforce(
    n: int, b: int, c: int, q: Scalar, cap: int = MATCHING_CAP
) -> Scalar:
    """Sum of q^stat(M) over all generalized matchings in Mat(n, b, c)."""
    if n > cap:
        raise ResourceCapError(f"alpha_bruteforce: n={n} exceeds cap {cap}")
    total: Scalar = 0
    for s, mult in _stat_histogram(n, b, c, 0):
        total = total + mult * q**s
    return total


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

    Returns sum_k (a+1)^(p-2k) (-a)^k (1-q)^k  sum_M q^stat(M), the
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
        inner: Scalar = 0
        for s, mult in _stat_histogram(p + j, k, p - 2 * k, j):
            inner = inner + mult * q**s
        total = total + (a + 1) ** (p - 2 * k) * (-a) ** k * (1 - q) ** k * inner
    return total

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction as F
from functools import lru_cache, partial
from itertools import accumulate, combinations_with_replacement, product

import pytest

from qensemble import combinat
from qensemble.cli import _request_size
from qensemble.combinat import (
    ENUMERATION_BUDGET,
    ResourceCapError,
    _motzkin_sum,
    _stat_histogram,
    alpha_bruteforce,
    alpha_closed,
    alpha_recurrence,
    h_sum,
    matching_count,
    moment_component_via_matching,
    moment_via_motzkin,
    motzkin_count,
)
from qensemble.qcore import DomainError, QParams, q_double_factorial, recurrence
from qensemble.verify import EXACT_AS, EXACT_QS

QP = QParams(q=F(1, 2), a=F(-1, 2))
# exact (q, a) beside the verify grid: b_h = 0 at a = -1, an int a, a
# large common denominator L at q = 997/1000, a = -7/3, and two where the
# reduced lcm of the step weights' denominators is below t d^(2H-1): s + t
# shares 2 with d at q = 1/4, a = -1/3, and s does at q = 1/2, a = -2/3
EXACT_EXTRA = [
    (F(1, 2), F(-1)), (F(2, 3), -2), (F(997, 1000), F(-7, 3)),
    (F(1, 4), F(-1, 3)), (F(1, 2), F(-2, 3)),
]


def motzkin_numbers(n_max):
    m = [1, 1]
    for n in range(1, n_max):
        m.append(((2 * n + 3) * m[n] + 3 * n * m[n - 1]) // (n + 3))
    return m


def h_sum_by_tuples(b, c, q):
    """h_sum from its definition: a sum over the weakly increasing tuples
    0 <= j_1 <= ... <= j_c <= b of prod_k [2j_k+k-2]_q!! / [2j_k+k-1]_q!!."""
    ratio = [
        q_double_factorial(m - 1, q) / q_double_factorial(m, q)
        for m in range(2 * b + c)
    ]
    return sum(
        (
            math.prod(ratio[2 * jk + k - 1] for k, jk in enumerate(tup, start=1))
            for tup in combinations_with_replacement(range(b + 1), c)
        ),
        F(0),
    )


# ---------------------------------------------------------------------------
# definition-level reference for Motzkin paths: filter every step tuple


@lru_cache(maxsize=None)
def motzkin_paths(p, j):
    """Every step tuple in {-1, 0, 1}^p whose path from height j stays >= 0
    and ends at j, in lexicographic order."""
    return tuple(
        steps
        for steps in product((-1, 0, 1), repeat=p)
        if sum(steps) == 0 and min(accumulate(steps, initial=j)) >= 0
    )


def start_heights(steps, j):
    """Height at which each step of a path from height j starts."""
    return list(accumulate(steps[:-1], initial=j))


def path_sum(p, j, coeffs):
    """Sum over motzkin_paths(p, j) of the product, left to right, of b_h
    for a level step and lam_h for a down-step leaving height h."""
    total = 0
    for steps in motzkin_paths(p, j):
        w = 1
        for s, h in zip(steps, start_heights(steps, j)):
            if s == 0:
                w = w * coeffs(h)[0]
            elif s == -1:
                w = w * coeffs(h)[1]
        total = total + w
    return total


# ---------------------------------------------------------------------------
# definition-level reference for generalized matchings: build each matching
# as an object and count its crossings and nestings pair by pair


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


def enumerate_matchings(n, arcs, verticals):
    """All generalized matchings on [n] with the given arc and vertical
    counts.  Vertices 1..n are scanned in order and, at each, the choices are
    tried as close-oldest-open-arc, ..., close-newest-open-arc, isolated,
    vertical, open-new-arc.  Yields nothing when the counts are infeasible.
    """
    done_arcs: list[tuple[int, int]] = []
    vert_list: list[int] = []

    def rec(v, open_arcs, to_open, verts):
        if v > n:
            if not open_arcs and to_open == 0 and verts == 0:
                yield GeneralizedMatching(
                    n, frozenset(done_arcs), frozenset(vert_list)
                )
            return
        if len(open_arcs) + 2 * to_open + verts > n - v + 1:
            return
        for idx in range(len(open_arcs)):
            done_arcs.append((open_arcs[idx], v))
            yield from rec(v + 1, open_arcs[:idx] + open_arcs[idx + 1 :], to_open, verts)
            done_arcs.pop()
        yield from rec(v + 1, open_arcs, to_open, verts)
        if verts > 0:
            vert_list.append(v)
            yield from rec(v + 1, open_arcs, to_open, verts - 1)
            vert_list.pop()
        if to_open > 0:
            yield from rec(v + 1, open_arcs + (v,), to_open - 1, verts)

    yield from rec(1, (), arcs, verticals)


def free_prefix(m: GeneralizedMatching) -> int:
    """Largest j such that no closer and no vertical lies among the first j
    vertices; m belongs to every opener-prefix family with j at most this."""
    blocked = m.verticals | {c for _, c in m.arcs}
    return min(blocked, default=m.n + 1) - 1


def prefix_family(n, arcs, verticals, j):
    """The opener-prefix family: the full family filtered to matchings whose
    first j vertices are all openers or isolated."""
    return [m for m in enumerate_matchings(n, arcs, verticals) if free_prefix(m) >= j]


class TestMotzkinSum:
    # step-weight tables (b_h, lam_h), one entry for each height a path of
    # these cases reaches
    COUNT = [(1, 1)] * 13
    COEFFS = [(F(10) ** (h + 1), 7 * F(100) ** h) for h in range(4)]

    def test_reference_order(self):
        assert motzkin_paths(0, 3) == ((),)
        assert motzkin_paths(2, 0) == ((0, 0), (1, -1))
        assert motzkin_paths(2, 1) == ((-1, 1), (0, 0), (1, -1))

    @pytest.mark.parametrize("p", range(13))
    def test_counts_are_motzkin_numbers(self, p):
        assert _motzkin_sum(p, 0, self.COUNT) == motzkin_numbers(12)[p]

    def test_counts_equal_motzkin_count(self):
        # the walk visits every path it counts, at every start height: for
        # j > 0 its reachability tests prune at both ends, at 0 and near j + r
        for p in range(15):
            for j in range(6):
                assert _motzkin_sum(p, j, self.COUNT) == motzkin_count(p, j), (p, j)

    def test_step_weights(self):
        # b_h for a level step at h, lam_h for a down-step leaving h, 1 up
        assert _motzkin_sum(1, 2, self.COEFFS) == 1000  # b_2
        assert _motzkin_sum(2, 0, self.COEFFS) == 100 + 700  # b_0^2 + lam_1
        assert _motzkin_sum(2, 1, self.COEFFS) == 700 + 100**2 + 7 * 100**2

    def test_northeast_count_histogram(self):
        # k up-steps force k down-steps: choose their C(p, 2k) places, times
        # the paths from j to j that stay >= 0, by the reflection principle
        # C(2k, k) - C(2k, k - j - 1)
        for p in range(9):
            for j in range(4):
                hist = Counter(steps.count(1) for steps in motzkin_paths(p, j))
                want = {
                    k: math.comb(p, 2 * k)
                    * (math.comb(2 * k, k) - (math.comb(2 * k, k - j - 1) if k > j else 0))
                    for k in range(p // 2 + 1)
                }
                assert hist == want, (p, j)

    def test_negative_lengths(self):
        for p, j in ((-1, 0), (2, -1)):
            with pytest.raises(DomainError):
                _motzkin_sum(p, j, self.COUNT)
            with pytest.raises(DomainError):
                moment_via_motzkin(p, j, QP)


class TestMomentViaMotzkin:
    def test_trivial(self):
        assert moment_via_motzkin(0, 5, QP) == 1

    def test_single_east(self):
        assert moment_via_motzkin(1, 0, QP) == QP.a + 1

    def test_two_paths(self):
        a, q = QP.a, QP.q
        assert moment_via_motzkin(2, 0, QP) == a * a + a + 1 + a * q

    @pytest.mark.parametrize(
        "q,a", [*product(EXACT_QS, EXACT_AS), *EXACT_EXTRA[1:], (0.7310585786300049, -1.7)]
    )
    def test_matches_reference(self, q, a):
        # the same Fraction as the step-by-step Fraction products, in value
        # and type, though the exact walk multiplies integers; in float mode
        # the same products in the same order of addition, bit for bit.  At
        # p = 0 the empty path is the mode's 1, where path_sum gives the int 1
        qp = QParams(q=q, a=a)
        coeffs = lru_cache(maxsize=None)(partial(recurrence, q=q, a=a))
        for p in range(11 if (q, a) in EXACT_EXTRA else 10):
            for j in range(4):
                got = moment_via_motzkin(p, j, qp)
                want = path_sum(p, j, coeffs) if p else (1.0 if isinstance(q, float) else F(1))
                assert type(got) is type(want) and got == want, (p, j)

    def test_exact_walk_multiplies_ints(self, monkeypatch):
        # a silent fallback to Fraction step weights would pass every value
        # test above
        walk, seen = combinat._motzkin_sum, []

        def spy(p, j, weights):
            seen.extend(c for pair in weights for c in pair)
            return walk(p, j, weights)

        monkeypatch.setattr(combinat, "_motzkin_sum", spy)
        for q, a in EXACT_EXTRA:
            for p in range(1, 9):
                moment_via_motzkin(p, 2, QParams(q=q, a=a))
        assert seen and all(type(c) is int for c in seen)


@pytest.mark.parametrize("route", [moment_via_motzkin, moment_component_via_matching])
def test_exact_routes_build_one_fraction(monkeypatch, route):
    # exact mode takes its integers from u, d, s and t alone: no recurrence
    # step, and one Fraction per call, built from two ints
    def refuse(*args, **kwargs):
        raise AssertionError("exact route called recurrence")

    built = []

    def fraction(*args):
        built.append(args)
        return F(*args)

    # combinat does not import recurrence; the guard holds should it ever
    monkeypatch.setattr(combinat, "recurrence", refuse, raising=False)
    monkeypatch.setattr(combinat, "Fraction", fraction)
    for q, a in EXACT_EXTRA:
        for p in range(1, 9):
            built.clear()
            got = route(p, 2, QParams(q=q, a=a))
            assert type(got) is F, (q, a, p)
            assert len(built) == 1 and all(type(x) is int for x in built[0]), (q, a, p)


class TestMatchings:
    def test_forced_single_arc(self):
        ms = list(enumerate_matchings(2, 1, 0))
        assert ms == [GeneralizedMatching(2, frozenset({(1, 2)}), frozenset())]

    def test_perfect_matchings_of_four(self):
        assert sum(1 for _ in enumerate_matchings(4, 2, 0)) == 3

    def test_arc_plus_vertical_on_three(self):
        assert sum(1 for _ in enumerate_matchings(3, 1, 1)) == 3

    def test_infeasible_is_empty(self):
        assert list(enumerate_matchings(3, 2, 0)) == []

    def test_opener_prefix(self):
        # one arc on [3]: with vertex 2 barred from closing, (1, 2) drops out;
        # (1, 3) has 2 isolated inside it (cr 1), (2, 3) has 1 isolated
        # before it (ne 1)
        family = prefix_family(3, 1, 0, 2)
        assert {m.arcs for m in family} == {frozenset({(1, 3)}), frozenset({(2, 3)})}
        assert sorted(stat(m) for m in family) == [1, 2]
        assert _stat_histogram(3, 1, 0, 2) == ((1, 1), (2, 1))
        assert _stat_histogram(3, 1, 0, 0) == ((0, 1), (1, 1), (2, 1))


class TestStat:
    def test_no_pairs(self):
        assert stat(GeneralizedMatching(1, frozenset(), frozenset())) == 0

    def test_isolated_inside_arc(self):
        m = GeneralizedMatching(3, frozenset({(1, 3)}), frozenset())
        assert crossings(m) == 1 and nestings(m) == 0
        assert stat(m) == 1

    def test_isolated_before_arc(self):
        m = GeneralizedMatching(3, frozenset({(2, 3)}), frozenset())
        assert crossings(m) == 0 and nestings(m) == 1
        assert stat(m) == 2

    def test_vertical_cases(self):
        # vertical inside an arc crosses; isolated before a vertical crosses
        m = GeneralizedMatching(3, frozenset({(1, 3)}), frozenset({2}))
        assert stat(m) == 1
        m2 = GeneralizedMatching(2, frozenset(), frozenset({2}))
        assert stat(m2) == 1

    def test_matches_vertex_at_infinity_reading(self):
        # isolated vertices become arcs to a shared far vertex; crossings are
        # then arc/arc interleavings plus verticals under any arc, nestings
        # are arc-in-arc containments (pairs sharing the far vertex count
        # nothing)
        INF = 10**6

        def pictorial(m: GeneralizedMatching):
            arcs = sorted(m.arcs) + [(c, INF) for c in sorted(m.isolated)]
            cr = ne = 0
            for i, (a1, b1) in enumerate(arcs):
                for a2, b2 in arcs[i + 1 :]:
                    if b1 == b2 == INF:
                        continue
                    if a1 < a2 < b1 < b2 or a2 < a1 < b2 < b1:
                        cr += 1
                    if a1 < a2 < b2 < b1 or a2 < a1 < b1 < b2:
                        ne += 1
                for v in m.verticals:
                    if a1 < v < b1:
                        cr += 1
            return cr + 2 * ne

        for n in range(1, 7):
            for b in range(n // 2 + 1):
                for c in range(n - 2 * b + 1):
                    for m in enumerate_matchings(n, b, c):
                        assert pictorial(m) == stat(m)


class TestStatHistogram:
    @pytest.mark.parametrize("n", range(10))
    def test_matches_reference_for_every_family(self, n):
        # every (b, c) with 2b + c <= n and every opener prefix j <= n: one
        # reference enumeration per (b, c), filtered by each matching's
        # free prefix
        for b in range(n // 2 + 1):
            for c in range(n - 2 * b + 1):
                ref = [(free_prefix(m), stat(m)) for m in enumerate_matchings(n, b, c)]
                for j in range(n + 1):
                    want = Counter(s for fp, s in ref if fp >= j)
                    assert _stat_histogram(n, b, c, j) == tuple(sorted(want.items())), (
                        n, b, c, j
                    )

    def test_infeasible_is_empty(self):
        assert _stat_histogram(3, 2, 0, 0) == ()
        assert _stat_histogram(4, 1, 1, 4) == ()


class TestHSum:
    def test_c_zero(self):
        assert h_sum(5, 0, F(1, 2)) == 1

    def test_b_zero(self):
        q = F(1, 3)
        assert h_sum(0, 3, q) == 1 / (1 + q)

    def test_one_one(self):
        q = F(1, 2)
        assert h_sum(1, 1, q) == 1 + 1 / (1 + q)

    @pytest.mark.parametrize("c", range(1, 6))
    def test_b_zero_matches_general_sum(self, c):
        # the double-factorial convention makes the boundary value emerge
        # from the raw sum over the all-zero tuple
        q = F(2, 3)
        term = F(1)
        for k in range(1, c + 1):
            term *= q_double_factorial(k - 2, q) / q_double_factorial(k - 1, q)
        assert term == h_sum(0, c, q)


    @pytest.mark.parametrize("q", [F(1, 2), F(2, 3), F(5, 7)])
    def test_matches_tuple_sum(self, q):
        for b in range(6):
            for c in range(8):
                want = h_sum_by_tuples(b, c, q)
                assert h_sum(b, c, q) == want
                got = h_sum(b, c, float(q))
                assert got == pytest.approx(float(want), rel=1e-14, abs=0)


class TestAlpha:
    def test_spec_values(self):
        q = F(1, 2)
        assert alpha_bruteforce(2, 1, 0, q) == 1
        assert alpha_bruteforce(1, 0, 1, q) == 1
        assert alpha_bruteforce(3, 1, 0, q) == 1 + q + q * q
        assert alpha_closed(3, 1, 0, q) == 1 + q + q * q

    @pytest.mark.parametrize("q", [F(1, 2), F(2, 3)])
    def test_three_route_agreement(self, q):
        for n in range(9):
            for b in range(n // 2 + 1):
                for c in range(n - 2 * b + 1):
                    closed = alpha_closed(n, b, c, q)
                    assert closed == alpha_recurrence(n, b, c, q)
                    assert closed == alpha_bruteforce(n, b, c, q)

    @pytest.mark.parametrize("n,b,c", [(0, 1, 0), (3, 1, 2), (4, 3, 0)])
    def test_bruteforce_infeasible_family_is_the_modes_zero(self, n, b, c):
        # n < 2b + c: no matching, and the sum is 0 in the type of q
        got = alpha_bruteforce(n, b, c, F(1, 2))
        assert type(got) is F and got == 0
        got = alpha_bruteforce(n, b, c, 0.5)
        assert type(got) is float and got == 0

    def test_bruteforce_at_eleven_vertices(self):
        # bounded by its counted size (495 matchings), not by n
        q = F(1, 2)
        assert alpha_bruteforce(11, 1, 1, q) == alpha_closed(11, 1, 1, q)

    @pytest.mark.parametrize("n,b,c", [(3, -1, 1), (3, 1, -1), (-1, 0, 0)])
    def test_negative_counts(self, n, b, c):
        with pytest.raises(DomainError):
            alpha_bruteforce(n, b, c, F(1, 2))

    def test_domain(self):
        with pytest.raises(DomainError):
            alpha_closed(2, 1, 1, F(1, 2))


class TestBijection:
    def test_history_count_matches_matchings(self):
        # labelled paths: a falling step leaving height h has h label choices
        for p in range(7):
            for j in range(4):
                for k in range(p // 2 + 1):
                    histories = 0
                    for steps in motzkin_paths(p, j):
                        if steps.count(1) == k:
                            histories += math.prod(
                                h for s, h in zip(steps, start_heights(steps, j)) if s == -1
                            )
                    matchings = len(prefix_family(p + j, k, p - 2 * k, j))
                    assert histories == matchings, (p, j, k)


def matching_component(p, j, q, a, inner):
    """sum_k (a+1)^(p-2k) (-a)^k (1-q)^k inner(p + j, k, p - 2k, j), the
    component of the definition, with q^s summed as Fraction powers."""
    total = 0
    for k in range(p // 2 + 1):
        total = total + (a + 1) ** (p - 2 * k) * (-a) ** k * (1 - q) ** k * inner(
            p + j, k, p - 2 * k, j
        )
    return total


@lru_cache(maxsize=None)
def objects_histogram(n, b, c, j):
    return Counter(stat(m) for m in prefix_family(n, b, c, j))


class TestExactMatching:
    @pytest.mark.parametrize("q,a", EXACT_EXTRA)
    def test_matches_reference(self, q, a):
        # the one integer over d^S equals the Fraction sum of q^s, in value
        # and type: against the object enumerator up to p + j = 8, and against
        # the histogram summed term by term up to p = 10, j = 3
        def power_sum(hist):
            inner = 0
            for s, mult in sorted(hist.items()):
                inner = inner + mult * q**s
            return inner

        qp = QParams(q=q, a=a)
        for p in range(11):
            for j in range(4):
                got = moment_component_via_matching(p, j, qp)
                want = matching_component(
                    p, j, q, a, lambda *fam: power_sum(dict(_stat_histogram(*fam)))
                )
                assert type(got) is type(want) and got == want, (p, j)
                if p + j <= 8:
                    by_objects = matching_component(
                        p, j, q, a, lambda *fam: power_sum(objects_histogram(*fam))
                    )
                    assert type(by_objects) is type(got) and by_objects == got, (p, j)


class TestFloatMatching:
    @pytest.mark.parametrize("q,a", [(0.5, -0.5), (2 / 3, -1 / 3), (0.9, -2.5), (0.25, -7.0)])
    def test_matches_float_sum_and_exact(self, q, a):
        # the float component keeps the bits of the histogram summed term by
        # term in float, and lies within 1e-12 of the exact component at the
        # same binary rationals (every term has the sign (-1)^p, so the
        # relative bound cannot hide a cancellation)
        def power_sum(hist):
            inner = 0
            for s, mult in hist:
                inner = inner + mult * q**s
            return inner

        qp, exact = QParams(q=q, a=a), QParams(q=F(q), a=F(a))
        for j in range(4):
            for p in range(11 - j):
                got = moment_component_via_matching(p, j, qp)
                want = matching_component(
                    p, j, q, a, lambda *fam: power_sum(_stat_histogram(*fam))
                )
                assert type(got) is float and got.hex() == want.hex(), (p, j)
                ref = moment_component_via_matching(p, j, exact)
                assert abs(got - float(ref)) <= 1e-12 * abs(ref), (p, j)


class TestEnumerationBudget:
    def test_motzkin_count(self):
        for p in range(10):
            for j in range(5):
                assert motzkin_count(p, j) == len(motzkin_paths(p, j)), (p, j)

    def test_matching_count(self):
        for p in range(9):
            for j in range(4):
                want = sum(alpha_closed(p + j, k, p - 2 * k, 1) for k in range(p // 2 + 1))
                assert matching_count(p, j) == want, (p, j)
                if p + j <= 7:
                    assert want == sum(
                        sum(1 for _ in enumerate_matchings(p + j, k, p - 2 * k))
                        for k in range(p // 2 + 1)
                    )

    def test_family_count(self):
        # |Mat(n, b, c)|, which alpha_bruteforce checks, is the number of
        # matchings its histogram holds, 0 where 2b + c > n
        for n in range(11):
            for b in range(n // 2 + 2):
                for c in range(n + 2):
                    total = sum(mult for _, mult in _stat_histogram(n, b, c, 0))
                    assert combinat._mat_count(n, b, c) == total, (n, b, c)

    def test_admits_the_checked_requests(self):
        # C01's components (p <= 8, j < 4) and one of p = 10, j = 3 per call;
        # the benchmark's exact_moments (N = 3, p <= 6) and the largest CI
        # requests (N = 4, p <= 12 Motzkin; N = 3, p <= 8 matching) in all
        for count in (motzkin_count, matching_count):
            assert count(10, 3) <= ENUMERATION_BUDGET
            assert max(count(p, j) for p in range(9) for j in range(4)) <= ENUMERATION_BUDGET
            assert _request_size(count, 6, 3) <= ENUMERATION_BUDGET
        assert _request_size(motzkin_count, 12, 4) <= ENUMERATION_BUDGET
        assert _request_size(matching_count, 8, 3) <= ENUMERATION_BUDGET

    @pytest.mark.parametrize(
        "route,p,j",
        # 6.5e6 paths (the Motzkin number M_18), 1.3e7 matchings
        [(moment_via_motzkin, 18, 0), (moment_component_via_matching, 11, 3)],
    )
    def test_refused_before_enumeration(self, monkeypatch, route, p, j):
        def refuse(*args):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(combinat, "_motzkin_sum", refuse)
        monkeypatch.setattr(combinat, "_stat_histogram", refuse)
        with pytest.raises(ResourceCapError, match="budget"):
            route(p, j, QP)

    def test_alpha_bruteforce_refused_before_enumeration(self, monkeypatch):
        # |Mat(14, 4, 3)| = C(14, 11) C(11, 8) 7!! = 6306300 matchings
        def refuse(*args):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(combinat, "_stat_histogram", refuse)
        with pytest.raises(ResourceCapError, match="budget"):
            alpha_bruteforce(14, 4, 3, F(1, 2))


class TestOracleEquality:
    @pytest.mark.parametrize("q,a", [(F(1, 2), F(-1)), (F(2, 3), F(-1, 2))])
    def test_motzkin_equals_matching(self, q, a):
        qp = QParams(q=q, a=a)
        for p in range(7):
            for j in range(4):
                assert moment_via_motzkin(p, j, qp) == moment_component_via_matching(p, j, qp)

    def test_motzkin_equals_matching_at_p8_j3(self):
        # p + j = 11, 126060 matchings: bounded by the budget, not by p + j
        assert matching_count(8, 3) == 126060
        assert moment_component_via_matching(8, 3, QP) == moment_via_motzkin(8, 3, QP)


class TestClassicalHermiteLimit:
    def test_even_moments_are_double_factorials(self):
        # q -> 1 content of the path sum: with the rescaled recurrence the
        # weights become b = 0, lam_n = n, whose Motzkin sum is the Gaussian
        # moment (p-1)!!
        for p in range(11):
            total = _motzkin_sum(p, 0, [(0, n) for n in range(p // 2 + 1)])
            expected = math.prod(range(p - 1, 0, -2)) if p % 2 == 0 else 0
            assert total == expected

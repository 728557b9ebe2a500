"""Named verification checks, one per acceptance criterion.

Each check returns (passed, detail), and :func:`run_check` adds its wall
time.  The CLI ``verify`` subcommand and the acceptance test module both run
this registry, so a criterion maps to a single check ID everywhere.
``quick=True`` shrinks grids (smoke mode) and keeps every threshold but
one: quick C09 judges the KS distance at N = 400 against 0.05, where the
full check judges it at N = 2000 against 0.02.
Importing this module loads neither numpy nor scipy: C06 and C08 import
what they use inside the check.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import asymptotics, combinat, density, moments, orthopoly
from .asymptotics import ScalingParams
from .moments import EnsembleParams
from .qcore import DomainError, QParams, jackson_integral

FIGURE_LAMBDAS = (
    math.log(7 / 6),
    math.log(4 / 3),
    math.log(2),
    math.log(4),
    math.log(10),
)

#: exact (q, a) grids of the exact-identity checks; quick runs take prefixes
EXACT_QS = (Fraction(1, 2), Fraction(2, 3))
EXACT_AS = (Fraction(-1), Fraction(-1, 2), Fraction(-2), Fraction(-3))

ORTHO_PAIRS = (
    (Fraction(1, 2), Fraction(-1)),
    (Fraction(2, 3), Fraction(-1, 2)),
    (Fraction(1, 2), Fraction(-2)),
)


@dataclass(frozen=True)
class CheckResult:
    check_id: str
    title: str
    passed: bool
    detail: str
    seconds: float  # wall time of the check


def check_triple_oracle(quick: bool = False) -> tuple[bool, str]:
    """Closed form == Motzkin sum == matching sum, exact rationals; and the
    float closed form at float(q), float(a) within 1e-12 relative of the
    exact one, which is its oracle."""
    pmax, nmax = (5, 3) if quick else (8, 4)
    qs = EXACT_QS[:1] if quick else EXACT_QS
    avals = EXACT_AS[:2] if quick else EXACT_AS
    cases = 0
    tol, worst = 1e-12, 0.0
    for q, a in itertools.product(qs, avals):
        qp = QParams(q=q, a=a)
        comps = {
            (p, j): (
                combinat.moment_via_motzkin(p, j, qp),
                combinat.moment_component_via_matching(p, j, qp),
            )
            for p in range(pmax + 1)
            for j in range(nmax)
        }
        for N in range(1, nmax + 1):
            for p in range(pmax + 1):
                closed = moments.moment_closed(EnsembleParams(a=a, q=q, N=N), p)
                mot = sum(comps[(p, j)][0] for j in range(N))
                mat = sum(comps[(p, j)][1] for j in range(N))
                if not closed == mot == mat:
                    return False, (
                        f"mismatch at q={q}, a={a}, N={N}, p={p}: "
                        f"closed={closed}, motzkin={mot}, matching={mat}"
                    )
                approx = moments.moment_closed(EnsembleParams(a=float(a), q=float(q), N=N), p)
                dev = abs(approx - float(closed))
                if not dev <= tol * abs(closed):  # NaN fails too
                    return False, (
                        f"float mismatch at q={q}, a={a}, N={N}, p={p}: "
                        f"float={approx!r}, exact={float(closed)!r}"
                    )
                if dev:  # 0 wherever closed is 0
                    worst = max(worst, dev / abs(closed))
                cases += 1
    return True, (
        f"{cases} exact identities; float within {worst:.1e} relative "
        f"(tolerance {tol:.0e})"
    )


def check_low_moments(quick: bool = False) -> tuple[bool, str]:
    """m0 = N, m1 and the displayed second moment, exactly."""
    nmax = 3 if quick else 4
    qs = EXACT_QS[:1] if quick else EXACT_QS
    avals = EXACT_AS[:2] if quick else EXACT_AS
    cases = 0
    for q, a, N in itertools.product(qs, avals, range(1, nmax + 1)):
        params = EnsembleParams(a=a, q=q, N=N)
        m0 = moments.moment_closed(params, 0)
        m1 = moments.moment_closed(params, 1)
        m2 = moments.moment_closed(params, 2)
        e1 = (a + 1) * (1 - q**N) / (1 - q)
        e2 = (
            (1 - q**N)
            / (q * (1 - q**2))
            * ((a * a + 1) * q + q**N * (q + a * (1 + 2 * q + q * q + a * q)))
        )
        if not (m0 == N and m1 == e1 and m2 == e2):
            return False, f"explicit moment mismatch at q={q}, a={a}, N={N}"
        cases += 3
    return True, f"{cases} exact identities"


def check_alpha_identity(quick: bool = False) -> tuple[bool, str]:
    """Closed form, four-term recurrence and brute force for the matching sum."""
    nmax = 6 if quick else 8
    qs = EXACT_QS[:1] if quick else EXACT_QS
    cases = 0
    for q in qs:
        for n in range(nmax + 1):
            for b in range(n // 2 + 1):
                for c in range(n - 2 * b + 1):
                    closed = combinat.alpha_closed(n, b, c, q)
                    rec = combinat.alpha_recurrence(n, b, c, q)
                    brute = combinat.alpha_bruteforce(n, b, c, q)
                    if not closed == rec == brute:
                        return False, (
                            f"alpha mismatch at n={n}, b={b}, c={c}, q={q}: "
                            f"{closed} / {rec} / {brute}"
                        )
                    cases += 1
    return True, f"{cases} exact identities"


def check_orthogonality(quick: bool = False) -> tuple[bool, str]:
    """Orthogonality residuals < 1e-9 relative, as the orthonormality
    residual of the scaled recurrence; q-Gaussian closed form to 1e-10."""
    nmax = 3 if quick else 6
    worst = 0.0
    for q, a in ORTHO_PAIRS:
        qp = QParams(q=q, a=a)  # the float routes take float() of q and a
        for m in range(nmax + 1):
            for n in range(m, nmax + 1):
                worst = max(worst, abs(orthopoly.orthogonality_check(m, n, qp)))
    if worst >= 1e-9:
        return False, f"orthogonality relative residual {worst:.2e} >= 1e-9"

    pmax = 3 if quick else 5
    worst_g = 0.0
    for q in (0.5, 2.0 / 3.0):
        qp = QParams(q=q, a=-1.0)
        for p in range(pmax + 1):
            integral = jackson_integral(
                (
                    (x ** (2 * p) * w_plus, (-x) ** (2 * p) * w_minus)
                    for x, w_plus, w_minus in orthopoly.lattice_weight(qp)
                ),
                -1.0,
                q,
                trunc_tol=1e-12,
            )
            closed = moments.qgauss_integral(p, q)
            worst_g = max(worst_g, abs(integral - closed))
    if worst_g >= 1e-10:
        return False, f"q-Gaussian integral deviation {worst_g:.2e} >= 1e-10"
    return True, (
        f"orthogonality rel residual {worst:.2e}; q-Gaussian dev {worst_g:.2e}"
    )


def check_jackson_route(quick: bool = False) -> tuple[bool, str]:
    """|Jackson-route moment - closed form| < 1e-8 in float mode."""
    pmax, nmax = (4, 2) if quick else (6, 4)
    worst = 0.0
    for q, a in ORTHO_PAIRS:
        for N in range(1, nmax + 1):
            params = EnsembleParams(a=a, q=q, N=N)
            for p in range(pmax + 1):
                exact = float(moments.moment_closed(params, p))
                jack = orthopoly.jackson_moment(params, p)
                worst = max(worst, abs(jack - exact))
    ok = worst < 1e-8
    return ok, f"max |jackson - closed| = {worst:.2e}"


def check_expansion(quick: bool = False) -> tuple[bool, str]:
    """Residual * N^3 spread < 50%; coefficient representations to 1e-12."""
    # (i) residual decay
    enns = (16, 32) if quick else (16, 32, 64)
    spread_max = 0.0
    for p in (2, 3, 4):
        for a in (-1.0, -0.5):
            for lam in (0.5, 1.0):
                sp = ScalingParams(a=a, lam=lam)
                vals = [
                    abs(asymptotics.expansion_residual(p, sp, N)) * N**3
                    for N in enns
                ]
                if max(vals) < 1e-11:
                    continue  # identically vanishing residual (a=-1, odd p)
                spread = (max(vals) - min(vals)) / min(vals)
                spread_max = max(spread_max, spread)
                if spread >= 0.5:
                    return False, (
                        f"residual*N^3 spread {spread:.2%} at p={p}, a={a}, "
                        f"lam={lam}"
                    )
    # the incomplete beta reference is scipy's, imported here so that
    # importing this module loads neither scipy nor numpy
    from scipy.special import betainc

    # (ii) the binomial-tail coefficient against the incomplete-beta sum
    worst_alt = 0.0
    for p in range(1, 6 if quick else 11):
        for a in (-1.0, -0.5, -2.0):
            for lam in (0.2, math.log(2), 2.0):
                sp = ScalingParams(a=a, lam=lam)
                ref = sum(
                    (a + 1.0) ** (p - 2 * l)
                    * (-a) ** l
                    * math.factorial(p - l - 1)
                    / (math.factorial(l) * math.factorial(p - 2 * l))
                    * float(betainc(l + 1, p - l, 1.0 - sp.s))
                    for l in range(p // 2 + 1)
                ) / lam
                v = asymptotics.m_p0(p, sp)
                worst_alt = max(worst_alt, abs(v - ref) / max(abs(ref), 1e-300))
    if worst_alt >= 1e-12:
        return False, f"m_p0 representations differ by {worst_alt:.2e}"
    # (iii) a = -1 specialisations
    worst_spec = 0.0
    for half in range(1, 4 if quick else 6):
        for lam in (0.3, 1.0, 3.0):
            sp = ScalingParams(a=-1.0, lam=lam)
            s = sp.s
            i_beta = float(betainc(half + 1, half, 1 - s))
            ref0 = i_beta / (lam * half)
            ref1 = (
                -lam
                * half
                / 6.0
                * (
                    i_beta
                    + math.factorial(2 * half - 1)
                    / (math.factorial(half) * math.factorial(half - 1))
                    * s**half
                    * (1 - s) ** (half - 1)
                    * (2 + half - (2 * half + 1) * s)
                )
            )
            worst_spec = max(
                worst_spec,
                abs(asymptotics.m_p0(2 * half, sp) - ref0) / max(abs(ref0), 1e-300),
                abs(asymptotics.m_p1(2 * half, sp) - ref1) / max(abs(ref1), 1e-300),
            )
    if worst_spec >= 1e-12:
        return False, f"a=-1 specialisation deviates by {worst_spec:.2e}"
    return True, (
        f"decay spread {spread_max:.2%}; representations {worst_alt:.1e}; "
        f"specialisations {worst_spec:.1e}"
    )


def _regime_lambdas(quick: bool) -> list[tuple[float, float]]:
    pairs = [
        (-1 / 3, math.log(7 / 6)),
        (-1 / 3, math.log(2)),
        (-1 / 3, math.log(10)),
    ]
    if not quick:
        pairs += [(-1.0, 0.3), (-1.0, 1.0), (-1.0, 3.0)]
    return pairs


def check_density_moments(quick: bool = False) -> tuple[bool, str]:
    """Normalisation to 1e-6 and moment match to the leading coefficient."""
    pmax = 4 if quick else 8
    worst_norm = worst_mom = 0.0
    for a, lam in _regime_lambdas(quick):
        worst_norm = max(worst_norm, abs(density.density_moment(0, a, lam) - 1))
        sp = ScalingParams(a=a, lam=lam)
        for p in range(1, pmax + 1):
            diff = abs(density.density_moment(p, a, lam) - asymptotics.m_p0(p, sp))
            worst_mom = max(worst_mom, diff)
    ok = worst_norm < 1e-6 and worst_mom < 1e-6
    return ok, f"norm dev {worst_norm:.2e}; moment dev {worst_mom:.2e}"


def check_phase_structure(quick: bool = False) -> tuple[bool, str]:
    """Figure-panel regimes, thresholds, soft-edge exponent, exact plateau."""
    a = -1 / 3
    expected = (
        density.RegimeKind.TWO_SOFT_EDGES,
        density.RegimeKind.SOFT_HARD_MIXED,
        density.RegimeKind.SOFT_HARD_MIXED,
        density.RegimeKind.TWO_HARD_EDGES,
        density.RegimeKind.TWO_HARD_EDGES,
    )
    for lam, kind in zip(FIGURE_LAMBDAS, expected):
        got = density.regime(a, lam).kind
        if got is not kind:
            return False, f"regime at lam={lam:.4f}: {got.value} != {kind.value}"
    reg = density.regime(a, 1.0)
    if not (
        abs(reg.lambda1 - math.log(4 / 3)) < 1e-14
        and abs(reg.lambda2 - math.log(4)) < 1e-14
    ):
        return False, "thresholds do not equal log(4/3), log(4)"
    # the only numpy user here, so that importing this module loads no numpy
    import numpy as np

    # soft-edge square-root exponent
    eps = np.logspace(-6, -3, 10)
    fits = []
    for aa, lam, edge, sgn in _soft_edges(quick):
        vals = np.array(
            [density.limiting_density(edge + s * e, aa, lam) for e in eps for s in [sgn]]
        )
        slope = float(np.polyfit(np.log(eps), np.log(vals), 1)[0])
        fits.append(slope)
        if not abs(slope - 0.5) <= 0.05:  # NaN fails too
            return False, f"soft-edge exponent {slope:.3f} at edge {edge:.4f}"
    # hard-edge plateau is exactly 1/(lam |x|)
    for aa, lam in ((-1 / 3, math.log(2)), (-1 / 3, math.log(10))):
        for piece in density.support(aa, lam):
            if piece.arc:
                continue
            for x in np.linspace(piece.lo + 1e-9, piece.hi - 1e-9, 5):
                if density.limiting_density(x, aa, lam) != 1.0 / (lam * abs(x)):
                    return False, f"plateau not exact at x={x}"
    return True, f"regimes ok; exponents {', '.join(f'{f:.3f}' for f in fits)}"


def _soft_edges(quick: bool) -> list[tuple[float, float, float, int]]:
    out = []
    a, lam = -1 / 3, math.log(7 / 6)
    u, v = density.edge_params(a, lam)
    out.append((a, lam, u + v, -1))
    if not quick:
        out.append((a, lam, u - v, +1))
        a2, lam2 = -1 / 3, math.log(2)
        u2, v2 = density.edge_params(a2, lam2)
        out.append((a2, lam2, u2 - v2, +1))
    return out


def _cdf_routes_distance(a: float, lam: float) -> float:
    """Largest |density_cdf - cdf_at_sorted| at the edges and midpoints of
    the support pieces that lie inside (a, 1)."""
    pieces = density.support(a, lam)
    xs = sorted({x for p in pieces for x in (p.lo, 0.5 * (p.lo + p.hi), p.hi) if a < x < 1.0})
    mixture = density.cdf_at_sorted(xs, a, lam)
    return max(abs(density.density_cdf(x, a, lam) - m) for x, m in zip(xs, mixture))


def check_zero_distribution(quick: bool = False) -> tuple[bool, str]:
    """The density's CDF equals the limiting zero distribution to 1e-9; KS
    distance of the zeros to it small at large N, decreasing in N."""
    a = -1 / 3
    lams = (math.log(2),) if quick else FIGURE_LAMBDAS
    cdf_dev = max(_cdf_routes_distance(a, lam) for lam in lams)
    cdf_detail = f"|density_cdf - zero distribution| {cdf_dev:.1e}"
    if not cdf_dev < 1e-9:
        return False, f"{cdf_detail} >= 1e-9"
    if quick:
        seq = [density.zero_distribution_distance(a, math.log(2), n) for n in (100, 200, 400)]
        ok = seq[0] > seq[1] > seq[2] and seq[-1] < 0.05
        return ok, f"KS over N=(100,200,400): {', '.join(f'{d:.4f}' for d in seq)}; {cdf_detail}"
    details = []
    for lam in FIGURE_LAMBDAS:
        seq = [
            density.zero_distribution_distance(a, lam, n)
            for n in (200, 400, 800, 1600)
        ]
        if not all(x > y for x, y in zip(seq, seq[1:])):
            return False, f"KS not decreasing at lam={lam:.4f}: {seq}"
        final = density.zero_distribution_distance(a, lam, 2000)
        if not final < 0.02:
            return False, f"KS at N=2000, lam={lam:.4f} is {final:.4f} >= 0.02"
        details.append(f"{final:.4f}")
    return True, "KS at N=2000: " + ", ".join(details) + f"; {cdf_detail}"


def check_continuum_limit(quick: bool = False) -> tuple[bool, str]:
    """lambda = 1e-3 continuum check against shifted-semicircle moments."""
    lam = 1e-3
    worst = 0.0
    worst_case = ""
    for r in (0.0, 1.0):
        for p in range(1, 7):
            got = asymptotics.continuum_moment_limit(p, r, lam)
            want = asymptotics.shifted_semicircle_moment(p, r)
            if want == 0.0:
                dev = abs(got)
            else:
                dev = abs(got - want) / abs(want)
            if dev > worst:
                worst, worst_case = dev, f"r={r}, p={p}"
    ok = worst <= 0.01
    return ok, f"max rel deviation {worst:.4f} at {worst_case} (tolerance 1%)"


def check_symmetry(quick: bool = False) -> tuple[bool, str]:
    """Exact moment symmetry and the density symmetry via moments.

    The moment symmetry sees only the k prefactor of the closed form:
    (1/a + 1)^(p-2k) (-1/a)^k = a^(-p) (a+1)^(p-2k) (-a)^k, so it holds for
    any q-binomial weights and any h_sum values.  Those factors are guarded
    by C01 and C03, not here."""
    nmax = 3 if quick else 4
    qs = EXACT_QS[:1] if quick else EXACT_QS
    for q, a, N in itertools.product(qs, EXACT_AS, range(1, nmax + 1)):
        for p in range(0, (5 if quick else 9)):
            lhs, rhs = moments.symmetry_pair(EnsembleParams(a=a, q=q, N=N), p)
            if lhs != rhs:
                return False, f"moment symmetry fails at q={q}, a={a}, N={N}, p={p}"
    worst = 0.0
    for lam in (math.log(2),) if quick else (math.log(2), 1.0):
        for p in range(0, 7):
            lhs = density.density_moment(p, -3.0, lam)
            rhs = (-3.0) ** p * density.density_moment(p, -1 / 3, lam)
            worst = max(worst, abs(lhs - rhs))
    ok = worst < 1e-6
    return ok, f"density symmetry via moments: max dev {worst:.2e}"


REGISTRY: tuple[tuple[str, str, Callable[[bool], tuple[bool, str]]], ...] = (
    ("C01", "exact triple-oracle moment equality", check_triple_oracle),
    ("C02", "explicit low moments m0, m1, m2", check_low_moments),
    ("C03", "matching-sum alpha: closed = recurrence = brute force", check_alpha_identity),
    ("C04", "orthogonality relation and q-Gaussian integral", check_orthogonality),
    ("C05", "Jackson-integral route matches closed moments", check_jackson_route),
    ("C06", "large-N expansion: residual decay and coefficients", check_expansion),
    ("C07", "limiting density normalisation and moments", check_density_moments),
    ("C08", "phase-transition structure of the density", check_phase_structure),
    ("C09", "zero distribution converges to the density", check_zero_distribution),
    ("C10", "continuum limit toward the shifted semicircle", check_continuum_limit),
    ("C11", "parameter-inversion symmetry", check_symmetry),
)


def run_check(check_id: str, quick: bool = False) -> CheckResult:
    """Run one registered check; a crashed check is a failed check."""
    found = next(((t, f) for cid, t, f in REGISTRY if cid == check_id), None)
    if found is None:
        ids = ", ".join(cid for cid, _, _ in REGISTRY)
        raise DomainError(f"unknown check id {check_id!r}; registered: {ids}")
    title, fn = found
    start = time.perf_counter()
    try:
        passed, detail = fn(quick)
    except Exception as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    return CheckResult(
        check_id=check_id, title=title, passed=passed, detail=detail,
        seconds=time.perf_counter() - start,
    )


def run_all(quick: bool = False) -> list[CheckResult]:
    """Run every registered check, in registry order."""
    return [run_check(check_id, quick) for check_id, _, _ in REGISTRY]

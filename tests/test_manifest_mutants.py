"""Source mutants that the cheaper checks cannot see, each caught by a named
acceptance check.

Each mutant rewrites one expression of a library function's source,
installs the result in place of that function in its module, and must make
the named check fail.

* The 1/a symmetry tests only the k prefactor of ``moment_closed``, so a
  wrong q-binomial weight or a wrong h_sum value leaves it intact.  C01,
  the exact closed == Motzkin == matching check, must fail: by a mismatch,
  or because the mutant leaves a remainder in one of the route's exact
  integer divisions, which it refuses.
* Float mode runs the same integer scheme at d = t = 1; a q or an a 1e-10
  off in float mode alone must make C01's comparison of float with exact
  fail.
* The exact Motzkin and matching routes build their integers from q = u/d
  and a = s/t over one common denominator; a wrong power of d or of t in a
  step weight, a histogram or a prefactor must make C01 fail.
* The Motzkin walk and the matching recursion call a child only when the
  walk can still finish from it; one step too far in either test must make
  C01 fail.
* Exact ``h_sum`` runs its recursion on integers; a wrong r(m) step there
  must make C03, closed form = recurrence = brute force, fail.  So must a
  wrong power of d in the denominator of ``alpha_closed``'s q-binomial and
  q-double factorial, which it builds from the same integer tables.
* C07 compares the density's moments with ``m_p0``; lambda 0.1% off in
  ``m_p0`` alone must make it fail on the moment deviation, with the
  density's normalisation intact.
* The zeros' KS distance cannot see a limiting law whose lambda is 0.1%
  off; C09's comparison of ``density_cdf`` with the arcsine mixture must.
* A flipped sign in the t-kinks of ``density._kinks``, or in the offset
  x - (1+a) that ``density._arc_samples`` hands the density at each node, must
  make C07 fail; C11 misses the flip of root in beta.  The flip of root in
  1 - alpha gives NaN soft-edge exponents, which must make C08 fail too,
  full and quick.
* The Jackson route walks the lattice weights of ``orthopoly.lattice_weight``;
  a wrong factor in the running product of the a q^k side, which a = -1
  cannot see, must make C05 fail, full and quick, and C04 too.
* C04 alone runs ``orthopoly.orthonormality_residual``; a wrong coefficient
  on v_(j-1) in its recurrence step must make C04 fail, full and quick.
* C06 alone compares ``asymptotics.m_p1`` with the residual of the exact
  moments; a wrong factor on t in its second piece must make C06 fail,
  full and quick.
"""

import __future__
import inspect
import math

import pytest

from qensemble import asymptotics, combinat, density, moments, orthopoly, verify


@pytest.fixture(autouse=True)
def fresh_arc_samples():
    """The density's arc samples are memoised: a mutant must neither be
    served the original's samples nor leave its own behind."""
    density._arc_samples.cache_clear()
    yield
    density._arc_samples.cache_clear()


def install_mutant(monkeypatch, module, name: str, original: str, mutated: str) -> None:
    source = inspect.getsource(getattr(module, name))
    assert source.count(original) == 1, f"{original!r} is not in {name} once"
    namespace = dict(vars(module))
    # the library's annotations are postponed: np.ndarray is never evaluated
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(original, mutated), module.__file__, "exec", flags), namespace)
    monkeypatch.setattr(module, name, namespace[name])


@pytest.mark.parametrize(
    "module,name,original,mutated,failure",
    [
        # qbinom(j, l) = qbinom(j-1, l) [j]_q / [j-l+1]_q: on integers the
        # division leaves a remainder, which the exact route refuses
        (
            moments,
            "moment_closed",
            "div(g * qint[j], qint[j - l])",
            "div(g * qint[j], _q_int_ints(j - l + 2, u, d)[-1])",
            "raised ArithmeticError",
        ),
        # h_sum(k-l-1, p-2k) in place of h_sum(k-l, p-2k)
        (
            moments, "moment_closed",
            "weights[l] * h[k - l]", "weights[l] * h[k - l - 1]", "mismatch",
        ),
        # q or a 1e-10 off in float mode alone, which only C01's
        # float-vs-exact comparison sees
        (
            combinat, "_arithmetic",
            "float(q), 1.0", "float(q) * (1 + 1e-10), 1.0", "float mismatch",
        ),
        (
            combinat, "_arithmetic",
            "float(a), 1.0", "float(a) * (1 + 1e-10), 1.0", "float mismatch",
        ),
    ],
    ids=["qbinom-denominator", "h-prefix-index", "float-q-scaled", "float-a-scaled"],
)
def test_c01_fails_on_mutant(monkeypatch, module, name, original, mutated, failure):
    install_mutant(monkeypatch, module, name, original, mutated)
    if module is combinat:  # moments calls the mode split by its imported name
        monkeypatch.setattr(moments, name, getattr(combinat, name))
    result = verify.run_check("C01")
    assert not result.passed and result.detail.startswith(failure)


@pytest.mark.parametrize(
    "name,original,mutated",
    [
        # lam_h L^2 / d in place of lam_h L^2 for a SouthEast step
        (
            "moment_via_motzkin",
            "d ** (2 * e + 1 - 2 * h)",
            "d ** (2 * e - 2 * h)",
        ),
        # u^c d^c in place of u^c d^(S-c) in the matching histogram's numerator
        ("_histogram_int", "d ** (top - c)", "d ** c"),
        # b_h L d in place of b_h L for an East step
        ("moment_via_motzkin", "d ** (e - h)", "d ** (e - h + 1)"),
        # (-s)^k in place of (-st)^k in the matching prefactor over t^p
        ("moment_component_via_matching", "(-s * t) ** k", "(-s) ** k"),
    ],
    ids=[
        "motzkin-lam-scale",
        "matching-denominator-power",
        "motzkin-b-scale",
        "matching-prefactor-t-power",
    ],
)
def test_c01_fails_on_cleared_denominator_mutant(monkeypatch, name, original, mutated):
    install_mutant(monkeypatch, combinat, name, original, mutated)
    passed, detail = verify.check_triple_oracle()
    assert not passed and detail.startswith("mismatch")


@pytest.mark.parametrize(
    "name,original,mutated",
    [
        # a SouthEast child one step short of reaching j: the walk adds
        # paths that end at j - 2
        ("_motzkin_sum", "j - h < r", "j - h <= r"),
        # an isolated vertex where no vertex is left over: the leaf is
        # reached with arcs still open
        ("_stat_histogram", "verts <= n - v:", "verts <= n - v + 1:"),
    ],
    ids=["motzkin-southeast-reach", "matching-isolated-reach"],
)
def test_c01_fails_on_reachability_mutant(monkeypatch, name, original, mutated):
    install_mutant(monkeypatch, combinat, name, original, mutated)
    passed, detail = verify.check_triple_oracle()
    assert not passed and detail.startswith("mismatch")


def test_c03_fails_on_integer_h_run_mutant(monkeypatch):
    # r(m-1) in place of r(m) in the integer h_sum recursion that exact
    # h_sum, and so alpha_closed, runs
    install_mutant(
        monkeypatch, combinat, "_h_prefixes_int",
        "steps[2 * j + k - 1]", "steps[max(2 * j + k - 2, 0)]",
    )
    result = verify.run_check("C03")
    assert not result.passed and result.detail.startswith("alpha mismatch")


def test_c03_fails_on_alpha_closed_denominator_mutant(monkeypatch):
    # qbinom(n, m) [m-1]_q!! over one power of d too many
    install_mutant(
        monkeypatch, combinat, "alpha_closed",
        "* ((m - 1) // 2))", "* ((m - 1) // 2) + 1)",
    )
    result = verify.run_check("C03")
    assert not result.passed and result.detail.startswith("alpha mismatch")


def test_c07_fails_on_scaled_lambda_in_m_p0(monkeypatch):
    install_mutant(
        monkeypatch, asymptotics, "m_p0", "return total / lam", "return total / (lam * 1.001)"
    )
    result = verify.run_check("C07")
    norm_dev, moment_dev = (float(part.split()[-1]) for part in result.detail.split(";"))
    assert not result.passed and norm_dev < 1e-6 < moment_dev


@pytest.mark.parametrize(
    "name,original,mutated,failure",
    [
        # beta = (... - root) / c: the smaller kink in place of the larger
        ("_kinks", "- 2.0 * (a / c) + root", "- 2.0 * (a / c) - root",
         "raised ArithmeticError"),
        # 1 - alpha = ... + (... - root) / c
        ("_kinks", "(1.0 - x) / c + root", "(1.0 - x) / c - root", "raised ArithmeticError"),
        # e + (1 + a) in place of e - (1 + a) in the nodes' x - (1 + a), which
        # enters the numerator of 1 - beta
        ("_arc_samples", "e - (1.0 + a)", "e + (1.0 + a)", "raised ArithmeticError"),
        # -(1 + a) x / c in place of (1 + a) x / c in the numerator of beta
        ("_kinks", "((1.0 + a) * (x / c)", "(-(1.0 + a) * (x / c)", "raised ArithmeticError"),
    ],
    ids=["beta-root", "one-minus-alpha-root", "one-minus-beta-one-plus-a", "beta-one-plus-a"],
)
def test_c07_fails_on_kink_sign_mutant(monkeypatch, name, original, mutated, failure):
    # the arc's 64- and 48-point rules disagree on the kinked density, and
    # the pair refuses it before any deviation is measured
    install_mutant(monkeypatch, density, name, original, mutated)
    result = verify.run_check("C07")
    assert not result.passed and result.detail.startswith(failure)
    assert "quadrature did not converge" in result.detail


@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
def test_c08_fails_on_one_minus_alpha_root_flip(monkeypatch, quick):
    install_mutant(monkeypatch, density, "_kinks", "(1.0 - x) / c + root", "(1.0 - x) / c - root")
    result = verify.run_check("C08", quick)
    assert not result.passed and result.detail.startswith("soft-edge exponent nan")


@pytest.mark.parametrize(
    "check_id,quick,failure",
    [
        ("C05", True, "max |jackson - closed|"),
        # the wrong weights at a = -2 break the Christoffel bound at x = a
        ("C05", False, "raised ArithmeticError"),
        ("C04", False, "orthogonality relative residual"),
    ],
)
def test_lattice_weight_minus_side_mutant_fails(monkeypatch, check_id, quick, failure):
    # (1 - q^i/a) in place of (1 - a q^i) in the running product of w(a q^k)
    install_mutant(monkeypatch, orthopoly, "lattice_weight", "(1.0 - a * x)", "(1.0 - x / a)")
    result = verify.run_check(check_id, quick)
    assert not result.passed and result.detail.startswith(failure)


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
def test_c04_fails_on_orthonormal_step_mutant(monkeypatch, quick):
    # r_(j+1) v_(j-1) in place of r_j v_(j-1) in the scaled recurrence
    install_mutant(monkeypatch, orthopoly, "orthonormality_residual", "r * prev", "r_next * prev")
    result = verify.run_check("C04", quick)
    assert not result.passed and result.detail.startswith("orthogonality relative residual")


@pytest.mark.parametrize("quick", [False, True], ids=["full", "quick"])
def test_c06_fails_on_m_p1_mutant(monkeypatch, quick):
    # (1-l) + p t in place of (1-l) + (p+1) t in the second piece of m_p1
    install_mutant(
        monkeypatch, asymptotics, "m_p1", "(1 - l) + (p + 1) * t", "(1 - l) + p * t"
    )
    result = verify.run_check("C06", quick)
    assert not result.passed and result.detail.startswith("residual*N^3 spread")


def test_c09_fails_on_scaled_lambda_in_the_mixture(monkeypatch):
    # lambda scaled by 1.001 at the top of the arcsine mixture
    first = "    import numpy as np\n"
    install_mutant(
        monkeypatch, density, "_mixture_cdf", first, first + "    lam = 1.001 * lam\n"
    )
    # the KS part of quick C09 still passes on the mutant
    seq = [density.zero_distribution_distance(-1 / 3, math.log(2), n) for n in (100, 200, 400)]
    assert seq[0] > seq[1] > seq[2] and seq[-1] < 0.05
    passed, detail = verify.check_zero_distribution(quick=True)
    assert not passed and detail.startswith("|density_cdf - zero distribution|")

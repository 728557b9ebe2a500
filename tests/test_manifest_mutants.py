"""Source mutants that the cheaper checks cannot see, each caught by a named
acceptance check.

Each mutant rewrites one expression of a library function's source,
installs the result in place of that function in its module, and must make
the named check fail.

* The 1/a symmetry tests only the k prefactor of ``moment_closed``, so a
  wrong q-binomial weight or a wrong h_sum value leaves it intact; C01, the
  exact closed == Motzkin == matching check, must fail.
* The exact Motzkin and matching routes clear denominators before they
  enumerate; a wrong power of L or of d must make C01 fail.
* The zeros' KS distance cannot see a limiting law whose lambda is 0.1%
  off; C09's comparison of ``density_cdf`` with the arcsine mixture must.
"""

import __future__
import inspect
import math
from fractions import Fraction

import pytest

from qensemble import combinat, density, moments, verify


def install_mutant(monkeypatch, module, name: str, original: str, mutated: str) -> None:
    source = inspect.getsource(getattr(module, name))
    assert source.count(original) == 1, f"{original!r} is not in {name} once"
    namespace = dict(vars(module))
    # the library's annotations are postponed: np.ndarray is never evaluated
    flags = __future__.annotations.compiler_flag
    exec(compile(source.replace(original, mutated), module.__file__, "exec", flags), namespace)
    monkeypatch.setattr(module, name, namespace[name])


@pytest.mark.parametrize(
    "original,mutated",
    [
        # qbinom(j, l) = qbinom(j-1, l) [j]_q / [j-l+1]_q
        ("binom * qint[j] / qint[j - l]", "binom * qint[j] / q_int(j - l + 1, q)"),
        # h_sum(k-l-1, p-2k) in place of h_sum(k-l, p-2k)
        ("coeffs[l] * h[k - l]", "coeffs[l] * h[k - l - 1]"),
    ],
    ids=["qbinom-denominator", "h-prefix-index"],
)
def test_c01_fails_on_mutant(monkeypatch, original, mutated):
    install_mutant(monkeypatch, moments, "moment_closed", original, mutated)
    params = moments.EnsembleParams(q=Fraction(2, 3), a=Fraction(-2), N=3)
    for p in range(7):
        lhs, rhs = moments.symmetry_pair(params, p)
        assert lhs == rhs  # the symmetry holds for the mutant too
    passed, detail = verify.check_triple_oracle()
    assert not passed and detail.startswith("mismatch")


@pytest.mark.parametrize(
    "name,original,mutated",
    [
        # lam_h L in place of lam_h L^2 for a SouthEast step
        (
            "moment_via_motzkin",
            "lam.numerator * (L * L // lam.denominator)",
            "lam.numerator * (L // lam.denominator)",
        ),
        # u^s d^s in place of u^s d^(S-s) in the matching histogram's numerator
        ("_matching_sum", "d ** (top - s)", "d ** s"),
    ],
    ids=["motzkin-lam-scale", "matching-denominator-power"],
)
def test_c01_fails_on_cleared_denominator_mutant(monkeypatch, name, original, mutated):
    install_mutant(monkeypatch, combinat, name, original, mutated)
    passed, detail = verify.check_triple_oracle()
    assert not passed and detail.startswith("mismatch")


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

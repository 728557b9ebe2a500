"""Mutants of the closed form that the 1/a symmetry checks cannot see.

The 1/a symmetry tests only the k prefactor of ``moment_closed``, so a wrong
q-binomial weight or a wrong h_sum value leaves it intact.  Each mutant here
rewrites one expression of ``moment_closed``'s source, installs the result
in place of ``moments.moment_closed``, and must make C01, the exact
closed == Motzkin == matching check, fail.
"""

import inspect
from fractions import Fraction

import pytest

from qensemble import moments, verify


def install_mutant(monkeypatch, original: str, mutated: str) -> None:
    source = inspect.getsource(moments.moment_closed)
    assert source.count(original) == 1, f"{original!r} is not in moment_closed once"
    namespace = dict(vars(moments))
    exec(compile(source.replace(original, mutated), moments.__file__, "exec"), namespace)
    monkeypatch.setattr(moments, "moment_closed", namespace["moment_closed"])


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
    install_mutant(monkeypatch, original, mutated)
    params = moments.EnsembleParams(q=Fraction(2, 3), a=Fraction(-2), N=3)
    for p in range(7):
        lhs, rhs = moments.symmetry_pair(params, p)
        assert lhs == rhs  # the symmetry holds for the mutant too
    passed, detail = verify.check_triple_oracle()
    assert not passed and detail.startswith("mismatch")

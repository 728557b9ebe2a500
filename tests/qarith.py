"""Scalar q-arithmetic for the test oracles, in exact Fractions.

The library computes q-integers, q-factorials, q-double factorials and
q-binomials only as integer tables at q = u/d (``combinat._q_int_ints`` and
its neighbours).  These are the definitions, term by term, which the triple
sum of ``test_moments`` and the tuple sum of ``test_combinat`` are built
from, so that those oracles share no code with the library's tables.
``TestQInt``, ``TestFactorials`` and ``TestQBinomial`` in ``test_qcore``
test them.
"""

import math
from fractions import Fraction

from qensemble.qcore import DomainError


def q_int(n, q):
    """[n]_q = 1 + q + ... + q^(n-1); n at q = 1."""
    if n < 0:
        raise DomainError(f"q_int requires n >= 0, got {n}")
    return sum((q**i for i in range(n)), Fraction(0))


def q_factorial(n, q):
    """[n]_q! = [1]_q [2]_q ... [n]_q, with [0]_q! = 1, multiplied up from
    [2]_q as moment_closed does."""
    return math.prod((q_int(m, q) for m in range(2, n + 1)), start=Fraction(1))


def q_double_factorial(n, q):
    """[n]_q!! = [n]_q [n-2]_q ... down to [1]_q or [2]_q.

    Convention: [0]_q!! = [-1]_q!! = 1.  (The value at n = -1 is needed so
    that the boundary cases of the matching-sum closed form are consistent.)
    """
    if n < -1:
        raise DomainError(f"q_double_factorial requires n >= -1, got {n}")
    return math.prod((q_int(m, q) for m in range(n, 1, -2)), start=Fraction(1))


def q_binomial(n, k, q):
    """Gaussian binomial coefficient [n]_q! / ([k]_q! [n-k]_q!), as the
    product of the min(k, n-k) ratios [n-i+1]_q / [i]_q."""
    if k < 0 or k > n:
        raise DomainError(f"q_binomial requires 0 <= k <= n, got n={n}, k={k}")
    return math.prod(
        (q_int(n - i + 1, q) / q_int(i, q) for i in range(1, min(k, n - k) + 1)),
        start=Fraction(1),
    )

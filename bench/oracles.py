"""Independent reference routes for the benchmark's output checks.

Nothing here imports qensemble: every value is built from the ensemble's
three-term recurrence directly, so a defect in the library cannot hide in
its own oracle.

The moments use the transfer-matrix form of the weighted Motzkin-path sum
(Flajolet, "Combinatorial aspects of continued fractions", 1980):
``m_{N,p} = sum_{j<N} (T^p)_{jj}``, where T is tridiagonal with
``T[n, n] = (a+1) q^n``, ``T[n, n+1] = 1`` and
``T[n, n-1] = -a q^(n-1) (1 - q^n)``, truncated at height N + p (a path of
length p that starts below N never climbs higher).

Results are cached, because the benchmark checks every task several times;
they are tuples or read-only arrays so that no caller can change them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal


@lru_cache(maxsize=4096)
def exact_moments(a: Fraction, q: Fraction, N: int, p_max: int) -> tuple[Fraction, ...]:
    """Exact m_{N,p} for p = 0..p_max, as rationals."""
    height = N + p_max
    diag = [(a + 1) * q**n for n in range(height)]
    below = [Fraction(0)] + [-a * q ** (n - 1) * (1 - q**n) for n in range(1, height)]
    out = [Fraction(0)] * (p_max + 1)
    for j in range(N):
        row = [Fraction(0)] * height  # e_j T^k
        row[j] = Fraction(1)
        out[0] += 1
        lo = hi = j  # nonzero support of row
        for k in range(1, p_max + 1):
            nxt = [Fraction(0)] * height
            for n in range(lo, hi + 1):
                c = row[n]
                if not c:
                    continue
                nxt[n] += c * diag[n]
                if n + 1 < height:
                    nxt[n + 1] += c
                if n >= 1:
                    nxt[n - 1] += c * below[n]
            row = nxt
            lo, hi = max(lo - 1, 0), min(hi + 1, height - 1)
            out[k] += row[j]
    return tuple(out)


@lru_cache(maxsize=4096)
def float_moments(a: float, q: float, N: int, p_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Float m_{N,p} for p = 0..p_max, and the same sums taken over |T|.

    The second array bounds the size of every term in the first, so it is
    the scale against which a rounding tolerance is set.
    """
    height = N + p_max
    n = np.arange(height, dtype=float)
    diag = (a + 1.0) * q**n
    below = np.zeros(height)
    below[1:] = -a * q ** (n[1:] - 1.0) * (1.0 - q ** n[1:])
    return (
        _trace_powers(diag, below, N, p_max),
        _trace_powers(np.abs(diag), np.abs(below), N, p_max),
    )


def _trace_powers(diag: np.ndarray, below: np.ndarray, N: int, p_max: int) -> np.ndarray:
    """sum_{j<N} (T^k)_{jj} for k = 0..p_max, carrying the rows e_j T^k."""
    rows = np.zeros((N, diag.size))
    rows[np.arange(N), np.arange(N)] = 1.0
    out = [float(N)]
    for _ in range(p_max):
        nxt = rows * diag
        nxt[:, 1:] += rows[:, :-1]
        nxt[:, :-1] += rows[:, 1:] * below[1:]
        rows = nxt
        out.append(float(np.trace(rows[:, :N])))
    return _frozen(np.array(out))


@lru_cache(maxsize=256)
def jacobi_zeros(a: float, q: float, N: int) -> np.ndarray:
    """Zeros of the degree-N polynomial as eigenvalues of the orthonormal
    recurrence matrix, by LAPACK bisection (``stebz``)."""
    n = np.arange(N, dtype=float)
    diag = (a + 1.0) * q**n
    m = n[1:]
    off = np.sqrt(-a * (1.0 - q**m) * q ** (m - 1.0))
    return _frozen(eigvalsh_tridiagonal(diag, off, lapack_driver="stebz"))


def _frozen(x: np.ndarray) -> np.ndarray:
    x.flags.writeable = False
    return x

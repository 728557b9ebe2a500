"""Spectral analysis toolkit for a q-deformed unitary ensemble.

Exact rational spectral moments with three mutually verifying routes
(closed form, weighted Motzkin paths, matching statistics), the
orthogonal-polynomial machinery (weight, Jackson-integral moments of the
one-point density, Jacobi-matrix zeros), large-N expansion coefficients, and
the limiting spectral density with its two phase transitions, whose CDF is
checked against the limiting zero distribution of the polynomials.
"""

__version__ = "0.1.0"

from .qcore import QParams
from .moments import EnsembleParams

__all__ = ["QParams", "EnsembleParams", "__version__"]

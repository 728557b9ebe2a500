"""Acceptance suite: one test per check of ``verify.REGISTRY``, at full
tolerances.  The tests are made from the registry itself, so a check added
there runs here too.

Each test prints a PASS/FAIL line (run with ``pytest -s`` to stream them).
C10 is expected to fail: at lambda = 1e-3 with r = 1 the scaled expansion
coefficient differs from the shifted-semicircle moment by O(sqrt(lambda))
~ 1.7%-5.8% for p >= 2, so its 1% tolerance is unattainable at the stated
lambda; see README "Verification status".  The check still runs at the
stated tolerance and the expected failure is strict.
"""

import pytest

from qensemble.verify import REGISTRY

#: test names of the first eleven checks, kept so that their test ids stay
#: stable; a check without an entry runs as test_<id>
NAMES = {
    "C01": "test_c01_triple_oracle_equality",
    "C02": "test_c02_explicit_low_moments",
    "C03": "test_c03_alpha_three_routes",
    "C04": "test_c04_orthogonality_and_qgaussian",
    "C05": "test_c05_jackson_route",
    "C06": "test_c06_large_n_expansion",
    "C07": "test_c07_density_normalisation_and_moments",
    "C08": "test_c08_phase_transitions",
    "C09": "test_c09_zero_distribution",
    "C10": "test_c10_continuum_limit",
    "C11": "test_c11_symmetry",
}

C10_XFAIL = pytest.mark.xfail(
    strict=True,
    reason="O(sqrt(lambda)) convergence at r=1 makes the stated 1% tolerance "
    "unattainable at lambda=1e-3 (deviation 1.7%-5.8% for p in 2..6); "
    'see README "Verification status"',
)


def _acceptance_test(check_id, title, fn):
    def test():
        passed, detail = fn(False)
        print(f"{'PASS' if passed else 'FAIL'} {check_id} {title}: {detail}")
        assert passed, f"{check_id} {title}: {detail}"

    test.__name__ = NAMES.get(check_id, f"test_{check_id.lower()}")
    return C10_XFAIL(test) if check_id == "C10" else test


for _check in REGISTRY:
    _test = _acceptance_test(*_check)
    globals()[_test.__name__] = _test

import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qensemble import cli, combinat, verify
from qensemble.cli import main
from qensemble.density import limiting_density
from qensemble.qcore import DomainError


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def assert_plateau_cdf(rows, a, lam):
    """Every zero lies on a plateau, where the density is 1/(lambda |x|):
    the limit CDF is log(|a|/|x|)/lambda left of the arc, 1 - log(1/x)/lambda
    right of it."""
    assert rows
    for row in rows:
        x, got = float(row["zero"]), float(row["limit_cdf"])
        want = math.log(abs(a) / abs(x)) / lam if x < 0 else 1 - math.log(1 / x) / lam
        assert got == pytest.approx(want, abs=1e-13), x


class TestMomentsCommand:
    def test_exact_rational_output(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "2", "--q", "1/2",
            "--a", "-1/2", "--method", "closed",
        )
        assert code == 0
        rows = parse_csv(out)
        by_p = {r["p"]: r["value"] for r in rows}
        assert by_p["1"] == "3/4"
        assert by_p["0"] == "2"

    def test_verify_agreement(self, capsys):
        code, _, _ = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "3", "--q", "1/2",
            "--a", "-1/2", "--method", "closed,motzkin,matching", "--verify",
        )
        assert code == 0

    def test_verify_exact_disagreement_exits_3(self, capsys, monkeypatch):
        motzkin = cli.moment_via_motzkin
        monkeypatch.setattr(cli, "moment_via_motzkin", lambda *args: motzkin(*args) + 1)
        code, _, err = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "3", "--q", "1/2",
            "--a", "-1/2", "--method", "closed,motzkin,matching", "--verify",
        )
        assert code == 3 and err == "verify: exact methods disagree at p=0\n"

    def test_verify_float_deviation_exits_3(self, capsys, monkeypatch):
        from qensemble import orthopoly

        jackson = orthopoly.jackson_moment
        monkeypatch.setattr(
            orthopoly, "jackson_moment", lambda *args: jackson(*args) * (1 + 1e-6)
        )
        code, _, err = run_cli(
            capsys, "moments", "--mode", "float", "--N", "3", "--p-max", "2", "--q", "0.5",
            "--a", "-0.5", "--method", "closed,qintegral", "--verify",
        )
        assert code == 3 and err.startswith("verify: method qintegral deviates at p=0: ")

    def test_odd_rows_vanish_at_minus_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "5", "--q", "1/2",
            "--a", "-1", "--method", "closed",
        )
        assert code == 0
        rows = parse_csv(out)
        for r in rows:
            if int(r["p"]) % 2 == 1:
                assert r["value"] == "0"

    def test_qintegral_method_close_to_closed(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "2", "--q", "1/2",
            "--a", "-1/2", "--method", "closed,qintegral", "--verify",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "N,q,a",
        [
            (40, math.exp(-3 / 40), "-0.5"),
            (100, math.exp(-3 / 100), "-0.5"),
            (100, 0.9, "-0.5"),
            (60, 0.7, "-2"),
        ],
    )
    def test_jackson_route_past_christoffel_bound_is_refused(self, capsys, N, q, a):
        # rho_N(x) (1-q)|x| <= 1 on the lattice; the forward recurrence breaks
        # it near x = 1 (1.0016 up to 8.8e247), and m_0 came out as 40.00395 or
        # 3.67e214 with exit 0 before the bound was checked
        code, out, err = run_cli(
            capsys, "moments", "--mode", "float", "--method", "qintegral",
            "--N", str(N), "--p-max", "0", "--q", repr(q), "--a", a,
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"N={N}, q={q!r}" in err and "Christoffel bound" in err

    @pytest.mark.parametrize("q,a", [("1/2", "-1"), ("2/3", "-1/2"), ("1/2", "-2")])
    def test_jackson_route_passes_c05_grid(self, capsys, q, a):
        # the largest rho_N(x) (1-q)|x| on C05's lattices is 0.9986
        for N in range(1, 5):
            code, _, err = run_cli(
                capsys, "moments", "--N", str(N), "--p-max", "6", "--q", q, "--a", a,
                "--method", "closed,qintegral", "--verify",
            )
            assert code == 0, err

    def test_jackson_route_passes_rounding_over_the_bound(self, capsys):
        # x = 1 gives 1 exactly here; rounding can put such a point a few
        # ulps over, inside the slack
        code, out, err = run_cli(
            capsys, "moments", "--mode", "float", "--method", "closed,qintegral",
            "--N", "20", "--p-max", "0", "--q", repr(math.exp(-3 / 20)), "--a", "-0.5",
            "--verify",
        )
        assert code == 0, err

    @pytest.mark.parametrize("a,n", [("-0.5", 1075), ("-2", 1076)])
    def test_jackson_route_lam_underflow_is_refused(self, capsys, a, n):
        # lam_n = -a (1-q^n) q^(n-1) underflows to 0 once it would be 2^-1075
        code, out, err = run_cli(
            capsys, "moments", "--mode", "float", "--method", "qintegral", "--N", "1100",
            "--p-max", "0", "--q", "0.5", "--a", a,
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        assert f"q=0.5, a={float(a)}, N=1100" in err and err.endswith(f"from n={n}\n")

    @pytest.mark.parametrize("q,norm", [("0.998", "inf"), ("0.999", "inf")])
    def test_weight_norm_overflow_names_q(self, capsys, q, norm):
        # (q/a; q)_inf, the end product of w(a), overflows as q nears 1; the
        # error once named only "lattice point x=1.0"
        code, _, err = run_cli(
            capsys, "moments", "--mode", "float", "--method", "qintegral", "--N", "300",
            "--p-max", "3", "--q", q, "--a", "-0.5",
        )
        assert code == 2 and err.count("\n") == 1
        assert f"q={q}, a=-0.5" in err and f"(q/a; q)_inf = {norm}" in err

    def test_q_over_a_past_float_range_names_q_and_a(self, capsys):
        # q/a = -inf; the infinite product ran all 100000 factors and said
        # only "q_pochhammer_infinite did not converge"
        code, out, err = run_cli(
            capsys, "moments", "--mode", "float", "--method", "qintegral", "--N", "3",
            "--p-max", "2", "--q", "0.5", "--a", "-5e-324",
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "q=0.5, a=-5e-324" in err and "z=-inf" in err

    def test_end_product_that_does_not_converge_names_q_and_a(self, capsys):
        # (a; q)_inf overflows to inf within its first factors and runs all
        # 100000 of them; the error once said only "q_pochhammer_infinite
        # did not converge"
        code, out, err = run_cli(
            capsys, "moments", "--mode", "float", "--method", "qintegral", "--N", "2",
            "--p-max", "1", "--q", "0.9997", "--a", "-2e8",
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "q=0.9997, a=-200000000.0" in err and "(a; q)_inf" in err

    def test_exact_mode_rejects_decimal(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "2", "--q", "0.5", "--a", "-1/2",
        )
        assert code == 2
        assert "exact mode" in err

    def test_float_mode_accepts_decimal(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "1", "--q", "0.5",
            "--a", "-0.5", "--mode", "float",
        )
        assert code == 0
        rows = parse_csv(out)
        assert float(rows[1]["value"]) == pytest.approx(0.75)

    def test_unknown_method(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--N", "1", "--p-max", "1", "--q", "1/2",
            "--a", "-1", "--method", "magic",
        )
        assert code == 2

    def test_zero_denominator_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "2", "--q", "1/0", "--a", "-1/2",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "zero denominator" in err

    def test_negative_p_max_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "-1", "--q", "1/2", "--a", "-1/2",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize("tol", ["nan", "inf", "0"])
    @pytest.mark.parametrize("method", ["closed", "qintegral"])
    def test_nonfinite_or_zero_tol_rejected(self, capsys, tol, method):
        # a nan tol once ran the Jackson route for over a minute, and made
        # --verify accept any disagreement
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "2", "--q", "1/2",
            "--a", "-1/2", "--method", method, "--tol", tol, "--verify",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and "tol" in err
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("method", ["", ","])
    def test_empty_method_list_rejected(self, capsys, method):
        code, out, err = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "2", "--q", "1/2",
            "--a", "-1/2", "--method", method, "--verify",
        )
        assert code == 2 and out == ""
        assert err.startswith("error:")

    def test_cap_exceeded(self, capsys):
        code, _, err = run_cli(
            capsys, "moments", "--N", "1", "--p-max", "15", "--q", "1/2",
            "--a", "-1", "--method", "motzkin",
        )
        assert code == 4

    @pytest.mark.parametrize(
        "method, N, p_max",
        [("motzkin", "1", "15"), ("matching", "4", "12")],
    )
    def test_cap_checked_before_enumeration(self, capsys, monkeypatch, method, N, p_max):
        def refuse(*args, **kwargs):
            raise AssertionError("enumerated before checking the cap")

        monkeypatch.setattr(cli, "moment_via_motzkin", refuse)
        monkeypatch.setattr(cli, "moment_component_via_matching", refuse)
        code, _, err = run_cli(
            capsys, "moments", "--N", N, "--p-max", p_max, "--q", "1/2",
            "--a", "-1", "--method", method,
        )
        assert code == 4
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "method, N, p_max",
        # under the default --cap of 14, past ENUMERATION_BUDGET in all: at
        # least 3.3e6 matchings (3 s of enumeration before), 3.1e6 paths
        [("matching", "4", "10"), ("motzkin", "8", "14")],
    )
    def test_budget_checked_before_enumeration(self, capsys, monkeypatch, method, N, p_max):
        def refuse(*args):
            raise AssertionError("enumerated past the budget")

        monkeypatch.setattr(combinat, "_stat_histogram", refuse)
        monkeypatch.setattr(combinat, "_motzkin_sum", refuse)
        code, out, err = run_cli(
            capsys, "moments", "--N", N, "--p-max", p_max, "--q", "1/2",
            "--a", "-1/2", "--method", f"closed,{method}",
        )
        assert code == 4 and out == ""
        assert err.startswith(f"error: {method}: p-max={p_max}, N={N}:") and "budget" in err

    def test_exact_run_never_converts_to_float(self, capsys):
        # a = -10^400 has no float value; only the qintegral route needs one
        code, out, err = run_cli(
            capsys, "moments", "--N", "2", "--p-max", "2", "--q", "1/2",
            "--a", f"-{10**400}/1",
        )
        assert code == 0, err
        assert parse_csv(out)[0]["value"] == "2"  # m_{N,0} = N

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--N", "1", "--p-max", "1", "--q", "1/2",
            "--a", "-1/2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["mode"] == "exact"
        assert payload["rows"][0]["value"] == "1"
        assert "diagnostics" not in payload["meta"]  # no enumeration requested

    @pytest.mark.parametrize(
        "mode_args,kind",
        [
            (("--q", "1/2", "--a", "-1/2"), str),
            (("--mode", "float", "--q", "0.5", "--a", "-0.5"), float),
        ],
        ids=["exact", "float"],
    )
    def test_json_routes_agree_in_value_and_type(self, capsys, mode_args, kind):
        # every route returns the mode's type at every p, p = 0 included:
        # a rational string in exact mode, a JSON float in float mode
        code, out, _ = run_cli(
            capsys, "moments", "--N", "3", "--p-max", "4", *mode_args,
            "--method", "closed,motzkin,matching", "--format", "json",
        )
        assert code == 0
        by_p = {}
        for row in json.loads(out)["rows"]:
            by_p.setdefault(row["p"], []).append(row["value"])
        assert sorted(by_p) == list(range(5))
        for p, values in by_p.items():
            assert all(type(v) is kind for v in values), (p, values)
            assert len(set(values)) == 1, (p, values)

    def test_json_reports_enumeration_sizes(self, capsys):
        # the counted size of each requested enumeration, every p <= p-max
        # and j < N; the rows are those of the request without it
        argv = ("moments", "--N", "3", "--p-max", "5", "--q", "1/2", "--a", "-1/2")
        code, out, _ = run_cli(capsys, *argv, "--method", "closed,motzkin,matching",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        want = {
            name: sum(count(p, j) for p in range(6) for j in range(3))
            for name, count in (("motzkin", combinat.motzkin_count),
                                ("matching", combinat.matching_count))
        }
        assert payload["meta"]["diagnostics"] == {"enumeration_size": want}
        _, closed, _ = run_cli(capsys, *argv, "--method", "closed", "--format", "json")
        assert [r for r in payload["rows"] if r["method"] == "closed"] == json.loads(closed)["rows"]
        _, motzkin, _ = run_cli(capsys, *argv, "--method", "motzkin", "--format", "json")
        assert json.loads(motzkin)["meta"]["diagnostics"] == {
            "enumeration_size": {"motzkin": want["motzkin"]}
        }


class TestDensityCommand:
    @pytest.mark.parametrize(
        "a,lam,grid,kind",
        [
            ("-0.3333333333333333", str(math.log(2)), "50", "SoftHardMixed"),
            # the grid hits x = 0 where 1 - e^(-lambda) rounds to 1
            ("-1", "40", "3", "TwoHardEdges"),
            # e^(-lambda) underflows to 0; the density itself needs no log
            ("-0.5", "1440", "3", "TwoHardEdges"),
        ],
    )
    def test_regime_column(self, capsys, a, lam, grid, kind):
        code, out, _ = run_cli(
            capsys, "density", "--a", a, "--lambda", lam, "--grid", grid,
        )
        assert code == 0
        rows = parse_csv(out)
        assert all(r["regime"] == kind for r in rows)

    def test_density_past_float_range_is_refused(self, capsys):
        # rho(0) passes ~8e304 from lambda ~1421 at a = -1; the grid's x = 0
        # once gave the bare line "error: float division by zero"
        code, out, err = run_cli(
            capsys, "density", "--a", "-1", "--lambda", "1500", "--grid", "3",
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        assert "a=-1.0, lambda=1500.0" in err and "x=0.0" in err

    def test_plateau_reaching_zero_is_refused(self, capsys, monkeypatch):
        # -a e^(-lambda) underflows, so the half-width v is 0 and the left
        # plateau (a, u) reaches past x = 0: the grid came out with exit 0.
        # The support refuses it once per request; the grid's density
        # values do not read the support
        from qensemble import density

        calls = []
        support = density.support
        monkeypatch.setattr(density, "support", lambda *args: calls.append(args) or support(*args))
        code, out, err = run_cli(
            capsys, "density", "--a", "-1e-20", "--lambda", "700", "--grid", "50",
        )
        assert code == 2 and out == "" and err.count("\n") == 1
        assert err.startswith("error: a=-1e-20, lambda=700.0: the plateau [")
        assert "reaches x = 0" in err
        assert calls == [(-1e-20, 700.0)]

    @pytest.mark.parametrize("a", ["-1e-17", "-1e-300", "-1e300"])
    def test_hard_edge_at_extreme_a(self, capsys, a):
        # once exit 2 with "float division by zero" at the hard edge
        code, out, err = run_cli(
            capsys, "density", "--a", a, "--lambda", "1", "--grid", "3",
        )
        assert code == 0 and err == ""
        rows = parse_csv(out)
        a = float(a)
        edge, value = (0, -1 / a) if a < -1 else (2, 1.0)
        assert float(rows[edge]["rho"]) == pytest.approx(value, rel=1e-15)

    def test_trapezoid_mass_near_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--a", "-0.3333333333333333",
            "--lambda", str(math.log(2)), "--grid", "10000",
        )
        rows = parse_csv(out)
        xs = [float(r["x"]) for r in rows]
        ys = [float(r["rho"]) for r in rows]
        mass = sum(
            0.5 * (y0 + y1) * (x1 - x0)
            for x0, x1, y0, y1 in zip(xs, xs[1:], ys, ys[1:])
        )
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_reflection_rescaling_of_rows(self, capsys):
        lam = str(math.log(2))
        out_a, out_b = (
            json.loads(run_cli(
                capsys, "density", "--a", a, "--lambda", lam, "--grid", "101",
                "--format", "json",
            )[1])
            for a in ("-3", str(-1 / 3))
        )
        # a < -1 reports the regime and thresholds of 1/a
        for key in ("regime", "lambda1", "lambda2"):
            assert out_a["meta"][key] == out_b["meta"][key], key
        # the a and 1/a grids coincide under x -> x/a up to reversal
        for ra, rb in zip(out_a["rows"], reversed(out_b["rows"])):
            assert float(ra["x"]) == pytest.approx(float(rb["x"]) * -3.0, abs=1e-12)
            assert float(ra["rho"]) == pytest.approx(float(rb["rho"]) / 3.0, rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("grid", [2, 3, 7, 2000])
    @pytest.mark.parametrize("a", [-1e-300, -1 / 3, -0.5, -1.0, -3.0, -1e300])
    def test_grid_is_linspace(self, capsys, a, grid):
        # the grid is built without numpy, and must equal its linspace
        code, out, _ = run_cli(
            capsys, "density", "--a", repr(a), "--lambda", "1", "--grid", str(grid),
            "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)["rows"]
        xs = np.array([r["x"] for r in rows])
        assert np.array_equal(xs, np.linspace(a, 1.0, grid))
        assert [r["rho"] for r in rows] == [limiting_density(x, a, 1.0) for x in xs]

    def test_bad_params(self, capsys):
        code, _, _ = run_cli(capsys, "density", "--a", "0.5", "--lambda", "1")
        assert code == 2
        code, _, _ = run_cli(capsys, "density", "--a", "-0.5", "--lambda", "1", "--grid", "1")
        assert code == 2

    @pytest.mark.parametrize("lam", ["inf", "nan", "0", "-1"])
    def test_lambda_must_be_finite_and_positive(self, capsys, lam):
        # lambda = inf once printed rho = 0 everywhere, which has mass 0
        code, out, err = run_cli(capsys, "density", "--a", "-0.5", "--lambda", lam)
        assert code == 2 and out == ""
        assert err.startswith("error:") and "lambda" in err


class TestZerosCommand:
    def test_single_zero(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--N", "1", "--a", "-0.5", "--lambda", "1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["zero"]) == pytest.approx(0.5)
        assert float(rows[0]["empirical_cdf"]) == 1.0

    @pytest.mark.parametrize(
        "N, lam, message",
        [
            ("0", "1", "N must be a positive integer"),
            # lambda is checked before q = e^(-lambda/N) is built from it
            ("10", "nan", "lambda must be finite and positive"),
            # q = e^(-500): q^n underflows, so lam_n = 0 and the Jacobi
            # matrix is no longer irreducible
            ("10", "5000", "offdiag entries must be strictly positive"),
            # lambda (N-2)/N ~ 748 is past the underflow of q^(N-2), so the
            # refusal names where it happens, not only the broken invariant
            ("200", "752", "a=-0.5, N=200, lam_n = -a (1-q^n) q^(n-1) "
             "underflows to 0 from n=199"),
        ],
    )
    def test_bad_params(self, capsys, N, lam, message):
        code, out, err = run_cli(capsys, "zeros", "--N", N, "--a", "-0.5", "--lambda", lam)
        assert code == 2 and out == ""
        assert err.startswith("error:") and message in err

    @pytest.mark.parametrize(
        "N, a, lam",
        [
            # the quadrature of the density returned (nan, nan) on the
            # ~1e-76 wide arc; the arcsine mixture needs no quadrature
            ("4", "-0.5", "700"),
            ("4", "-0.5", "740"),
            # e^(-lambda) underflows, so a plateau piece ends at 0 and its
            # log mass is infinite; the mixture needs no plateau mass
            ("2", "-0.5", "1440"),
            ("2", "-3", "1440"),
        ],
    )
    def test_large_lambda_limit_is_the_plateau_cdf(self, capsys, N, a, lam):
        code, out, err = run_cli(capsys, "zeros", "--N", N, "--a", a, "--lambda", lam)
        assert code == 0 and err == ""
        assert_plateau_cdf(parse_csv(out), float(a), float(lam))

    def test_cdf_columns_consistent(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--N", "40", "--a", "-0.5", "--lambda", "1")
        rows = parse_csv(out)
        assert len(rows) == 40
        emp = [float(r["empirical_cdf"]) for r in rows]
        lim = [float(r["limit_cdf"]) for r in rows]
        assert emp == sorted(emp)
        assert all(abs(e - l) < 0.05 for e, l in zip(emp, lim))


class TestConvergeCommand:
    def test_scaled_residual_stability(self, capsys):
        code, out, _ = run_cli(
            capsys, "converge", "--p", "2", "--a", "-0.5", "--lambda", "1",
            "--N", "8,16,32",
        )
        assert code == 0
        rows = parse_csv(out)
        scaled = [abs(float(r["residual_Ncubed"])) for r in rows]
        assert (max(scaled) - min(scaled)) / min(scaled) < 0.5

    def test_large_n(self, capsys):
        code, out, err = run_cli(
            capsys, "converge", "--p", "3", "--a", "-0.5", "--lambda", "1",
            "--N", "16,32,64,128,256",
        )
        assert code == 0, err
        rows = parse_csv(out)
        assert [int(r["N"]) for r in rows] == [16, 32, 64, 128, 256]
        assert all(math.isfinite(float(r["residual"])) for r in rows)

    def test_overflow_is_a_parameter_error(self, capsys):
        code, _, err = run_cli(
            capsys, "converge", "--p", "60", "--a", "-1e6", "--lambda", "1",
            "--N", "8",
        )
        assert code == 2
        assert err.startswith("error:")


@pytest.mark.parametrize(
    "argv",
    [
        ("moments", "--mode", "float", "--N", "2", "--p-max", "2", "--q", "0.5"),
        ("density", "--lambda", "1"),
        ("zeros", "--N", "10", "--lambda", "1"),
        ("converge", "--p", "2", "--lambda", "1", "--N", "8"),
    ],
)
def test_nonfinite_a_rejected(capsys, argv):
    # -1e400 parses as -inf
    code, out, err = run_cli(capsys, *argv, "--a", "-1e400")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "a must be" in err


_BAD = ("nan", "inf", "-inf", "1e400", "", ",", "1/0", "-1", "0")


def _ints(lo: int, hi: int) -> list[str]:
    return [str(n) for n in range(lo, hi + 1)]


_METHODS = ["closed", "motzkin", "matching", "qintegral", "closed,motzkin,matching",
            "closed,qintegral", "motzkin,magic"]
_A = ["-0.5", "-2", "-1", "-3", "-0.3"]  # argparse floats
_LAMBDA = ["1", "0.5", "3", "0.1"]
_FORMAT = ["csv", "json"]
#: subcommand -> (required flags, optional flags), each flag with its valid
#: values (None: a flag without a value); sizes stay small so that one
#: command line takes milliseconds
_GRAMMAR = {
    "moments": (
        {"--N": _ints(1, 4), "--p-max": _ints(0, 4), "--q": ["1/2", "2/3"],
         "--a": ["-1/2", "-2", "-1", "-3", "-7/3"]},
        {"--mode": ["exact", "float"], "--method": _METHODS, "--tol": ["1e-8", "1e-3"],
         "--cap": _ints(0, 8), "--format": _FORMAT, "--verify": [None]},
    ),
    "density": ({"--a": _A, "--lambda": _LAMBDA}, {"--grid": _ints(2, 5), "--format": _FORMAT}),
    "zeros": ({"--N": _ints(1, 20), "--a": _A, "--lambda": _LAMBDA}, {}),
    "converge": (
        {"--p": _ints(0, 4), "--a": _A, "--lambda": _LAMBDA, "--N": ["8", "4,16", "1,2,3"]},
        {},
    ),
}


@st.composite
def _argv(draw) -> list[str]:
    """A command line of the grammar with up to two values replaced by a
    malformed or out-of-range token."""
    roll = draw(st.integers(0, 9))
    if roll == 0:
        # the acceptance checks take seconds (TestVerifyCommand runs them),
        # so verify is drawn only with arguments argparse refuses
        return draw(st.sampled_from([["verify", "--bogus"], ["verify", "x"], ["bogus"], []]))
    name = draw(st.sampled_from(sorted(_GRAMMAR)))
    required, optional = _GRAMMAR[name]
    flags = dict(required)
    flags.update({f: v for f, v in optional.items() if draw(st.booleans())})
    values = {flag: draw(st.sampled_from(choices)) for flag, choices in flags.items()}
    with_value = sorted(f for f, v in values.items() if v is not None)
    for flag in draw(st.lists(st.sampled_from(with_value), max_size=2, unique=True)):
        values[flag] = draw(st.sampled_from(_BAD))
    argv = [name]
    for flag, value in values.items():
        argv += [flag] if value is None else [flag, value]
    return argv


class TestFuzz:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(argv=_argv())
    @example(argv=["moments", "--N", "2", "--p-max", "2", "--q", "1/2", "--a", "-1/2",
                   "--tol", "nan", "--method", "qintegral"])
    @example(argv=["moments", "--N", "2", "--p-max", "2", "--q", "1/2", "--a", "-1/2",
                   "--method", ",", "--verify"])
    @example(argv=["density", "--a", "-0.5", "--lambda", "inf"])
    def test_exit_code_is_documented(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse refusing the command line
                code = exc.code
        assert code in {0, 2, 3, 4}, (code, err.getvalue())
        assert "Traceback" not in err.getvalue()


class TestOutputOptions:
    def test_write_to_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        code, out, _ = run_cli(
            capsys, "moments", "--N", "1", "--p-max", "1", "--q", "1/2",
            "--a", "-1/2", "--output", str(target),
        )
        assert code == 0 and out == ""
        rows = parse_csv(target.read_text())
        assert rows[0]["value"] == "1"

    @pytest.mark.parametrize("argv,target", [
        (("moments", "--N", "2", "--p-max", "2", "--q", "1/2", "--a", "-1/2"),
         "missing/x.csv"),
        (("density", "--a", "-0.5", "--lambda", "1", "--grid", "3"), "."),
    ])
    def test_unwritable_output_is_one_error_line(self, capsys, tmp_path, argv, target):
        # a missing parent directory, and a directory as the target
        path = str(tmp_path / target)
        code, out, err = run_cli(capsys, *argv, "--output", path)
        assert code == 2 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), err
        assert path in lines[0]

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0


class TestDeterminism:
    def test_density_rows_repeat_exactly(self, capsys):
        args = ("density", "--a", "-0.5", "--lambda", "1.0", "--grid", "64")
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2


class TestVerifyCommand:
    def test_quick_manifest_names_known_failure(self, capsys):
        # the C10 tolerance is unattainable at its stated lambda (see the
        # acceptance suite docstring), so a correct build reports exactly
        # that one failure
        code, out, _ = run_cli(capsys, "verify", "--quick")
        assert code == 3
        lines = [l for l in out.splitlines() if l.startswith(("PASS", "FAIL"))]
        assert len(lines) == 11
        failing = [l.split()[1] for l in lines if l.startswith("FAIL")]
        assert failing == ["C10"]
        # each line ends with its check's wall time
        assert all(re.search(r": .* \(\d+\.\d\d s\)$", l) for l in lines)

    def test_unknown_check_id_is_a_domain_error(self):
        with pytest.raises(DomainError, match=r"unknown check id 'C12'; registered: C01, .*, C11$"):
            verify.run_check("C12")


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qensemble.cli", "moments", "--N", "1",
             "--p-max", "1", "--q", "1/2", "--a", "-1/2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "1,closed,1/2" in proc.stdout  # m_{1,1} = (a+1)(1-q)/(1-q)


def _fresh(*args):
    """Run a fresh interpreter that imports qensemble from the tree under test."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )


class TestZerosAtLargeLambda:
    def test_no_stderr_and_the_plateau_cdf(self):
        # the quadrature of the density did not converge here, and scipy's
        # IntegrationWarning reached stderr; a fresh process shows any warning
        proc = _fresh("-m", "qensemble.cli", "zeros", "--N", "4", "--a", "-0.5",
                      "--lambda", "40")
        assert proc.returncode == 0 and proc.stderr == ""
        assert_plateau_cdf(parse_csv(proc.stdout), -0.5, 40.0)


class TestOverflowMessage:
    @pytest.mark.parametrize(
        "argv, sizes",
        [
            (["moments", "--N", "300", "--p-max", "3", "--q", "0.999", "--a", "-1e300",
              "--mode", "float"], "p-max=3, N=300"),
            (["converge", "--p", "400", "--a", "-0.5", "--lambda", "1", "--N", "8"],
             "p=400, N=8"),
            # the float closed form is inf from p = 130, once passed by
            # --verify beside a finite Jackson value
            (["moments", "--mode", "float", "--N", "3", "--p-max", "130", "--q", "0.99",
              "--a", "-0.5", "--method", "closed,qintegral", "--verify"], "p-max=130, N=3"),
        ],
    )
    def test_one_line_naming_the_sizes(self, argv, sizes):
        # once an errno tuple, "int too large to convert to float", or inf
        proc = _fresh("-m", "qensemble.cli", *argv)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr == f"error: a float overflowed at {sizes}\n"


# Runs main(argv) in a fresh interpreter, then prints the exit code and the
# names of every module loaded by the import and the run.
_MODULES_PROBE = """
import contextlib, io, json, sys
from qensemble.cli import main
argv = json.loads(sys.argv[1])
code = None
if argv:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""

_EXACT = ["--q", "1/2", "--a", "-1/2"]


class TestColdImport:
    """Each request loads only the layers, and scipy submodules, it uses."""

    @staticmethod
    def run(argv):
        proc = _fresh("-c", _MODULES_PROBE, json.dumps(argv))
        assert proc.returncode == 0, proc.stderr
        record = json.loads(proc.stdout.splitlines()[-1])
        modules = record["modules"]
        return record["code"], lambda name: any(
            m == name or m.startswith(name + ".") for m in modules
        )

    @pytest.mark.parametrize(
        "argv, code",
        [
            ([], None),  # the bare import
            (["moments", "--N", "2", "--p-max", "2", *_EXACT,
              "--method", "closed,motzkin,matching", "--verify"], 0),
            (["moments", "--N", "4", "--p-max", "20", *_EXACT, "--method", "motzkin"], 4),
            (["moments", "--N", "2", "--p-max", "2", "--q", "1/0", "--a", "-1/2"], 2),
        ],
    )
    def test_exact_path_loads_no_numpy_or_scipy(self, argv, code):
        got, loaded = self.run(argv)
        assert got == code
        assert not loaded("numpy") and not loaded("scipy")

    @pytest.mark.parametrize(
        "argv",
        [
            ["density", "--a", "-0.5", "--lambda", "1", "--grid", "8"],
            ["moments", "--mode", "float", "--N", "3", "--p-max", "2", "--q", "0.5",
             "--a", "-0.5", "--method", "closed,qintegral"],
            ["converge", "--p", "2", "--a", "-0.5", "--lambda", "1", "--N", "8,16,32"],
        ],
    )
    def test_float_path_loads_no_numpy_or_scipy(self, argv):
        # the density, the closed and Jackson routes and the large-N
        # coefficients are scalar code
        code, loaded = self.run(argv)
        assert code == 0
        assert not loaded("numpy") and not loaded("scipy")

    @staticmethod
    def loaded_modules(*args):
        """The modules loaded by a fresh interpreter that runs ``args`` and
        prints ``json.dumps(sorted(sys.modules))`` last."""
        proc = _fresh(*args)
        assert proc.returncode == 0, proc.stderr
        return set(json.loads(proc.stdout.splitlines()[-1]))

    @classmethod
    def loaded_tops(cls, *args):
        """The top-level packages among :meth:`loaded_modules`."""
        return {m.partition(".")[0] for m in cls.loaded_modules(*args)}

    def test_every_module_imports_no_numpy_or_scipy(self):
        package = Path(cli.__file__).parent
        names = ", ".join(f"qensemble.{p.stem}" for p in package.glob("*.py") if p.stem != "__init__")
        tops = self.loaded_tops("-c", f"import json, sys, {names}; "
                                "print(json.dumps(sorted(sys.modules)))")
        assert "qensemble" in tops and not tops & {"numpy", "scipy"}

    def test_cli_and_verify_import_no_numpy_or_scipy(self):
        # verify imports numpy inside C08 and scipy's incomplete beta
        # inside C06, not at load
        tops = self.loaded_tops("-c", "import json, sys, qensemble, qensemble.cli, "
                                "qensemble.verify; print(json.dumps(sorted(sys.modules)))")
        assert "qensemble" in tops and not tops & {"numpy", "scipy"}

    CHECK_PROBE = (
        "import json, sys\n"
        "from qensemble import verify\n"
        "result = verify.run_check(sys.argv[1], quick=True)\n"
        "assert not result.detail.startswith('raised'), result.detail\n"
        "print(json.dumps(sorted(sys.modules)))"
    )

    @pytest.mark.parametrize(
        "check_id, numpy",
        [("C01", False), ("C02", False), ("C03", False), ("C04", False),
         ("C05", False), ("C10", False), ("C08", True), ("C07", True), ("C11", True)],
    )
    def test_check_loads_what_it_uses(self, check_id, numpy):
        # the exact checks, the Jackson route and C10 are scalar code; C08,
        # the positive control, loads numpy for its fits, and C07 and C11 for
        # the Gauss-Legendre nodes of the density integrals, but no scipy
        tops = self.loaded_tops("-c", self.CHECK_PROBE, check_id)
        assert ("numpy" in tops) is numpy and "scipy" not in tops

    def test_zero_distribution_check_loads_no_quadrature(self):
        # C09's zeros load scipy.linalg; its density_cdf loads no scipy
        modules = self.loaded_modules("-c", self.CHECK_PROBE, "C09")
        assert "scipy.linalg" in modules and "scipy.integrate" not in modules

    @pytest.mark.parametrize(
        "call", ["density_moment(3, -0.5, 1.0)", "density_cdf(0.2, -0.5, 1.0)"]
    )
    def test_density_integrals_load_no_scipy(self, call):
        tops = self.loaded_tops(
            "-c", "import json, sys\n"
            f"from qensemble.density import density_cdf, density_moment\n{call}\n"
            "print(json.dumps(sorted(sys.modules)))"
        )
        assert "numpy" in tops and "scipy" not in tops

    def test_zeros_loads_what_it_uses(self):
        # positive control: the probe sees the modules a run does load
        code, loaded = self.run(["zeros", "--N", "5", "--a", "-0.5", "--lambda", "1"])
        assert code == 0
        # the limit CDF is the arcsine mixture, which needs no quadrature
        assert loaded("numpy") and loaded("scipy.linalg")
        assert not loaded("scipy.integrate")

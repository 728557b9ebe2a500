import csv
import io
import json
import math
import subprocess
import sys

import pytest

from qensemble import cli
from qensemble.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


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

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "moments", "--N", "1", "--p-max", "1", "--q", "1/2",
            "--a", "-1/2", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meta"]["mode"] == "exact"
        assert payload["rows"][0]["value"] == "1"


class TestDensityCommand:
    def test_regime_column(self, capsys):
        code, out, _ = run_cli(
            capsys, "density", "--a", "-0.3333333333333333",
            "--lambda", str(math.log(2)), "--grid", "50",
        )
        assert code == 0
        rows = parse_csv(out)
        assert all(r["regime"] == "SoftHardMixed" for r in rows)

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
        _, out_a, _ = run_cli(capsys, "density", "--a", "-3", "--lambda", lam, "--grid", "101")
        rows_a = parse_csv(out_a)
        _, out_b, _ = run_cli(
            capsys, "density", "--a", str(-1 / 3), "--lambda", lam, "--grid", "101"
        )
        rows_b = parse_csv(out_b)
        # the a and 1/a grids coincide under x -> x/a up to reversal
        for ra, rb in zip(rows_a, reversed(rows_b)):
            assert float(ra["x"]) == pytest.approx(float(rb["x"]) * -3.0, abs=1e-12)
            assert float(ra["rho"]) == pytest.approx(float(rb["rho"]) / 3.0, rel=1e-12, abs=1e-15)

    def test_bad_params(self, capsys):
        code, _, _ = run_cli(capsys, "density", "--a", "0.5", "--lambda", "1")
        assert code == 2
        code, _, _ = run_cli(capsys, "density", "--a", "-0.5", "--lambda", "1", "--grid", "1")
        assert code == 2


class TestZerosCommand:
    def test_single_zero(self, capsys):
        code, out, _ = run_cli(capsys, "zeros", "--N", "1", "--a", "-0.5", "--lambda", "1")
        assert code == 0
        rows = parse_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["zero"]) == pytest.approx(0.5)
        assert float(rows[0]["empirical_cdf"]) == 1.0

    def test_nonpositive_n_rejected(self, capsys):
        code, out, err = run_cli(capsys, "zeros", "--N", "0", "--a", "-0.5", "--lambda", "1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and "N must be a positive integer" in err

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


class TestEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "qensemble.cli", "moments", "--N", "1",
             "--p-max", "1", "--q", "1/2", "--a", "-1/2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "1,closed,1/2" in proc.stdout  # m_{1,1} = (a+1)(1-q)/(1-q)

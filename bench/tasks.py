"""The benchmark's workloads: seeded inputs, the call into qensemble that is
timed, and the check of its output that is not.

Tasks call the library through module attributes (``moments.moment_closed``
and so on) so that the traced run's wrappers see every call.  A check
returns a ``Verdict``; a failure that matches a documented defect of the
library names it in ``known``, so the run can tell a known failure from a
new one.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable, Iterator

import numpy as np

import oracles
from spawner import Spawner
from qensemble import asymptotics, combinat, density, moments, orthopoly, qcore

#: Library functions the tasks call in their defining module; the traced run
#: wraps these names in addition to every cross-module import.
DIRECT_CALLS = {
    "moments": ("moment_closed", "symmetry_pair"),
    "combinat": ("moment_via_motzkin", "moment_component_via_matching"),
    "orthopoly": ("zeros", "jackson_moment"),
    "density": ("cdf_at_sorted", "limiting_density", "density_moment"),
    "asymptotics": ("m_p0", "m_p1", "expansion_residual"),
}

KNOWN_DEFECTS = {
    "float-overflow": "float moment_closed overflows to NaN for N >= ~175 under q = e^(-lambda/N)",
    "converge-traceback": "converge with N in the hundreds ends in an uncaught ArithmeticError, exit 1",
    "zero-denominator": "--q with a zero denominator ends in a ZeroDivisionError traceback, exit 1 not 2",
}


@dataclass(frozen=True)
class Verdict:
    passed: bool
    reason: str = ""
    known: str = ""  # key of KNOWN_DEFECTS when the failure is that defect
    zeros_dev: float = 0.0  # max |zero - stebz| where zeros were checked
    checks_passed: int = 0  # PASS lines printed by `verify`
    exit_code: int | None = None  # of the CLI process, for CLI tasks


OK = Verdict(True)


def fail(reason: str, known: str = "") -> Verdict:
    return Verdict(False, reason, known)


@dataclass(frozen=True)
class Workload:
    name: str
    rounds: Callable[[random.Random], Iterator[list[dict]]]
    warmup: dict  # fixed task run once, untimed, as part of set-up
    run: Callable[[dict], Any]
    check: Callable[[dict, Any], Verdict]
    round_s: float  # nominal seconds per round at the reference speed; sizes a run
    in_children: bool = False  # tasks run in child processes


def _rational_q(rng: random.Random) -> Fraction:
    den = rng.randint(3, 9)
    return Fraction(rng.randint(1, den - 1), den)


def _rational_a(rng: random.Random, above_minus_one: bool) -> Fraction:
    den = rng.randint(2, 7)
    x = Fraction(rng.randint(1, den - 1), den)
    return -x if above_minus_one else -1 / x


def _float_a(rng: random.Random, above_minus_one: bool, lo: float, hi: float) -> tuple[float, float]:
    """(a, a folded into [-1, 0)) with the fold drawn uniformly in (-hi, -lo)."""
    unit = -rng.uniform(lo, hi)
    return (unit if above_minus_one else 1.0 / unit), unit


# ---------------------------------------------------------------------------
# exact_moments: exact Fraction arithmetic in qcore, combinat and moments

TABLE_N, TABLE_P = 8, 8  # moment_closed table
ROUTES_N, ROUTES_P = 3, 6  # closed form = Motzkin sum = matching sum
SYM_N, SYM_P = 4, 6  # 1/a symmetry pair


def exact_rounds(rng: random.Random) -> Iterator[list[dict]]:
    while True:
        yield [
            {"label": f"a {side} -1", "q": _rational_q(rng), "a": _rational_a(rng, side == ">")}
            for side in (">", "<")
        ]


def exact_run(task: dict) -> tuple:
    q, a = task["q"], task["a"]
    table = [
        moments.moment_closed(moments.EnsembleParams(a=a, q=q, N=TABLE_N), p)
        for p in range(TABLE_P + 1)
    ]
    qp = qcore.QParams(q=q, a=a)
    small = moments.EnsembleParams(a=a, q=q, N=ROUTES_N)
    routes = [
        (
            moments.moment_closed(small, p),
            sum(combinat.moment_via_motzkin(p, j, qp) for j in range(ROUTES_N)),
            sum(combinat.moment_component_via_matching(p, j, qp) for j in range(ROUTES_N)),
        )
        for p in range(ROUTES_P + 1)
    ]
    pair = moments.symmetry_pair(moments.EnsembleParams(a=a, q=q, N=SYM_N), SYM_P)
    return table, routes, pair


def exact_check(task: dict, out: tuple) -> Verdict:
    q, a = task["q"], task["a"]
    table, routes, pair = out
    if tuple(table) != oracles.exact_moments(a, q, TABLE_N, TABLE_P):
        return fail(f"moment_closed table differs from the transfer-matrix oracle at q={q}, a={a}")
    ref = oracles.exact_moments(a, q, ROUTES_N, ROUTES_P)
    for p, (closed, motzkin, matching) in enumerate(routes):
        if not closed == motzkin == matching == ref[p]:
            return fail(f"exact routes disagree at q={q}, a={a}, p={p}")
    if not pair[0] == pair[1] == oracles.exact_moments(1 / a, q, SYM_N, SYM_P)[SYM_P]:
        return fail(f"symmetry pair differs at q={q}, a={a}")
    return OK


EXACT = Workload(
    name="exact_moments",
    rounds=exact_rounds,
    warmup={"label": "warm-up", "q": Fraction(1, 2), "a": Fraction(-1, 2)},
    run=exact_run,
    check=exact_check,
    round_s=0.27,
)


# ---------------------------------------------------------------------------
# zeros_density: Sturm bisection in orthopoly, quadrature in density

ZEROS_N = (250, 350, 500, 700, 1000, 2000)
REGIMES = ("two-soft", "mixed", "two-hard")
GRID = 2000
MASS_TOL = 0.05  # trapezoid mass of the density grid, which resolves no edge


def _lambda_in_regime(rng: random.Random, unit_a: float, regime: int) -> float:
    """lambda strictly inside one of the three phases of the density."""
    lam1 = math.log(1.0 - unit_a)
    lam2 = lam1 - math.log(-unit_a)
    if regime == 0:
        return lam1 * rng.uniform(0.15, 0.85)
    if regime == 1:
        return lam1 + (lam2 - lam1) * rng.uniform(0.15, 0.85)
    return lam2 * rng.uniform(1.15, 2.5)


def zeros_rounds(rng: random.Random) -> Iterator[list[dict]]:
    i = 0
    while True:
        batch = []
        for N in ZEROS_N:
            a, unit = _float_a(rng, i % 2 == 0, 0.15, 0.85)
            lam = _lambda_in_regime(rng, unit, i % 3)
            batch.append({"label": f"N={N} {REGIMES[i % 3]}", "a": a, "lam": lam, "N": N})
            i += 1
        yield batch


def zeros_run(task: dict) -> tuple:
    a, lam, N = task["a"], task["lam"], task["N"]
    zs = orthopoly.zeros(moments.EnsembleParams(a=a, q=math.exp(-lam / N), N=N))
    cdf = density.cdf_at_sorted(zs, a, lam)
    i = np.arange(N)
    ks = float(np.maximum(cdf - i / N, (i + 1) / N - cdf).max())
    grid = np.linspace(a, 1.0, GRID)
    rho = np.array([density.limiting_density(float(x), a, lam) for x in grid])
    dmom = [density.density_moment(p, a, lam) for p in range(7)]
    return zs, ks, grid, rho, dmom


def _check_zeros(zs: np.ndarray, a: float, lam: float, N: int) -> tuple[float, str]:
    ref = oracles.jacobi_zeros(a, math.exp(-lam / N), N)
    if np.shape(zs) != ref.shape:
        return math.inf, f"{np.size(zs)} zeros returned, {N} expected"
    dev = float(np.max(np.abs(np.asarray(zs) - ref)))
    return dev, ("" if dev <= 1e-10 else f"zeros deviate from stebz by {dev:.2e}")


def _check_grid(grid: np.ndarray, rho: np.ndarray) -> str:
    if not (np.all(np.isfinite(rho)) and np.all(rho >= 0)):
        return "density grid has negative or non-finite values"
    mass = float(np.sum((rho[1:] + rho[:-1]) * np.diff(grid)) / 2)
    return "" if abs(mass - 1.0) <= MASS_TOL else f"density grid mass {mass:.4f}"


def zeros_check(task: dict, out: tuple) -> Verdict:
    a, lam, N = task["a"], task["lam"], task["N"]
    zs, ks, grid, rho, dmom = out
    dev, why = _check_zeros(zs, a, lam, N)
    if not why and not ks <= 2.0 / N:
        why = f"KS distance {ks:.3e} exceeds 2/N"
    if not why:
        sp = asymptotics.ScalingParams(a=a, lam=lam)
        worst = max(abs(dmom[p] - asymptotics.m_p0(p, sp)) for p in range(7))
        if not worst <= 1e-6:
            why = f"density_moment deviates from m_p0 by {worst:.2e}"
    why = why or _check_grid(grid, rho)
    return Verdict(not why, f"{why} at a={a}, lambda={lam}" if why else "", zeros_dev=dev)


ZEROS = Workload(
    name="zeros_density",
    rounds=zeros_rounds,
    warmup={"label": "warm-up", "a": -0.5, "lam": 1.0, "N": 250},
    run=zeros_run,
    check=zeros_check,
    round_s=3.3,
)


# ---------------------------------------------------------------------------
# float_expansion: float moments, the large-N coefficients, the Jackson route

FLOAT_N = (2, 4, 6, 8, 128, 256, 512)
FLOAT_P = range(1, 7)
#: p stops at 3 for N=512: every N=512 task fails on the float overflow,
#: and from p=4 one costs 0.8 to 1.3 s, which would fill most of a run with
#: that one failure and leave the tail percentile on two or three tasks
FLOAT_P_MAX = {512: 3}
JACKSON_MAX_N = 8
OVERFLOW_N = 170  # float q_factorial(N-1) stays finite below this for every lambda
#: lambda range; below 1 the Jackson lattice at N=8 grows tenfold, which
#: scatters small-N task times across the whole distribution
FLOAT_LAMBDA = (1.0, 3.0)
LAMBDA_STRATA = 3  # equal slices of FLOAT_LAMBDA


def float_rounds(rng: random.Random) -> Iterator[list[dict]]:
    """A round holds, for each N <= JACKSON_MAX_N, every pair of p in 1..6
    and lambda stratum, and for each larger N every p up to FLOAT_P_MAX once.

    The cost of a task grows about tenfold from p=1 to p=6, and at small N
    the Jackson route makes it fall about fivefold from lambda=1 to 3.  The
    strata fix that mix, so every run holds the same spread of task costs
    and the median task lies among the many cheap small-N tasks.  The seed
    draws a, lambda within its stratum, and lambda over the whole range
    where it barely moves the cost.
    """
    lo, hi = FLOAT_LAMBDA
    while True:
        batch = []
        for stratum in range(LAMBDA_STRATA):
            for p in FLOAT_P:
                for N in FLOAT_N:
                    if N <= JACKSON_MAX_N:
                        lam = lo + (hi - lo) * (stratum + rng.random()) / LAMBDA_STRATA
                    elif not stratum and p <= FLOAT_P_MAX.get(N, p):
                        lam = rng.uniform(lo, hi)
                    else:
                        continue
                    a, _ = _float_a(rng, len(batch) % 2 == 0, 0.2, 0.9)
                    batch.append({"label": f"N={N}", "a": a, "lam": lam, "p": p, "N": N})
        yield batch


def float_run(task: dict) -> tuple:
    a, lam, p, N = task["a"], task["lam"], task["p"], task["N"]
    params = moments.EnsembleParams(a=a, q=math.exp(-lam / N), N=N)
    m = moments.moment_closed(params, p)
    sp = asymptotics.ScalingParams(a=a, lam=lam)
    c0 = asymptotics.m_p0(p, sp)
    c1 = asymptotics.m_p1(p, sp)
    jack = orthopoly.jackson_moment(params, p) if N <= JACKSON_MAX_N else None
    try:
        resid: float | ArithmeticError = asymptotics.expansion_residual(p, sp, N)
    except ArithmeticError as exc:
        resid = exc
    return m, c0, c1, jack, resid


def _residual_tol(q: float, p: int, scale: float) -> float:
    return 1e-9 * q ** (p / 2) * scale


def float_check(task: dict, out: tuple) -> Verdict:
    a, lam, p, N = task["a"], task["lam"], task["p"], task["N"]
    m, c0, c1, jack, resid = out
    q = math.exp(-lam / N)
    ref, scale = (v[p] for v in oracles.float_moments(a, q, N, p))
    where = f"a={a}, lambda={lam}, p={p}, N={N}"
    if not math.isfinite(m):
        return fail(f"moment_closed returned {m} at {where}", "float-overflow" if N > OVERFLOW_N else "")
    if abs(m - ref) > 1e-9 * scale:
        return fail(f"moment_closed {m!r} differs from oracle {ref!r} at {where}")
    if isinstance(resid, ArithmeticError):
        return fail(f"expansion_residual raised {resid!r} at {where}")
    ref_resid = q ** (p / 2) * ref - c0 * N - c1 / N
    if abs(resid - ref_resid) > _residual_tol(q, p, scale):
        return fail(f"residual {resid!r} differs from oracle {ref_resid!r} at {where}")
    if jack is not None and not abs(jack - ref) <= 1e-8:
        return fail(f"jackson_moment {jack!r} differs from oracle {ref!r} at {where}")
    return OK


FLOAT = Workload(
    name="float_expansion",
    rounds=float_rounds,
    warmup={"label": "warm-up", "a": -0.5, "lam": 1.0, "p": 4, "N": 4},
    run=float_run,
    check=float_check,
    round_s=2.4,
)


# ---------------------------------------------------------------------------
# cli_session: one request per fresh `python -m qensemble.cli` process

CLI_TIMEOUT_S = 60.0
CONVERGE_N = (16, 32, 64, 128, 256)
INVALID = ("zero-denominator", "q-outside", "a-nonnegative")


@dataclass(frozen=True)
class CliRun:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int


class CliRunner:
    """Runs CLI requests from the checkout root through a ``Spawner``,
    keeping their output in the checkout's output directory."""

    def __init__(self, root: Path, out_dir: Path, spawner: Spawner):
        self.root = root
        self.out_dir = out_dir
        self.spawner = spawner

    def __call__(self, task: dict) -> CliRun:
        out_path, err_path = self.out_dir / "cli.stdout", self.out_dir / "cli.stderr"
        code, maxrss_kb = self.spawner.run(
            [sys.executable, "-m", "qensemble.cli", *task["argv"]],
            str(out_path), str(err_path), CLI_TIMEOUT_S,
        )
        return CliRun(
            code,
            out_path.read_text(errors="replace"),
            err_path.read_text(errors="replace"),
            maxrss_kb,
        )


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _session(rng: random.Random, index: int) -> list[dict]:
    def req(kind: str, expect: int, argv: list[str], **info: Any) -> dict:
        return {"label": kind, "kind": kind, "expect": expect, "argv": argv, **info}

    def exact_args(N: int, p_max: int, methods: int) -> tuple[list[str], dict]:
        q, a = _rational_q(rng), _rational_a(rng, rng.random() < 0.5)
        argv = ["--N", str(N), "--p-max", str(p_max), "--q", _frac(q), "--a", _frac(a)]
        return argv, {"q": q, "a": a, "N": N, "p_max": p_max, "methods": methods}

    argv1, info1 = exact_args(rng.randint(2, 3), rng.randint(4, 5), 3)
    argv2, info2 = exact_args(rng.randint(5, 7), 6, 1)
    fq = rng.uniform(0.3, 0.8)
    fa, _ = _float_a(rng, rng.random() < 0.5, 0.2, 0.9)
    fN = rng.randint(2, 4)
    da, dunit = _float_a(rng, index % 2 == 0, 0.15, 0.85)
    dlam = _lambda_in_regime(rng, dunit, index % 3)
    za, zunit = _float_a(rng, index % 2 == 1, 0.15, 0.85)
    zlam = _lambda_in_regime(rng, zunit, (index + 1) % 3)
    ca, _ = _float_a(rng, rng.random() < 0.5, 0.2, 0.9)
    clam, cp = rng.uniform(0.3, 3.0), rng.randint(2, 4)
    rq, ra = _rational_q(rng), _rational_a(rng, rng.random() < 0.5)
    invalid = INVALID[index % len(INVALID)]
    bq, ba = _frac(_rational_q(rng)), _frac(_rational_a(rng, True))
    if invalid == "zero-denominator":
        bq = f"{rng.randint(1, 5)}/0"
    elif invalid == "q-outside":
        bq = _frac(1 / _rational_q(rng))
    else:
        ba = _frac(-_rational_a(rng, rng.random() < 0.5))
    return [
        req("moments-exact", 0, ["moments", *argv1, "--method", "closed,motzkin,matching", "--verify"], **info1),
        req("moments-json", 0, ["moments", *argv2, "--format", "json"], **info2),
        req(
            "moments-float", 0,
            ["moments", "--mode", "float", "--N", str(fN), "--p-max", "4", "--q", repr(fq),
             "--a", repr(fa), "--method", "closed,qintegral", "--verify"],
            q=fq, a=fa, N=fN, p_max=4,
        ),
        req("density", 0, ["density", "--a", repr(da), "--lambda", repr(dlam), "--grid", str(GRID),
                           "--format", "json"], a=da, lam=dlam),
        req("zeros", 0, ["zeros", "--N", "1000", "--a", repr(za), "--lambda", repr(zlam),
                         "--format", "json"], a=za, lam=zlam, N=1000),
        req("converge", 0, ["converge", "--p", str(cp), "--a", repr(ca), "--lambda", repr(clam),
                            "--N", ",".join(map(str, CONVERGE_N))], a=ca, lam=clam, p=cp),
        req("refused", 4, ["moments", "--N", "1", "--p-max", "12", "--q", _frac(rq), "--a", _frac(ra),
                           "--method", "motzkin", "--cap", "11"]),
        req("invalid", 2, ["moments", "--N", "2", "--p-max", "3", "--q", bq, "--a", ba], invalid=invalid),
        req("verify", 3, ["verify", "--quick"]),
    ]


def cli_rounds(rng: random.Random) -> Iterator[list[dict]]:
    index = 0
    while True:
        yield _session(rng, index)
        index += 1


def _check_exact_rows(task: dict, rows: list[tuple]) -> str:
    ref = oracles.exact_moments(task["a"], task["q"], task["N"], task["p_max"])
    if len(rows) != task["methods"] * len(ref):
        return f"{len(rows)} rows for p <= {task['p_max']}"
    for p, method, value in rows:
        if Fraction(value) != ref[int(p)]:
            return f"{method} m_p at p={p} is {value}, oracle {ref[int(p)]}"
    return ""


def _check_float_rows(task: dict, rows: list[tuple]) -> str:
    ref, scale = oracles.float_moments(task["a"], task["q"], task["N"], task["p_max"])
    if len(rows) != 2 * len(ref):
        return f"{len(rows)} rows for p <= {task['p_max']}"
    for p, method, value in rows:
        p, value = int(p), float(value)
        tol = 1e-9 * scale[p] if method == "closed" else 1e-8
        if not abs(value - ref[p]) <= tol:
            return f"{method} m_p at p={p} is {value!r}, oracle {ref[p]!r}"
    return ""


def _check_density(task: dict, payload: dict) -> str:
    a, lam = task["a"], task["lam"]
    rows = payload["rows"]
    grid = np.linspace(a, 1.0, GRID)
    xs = np.array([r["x"] for r in rows])
    rho = np.array([r["rho"] for r in rows])
    if xs.shape != grid.shape or not np.array_equal(xs, grid):
        return "density grid differs from linspace(a, 1)"
    here = np.array([density.limiting_density(float(x), a, lam) for x in grid])
    if not np.allclose(rho, here, rtol=1e-12, atol=0.0):
        return "density values differ from the in-process limiting_density"
    unit_a = a if a >= -1 else 1 / a
    if payload["meta"]["regime"] != density.regime(unit_a, lam).kind.value:
        return f"regime {payload['meta']['regime']} differs from the in-process regime"
    return _check_grid(grid, rho)


def _check_zeros_payload(task: dict, payload: dict) -> tuple[float, str]:
    a, lam, N = task["a"], task["lam"], task["N"]
    rows = payload["rows"]
    zs = np.array([r["zero"] for r in rows])
    dev, why = _check_zeros(zs, a, lam, N)
    if why:
        return dev, why
    limit = np.array([r["limit_cdf"] for r in rows])
    if not np.allclose(limit, density.cdf_at_sorted(zs, a, lam), rtol=0.0, atol=1e-12):
        return dev, "limit_cdf differs from the in-process cdf_at_sorted"
    i = np.arange(N)
    ks = float(np.maximum(limit - i / N, (i + 1) / N - limit).max())
    return dev, ("" if ks <= 2.0 / N else f"KS distance {ks:.3e} exceeds 2/N")


def _check_converge(task: dict, text: str) -> str:
    a, lam, p = task["a"], task["lam"], task["p"]
    rows = list(csv.DictReader(io.StringIO(text)))
    if [int(r["N"]) for r in rows] != list(CONVERGE_N):
        return "converge rows do not match the requested N list"
    sp = asymptotics.ScalingParams(a=a, lam=lam)
    c0, c1 = asymptotics.m_p0(p, sp), asymptotics.m_p1(p, sp)
    for r in rows:
        N = int(r["N"])
        q = math.exp(-lam / N)
        ref, scale = (v[p] for v in oracles.float_moments(a, q, N, p))
        want = q ** (p / 2) * ref - c0 * N - c1 / N
        if not abs(float(r["residual"]) - want) <= _residual_tol(q, p, scale):
            return f"residual at N={N} is {r['residual']}, oracle {want!r}"
    return ""


def _check_verify(text: str) -> str:
    failed = [line.split()[1] for line in text.splitlines() if line.startswith("FAIL ")]
    return "" if failed == ["C10"] else f"verify --quick failed {failed}, expected exactly C10"


def _csv_rows(text: str) -> list[tuple]:
    return [tuple(r) for r in csv.reader(io.StringIO(text))][1:]


def _json_rows(text: str) -> list[tuple]:
    return [(r["p"], r["method"], r["value"]) for r in json.loads(text)["rows"]]


def _cli_failure(task: dict, run: CliRun) -> tuple[str, str, float]:
    """(reason, known defect, zeros deviation) for one CLI request."""
    kind = task["kind"]
    if "Traceback" in run.stderr:
        last = run.stderr.strip().splitlines()[-1]
        if kind == "converge" and "ArithmeticError" in last and max(CONVERGE_N) > OVERFLOW_N:
            return f"converge: {last}", "converge-traceback", 0.0
        if task.get("invalid") == "zero-denominator" and "ZeroDivisionError" in last:
            return f"invalid --q: {last}", "zero-denominator", 0.0
        return f"{kind}: traceback, exit {run.code}: {last}", "", 0.0
    if run.code != task["expect"]:
        return f"{kind}: exit {run.code}, expected {task['expect']}", "", 0.0
    if kind in ("refused", "invalid"):
        return ("" if run.stderr.startswith("error: ") else f"{kind}: no error message"), "", 0.0
    if kind == "zeros":
        dev, why = _check_zeros_payload(task, json.loads(run.stdout))
        return why, "", dev
    why = {
        "moments-exact": lambda: _check_exact_rows(task, _csv_rows(run.stdout)),
        "moments-json": lambda: _check_exact_rows(task, _json_rows(run.stdout)),
        "moments-float": lambda: _check_float_rows(task, _csv_rows(run.stdout)),
        "density": lambda: _check_density(task, json.loads(run.stdout)),
        "converge": lambda: _check_converge(task, run.stdout),
        "verify": lambda: _check_verify(run.stdout),
    }[kind]()
    return why, "", 0.0


def cli_check(task: dict, run: CliRun) -> Verdict:
    why, known, dev = _cli_failure(task, run)
    passes = sum(line.startswith("PASS ") for line in run.stdout.splitlines())
    return Verdict(
        not why, why, known, zeros_dev=dev,
        checks_passed=passes if task["kind"] == "verify" else 0, exit_code=run.code,
    )


def workload(name: str, root: Path, out_dir: Path, spawner: Spawner | None) -> Workload:
    """The named workload; CLI requests are started by ``spawner``."""
    if name != "cli_session":
        return {w.name: w for w in (EXACT, ZEROS, FLOAT)}[name]
    return Workload(
        name="cli_session",
        rounds=cli_rounds,
        warmup=_session(random.Random("cli warm-up"), 0)[0],
        run=CliRunner(root, out_dir, spawner),
        check=cli_check,
        round_s=9.0,
        in_children=True,
    )

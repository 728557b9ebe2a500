"""Tests of the benchmark itself: its oracles, its tracing and how it counts
failures.  Run from the repository root:

    python -m pytest bench -q
"""

from __future__ import annotations

import importlib
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
for _path in (str(BENCH), str(BENCH.parent / "src")):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import tasks  # noqa: E402
from qensemble import moments  # noqa: E402


def _tracer() -> spans.Tracer:
    modules = {name: importlib.import_module(f"qensemble.{name}") for name in spans.LAYERS}
    return spans.Tracer(modules, tasks.DIRECT_CALLS)


def _bits(x):
    """A value that compares equal only for bit-identical outputs."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    if isinstance(x, float):
        return float(x).hex()
    if isinstance(x, (tuple, list)):
        return tuple(_bits(v) for v in x)
    if isinstance(x, BaseException):
        return (type(x).__name__, x.args)
    return x


@pytest.mark.parametrize(
    "N, p, a, q",
    [(1, 6, F(-1, 2), F(2, 3)), (4, 8, F(-1, 2), F(2, 3)), (3, 7, F(-3), F(1, 2)), (6, 5, F(-5, 3), F(3, 7))],
)
def test_oracles_match_exact_moment_closed_at_small_N(N, p, a, q):
    exact = [moments.moment_closed(moments.EnsembleParams(a=a, q=q, N=N), k) for k in range(p + 1)]
    assert oracles.exact_moments(a, q, N, p) == tuple(exact)
    values, scales = oracles.float_moments(float(a), float(q), N, p)
    for k in range(p + 1):
        assert abs(values[k] - float(exact[k])) <= 1e-13 * scales[k]


@pytest.mark.parametrize(
    "workload, count", [(tasks.EXACT, 2), (tasks.FLOAT, 7), (tasks.ZEROS, 2)], ids=lambda w: getattr(w, "name", "")
)
def test_tracing_leaves_outputs_bit_identical(workload, count):
    batch = next(workload.rounds(random.Random(7)))[:count]
    tracer = _tracer()
    original = moments.moment_closed
    for task in batch:
        plain = workload.run(task)
        tracer.install()
        try:
            traced = workload.run(task)
        finally:
            tracer.uninstall()
        assert _bits(traced) == _bits(plain)
    assert len(tracer.fid) > 0
    assert moments.moment_closed is original


def test_span_and_call_counts_repeat_for_one_seed():
    def counts():
        tracer = _tracer()
        start = tracer.mark()
        for task in next(tasks.EXACT.rounds(random.Random(3))):
            run.run_task(tasks.EXACT, task, tracer)
        s = tracer.summary(start, tracer.mark())
        return s.calls.tolist(), s.counts

    assert counts() == counts()


def test_wrong_answer_is_counted_not_raised(monkeypatch):
    real = moments.moment_closed
    monkeypatch.setattr(moments, "moment_closed", lambda params, p: real(params, p) + 1)
    results = run.rescale([run.run_task(tasks.EXACT, t) for t in next(tasks.EXACT.rounds(random.Random(1)))])
    assert results
    assert all(not r.verdict.passed and not r.verdict.known for r in results)
    rows = {name: value for name, value, *_ in run.end_to_end(tasks.EXACT, results, [1.0])}
    assert rows["failed_ratio"] == 1.0


def test_raising_task_is_counted_not_raised(monkeypatch):
    def broken(params, p):
        raise RuntimeError("injected")

    monkeypatch.setattr(moments, "moment_closed", broken)
    result = run.run_task(tasks.FLOAT, next(tasks.FLOAT.rounds(random.Random(1)))[0])
    assert not result.verdict.passed and "injected" in result.verdict.reason


def test_float_overflow_is_a_known_failure():
    batch = next(tasks.FLOAT.rounds(random.Random(2)))
    for task, result in zip(batch, [run.run_task(tasks.FLOAT, t) for t in batch]):
        if task["N"] > tasks.OVERFLOW_N:
            assert not result.verdict.passed and result.verdict.known == "float-overflow"
        else:
            assert result.verdict.passed, result.verdict.reason


def test_cli_wrong_value_and_known_traceback():
    session = tasks._session(random.Random(0), 0)
    json_task = next(t for t in session if t["kind"] == "moments-json")
    ref = oracles.exact_moments(json_task["a"], json_task["q"], json_task["N"], json_task["p_max"])
    rows = [{"p": p, "method": "closed", "value": str(v + (p == 3))} for p, v in enumerate(ref)]
    wrong = tasks.CliRun(0, json.dumps({"meta": {}, "rows": rows}), "", 0)
    verdict = tasks.cli_check(json_task, wrong)
    assert not verdict.passed and not verdict.known and "p=3" in verdict.reason
    right = tasks.CliRun(0, json.dumps({"meta": {}, "rows": [dict(r, value=str(v)) for r, v in zip(rows, ref)]}), "", 0)
    assert tasks.cli_check(json_task, right).passed

    converge = next(t for t in session if t["kind"] == "converge")
    trace = "Traceback (most recent call last):\n  ...\nArithmeticError: moment evaluation overflowed\n"
    verdict = tasks.cli_check(converge, tasks.CliRun(1, "", trace, 0))
    assert not verdict.passed and verdict.known == "converge-traceback"


def test_tail_keeps_ten_tasks_beyond():
    times = [float(i) for i in range(30)]
    value, pct = run.tail(times)
    assert value == 19.0 and sum(t > value for t in times) == 10
    assert pct == pytest.approx(100 * 20 / 30)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "exact_moments", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""

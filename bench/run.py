"""Run one benchmark workload against the qensemble checkout this file sits in.

    python3 bench/run.py --workload exact_moments --seed 1 --seconds 15 --trace 0

Workloads: exact_moments, zeros_density, float_expansion, cli_session (see
bench/README.md).  Each is a closed loop with one caller: the next task
starts when the previous one ends.  A run is a fixed number of rounds of a
fixed task mix, sized to take about ``--seconds``; inputs come from
``--seed`` only, and every output is checked against an independent route
outside the timed region.  Times are scaled to a reference machine speed
(see ``calibrate``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs half as
many rounds twice, untraced and then traced, and prints the per-layer
metrics.  Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.
Per-task records, and in a traced run every span, go to ``.bench_out/`` in
the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
WORKLOADS = ("exact_moments", "zeros_density", "float_expansion", "cli_session")
SETUP_SAMPLES = 3  # set-ups per run: this process and two fresh probes
CAL_LOOPS = 100_000
#: Seconds the calibration loop takes at full speed on the machine the
#: benchmark was defined on (a 2.1 GHz Xeon vCPU, Python 3.11).
CAL_REF_S = 0.0062
RESCALE_WINDOW = 2
IMPORT_SAMPLES = 3  # cold `import qensemble.cli` probes in a traced run
TAIL_BEYOND = 10  # the tail percentile keeps at least this many tasks above it
#: per-layer time metric -> the cli_session request kinds it is the median of
REQUEST_KINDS = {
    "cli.moments_s": ("moments-exact", "moments-json", "moments-float"),
    "cli.density_s": ("density",),
    "cli.zeros_s": ("zeros",),
    "cli.converge_s": ("converge",),
    "cli.refused_s": ("refused",),
    "cli.invalid_s": ("invalid",),
}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import qensemble.cli; "
    "print(time.perf_counter() - t)"
)


@dataclass
class Result:
    label: str
    raw_seconds: float  # wall time as measured
    calibration: tuple[float, float]  # calibrate() just before and just after
    verdict: object  # tasks.Verdict
    maxrss_kb: int  # peak RSS of the task's child process, if it had one
    seconds: float = 0.0  # wall time at the reference speed, set by rescale()


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now.

    Other tenants of a shared machine slow it by up to 1.8 times, for
    seconds to minutes at a time, and the slowdown shows in CPU time as
    much as in wall time.  Every timing is therefore scaled by CAL_REF_S
    over this loop's time around it: the reported seconds are what the
    work takes at the reference speed.
    """
    t0 = time.perf_counter()
    x = 0
    for k in range(CAL_LOOPS):
        x += k * k
    return time.perf_counter() - t0


def rescale(results: list[Result]) -> list[Result]:
    """Set each task's reference-speed time from the median calibration of
    the RESCALE_WINDOW tasks on each side of it and itself: one loop can
    catch a hiccup of a few milliseconds, while slow stretches last seconds."""
    for i, r in enumerate(results):
        near = results[max(0, i - RESCALE_WINDOW): i + RESCALE_WINDOW + 1]
        r.seconds = r.raw_seconds * CAL_REF_S / statistics.median(c for n in near for c in n.calibration)
    return results


def cap_blas_threads() -> int:
    """Cap BLAS and OpenMP threads at the CPUs this process may use."""
    cap = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        try:
            cap = min(cap, int(os.environ[var]))
        except (KeyError, ValueError):
            pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(cap)
    return cap


def child_env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    return dict(os.environ, PYTHONPATH=path)


def probe(args: list[str]) -> float:
    """Run a fresh interpreter and read the seconds it prints last."""
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=150, check=True)
    return float(proc.stdout.strip().splitlines()[-1])


def cold_import_s() -> float:
    """Reference-speed seconds of `import qensemble.cli` in a fresh interpreter."""
    before = calibrate()
    raw = probe(["-c", IMPORT_PROBE])
    return rescale([Result("import", raw, (before, calibrate()), None, 0)])[0].seconds


def run_task(workload, task: dict, tracer=None) -> Result:
    """Time one task, then check its output outside the timed region."""
    from tasks import Verdict

    before = calibrate()
    if tracer:
        tracer.install()
    t0 = time.perf_counter()
    try:
        out, error = workload.run(task), None
    except Exception as exc:  # a task that raises is a failed task
        out, error = None, exc
    seconds = time.perf_counter() - t0
    if tracer:
        tracer.uninstall()
    after = calibrate()
    if error is not None:
        verdict = Verdict(False, f"raised {error!r}")
    else:
        try:
            verdict = workload.check(task, out)
        except Exception as exc:  # an unreadable output is a failed check
            verdict = Verdict(False, f"check raised {exc!r}")
    return Result(task["label"], seconds, (before, after), verdict, getattr(out, "maxrss_kb", 0))


def rounds_per_run(workload, seconds: float) -> int:
    """Rounds in a run, sized so that they take about ``seconds`` at the
    nominal round time; fixed for a workload and ``seconds``, so every run
    and every commit times the same tasks."""
    return max(1, round(seconds / workload.round_s))


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND tasks beyond it; the maximum when there are too few tasks."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(workload, results: list[Result], setups: list[float]) -> list[tuple]:
    times = [r.seconds for r in results]
    n = len(results)
    passed = sum(r.verdict.passed for r in results)
    tail_s, pct = tail(times)
    if workload.in_children:
        rss_mb, rss_of = max(r.maxrss_kb for r in results) / 1024, "largest CLI child"
    else:
        rss_mb, rss_of = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "benchmark process"
    return [
        ("setup_s", statistics.median(setups), "s", f"median of {len(setups)} set-ups"),
        ("task_p50_s", statistics.median(times), "s", f"{n} tasks"),
        ("task_tail_s", tail_s, "s", f"p{pct:.1f} of {n} tasks, {min(TAIL_BEYOND, n - 1)} beyond"),
        ("tasks_per_s", passed / sum(times), "1/s", f"{passed} passed in {sum(times):.3f} s timed"),
        ("failed_ratio", (n - passed) / n, "ratio", f"{n - passed} failed of {n} attempted"),
        ("passed_ratio", passed / n, "ratio", f"{passed} passed of {n} attempted"),
        ("peak_rss_mb", rss_mb, "MB", rss_of),
    ]


def per_layer(summary, warm, batch, plain, traced, import_s: float) -> list[tuple]:
    from spans import LAYERS

    def self_s(layer: str) -> float:
        return float(summary.layer_self_s[LAYERS.index(layer)])

    def median_s(kinds: tuple[str, ...]) -> float:
        times = [r.seconds for r in traced if r.label in kinds]
        return statistics.median(times) if times else 0.0

    verdicts = [r.verdict for r in traced]
    devs = [v.zeros_dev for v in verdicts if math.isfinite(v.zeros_dev)]
    unexpected = sum(
        v.exit_code is not None and v.exit_code != task["expect"] for task, v in zip(batch, verdicts)
    )
    rows = [
        ("qcore.calls", int(summary.layer_calls[LAYERS.index("qcore")]), "count"),
        ("qcore.self_s", self_s("qcore"), "s"),
        ("combinat.self_s", self_s("combinat"), "s"),
        ("combinat.h_sum.calls", summary.function_calls("combinat.h_sum"), "count"),
        ("combinat.path_weight.calls", summary.counts["combinat.path_weight"], "count"),
        ("combinat.matching_warmup_s", warm.function_s("combinat.moment_component_via_matching"), "s"),
        ("moments.self_s", self_s("moments"), "s"),
        ("moments.moment_closed.calls", summary.function_calls("moments.moment_closed"), "count"),
        ("moments.nonfinite", summary.nonfinite[LAYERS.index("moments")], "count"),
        ("orthopoly.zeros.s", summary.function_s("orthopoly.zeros"), "s"),
        ("orthopoly.zeros.oracle_dev", max(devs, default=0.0), "abs"),
        ("orthopoly.jackson_moment.s", summary.function_s("orthopoly.jackson_moment"), "s"),
        ("orthopoly.density_n.calls", summary.counts["orthopoly.density_n"], "count"),
        ("density.self_s", self_s("density"), "s"),
        ("density.cdf_at_sorted.s", summary.function_s("density.cdf_at_sorted"), "s"),
        ("density.density_moment.s", summary.function_s("density.density_moment"), "s"),
        ("density.quad.calls", summary.counts["density.quad"], "count"),
        ("asymptotics.self_s", self_s("asymptotics"), "s"),
        ("asymptotics.errors", summary.errors[LAYERS.index("asymptotics")], "count"),
        ("cli.import_s", import_s, "s"),
        *((name, median_s(kinds), "s") for name, kinds in REQUEST_KINDS.items()),
        ("cli.unexpected_exit", unexpected, "count"),
        ("verify.quick_s", median_s(("verify",)), "s"),
        ("verify.checks_passed", sum(v.checks_passed for v in verdicts), "count"),
        ("trace.overhead_ratio", sum(r.seconds for r in traced) / sum(r.seconds for r in plain), "ratio"),
    ]
    return [(name, value, unit, "") for name, value, unit in rows]


def failure_lines(results: list[Result]) -> list[str]:
    """One line per (task label, known defect) group of failed tasks."""
    from tasks import KNOWN_DEFECTS

    groups: dict[tuple[str, str], list[str]] = {}
    for r in results:
        if not r.verdict.passed:
            groups.setdefault((r.label, r.verdict.known), []).append(r.verdict.reason)
    return [
        f"failed  {label} x{len(reasons)}  "
        + (f"known defect {known}: {KNOWN_DEFECTS[known]}" if known else f"NEW FAILURE: {reasons[0]}")
        for (label, known), reasons in sorted(groups.items())
    ]


def provenance(args: argparse.Namespace, blas: int) -> dict:
    import numpy
    import scipy

    digest = hashlib.sha256()
    for path in sorted((SRC / "qensemble").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "commit": commit, "source_sha256": digest.hexdigest(), "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": blas,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "qensemble" / "__init__.py").is_file():
        sys.stderr.write(f"error: no qensemble sources under {SRC}; run inside a checkout\n")
        return 2
    blas = cap_blas_threads()
    for path in (str(BENCH), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    OUT.mkdir(exist_ok=True)
    from spawner import Spawner

    # started while this process is still small; see spawner.py
    spawner = Spawner(str(ROOT), child_env()) if args.workload == "cli_session" else None
    try:
        return run(args, blas, spawner)
    finally:
        if spawner:
            spawner.close()


def run(args: argparse.Namespace, blas: int, spawner) -> int:
    # Set-up: the library import and one warm-up task are timed; the
    # benchmark's own modules load in between, untimed.
    before = calibrate()
    t0 = time.perf_counter()
    import qensemble.cli  # noqa: F401  (imports every other layer)
    import qensemble.verify  # noqa: F401

    import_s = time.perf_counter() - t0
    if Path(qensemble.__file__).resolve().parent != (SRC / "qensemble").resolve():
        sys.stderr.write(f"error: qensemble was imported from {qensemble.__file__}, not {SRC}\n")
        return 2
    import spans
    import tasks

    workload = tasks.workload(args.workload, ROOT, OUT, spawner)
    tracer = None
    if args.trace:
        modules = {name: sys.modules[f"qensemble.{name}"] for name in spans.LAYERS}
        tracer = spans.Tracer(modules, tasks.DIRECT_CALLS)
        warm_from = tracer.mark()
    imported = Result("import", import_s, (before, calibrate()), None, 0)
    warm = run_task(workload, workload.warmup, tracer)
    setup_s = sum(r.seconds for r in rescale([imported, warm]))
    if args.setup_probe:
        print(setup_s)
        return 0

    prov = provenance(args, blas)
    rounds = workload.rounds(random.Random(f"{args.workload}/{args.seed}"))
    # a traced run times the batch twice, untraced and traced
    k = rounds_per_run(workload, args.seconds / (2 if args.trace else 1))
    batch = [task for _ in range(k) for task in next(rounds)]
    if not args.trace:
        setups = [setup_s] + [
            probe([__file__, "--workload", args.workload, "--setup-probe"])
            for _ in range(SETUP_SAMPLES - 1)
        ]
        results = rescale([run_task(workload, task) for task in batch])
        rows = end_to_end(workload, results, setups)
    else:
        warm_summary = tracer.summary(warm_from, tracer.mark())
        cli_import_s = statistics.median(cold_import_s() for _ in range(IMPORT_SAMPLES))
        plain = rescale([run_task(workload, task) for task in batch])
        traced_from = tracer.mark()
        traced = rescale([run_task(workload, task, tracer) for task in batch])
        summary = tracer.summary(traced_from, tracer.mark())
        rows = per_layer(summary, warm_summary, batch, plain, traced, cli_import_s)
        tracer.save(OUT / f"spans_{args.workload}_seed{args.seed}.npz", prov)
        results = plain + traced

    failed = sum(not r.verdict.passed for r in results)
    correct = warm.verdict.passed and all(r.verdict.passed or r.verdict.known for r in results)
    metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in rows
               if name != "failed_ratio"}  # zero where nothing fails; attempted/failed carry it
    record = {
        "provenance": prov, "correct": correct, "metrics": metrics,
        "warmup": asdict(warm), "tasks": [asdict(r) for r in results],
    }
    (OUT / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  trace {args.trace}")
    print("provenance " + json.dumps(prov))
    for name, value, unit, note in rows:
        print(f"  {name:<28} {value:<22.10g} {unit:<6} {note}")
    for line in failure_lines(([warm] if not warm.verdict.passed else []) + results):
        print(line)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front-end emitting moment tables, density/zero plot data,
convergence studies and the verification manifest.

Exit codes: 0 ok, 2 invalid parameters (including values out of
floating-point range), 3 verification failure, 4 enumeration refused
before any work: past ``--cap`` or ``combinat.ENUMERATION_BUDGET``.

Only the exact (pure-Python) layers load with this module; each subcommand
imports the float layers it uses.  numpy and scipy load only where an array
or a library routine is needed: ``density``, float ``moments`` (closed
form and Jackson q-integral) and ``converge`` are scalar code and load
neither, ``zeros`` loads numpy and ``scipy.linalg``, and ``verify`` every
layer.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from . import __version__
from .combinat import (
    ENUMERATION_BUDGET,
    ResourceCapError,
    check_budget,
    matching_count,
    moment_component_via_matching,
    moment_via_motzkin,
    motzkin_count,
)
from .moments import EnsembleParams, moment_closed
from .qcore import DomainError, validate_lambda

EXIT_OK = 0
EXIT_BAD_PARAMS = 2
EXIT_VERIFY_FAILED = 3
EXIT_RESOURCE_CAP = 4


def _parse_number(text: str, mode: str) -> Fraction | float:
    """Parse 'p/q' or integer strings as exact rationals, decimals as floats.

    Exact mode rejects decimal notation so that exact runs cannot silently
    degrade to floating point.
    """
    text = text.strip()
    if "/" in text:
        num, _, den = text.partition("/")
        try:
            value = Fraction(int(num), int(den))
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {text!r}") from None
        return value if mode == "exact" else float(value)
    if any(ch in text for ch in ".eE"):
        if mode == "exact":
            raise DomainError(
                f"decimal literal {text!r} not allowed in exact mode; "
                "use p/q rational syntax"
            )
        return float(text)
    return Fraction(int(text)) if mode == "exact" else float(int(text))


def _format_value(v: object) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _emit(
    rows: list[dict[str, object]],
    header: Sequence[str],
    meta: dict[str, object],
    fmt: str,
    output: Optional[str],
) -> None:
    if fmt == "json":
        payload = {"meta": meta, "rows": [{k: r[k] for k in header} for r in rows]}
        text = json.dumps(payload, indent=2, default=_format_value) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            writer.writerow([_format_value(r[k]) for k in header])
        text = buf.getvalue()
    if output:
        try:
            with open(output, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise DomainError(f"cannot write --output {output!r}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)


def _meta(args: argparse.Namespace, **extra: object) -> dict[str, object]:
    meta: dict[str, object] = {
        "command": args.command,
        "version": __version__,
        "format": args.format,
    }
    meta.update(extra)
    return meta


def _request_size(count: Callable[[int, int], int], p_max: int, N: int) -> int:
    """Objects that the components p <= p_max, j < N enumerate in all,
    summed only until the total passes ``ENUMERATION_BUDGET``, so that
    counting a refused request costs no more than an admitted one."""
    total = 0
    for p in range(p_max + 1):
        for j in range(N):
            total += count(p, j)
            if total > ENUMERATION_BUDGET:
                return total
    return total


def cmd_moments(args: argparse.Namespace) -> int:
    q = _parse_number(args.q, args.mode)
    a = _parse_number(args.a, args.mode)
    params = EnsembleParams(a=a, q=q, N=args.N)
    if args.p_max < 0:
        raise DomainError(f"p-max must be nonnegative, got {args.p_max}")
    # a nan tolerance would pass every --verify comparison
    if not (args.tol > 0 and math.isfinite(args.tol)):
        raise DomainError(f"tol must be finite and positive, got {args.tol}")
    methods = [m.strip() for m in args.method.split(",") if m.strip()]
    if not methods:
        raise DomainError(f"no method in {args.method!r}")
    valid = {"closed", "motzkin", "matching", "qintegral"}
    bad = set(methods) - valid
    if bad:
        raise DomainError(f"unknown method(s): {', '.join(sorted(bad))}")
    # refuse before any work: the enumerations grow exponentially in p + j
    if "motzkin" in methods and args.p_max > args.cap:
        raise ResourceCapError(f"motzkin: p-max={args.p_max} exceeds cap {args.cap}")
    if "matching" in methods and args.p_max + params.N - 1 > args.cap:
        raise ResourceCapError(
            f"matching: p-max+N-1={args.p_max + params.N - 1} exceeds cap {args.cap}"
        )
    # objects each requested enumeration visits, counted before it runs
    sizes: dict[str, int] = {}
    for method, count in (("motzkin", motzkin_count), ("matching", matching_count)):
        if method in methods:
            sizes[method] = _request_size(count, args.p_max, params.N)
            check_budget(f"{method}: p-max={args.p_max}, N={params.N}", sizes[method])
    rows: list[dict[str, object]] = []
    values: dict[tuple[int, str], object] = {}
    # only the Jackson route is float; it takes float() of q and a itself,
    # and an exact run without it never loads the float layers
    if "qintegral" in methods:
        from .orthopoly import jackson_moment
    for p in range(args.p_max + 1):
        for method in methods:
            if method == "closed":
                val: object = moment_closed(params, p)
            elif method == "motzkin":
                val = sum(moment_via_motzkin(p, j, params) for j in range(params.N))
            elif method == "matching":
                val = sum(moment_component_via_matching(p, j, params) for j in range(params.N))
            else:  # qintegral, intrinsically float
                val = jackson_moment(params, p)
            values[(p, method)] = val
            rows.append({"p": p, "method": method, "value": val})
    meta = _meta(args, N=args.N, q=str(args.q), a=str(args.a), mode=args.mode)
    if sizes:
        meta["diagnostics"] = {"enumeration_size": sizes}
    _emit(rows, ("p", "method", "value"), meta, args.format, args.output)
    if args.verify:
        for p in range(args.p_max + 1):
            exact_vals = [
                values[(p, m)] for m in methods if m in ("closed", "motzkin", "matching")
            ]
            if args.mode == "exact" and len(set(exact_vals)) > 1:
                sys.stderr.write(f"verify: exact methods disagree at p={p}\n")
                return EXIT_VERIFY_FAILED
            ref = float(exact_vals[0]) if exact_vals else None
            for m in methods:
                fv = float(values[(p, m)])
                if ref is None:
                    ref = fv
                if abs(fv - ref) > args.tol * max(1.0, abs(ref)):
                    sys.stderr.write(
                        f"verify: method {m} deviates at p={p}: {fv} vs {ref}\n"
                    )
                    return EXIT_VERIFY_FAILED
    return EXIT_OK


def cmd_density(args: argparse.Namespace) -> int:
    from .density import limiting_density, regime, support

    a, lam = args.a, getattr(args, "lambda")
    if args.grid < 2:
        raise DomainError("grid size must be at least 2")
    reg = regime(a, lam)
    pieces = support(a, lam)
    # np.linspace(a, 1, grid) bit for bit, without loading numpy
    step = (1.0 - a) / (args.grid - 1)
    xs = [i * step + a for i in range(args.grid - 1)] + [1.0]
    rows = []
    for x in xs:
        rows.append(
            {
                "x": x,
                "rho": limiting_density(x, a, lam),
                "regime": reg.kind.value,
                "in_support": any(p.lo < x < p.hi for p in pieces),
            }
        )
    meta = _meta(
        args,
        a=a,
        lam=lam,
        mode="float",
        regime=reg.kind.value,
        lambda1=reg.lambda1,
        lambda2=reg.lambda2,
        hard_edge_values="one-sided limits",
    )
    _emit(rows, ("x", "rho", "regime", "in_support"), meta, args.format, args.output)
    return EXIT_OK


def cmd_zeros(args: argparse.Namespace) -> int:
    a, lam, N = args.a, getattr(args, "lambda"), args.N
    if N < 1:
        raise DomainError(f"N must be a positive integer, got {N}")
    validate_lambda(lam)
    # after the checks above, so a refused request loads no float layer
    from .density import cdf_at_sorted
    from .orthopoly import zeros

    q = math.exp(-lam / N)
    zs = zeros(EnsembleParams(a=float(a), q=q, N=N))
    limit = cdf_at_sorted(zs, a, lam)
    rows = [
        {
            "index": i,
            "zero": float(z),
            "empirical_cdf": (i + 1) / N,
            "limit_cdf": float(limit[i]),
        }
        for i, z in enumerate(zs)
    ]
    meta = _meta(args, N=N, a=a, lam=lam, q=q, mode="float")
    _emit(rows, ("index", "zero", "empirical_cdf", "limit_cdf"), meta, args.format, args.output)
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    from .asymptotics import ScalingParams, expansion_residual

    a, lam = args.a, getattr(args, "lambda")
    enns = [int(s) for s in args.N.split(",") if s.strip()]
    if not enns:
        raise DomainError("need at least one N")
    sp = ScalingParams(a=a, lam=lam)
    rows = []
    for N in enns:
        r = expansion_residual(args.p, sp, N)
        rows.append({"N": N, "residual": r, "residual_Ncubed": r * N**3})
    meta = _meta(args, p=args.p, a=a, lam=lam, mode="float")
    _emit(rows, ("N", "residual", "residual_Ncubed"), meta, args.format, args.output)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_all

    results = run_all(quick=args.quick)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.check_id} {res.title}: {res.detail} ({res.seconds:.2f} s)")
        failed += not res.passed
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_VERIFY_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qensemble",
        description="Spectral moments, limiting density and polynomial zeros "
        "of a q-deformed unitary ensemble",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p: argparse.ArgumentParser) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--output", default=None, help="output path (default stdout)")

    p_m = sub.add_parser("moments", help="spectral moment table")
    p_m.add_argument("--N", type=int, required=True)
    p_m.add_argument("--p-max", type=int, required=True, dest="p_max")
    p_m.add_argument("--q", required=True, help="rational p/q (exact) or decimal (float)")
    p_m.add_argument("--a", required=True)
    p_m.add_argument("--mode", choices=("exact", "float"), default="exact")
    p_m.add_argument("--method", default="closed",
                     help="comma list of closed,motzkin,matching,qintegral")
    p_m.add_argument("--verify", action="store_true",
                     help="exit 3 unless all requested methods agree")
    p_m.add_argument("--tol", type=float, default=1e-8, help="relative tolerance of --verify")
    p_m.add_argument("--cap", type=int, default=14,
                     help="largest p-max (p-max + N - 1 for matching) of an enumeration")
    add_io(p_m)
    p_m.set_defaults(fn=cmd_moments)

    p_d = sub.add_parser("density", help="limiting density on a grid")
    p_d.add_argument("--a", type=float, required=True)
    p_d.add_argument("--lambda", type=float, required=True)
    p_d.add_argument("--grid", type=int, default=1000)
    add_io(p_d)
    p_d.set_defaults(fn=cmd_density)

    p_z = sub.add_parser("zeros", help="polynomial zeros and CDFs")
    p_z.add_argument("--N", type=int, required=True)
    p_z.add_argument("--a", type=float, required=True)
    p_z.add_argument("--lambda", type=float, required=True)
    add_io(p_z)
    p_z.set_defaults(fn=cmd_zeros)

    p_c = sub.add_parser("converge", help="large-N expansion residual study")
    p_c.add_argument("--p", type=int, required=True)
    p_c.add_argument("--a", type=float, required=True)
    p_c.add_argument("--lambda", type=float, required=True)
    p_c.add_argument("--N", required=True, help="comma list, e.g. 8,16,32")
    add_io(p_c)
    p_c.set_defaults(fn=cmd_converge)

    p_v = sub.add_parser("verify", help="run the acceptance checks")
    p_v.add_argument("--quick", action="store_true", help="reduced smoke grids")
    p_v.set_defaults(fn=cmd_verify)
    return parser


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    """Join negative values onto their flags ('--a -1/2' -> '--a=-1/2') so
    argparse does not mistake them for options."""
    value_flags = {"--a", "--q", "--lambda"}
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in value_flags and i + 1 < len(argv) and argv[i + 1].startswith("-"):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_normalize_argv(sys.argv[1:] if argv is None else argv))
    try:
        return args.fn(args)
    except ResourceCapError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_RESOURCE_CAP
    except OverflowError:
        # its own text is an errno tuple or names no parameter
        sizes = [
            f"{flag}={getattr(args, attr)}"
            for flag, attr in (("p", "p"), ("p-max", "p_max"), ("N", "N"))
            if hasattr(args, attr)
        ]
        at = f" at {', '.join(sizes)}" if sizes else ""
        sys.stderr.write(f"error: a float overflowed{at}\n")
        return EXIT_BAD_PARAMS
    except (DomainError, ValueError, ArithmeticError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_BAD_PARAMS


if __name__ == "__main__":
    sys.exit(main())

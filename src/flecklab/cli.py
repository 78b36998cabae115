"""Command-line interface.

Subcommands:

  sum         evaluate one restricted alternating binomial sum exactly
  table1      order-gap table for the fixed demonstration grid (p=3, alpha=2, r=2)
  example13   orders vs. bounds for the fixed demonstration row (p=2, alpha=1)
  verify      sweep one cataloged statement over a grid
  conjecture  sweep one conjectural statement looking for counterexamples
  suite       sweep many ids over their default grids, one summary line each

Axis flags accept single values, comma lists, and inclusive ranges written
a..b (use --flag=-2..5 when the first value is negative).  Exit codes:
0 pass, 1 a proven statement failed, 2 usage or parameter error,
3 a conjecture sweep found a counterexample (and no proven statement failed).
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from functools import partial
from pathlib import Path

from .combinatorics import Polynomial
from .errors import InvalidParameterError, UnknownStatementError
from .padic import PrimePowerModulus, padic_order
from .quantities import order_gap
from .sums import (
    RestrictedSumSpec,
    alt_sum_power,
    degree_order_bound,
    floor_order_bound,
    restricted_sum,
)
from .statements import SEARCH_IDS, SEARCHES, STATEMENTS
from .verifier import DEFAULT_FAILURE_CAP, delimited, run_statement, search_conjecture

__all__ = ["main", "main_entry"]

# Every axis of the catalog, in the order the entries first name it.
_AXIS_FLAGS = tuple(
    dict.fromkeys(
        axis for st in (*STATEMENTS.values(), *SEARCHES.values()) for axis in st.axes
    )
)


def _parse_values(text: str) -> list[int]:
    """Parse '3', '1,2,5', '0..8', or a mix like '-2..2,10'."""
    out: list[int] = []
    for part in text.split(","):
        part = part.strip()
        if ".." in part:
            lo_text, hi_text = part.split("..", 1)
            lo, hi = int(lo_text), int(hi_text)
            if hi < lo:
                raise argparse.ArgumentTypeError(f"empty range {part!r}")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(int(part))
    if not out:
        raise argparse.ArgumentTypeError(f"no values in {text!r}")
    return out


def _parse_coeffs(text: str) -> list[int]:
    try:
        return [int(part.strip()) for part in text.split(",")]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}") from exc


def _order_json(order: "int | float") -> "int | str":
    return order if isinstance(order, int) else "infinity"


def _out_error(out_path: str, strerror: str) -> InvalidParameterError:
    return InvalidParameterError(f"--out {out_path!r}: {strerror}")


def _check_out(out_path: "str | None") -> None:
    """Fail as _emit would, before any work, when out_path is a directory or
    its directory does not exist."""
    if not out_path:
        return
    path = Path(out_path)
    if path.is_dir():
        raise _out_error(out_path, os.strerror(errno.EISDIR))
    if not path.parent.is_dir():
        code = errno.ENOTDIR if path.parent.exists() else errno.ENOENT
        raise _out_error(out_path, os.strerror(code))


def _emit(text: str, out_path: "str | None") -> None:
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _out_error(out_path, exc.strerror) from exc
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _emit_table(args: argparse.Namespace, payload: dict, table: list[list[str]]) -> None:
    """payload as JSON, or table as CSV or TSV, as --format asks."""
    if args.format == "json":
        _emit(json.dumps(payload, indent=2), args.out)
    else:
        _emit(delimited(table, "," if args.format == "csv" else "\t"), args.out)


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_sum(args: argparse.Namespace) -> int:
    if args.coeffs is not None:
        f = Polynomial(args.coeffs)
    else:
        f = Polynomial.monomial(args.l if args.l is not None else 0)
    pm = PrimePowerModulus(args.p, args.alpha)
    spec = RestrictedSumSpec(n=args.n, r=args.r, modulus=pm.m, f=f)
    value = restricted_sum(spec)
    payload = {
        "p": args.p,
        "alpha": args.alpha,
        "n": args.n,
        "r": args.r,
        "coeffs": list(f.coeffs),
        "sum": str(value),
        "order": _order_json(padic_order(args.p, value)),
        "degree_bound": _order_json(degree_order_bound(pm, args.n, args.r, f.degree)),
        "floor_bound": _order_json(floor_order_bound(pm, args.n, args.r)),
    }
    _emit(json.dumps(payload, indent=2), args.out)
    return 0


_TABLE1_P, _TABLE1_ALPHA, _TABLE1_R = 3, 2, 2
_TABLE1_N = range(90, 99)
_TABLE1_L = range(10)


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    for n in _TABLE1_N:
        gaps = [
            _order_json(order_gap(_TABLE1_P, _TABLE1_ALPHA, n, _TABLE1_R, l))
            for l in _TABLE1_L
        ]
        rows.append({"n": n, "gaps": gaps})
    payload = {
        "p": _TABLE1_P,
        "alpha": _TABLE1_ALPHA,
        "r": _TABLE1_R,
        "l": list(_TABLE1_L),
        "rows": rows,
    }
    table = [["n", *[f"l={l}" for l in _TABLE1_L]]]
    for row in rows:
        table.append([str(row["n"]), *[str(g) for g in row["gaps"]]])
    _emit_table(args, payload, table)
    return 0


_EX13_P, _EX13_ALPHA, _EX13_R, _EX13_N, _EX13_LMAX = 2, 1, 0, 20, 21


def _cmd_example13(args: argparse.Namespace) -> int:
    pm = PrimePowerModulus(_EX13_P, _EX13_ALPHA)
    ls = range(_EX13_LMAX + 1)
    orders = [
        _order_json(padic_order(_EX13_P, alt_sum_power(_EX13_N, _EX13_R, pm.m, l)))
        for l in ls
    ]
    degree_bounds = [_order_json(degree_order_bound(pm, _EX13_N, _EX13_R, l)) for l in ls]
    floor_bound = _order_json(floor_order_bound(pm, _EX13_N, _EX13_R))
    payload = {
        "p": _EX13_P,
        "alpha": _EX13_ALPHA,
        "r": _EX13_R,
        "n": _EX13_N,
        "l": list(ls),
        "orders": orders,
        "degree_bounds": degree_bounds,
        "floor_bound": floor_bound,
    }
    table = [["l", "order", "degree_bound", "floor_bound"]]
    for l in ls:
        table.append([str(l), str(orders[l]), str(degree_bounds[l]), str(floor_bound)])
    _emit_table(args, payload, table)
    return 0


def _collect_grid(args: argparse.Namespace) -> dict[str, list[int]]:
    return {
        name: getattr(args, name)
        for name in _AXIS_FLAGS
        if getattr(args, name, None) is not None
    }


def _report_command(args: argparse.Namespace, runner) -> int:
    _check_out(args.out)
    report = runner(
        args.id,
        grid=_collect_grid(args),
        jobs=args.jobs,
        failure_cap=args.failure_cap,
    )
    text = {"json": report.to_json, "csv": report.to_csv, "tsv": report.to_tsv}[args.format]()
    _emit(text, args.out)
    print(
        f"{report.statement}: {report.status} "
        f"(checked {report.checked}, skipped {report.skipped}, "
        f"failures reported {len(report.failures)})",
        file=sys.stderr,
    )
    return _exit_code({report.status})


def _exit_code(statuses: "set[str]") -> int:
    if "fail" in statuses:
        return 1
    return 3 if "counterexample-found" in statuses else 0


# The single-id sweeps: (subcommand, runner, help, id help).
_SWEEPS = (
    ("verify", run_statement, "sweep one cataloged statement", "statement id (e.g. T1.1)"),
    (
        "conjecture",
        search_conjecture,
        "search a conjecture for counterexamples",
        "conjecture id (e.g. CONJ1.1)",
    ),
)


# Every id in catalog order: the proven statements, then the searches.
_SUITE_IDS = (
    *(sid for sid, st in STATEMENTS.items() if st.kind == "theorem"),
    *SEARCH_IDS,
)


def _cmd_suite(args: argparse.Namespace) -> int:
    ids = _SUITE_IDS if args.ids is None else [sid.strip() for sid in args.ids.split(",")]
    if "" in ids:
        what = "no ids" if ids == [""] else f"an empty id in {args.ids!r}"
        raise InvalidParameterError(f"--ids was given {what}")
    if repeated := next((sid for i, sid in enumerate(ids) if sid in ids[:i]), None):
        raise InvalidParameterError(f"--ids repeats the id {repeated}")
    if unknown := [sid for sid in ids if sid not in STATEMENTS and sid not in SEARCHES]:
        raise UnknownStatementError(f"unknown statement ids: {', '.join(unknown)}")
    out_dir = Path(args.out_dir) if args.out_dir else None
    if out_dir:
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise InvalidParameterError(f"--out-dir {args.out_dir!r}: {exc.strerror}") from exc
    statuses = set()
    for sid in ids:
        runner = search_conjecture if sid in SEARCHES else run_statement
        start = time.perf_counter()
        report = runner(sid, jobs=args.jobs, failure_cap=args.failure_cap)
        elapsed = time.perf_counter() - start
        print(
            f"{sid:<12} {report.status:<21} checked={report.checked:<8} "
            f"skipped={report.skipped:<8} failures={len(report.failures):<3} "
            f"{elapsed:7.2f}s"
        )
        if out_dir:
            path = out_dir / f"{sid}.json"
            try:
                path.write_text(report.to_json() + "\n", encoding="utf-8")
            except OSError as exc:
                raise InvalidParameterError(f"--out-dir {str(path)!r}: {exc.strerror}") from exc
        statuses.add(report.status)
    return _exit_code(statuses)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--format",
        choices=("json", "csv", "tsv"),
        default="json",
        help="output format (default json)",
    )
    sub.add_argument("--out", default=None, help="write output to this file instead of stdout")


def _add_run_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="worker processes (default 1); "
        "reports are byte-identical at any job count",
    )
    sub.add_argument(
        "--failure-cap",
        type=int,
        default=DEFAULT_FAILURE_CAP,
        help=f"maximum failures to record (default {DEFAULT_FAILURE_CAP})",
    )


def _add_sweep_flags(sub: argparse.ArgumentParser) -> None:
    _add_run_flags(sub)
    for name in _AXIS_FLAGS:
        sub.add_argument(
            f"--{name}",
            type=_parse_values,
            default=None,
            metavar="VALS",
            help=f"override the {name} axis (e.g. 3 or 1,2,5 or 0..8)",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flecklab",
        description="exact p-adic analysis of restricted alternating binomial sums",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_sum = subs.add_parser("sum", help="evaluate one restricted alternating sum")
    p_sum.add_argument("--p", type=int, required=True, help="prime")
    p_sum.add_argument("--alpha", type=int, required=True, help="exponent of the modulus p**alpha")
    p_sum.add_argument("--n", type=int, required=True, help="binomial upper index")
    p_sum.add_argument("--r", type=int, required=True, help="residue class")
    weight = p_sum.add_mutually_exclusive_group()
    weight.add_argument("--l", type=int, default=None, help="monomial weight degree (default 0)")
    weight.add_argument(
        "--coeffs",
        type=_parse_coeffs,
        default=None,
        help="weight polynomial coefficients, constant term first (e.g. 1,0,2)",
    )
    p_sum.add_argument("--out", default=None, help="write output to this file instead of stdout")
    p_sum.set_defaults(handler=_cmd_sum)

    p_t1 = subs.add_parser(
        "table1",
        help="order-gap table (observed order minus degree bound) on the fixed "
        "grid p=3, alpha=2, r=2, n=90..98, l=0..9",
    )
    _add_output_flags(p_t1)
    p_t1.set_defaults(handler=_cmd_table1)

    p_e13 = subs.add_parser(
        "example13",
        help="orders vs. bounds on the fixed row p=2, alpha=1, r=0, n=20, l=0..21",
    )
    _add_output_flags(p_e13)
    p_e13.set_defaults(handler=_cmd_example13)

    for name, runner, help_text, id_help in _SWEEPS:
        p_sweep = subs.add_parser(name, help=help_text)
        p_sweep.add_argument("id", help=id_help)
        _add_output_flags(p_sweep)
        _add_sweep_flags(p_sweep)
        p_sweep.set_defaults(handler=partial(_report_command, runner=runner))

    p_suite = subs.add_parser(
        "suite", help="sweep many ids over their default grids (default: all of them)"
    )
    p_suite.add_argument(
        "--ids",
        default=None,
        help="comma-separated ids (default: every proven statement, then every search)",
    )
    _add_run_flags(p_suite)
    p_suite.add_argument(
        "--out-dir", default=None, help="write one <id>.json report per id here"
    )
    p_suite.set_defaults(handler=_cmd_suite)

    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except InvalidParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main_entry() -> None:
    raise SystemExit(main(sys.argv[1:]))

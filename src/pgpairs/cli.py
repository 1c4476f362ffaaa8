"""Command-line surface: single-pair reports, grid sweeps, and the class DSL.

Exit codes: 0 success, 1 check failure (including a false comparison or a
non-exact division or a zero divisor in `eval`), 2 usage or parse error, 3
internal inconsistency.  Diagnostics go to stderr as one JSON object per error.

Every n and k that a `pair` or `grid` request names lies in -MAX_NK..MAX_NK;
anything past it is an InvalidParameter before any report is built.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from .dsl import eval_dsl
from .errors import (
    EvalError,
    InconsistentEuler,
    InvalidParameter,
    NegativeDimension,
    NonIntegralGenus,
    OutOfSmoothRange,
    ParseError,
    PGError,
)
from .pairs import CHECK_NAMES, SCHEMA_VERSION, build_pair_report, make_pair
from .ring import LPoly
from .schubert import ENGINES

_SAFE_INT = 2**53 - 1
_FORMATS = ("json", "markdown", "csv")
_CANONICAL_INT = re.compile(r"-?[1-9][0-9]*")
MAX_NK = 24


def _encode(obj):
    """Make a report JSON-safe: exact integers beyond the 53-bit range become
    decimal strings so nothing is rounded by downstream consumers."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj) if abs(obj) > _SAFE_INT else obj
    if isinstance(obj, (list, tuple)):
        return [_encode(x) for x in obj]
    if isinstance(obj, dict):
        return {k: _encode(v) for k, v in obj.items()}
    return obj


def decode_ints(obj):
    """Inverse of `_encode`: only strings it can write, the canonical decimal
    text of an integer beyond the 53-bit range, become integers again."""
    if isinstance(obj, str) and _CANONICAL_INT.fullmatch(obj) and abs(int(obj)) > _SAFE_INT:
        return int(obj)
    if isinstance(obj, list):
        return [decode_ints(x) for x in obj]
    if isinstance(obj, dict):
        return {k: decode_ints(v) for k, v in obj.items()}
    return obj


def _dump_json(payload) -> str:
    return json.dumps(_encode(payload), sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# pair command


def _validate_checks(names) -> None:
    unknown = [c for c in names if c not in CHECK_NAMES]
    if unknown:
        raise PGError(f"unknown check identifiers: {', '.join(unknown)}")


def _validate_engine(engine: str) -> None:
    if engine not in ENGINES:
        raise InvalidParameter(f"unknown engine {engine!r}")


def _validate_format(output_format: str) -> None:
    if output_format not in _FORMATS:
        raise PGError(f"unknown format {output_format!r}")


def _validate_bounds(**params) -> None:
    for name, value in params.items():
        if abs(value) > MAX_NK:
            raise InvalidParameter(f"{name} = {value} is outside -{MAX_NK}..{MAX_NK}")


def _filter_checks(report: dict, names) -> dict:
    if names:
        report = dict(report)
        report["checks"] = [c for c in report["checks"] if c["name"] in names]
        report["all_checks_pass"] = all(c["status"] != "fail" for c in report["checks"])
    return report


def _pair_markdown(report: dict) -> str:
    p = report["pair"]
    lines = [
        f"# Pair (n, k) = ({p['n']}, {p['k']})",
        "",
        "| quantity | value |",
        "| --- | --- |",
        f"| dim X | {p['dim_x']} |",
        f"| dim Y | {p['dim_y']} |",
        f"| twist s | {p['s']} |",
        f"| shift m | {p['m']} |",
        f"| P(X) | {report['poincare_x']} |",
        f"| P(Y) | {report['poincare_y']} |",
        f"| middle Betti b_{p['dim_x']}(X) | {report['poincare_x'][p['dim_x']]} |",
        f"| Euler characteristic | {report['euler']} |",
        f"| chi_y | {report['hodge']['chi_y']} |",
        f"| middle Hodge numbers | {report['hodge']['middle_hodge']} |",
        f"| variable Betti number | {report['variable_betti']} |",
        f"| Noether-Lefschetz status | {report['nl_status']} |",
        f"| motivic equivalence | {report['motivic_equivalence']['status']} |",
        f"| transcendental proxy | {report['motivic_equivalence']['transcendental_proxy']} |",
        "",
        "| check | status | detail |",
        "| --- | --- | --- |",
    ]
    for c in report["checks"]:
        lines.append(f"| {c['name']} | {c['status']} | {c['detail']} |")
    for f in report["findings"]:
        lines.append("")
        lines.append(f"finding: {f}")
    lines.append("")
    return "\n".join(lines)


def _flatten(prefix: str, obj, out):
    if isinstance(obj, dict):
        for k in sorted(obj):
            _flatten(f"{prefix}.{k}" if prefix else str(k), obj[k], out)
    elif isinstance(obj, (list, tuple)):
        out.append((prefix, " ".join(str(x) for x in obj)))
    else:
        out.append((prefix, str(obj)))


def _pair_csv(report: dict) -> str:
    flat = dict(report)
    flat["checks"] = {c["name"]: c["status"] for c in report["checks"]}
    rows = []
    _flatten("", flat, rows)
    body = "\n".join(f"{key},{_csv_quote(val)}" for key, val in rows)
    return "key,value\n" + body + "\n"


def _csv_quote(text: str) -> str:
    if any(ch in text for ch in ',"\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def run_pair(n: int, k: int, output_format: str = "json", engine: str = "pieri", checks=()):
    """Build and serialize one pair report; returns (text, exit_code)."""
    _validate_checks(checks)
    _validate_format(output_format)
    _validate_bounds(n=n, k=k)
    _validate_engine(engine)
    report = _filter_checks(build_pair_report(n, k, engine), tuple(checks))
    code = 0 if report["all_checks_pass"] else 1
    serialize = {"json": _dump_json, "markdown": _pair_markdown, "csv": _pair_csv}
    return serialize[output_format](report), code


# ---------------------------------------------------------------------------
# grid command


def _grid_row(n: int, k: int, engine: str, checks) -> dict:
    try:
        make_pair(n, k)
    except (InvalidParameter, NegativeDimension, OutOfSmoothRange) as exc:
        return {"n": n, "k": k, "status": "skip", "reason": type(exc).__name__}
    except PGError:
        pass  # not outside the domain: build_pair_report raises it again, as an error row
    try:
        report = _filter_checks(build_pair_report(n, k, engine), checks)
    except PGError as exc:
        return {
            "n": n,
            "k": k,
            "status": "error",
            "error": type(exc).__name__,
            "message": str(exc),
        }
    return {
        "n": n,
        "k": k,
        "status": "ok" if report["all_checks_pass"] else "fail",
        "dim_x": report["pair"]["dim_x"],
        "dim_y": report["pair"]["dim_y"],
        "euler": report["euler"],
        "middle_betti": report["hodge"]["middle_betti"],
        "variable_betti": report["variable_betti"],
        "nl_status": report["nl_status"],
        "motivic_equivalence": report["motivic_equivalence"]["status"],
        "checks": {c["name"]: c["status"] for c in report["checks"]},
        "findings": report["findings"],
    }


def run_grid(
    n_min: int, n_max: int, k_min: int, k_max: int, checks=(), output_format: str = "json", engine: str = "pieri"
):
    """Sweep the requested (n, k) rectangle; returns (text, exit_code).

    Rows are one per valid pair in lexicographic (n, k) order; failures are
    recorded per row and never abort the sweep.
    """
    if n_min > n_max or k_min > k_max:
        raise PGError("empty parameter ranges")
    _validate_checks(checks)
    _validate_format(output_format)
    _validate_bounds(n_min=n_min, n_max=n_max, k_min=k_min, k_max=k_max)
    _validate_engine(engine)

    rows = [
        _grid_row(n, k, engine, checks)
        for n in range(n_min, n_max + 1)
        for k in range(k_min, k_max + 1)
    ]

    kept = [r for r in rows if r["status"] != "skip"]
    skipped = len(rows) - len(kept)
    summary = {
        "pass": sum(1 for r in kept if r["status"] == "ok"),
        "fail": sum(1 for r in kept if r["status"] in ("fail", "error")),
        "skip": skipped,
    }
    payload = {
        "schema_version": SCHEMA_VERSION,
        "request": {
            "n_min": n_min,
            "n_max": n_max,
            "k_min": k_min,
            "k_max": k_max,
            "checks": sorted(checks) if checks else "all",
            "engine": engine,
        },
        "rows": kept,
        "summary": summary,
    }

    code = 0 if summary["fail"] == 0 else 1
    serialize = {"json": _dump_json, "markdown": _grid_markdown, "csv": _grid_csv}
    return serialize[output_format](payload), code


def _grid_markdown(payload: dict) -> str:
    lines = [
        "# Grid sweep",
        "",
        "| n | k | status | dim X | dim Y | euler | b_mid | variable | NL | motivic |",
        "| --- | --- | --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for r in payload["rows"]:
        if r["status"] in ("skip", "error"):
            lines.append(f"| {r['n']} | {r['k']} | {r['status']} | | | | | | | |")
        else:
            lines.append(
                f"| {r['n']} | {r['k']} | {r['status']} | {r['dim_x']} | {r['dim_y']} "
                f"| {r['euler']} | {r['middle_betti']} | {r['variable_betti']} "
                f"| {r['nl_status']} | {r['motivic_equivalence']} |"
            )
    s = payload["summary"]
    lines += ["", f"pass {s['pass']}, fail {s['fail']}, skip {s['skip']}", ""]
    return "\n".join(lines)


def _grid_csv(payload: dict) -> str:
    header = "n,k,status,dim_x,dim_y,euler,middle_betti,variable_betti,nl_status,motivic_equivalence"
    lines = [header]
    for r in payload["rows"]:
        if r["status"] in ("skip", "error"):
            lines.append(f"{r['n']},{r['k']},{r['status']},,,,,,,")
        else:
            lines.append(
                f"{r['n']},{r['k']},{r['status']},{r['dim_x']},{r['dim_y']},{r['euler']},"
                f"{r['middle_betti']},{r['variable_betti']},{r['nl_status']},"
                f"{r['motivic_equivalence']}"
            )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgpairs",
        description="Exact invariants and consistency checks for linear sections "
        "of Gr(2,n) and their Pfaffian duals.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pair = sub.add_parser("pair", help="report on a single (n, k) pair")
    pair.add_argument("--n", type=int, required=True)
    pair.add_argument("--k", type=int, required=True)
    pair.add_argument("--format", default="json", choices=_FORMATS)
    pair.add_argument("--engine", default="pieri", choices=ENGINES)
    pair.add_argument("--checks", default="", help="comma-separated check names")

    grid = sub.add_parser("grid", help="sweep a rectangle of pairs")
    grid.add_argument("--n-min", type=int, required=True)
    grid.add_argument("--n-max", type=int, required=True)
    grid.add_argument("--k-min", type=int, required=True)
    grid.add_argument("--k-max", type=int, required=True)
    grid.add_argument("--checks", default="", help="comma-separated check names")
    grid.add_argument("--format", default="json", choices=_FORMATS)
    grid.add_argument("--engine", default="pieri", choices=ENGINES)

    ev = sub.add_parser("eval", help="evaluate a class expression")
    ev.add_argument("expression")
    return parser


def _diag(exc: Exception) -> str:
    return json.dumps({"error": type(exc).__name__, "message": str(exc)}) + "\n"


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0

    try:
        if args.command == "pair":
            checks = tuple(c for c in args.checks.split(",") if c)
            text, code = run_pair(args.n, args.k, args.format, args.engine, checks)
            sys.stdout.write(text)
            return code
        if args.command == "grid":
            checks = tuple(c for c in args.checks.split(",") if c)
            text, code = run_grid(args.n_min, args.n_max, args.k_min, args.k_max, checks, args.format, args.engine)
            sys.stdout.write(text)
            return code
        # eval
        try:
            result = eval_dsl(args.expression)
            if not isinstance(result, (bool, LPoly)):
                raise EvalError("the value is neither a class nor a truth value", args.expression)
        except ParseError as exc:
            sys.stderr.write(_diag(exc))
            return 2
        except EvalError as exc:
            sys.stderr.write(_diag(exc))
            return 1
        if isinstance(result, bool):
            sys.stdout.write(("true" if result else "false") + "\n")
            return 0 if result else 1
        try:
            text = str(result)
        except ValueError as exc:  # Python's bound on int-to-text conversion
            raise InvalidParameter("the result has a coefficient too long to print") from exc
        sys.stdout.write(text + "\n")
        return 0
    except (InconsistentEuler, NonIntegralGenus) as exc:
        sys.stderr.write(_diag(exc))
        return 3
    except PGError as exc:
        sys.stderr.write(_diag(exc))
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

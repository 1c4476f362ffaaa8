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
import sys

from .dsl import eval_dsl
from .errors import (
    EvalError,
    InconsistentEuler,
    InvalidParameter,
    NegativeDimension,
    NonIntegralGenus,
    OutOfSmoothRange,
    PGError,
)
from .pairs import CHECK_NAMES, MAX_NK, SCHEMA_VERSION, build_pair_report, make_pair
from .ring import LPoly
from .schubert import ENGINES

_FORMATS = ("json", "markdown", "csv")


def _dump_json(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


# ---------------------------------------------------------------------------
# pair command


def _validate(checks, output_format: str, engine: str, **bounds) -> None:
    """Reject a request before any report is built: unknown checks, format,
    n or k past MAX_NK, unknown engine, in that order."""
    unknown = [c for c in checks if c not in CHECK_NAMES]
    if unknown:
        raise PGError(f"unknown check identifiers: {', '.join(unknown)}")
    if output_format not in _FORMATS:
        raise PGError(f"unknown format {output_format!r}")
    for name, value in bounds.items():
        if abs(value) > MAX_NK:
            raise InvalidParameter(f"{name} = {value} is outside -{MAX_NK}..{MAX_NK}")
    if engine not in ENGINES:
        raise InvalidParameter(f"unknown engine {engine!r}")


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
    _validate(checks, output_format, engine, n=n, k=k)
    report = _filter_checks(build_pair_report(n, k, engine), tuple(checks))
    code = 0 if report["all_checks_pass"] else 1
    serialize = {"json": _dump_json, "markdown": _pair_markdown, "csv": _pair_csv}
    return serialize[output_format](report), code


# ---------------------------------------------------------------------------
# grid command


# (markdown header, row key, path into the pair report) of each grid column;
# the csv header is the keys, and n, k and status have no path: _grid_row
# sets them for error rows too
_GRID_COLUMNS = (
    ("n", "n", ()),
    ("k", "k", ()),
    ("status", "status", ()),
    ("dim X", "dim_x", ("pair", "dim_x")),
    ("dim Y", "dim_y", ("pair", "dim_y")),
    ("euler", "euler", ("euler",)),
    ("b_mid", "middle_betti", ("hodge", "middle_betti")),
    ("variable", "variable_betti", ("variable_betti",)),
    ("NL", "nl_status", ("nl_status",)),
    ("motivic", "motivic_equivalence", ("motivic_equivalence", "status")),
)


def _grid_row(n: int, k: int, engine: str, checks) -> dict | None:
    """One grid row, or None for a pair outside the domain."""
    try:
        make_pair(n, k)
    except (InvalidParameter, NegativeDimension, OutOfSmoothRange):
        return None
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
    row = {"n": n, "k": k, "status": "ok" if report["all_checks_pass"] else "fail"}
    for _, key, path in _GRID_COLUMNS:
        if path:
            value = report
            for step in path:
                value = value[step]
            row[key] = value
    row["checks"] = {c["name"]: c["status"] for c in report["checks"]}
    row["findings"] = report["findings"]
    return row


def run_grid(
    n_min: int, n_max: int, k_min: int, k_max: int, checks=(), output_format: str = "json", engine: str = "pieri"
):
    """Sweep the requested (n, k) rectangle; returns (text, exit_code).

    Rows are one per valid pair in lexicographic (n, k) order; failures are
    recorded per row and never abort the sweep.
    """
    if n_min > n_max or k_min > k_max:
        raise PGError("empty parameter ranges")
    _validate(checks, output_format, engine, n_min=n_min, n_max=n_max, k_min=k_min, k_max=k_max)

    rows = [
        _grid_row(n, k, engine, checks)
        for n in range(n_min, n_max + 1)
        for k in range(k_min, k_max + 1)
    ]

    kept = [r for r in rows if r is not None]
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


def _grid_cells(row: dict) -> list:
    # an error row leaves every cell after its status empty
    return [str(row.get(key, "")) for _, key, _ in _GRID_COLUMNS]


def _grid_markdown(payload: dict) -> str:
    lines = [
        "# Grid sweep",
        "",
        "|" + "".join(f" {title} |" for title, _, _ in _GRID_COLUMNS),
        "|" + " --- |" * len(_GRID_COLUMNS),
    ]
    for r in payload["rows"]:
        lines.append("|" + "".join(f" {cell} |" if cell else " |" for cell in _grid_cells(r)))
    s = payload["summary"]
    lines += ["", f"pass {s['pass']}, fail {s['fail']}, skip {s['skip']}", ""]
    return "\n".join(lines)


def _grid_csv(payload: dict) -> str:
    lines = [",".join(key for _, key, _ in _GRID_COLUMNS)]
    lines += [",".join(_grid_cells(r)) for r in payload["rows"]]
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
    grid = sub.add_parser("grid", help="sweep a rectangle of pairs")
    for flag in ("--n-min", "--n-max", "--k-min", "--k-max"):
        grid.add_argument(flag, type=int, required=True)
    for command in (pair, grid):
        command.add_argument("--format", default="json", choices=_FORMATS)
        command.add_argument("--engine", default="pieri", choices=ENGINES)
        command.add_argument("--checks", default="", help="comma-separated check names")

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
        if args.command == "eval":
            result = eval_dsl(args.expression)
            if not isinstance(result, (bool, LPoly)):
                raise EvalError("the value is neither a class nor a truth value", args.expression)
            if isinstance(result, bool):
                text, code = ("true\n", 0) if result else ("false\n", 1)
            else:
                try:
                    text, code = str(result) + "\n", 0
                except ValueError as exc:  # Python's bound on int-to-text conversion
                    raise InvalidParameter("the result has a coefficient too long to print") from exc
        else:
            checks = tuple(c for c in args.checks.split(",") if c)
            if args.command == "pair":
                text, code = run_pair(args.n, args.k, args.format, args.engine, checks)
            else:
                text, code = run_grid(args.n_min, args.n_max, args.k_min, args.k_max, checks, args.format, args.engine)
        sys.stdout.write(text)
        return code
    except (InconsistentEuler, NonIntegralGenus) as exc:
        sys.stderr.write(_diag(exc))
        return 3
    except EvalError as exc:
        sys.stderr.write(_diag(exc))
        return 1
    except PGError as exc:
        sys.stderr.write(_diag(exc))
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()

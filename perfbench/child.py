"""One benchmark child process: import pgpairs, run one task, report.

Reads a JSON task from stdin and prints one JSON result line.  The first
thing it does is import `pgpairs.cli`; the monotonic time at which that
import is done is returned as `t_ready`, so the parent can time set-up from
spawn.  Tasks:

- `setup`: nothing beyond the import.
- `cli`: `pgpairs.cli.main(argv)`, returning its stdout text and exit code.
- `grid_jobs2`: `run_grid` with `GridRequest(parallelism=2)`.
- `betti`: library calls only (P(X) under both engines, P(Y), the
  hypersurface oracle, DSL identities).
"""

import time

import pgpairs.cli

T_READY = time.monotonic()

import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import pgpairs  # noqa: E402
import pgpairs.dsl  # noqa: E402
import pgpairs.pairs  # noqa: E402


def _failure(exc: Exception) -> str:
    return "".join(traceback.format_exception_only(exc)).strip()


def _run_cli(argv):
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = pgpairs.cli.main(argv)
    except Exception as exc:  # a crash is one failed operation, not a failed run
        return {"error": _failure(exc)}
    return {"stdout": out.getvalue(), "code": code}


def _run_grid_jobs2(argv):
    request_type = getattr(pgpairs.cli, "GridRequest", None)
    if request_type is None or "parallelism" not in {f.name for f in dataclasses.fields(request_type)}:
        return {"skipped": "pgpairs.cli.GridRequest has no parallelism field"}
    n_min, n_max, k_min, k_max = argv
    request = request_type(n_min=n_min, n_max=n_max, k_min=k_min, k_max=k_max, checks=(), parallelism=2)
    try:
        text, code = pgpairs.cli.run_grid(request)
    except Exception as exc:
        return {"error": _failure(exc)}
    return {"stdout": text, "code": code}


def _betti_one(n, k):
    pairs = pgpairs.pairs
    p_x = pairs.poincare_x(n, k, "pieri")
    p_x_lr = pairs.poincare_x(n, k, "lr")
    p_y = pairs.derive_poincare_y(pairs.make_pair(n, k), p_x)
    out = {
        "n": n,
        "k": k,
        "poincare_x": p_x.coeffs_dense(),
        "poincare_x_lr": p_x_lr.coeffs_dense(),
        "poincare_y": p_y.coeffs_dense(),
    }
    if n % 2 == 0 and k - 2 >= 1:
        out["oracle"] = pairs.hypersurface_poincare_oracle(n // 2, k - 1).coeffs_dense()
    return out


def _run_betti(pair_list, identities):
    rows = []
    for n, k in pair_list:
        try:
            rows.append(_betti_one(n, k))
        except Exception as exc:
            rows.append({"n": n, "k": k, "error": _failure(exc)})
    dsl = []
    for text in identities:
        try:
            value = pgpairs.dsl.eval_dsl(text)
        except Exception as exc:
            value = _failure(exc)
        dsl.append(value if isinstance(value, bool) else str(value))
    return {"pairs": rows, "dsl": dsl}


def main():
    task = json.loads(sys.stdin.read())
    src = os.path.realpath(task["src"])
    where = os.path.realpath(pgpairs.__file__)
    if os.path.commonpath([src, where]) != src:
        raise SystemExit(f"pgpairs imported from {where}, not from the checkout under test {src}")
    tracer = None
    if task.get("trace"):
        import tracing

        tracer = tracing.Tracer(task["run_id"])
        tracing.install(tracer)

    kind = task["kind"]
    t_start = time.monotonic()
    if kind == "setup":
        result = {}
    elif kind == "cli":
        result = _run_cli(task["argv"])
    elif kind == "grid_jobs2":
        result = _run_grid_jobs2(task["argv"])
    elif kind == "betti":
        result = _run_betti(task["pairs"], task["dsl"])
    else:
        raise SystemExit(f"unknown task kind {kind!r}")
    report = {
        "t_ready": T_READY,
        "work_s": time.monotonic() - t_start,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "pgpairs_file": where,
        "result": result,
    }
    if tracer is not None:
        report["trace"] = tracer.summary()
    sys.stdout.write(json.dumps(report) + "\n")


if __name__ == "__main__":
    main()

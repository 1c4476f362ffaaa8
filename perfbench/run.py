"""The pgpairs benchmark.

    python3 perfbench/run.py --workload grid_sweep --seed 1 --seconds 20 --trace 0

Every workload runs pgpairs in fresh child processes started from this
process, one child at a time, with `PYTHONPATH=<checkout>/src` and default
flags only (no `--jobs`, no `--cache-dir`, no environment variable), and
checks every output against `golden.json` and a few literature constants.

Workloads (the program sees only the generated (n, k) inputs):

- `grid_sweep`: one child runs `pgpairs grid` over n 4..12, k 1..10 (47
  rows).  The main user path; chi_y dominates it and each n shares its ring
  and chi_y nodes across all k.  The input is fixed; the seed is recorded.
- `pair_cold`: one child per `pgpairs pair` report for (7,7), (8,4), (10,5)
  and (12,4), one pair from each band n in {6,7}, {8,9}, {10,11}, {12}, in an
  order drawn from the seed.  Nothing is shared across pairs, so import, ring
  and tangent construction and every chi_y node are paid per report.  The
  pairs are fixed rather than drawn per band from the seed because cold costs
  within one band differ up to 4x, which would make the cost of a run depend
  on its seed.
- `betti_sweep`: one child makes library calls only: P(X) under the `pieri`
  and `lr` engines, P(Y) and, for even n, the hypersurface oracle, for every
  valid pair with n 4..18 and k 1..10 in an order drawn from the seed, then
  the README's DSL identity families.  It never calls chi_y: it is the
  multiplication-table fill side of the `schubert` layer.

A run repeats its workload until `--seconds` have passed (at least once).
With `--trace 0` it prints the end-to-end metrics; with `--trace 1` it runs
the workload once untraced and twice traced and prints the per-layer metrics.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import time
import uuid
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("grid_sweep", "pair_cold", "betti_sweep")
GRID_BOUNDS = (4, 12, 1, 10)
GRID_ARGV = ["grid"] + [
    arg for flag, v in zip(("--n-min", "--n-max", "--k-min", "--k-max"), GRID_BOUNDS) for arg in (flag, str(v))
]
COLD_PAIRS = ((7, 7), (8, 4), (10, 5), (12, 4))
BETTI_N = range(4, 19)
# import-only children before each repetition, so that set-up is sampled
# across the whole run rather than in one burst
SETUP_PROBES_PER_REP = 4
CHILD_TIMEOUT_S = 150

# Published constants, checked independently of golden.json: Euler
# characteristic, middle Hodge numbers, and single Betti numbers
# {degree: value} of X and of Y.
ANCHORS = {
    (7, 7): {"euler": -98, "middle_hodge": [1, 50, 50, 1]},
    (8, 4): {"b_x": {8: 24}, "b_y": {2: 22}},
    (6, 6): {"b_y": {4: 23}},
    (10, 5): {"b_y": {3: 204}},
}

# Counts that must repeat exactly across two traced runs of the same input.
EXACT_COUNTS = (
    "schubert.product.calls",
    "schubert.product.distinct",
    "schubert.mul.calls",
    "schubert.mul.term_pairs",
    "ring.mul.calls",
)

END_TO_END_UNITS = {
    "wall_s": "s",
    "pairs_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "ops_ok_frac": "frac",
}

PER_LAYER_UNITS = {
    "chern.chi_y_ci.calls": "count",
    "chern.chi_y_ci.self_s": "s",
    "chern.middle_hodge.self_s": "s",
    "chern.tangent_chern.self_s": "s",
    "chern.euler_characteristic_ci.calls": "count",
    "chern.euler_characteristic_ci.self_s": "s",
    "schubert.mul.calls": "count",
    "schubert.mul.term_pairs": "count",
    "schubert.mul.s": "s",
    "schubert.product.calls": "count",
    "schubert.product.distinct": "count",
    "schubert.product.hit_ratio": "frac",
    "schubert.product.s": "s",
    "pairs.poincare_x.calls": "count",
    "pairs.derive_poincare_y.calls": "count",
    "pairs.build_pair_report.calls": "count",
    "pairs.build_pair_report.self_s": "s",
    "pairs.calls_per_report": "calls/report",
    "cli.main.self_s": "s",
    "cli.run_grid.self_s": "s",
    "dsl.eval_dsl.calls": "count",
    "dsl.eval_dsl.s": "s",
    "ring.mul.calls": "count",
    "trace.overhead_ratio": "x",
    "cli.grid_jobs2_speedup": "x",
}


class ChildFailed(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# inputs


def dsl_identities():
    """The README's two identity families over the betti_sweep range of n."""
    out = []
    for n in BETTI_N:
        base = n - 2 if n % 2 == 0 else n - 1
        out.append(f"Gr(2,{n}) == P({base}) * SumEven({n})")
        if n % 2 == 1:
            out.append(f"P({n - 1})*H(2,{n}) == P({n - 2})*Gr(2,{n})")
    return out


def key(n, k) -> str:
    return f"{n},{k}"


# ---------------------------------------------------------------------------
# children


def child_env() -> dict:
    """The caller's environment without pgpairs' own variables, with the
    checkout's sources first on the path and bytecode cached beside them (as
    an installed package would be), so set-up time does not depend on how
    the caller configured bytecode writing."""
    drop = ("PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX")
    env = {k: v for k, v in os.environ.items() if not k.startswith("PGPAIRS_") and k not in drop}
    env["PYTHONPATH"] = str(SRC)
    return env


def spawn(task: dict) -> dict:
    """Run one child to completion; returns its report plus `setup_s` (spawn
    to `import pgpairs.cli` done) and `wall_s` (spawn to exit)."""
    task = dict(task, src=str(SRC))
    start = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-s", str(BENCH / "child.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
        cwd=str(ROOT),
    )
    try:
        out, err = proc.communicate(json.dumps(task).encode(), timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{task['kind']} child timed out after {CHILD_TIMEOUT_S} s")
    end = time.monotonic()
    if proc.returncode != 0:
        raise ChildFailed(f"{task['kind']} child exited {proc.returncode}: {err.decode()[-2000:]}")
    report = json.loads(out.decode().splitlines()[-1])
    report["setup_s"] = report["t_ready"] - start
    report["wall_s"] = end - start
    return report


def setup_probe() -> float:
    return spawn({"kind": "setup"})["setup_s"]


# ---------------------------------------------------------------------------
# checks against golden.json and the anchors


def anchor_failures(n, k, facts: dict) -> list:
    """Anchor constants for (n, k) that `facts` contradicts; facts holds
    whichever of euler, middle_hodge, b_x, b_y the output shows."""
    bad = []
    for name, want in ANCHORS.get((n, k), {}).items():
        have = facts.get(name)
        if have is None:
            continue
        if isinstance(want, dict):
            for deg, val in want.items():
                if deg in have and have[deg] != val:
                    bad.append(f"({n},{k}) {name}[{deg}] = {have[deg]}, expected {val}")
        elif have != want:
            bad.append(f"({n},{k}) {name} = {have}, expected {want}")
    return bad


def grid_row(row: dict) -> dict:
    """A grid row without the findings prose."""
    return {k: v for k, v in row.items() if k != "findings"}


def pair_record(report: dict) -> dict:
    """Every numeric field and check status of a pair report."""
    return {
        "pair": report["pair"],
        "poincare_x": report["poincare_x"],
        "poincare_y": report["poincare_y"],
        "variable_betti": report["variable_betti"],
        "euler": report["euler"],
        "hodge": report["hodge"],
        "nl_status": report["nl_status"],
        "motivic_equivalence": report["motivic_equivalence"]["status"],
        "checks": {c["name"]: c["status"] for c in report["checks"]},
        "all_checks_pass": report["all_checks_pass"],
    }


def check_grid(result: dict, golden: dict) -> tuple:
    """(attempted, failed, problems) for one grid output."""
    want = golden["grid_sweep"]
    if "error" in result:
        return len(want), len(want), [f"grid raised {result['error']}"]
    problems = []
    if result["code"] != 0:
        problems.append(f"grid exit code {result['code']}")
    rows = {key(r["n"], r["k"]): r for r in json.loads(result["stdout"])["rows"]}
    failed = 0
    for name, expect in want.items():
        row = rows.get(name)
        bad = []
        if row is None:
            bad.append(f"row {name} missing")
        else:
            if grid_row(row) != expect:
                bad.append(f"row {name} differs from golden: {grid_row(row)}")
            facts = {"euler": row.get("euler"), "b_x": {row.get("dim_x"): row.get("middle_betti")}}
            bad += anchor_failures(row["n"], row["k"], facts)
        if bad:
            failed += 1
            problems += bad
    extra = sorted(set(rows) - set(want))
    if extra:
        problems.append(f"unexpected grid rows {extra}")
    return len(want), failed, problems


def check_pair(n: int, k: int, result: dict, golden: dict) -> list:
    """Problems with one pair report (empty when it is right)."""
    if "error" in result:
        return [f"pair ({n},{k}) raised {result['error']}"]
    problems = []
    if result["code"] != 0:
        problems.append(f"pair ({n},{k}) exit code {result['code']}")
    report = json.loads(result["stdout"])
    record = pair_record(report)
    if record != golden["pair_cold"][key(n, k)]:
        problems.append(f"pair ({n},{k}) differs from golden: {record}")
    facts = {
        "euler": record["euler"],
        "middle_hodge": record["hodge"]["middle_hodge"],
        "b_x": dict(enumerate(record["poincare_x"])),
        "b_y": dict(enumerate(record["poincare_y"])),
    }
    return problems + anchor_failures(n, k, facts)


def check_betti(result: dict, order: list, golden: dict) -> tuple:
    """(attempted, failed, ok_pairs, problems) for one betti child."""
    want = golden["betti_sweep"]
    problems = []
    failed = 0
    rows = result["pairs"]
    if [[r["n"], r["k"]] for r in rows] != [list(p) for p in order]:
        problems.append("betti rows do not follow the requested order")
    for r in rows:
        n, k = r["n"], r["k"]
        bad = []
        if "error" in r:
            bad.append(f"betti ({n},{k}) raised {r['error']}")
        else:
            expect = want[key(n, k)]
            if r["poincare_x_lr"] != r["poincare_x"]:
                bad.append(f"betti ({n},{k}) pieri and lr disagree")
            if r["poincare_x"] != expect["poincare_x"] or r["poincare_y"] != expect["poincare_y"]:
                bad.append(f"betti ({n},{k}) differs from golden")
            if (n % 2 == 0 and k >= 3) != ("oracle" in r) or r.get("oracle", r["poincare_y"]) != r["poincare_y"]:
                bad.append(f"betti ({n},{k}) hypersurface oracle disagrees")
            facts = {
                "euler": sum((-1) ** j * b for j, b in enumerate(r["poincare_x"])),
                "b_x": dict(enumerate(r["poincare_x"])),
                "b_y": dict(enumerate(r["poincare_y"])),
            }
            bad += anchor_failures(n, k, facts)
        if bad:
            failed += 1
            problems += bad
    ok_pairs = len(rows) - failed
    missing = len(order) - len(rows)
    identities = dsl_identities()
    dsl_bad = [text for text, val in zip(identities, result["dsl"]) if val is not True]
    dsl_bad += identities[len(result["dsl"]):]
    problems += [f"DSL identity not confirmed: {text}" for text in dsl_bad]
    attempted = len(order) + len(identities)
    return attempted, failed + missing + len(dsl_bad), ok_pairs, problems


# ---------------------------------------------------------------------------
# one repetition of a workload


def run_rep(workload: str, seed: int, golden: dict, trace: bool = False, run_id: str = "") -> dict:
    """Run the workload once; wall time runs from the first child's spawn to
    the last child's exit."""
    base = {"trace": trace, "run_id": run_id}
    children = []
    problems = []
    start = time.monotonic()
    if workload == "grid_sweep":
        child = spawn(dict(base, kind="cli", argv=GRID_ARGV))
        children.append(child)
        attempted, failed, problems = check_grid(child["result"], golden)
        ok_pairs = attempted - failed
    elif workload == "pair_cold":
        order = list(COLD_PAIRS)
        random.Random(seed).shuffle(order)
        attempted = len(order)
        failed = 0
        for n, k in order:
            argv = ["pair", "--n", str(n), "--k", str(k)]
            child = spawn(dict(base, kind="cli", argv=argv))
            children.append(child)
            bad = check_pair(n, k, child["result"], golden)
            failed += bool(bad)
            problems += bad
        ok_pairs = attempted - failed
    else:
        order = [tuple(map(int, name.split(","))) for name in golden["betti_sweep"]]
        random.Random(seed).shuffle(order)
        child = spawn(dict(base, kind="betti", pairs=order, dsl=dsl_identities()))
        children.append(child)
        attempted, failed, ok_pairs, problems = check_betti(child["result"], order, golden)
    wall = time.monotonic() - start
    return {
        "wall_s": wall,
        "ok_pairs": ok_pairs,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "setup_s": [c["setup_s"] for c in children],
        "maxrss_kb": [c["maxrss_kb"] for c in children],
        "work_s": [c["work_s"] for c in children],
        "traces": [c["trace"] for c in children if "trace" in c],
    }


# ---------------------------------------------------------------------------
# metrics


def end_to_end(reps: list, probes: list) -> dict:
    setups = probes + [s for r in reps for s in r["setup_s"]]
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    values = {
        "wall_s": statistics.median(r["wall_s"] for r in reps),
        "pairs_per_s": statistics.median(r["ok_pairs"] / r["wall_s"] for r in reps),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": max(kb for r in reps for kb in r["maxrss_kb"]) / 1024,
        "ops_ok_frac": (attempted - failed) / attempted,
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}


def merge_traces(traces: list) -> dict:
    """Sum span and counter records over the children of one repetition."""
    spans, counters = {}, {}
    for t in traces:
        for name, rec in t["spans"].items():
            acc = spans.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for field in acc:
                acc[field] += rec[field]
        for name, val in t["counters"].items():
            counters[name] = counters.get(name, 0) + val
    return {"spans": spans, "counters": counters}


def layer_values(merged: dict) -> dict:
    """Per-layer values of one traced repetition, except the two ratios that
    compare repetitions (trace.overhead_ratio, cli.grid_jobs2_speedup)."""
    spans, counters = merged["spans"], merged["counters"]
    values = {}
    for name in PER_LAYER_UNITS:
        span, field = name.rsplit(".", 1)
        if name in counters:
            values[name] = counters[name]
        elif field in ("calls", "s", "self_s"):
            values[name] = spans.get(span, {}).get(field, 0)
    calls = counters["schubert.product.calls"]
    values["schubert.product.hit_ratio"] = 1 - counters["schubert.product.distinct"] / calls if calls else 0.0
    reports = values["pairs.build_pair_report.calls"]
    values["pairs.calls_per_report"] = values["pairs.poincare_x.calls"] / reports if reports else 0.0
    return values


def traced_run(workload: str, seed: int, golden: dict, run_id: str) -> tuple:
    """One untraced and two traced repetitions (plus, on grid_sweep, the
    `--jobs 2` diagnostic); returns (reps, per-layer metrics, problems,
    extra record fields)."""
    plain = run_rep(workload, seed, golden)
    traced = [run_rep(workload, seed, golden, trace=True, run_id=f"{run_id}-{i}") for i in (1, 2)]
    reps = [plain] + traced
    problems = []
    merged = [merge_traces(r["traces"]) for r in traced]
    counts = [{name: m["counters"][name] for name in EXACT_COUNTS} for m in merged]
    for m, c in zip(merged, counts):
        c.update({f"{name}.calls": rec["calls"] for name, rec in m["spans"].items()})
    if counts[0] != counts[1]:
        diff = {name: (counts[0].get(name), counts[1].get(name))
                for name in set(counts[0]) | set(counts[1]) if counts[0].get(name) != counts[1].get(name)}
        problems.append(f"DETERMINISM FAILURE: exact counts differ between two traced runs: {diff}")
    per_rep = [layer_values(m) for m in merged]
    # counts are exact (checked above); times are the median of the two runs
    values = {
        name: per_rep[0][name] if PER_LAYER_UNITS[name] == "count" else statistics.median(v[name] for v in per_rep)
        for name in per_rep[0]
    }
    values["trace.overhead_ratio"] = statistics.median(r["wall_s"] for r in traced) / plain["wall_s"]
    values["cli.grid_jobs2_speedup"] = 0.0
    jobs2 = None
    if workload == "grid_sweep":
        child = spawn({"kind": "grid_jobs2", "argv": list(GRID_BOUNDS)})
        jobs2 = child["result"]
        if "skipped" not in jobs2:
            _, failed, bad = check_grid(jobs2, golden)
            problems += [f"--jobs 2: {p}" for p in bad]
            plain["attempted"] += len(golden["grid_sweep"])
            plain["failed"] += failed
            values["cli.grid_jobs2_speedup"] = plain["work_s"][0] / child["work_s"]
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    extra = {
        "spans": [span for m in traced for t in m["traces"] for span in t["raw"]],
        "jobs2": {k: v for k, v in (jobs2 or {"skipped": "grid_sweep only"}).items() if k != "stdout"},
        "counts": counts[0],
        "reference_counts": golden.get("reference_counts", {}).get(workload),
    }
    return reps, metrics, problems, extra


def source_commit() -> str | None:
    """The checkout's git commit, when it is a git work tree of its own."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest() -> str:
    """sha256 over the program's source files, which identifies the code
    under test when the checkout has no git metadata."""
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "pgpairs" / "__init__.py").is_file():
        print(f"error: no pgpairs sources under {SRC}", file=sys.stderr)
        return 2
    golden = json.loads(GOLDEN.read_text())
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "traced": bool(args.trace),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": source_commit(),
        "source_sha256": source_digest(),
        "golden_source_sha256": golden["source_sha256"],
        "loadavg_start": loadavg(),
    }
    run_id = uuid.uuid4().hex[:12]
    try:
        if args.trace:
            reps, metrics, problems, extra = traced_run(args.workload, args.seed, golden, run_id)
        else:
            setup_probe()  # compiles the bytecode cache on a fresh checkout
            probes, reps = [], []
            start = time.monotonic()
            while not reps or time.monotonic() - start < args.seconds:
                probes += [setup_probe() for _ in range(SETUP_PROBES_PER_REP)]
                reps.append(run_rep(args.workload, args.seed, golden))
            metrics = end_to_end(reps, probes)
            problems = []
            extra = {"setup_probes_s": probes}
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = loadavg()
    env["repeats"] = len(reps)
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    problems = [p for r in reps for p in r["problems"]] + problems

    record = {
        "env": env,
        "reps": [{k: v for k, v in r.items() if k != "traces"} for r in reps],
        "metrics": metrics,
        "problems": problems,
        **extra,
    }
    OUT.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{run_id}.json"
    (OUT / name).write_text(json.dumps(record, indent=1))

    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    print("env " + json.dumps(env))
    for metric, rec in metrics.items():
        print(f"{args.workload} {metric} = {rec['value']:.6g} {rec['unit']}")
    if args.trace:
        ref = extra["reference_counts"] or {}
        moved = {k: (ref.get(k), v) for k, v in extra["counts"].items() if ref.get(k) != v}
        print(f"{args.workload} exact counts vs golden commit {golden['commit']}: "
              + (f"moved (golden, now) {moved}" if moved else "all equal"))
    else:
        print(f"{args.workload} ops_failed_frac = {failed / attempted:.6g} frac "
              f"({failed} of {attempted} operations, {len(reps)} repetitions)")
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Write golden.json: the expected outputs of every workload, taken from the
program in this checkout.  Run it only at a commit whose outputs are trusted:

    python3 perfbench/make_golden.py

It also records the exact counts of one traced repetition of each workload as
`reference_counts`, which traced runs print next to their own counts.
"""

import json
import sys

import run


def main() -> int:
    golden = {"source_sha256": run.source_digest(), "commit": run.source_commit()}

    grid = run.spawn({"kind": "cli", "argv": run.GRID_ARGV})["result"]
    rows = json.loads(grid["stdout"])["rows"]
    golden["grid_sweep"] = {run.key(r["n"], r["k"]): run.grid_row(r) for r in rows}

    golden["pair_cold"] = {}
    for n, k in run.COLD_PAIRS:
        argv = ["pair", "--n", str(n), "--k", str(k)]
        report = json.loads(run.spawn({"kind": "cli", "argv": argv})["result"]["stdout"])
        golden["pair_cold"][run.key(n, k)] = run.pair_record(report)

    candidates = [(n, k) for n in run.BETTI_N for k in range(1, 11)]
    betti = run.spawn({"kind": "betti", "pairs": candidates, "dsl": []})["result"]["pairs"]
    invalid = [r for r in betti if "error" in r]
    for r in invalid:
        if r["error"].split(":")[0].rsplit(".", 1)[-1] not in ("OutOfSmoothRange", "NegativeDimension"):
            print(f"unexpected error for ({r['n']},{r['k']}): {r['error']}", file=sys.stderr)
            return 1
    golden["betti_sweep"] = {
        run.key(r["n"], r["k"]): {"poincare_x": r["poincare_x"], "poincare_y": r["poincare_y"]}
        for r in betti
        if "error" not in r
    }

    golden["reference_counts"] = {}
    for workload in run.WORKLOADS:
        rep = run.run_rep(workload, 0, golden, trace=True, run_id="golden")
        if rep["problems"]:
            print("\n".join(rep["problems"]), file=sys.stderr)
            return 1
        merged = run.merge_traces(rep["traces"])
        counts = {name: merged["counters"][name] for name in run.EXACT_COUNTS}
        counts.update({f"{name}.calls": rec["calls"] for name, rec in sorted(merged["spans"].items())})
        golden["reference_counts"][workload] = counts

    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(
        f"{len(golden['grid_sweep'])} grid rows, {len(golden['pair_cold'])} pair reports, "
        f"{len(golden['betti_sweep'])} betti pairs ({len(invalid)} invalid candidates skipped)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Alternating parent/change pairs of the repository benchmark.

    python3 bench/ab.py PARENT CHANGE --workload W [--workload W2 ...]
                        [--seed S [--seed S2 ...]] [--pairs N]
                        [--seconds N] [--out FILE]

PARENT and CHANGE are two checkouts of the repository (each builds its own
`_build`). For each workload and each seed in turn (every --seed for the
first --workload, then the next; seed 20060418 when none is given), each
pair runs `bash benchmark/run.sh --workload W --seed S --seconds N --trace
0` once in each checkout, one run at a time; the side that runs first
alternates from pair to pair, so a drift in host load falls on both sides
alike. For every (workload, seed) and every end-to-end metric of CHANGE's
BENCHMARK.json it prints each side's median and quartiles, the change's
median difference, how many pairs the change won (and tied), and whether
the gap between the medians is larger than the parent's inter-quartile
range ("better" or "worse"; "within" otherwise), then each side's failed
operations out of those attempted. --out writes a JSON list with the
per-run values and the summary of each (workload, seed).

Exits 1 if a run fails or reports an incorrect result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def end_to_end_metrics(checkout):
    with open(os.path.join(checkout, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return [(m["name"], m["better"]) for m in bench["end_to_end"]]


def run_once(checkout, workload, seed, args):
    cmd = [
        "bash",
        "benchmark/run.sh",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(args.seconds),
        "--trace",
        "0",
    ]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        sys.exit(f"ab: {' '.join(cmd)} in {checkout} exited {proc.returncode}")
    record = json.loads(lines[-1])
    if not record.get("correct", False):
        sys.exit(f"ab: run in {checkout} reported an incorrect result")
    values = {name: m["value"] for name, m in record["metrics"].items()}
    values["attempted"] = record["attempted"]
    values["failed"] = record["failed"]
    return values


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def summarise(metrics, runs):
    rows = []
    for name, better in metrics:
        p = [r[name] for r in runs["parent"]]
        c = [r[name] for r in runs["change"]]
        pm, cm = statistics.median(p), statistics.median(c)
        pq1, pq3 = quartiles(p)
        cq1, cq3 = quartiles(c)
        sign = 1 if better == "higher" else -1
        wins = sum(1 for a, b in zip(p, c) if sign * (b - a) > 0)
        ties = sum(1 for a, b in zip(p, c) if a == b)
        gap = cm - pm
        if abs(gap) > pq3 - pq1:
            verdict = "better" if sign * gap > 0 else "worse"
        else:
            verdict = "within"
        rel = gap / pm * 100 if pm else 0.0
        rows.append(
            {
                "metric": name,
                "better": better,
                "parent": {"median": pm, "q1": pq1, "q3": pq3},
                "change": {"median": cm, "q1": cq1, "q3": cq3},
                "delta_pct": rel,
                "wins": wins,
                "ties": ties,
                "verdict": verdict,
            }
        )
    return rows


def print_table(rows, pairs):
    header = ["metric", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "gap vs parent IQR"]
    lines = [header]
    for r in rows:
        side = lambda s: "%.6g [%.6g, %.6g]" % (s["median"], s["q1"], s["q3"])
        lines.append(
            [
                r["metric"],
                side(r["parent"]),
                side(r["change"]),
                "%+.2f%%" % r["delta_pct"],
                "%d/%d (%d tied)" % (r["wins"], pairs, r["ties"]),
                r["verdict"],
            ]
        )
    widths = [max(len(line[i]) for line in lines) for i in range(len(header))]
    for line in lines:
        print("  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip())


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--workload", action="append", required=True)
    ap.add_argument("--seed", type=int, action="append")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--out")
    args = ap.parse_args()

    metrics = end_to_end_metrics(args.change)
    sides = {"parent": args.parent, "change": args.change}
    results = []
    for workload in args.workload:
        for seed in args.seed or [20060418]:
            runs = {"parent": [], "change": []}
            for i in range(args.pairs):
                order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
                for side in order:
                    runs[side].append(run_once(sides[side], workload, seed, args))
                print(
                    "%s seed %d pair %d/%d: host_us_per_commit parent %.6g, change %.6g"
                    % (
                        workload,
                        seed,
                        i + 1,
                        args.pairs,
                        runs["parent"][-1].get("host_us_per_commit", float("nan")),
                        runs["change"][-1].get("host_us_per_commit", float("nan")),
                    ),
                    file=sys.stderr,
                )

            rows = summarise(metrics, runs)
            print("workload %s, seed %d, %d pairs of %d s" % (workload, seed, args.pairs, args.seconds))
            print_table(rows, args.pairs)
            for side in ("parent", "change"):
                failed = sum(r["failed"] for r in runs[side])
                attempted = sum(r["attempted"] for r in runs[side])
                print("%s: %d of %d operations failed" % (side, failed, attempted))
            sys.stdout.flush()
            results.append(
                {
                    "workload": workload,
                    "seed": seed,
                    "pairs": args.pairs,
                    "seconds": args.seconds,
                    "runs": runs,
                    "summary": rows,
                }
            )
            if args.out:
                with open(args.out, "w") as f:
                    json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()

#!/usr/bin/env bash
# Sim-result identity check for host-only changes.
#
#   bash bench/sim_identity.sh           # compare against bench/sim_identity.json
#   bash bench/sim_identity.sh --write   # record the current results there
#
# Runs `tashbench.exe rep --smoke --workload W --seed S` for every workload
# of BENCHMARK.json at seed 1 and at the held-out seed 20060418, and
# compares the simulated results (goodput, the p50 and p99 update and
# read-only latencies, committed, attempts, aborted and events) with the
# committed record, exactly. A change that is meant to
# make the simulator faster must leave all of them as they are; a change
# that moves them on purpose rewrites the record with --write and says so
# in CHANGES.md. Exits 1 on any difference.
set -euo pipefail
cd "$(dirname "$0")/.."

dune build benchmark/tashbench.exe

python3 - "$@" <<'PY'
import json
import subprocess
import sys

RECORD = "bench/sim_identity.json"
SEEDS = [1, 20060418]
FIELDS = [
    "goodput_tps",
    "update_p50_ms",
    "update_p99_ms",
    "ro_p50_ms",
    "ro_p99_ms",
    "committed",
    "attempts",
    "aborted",
    "events",
]

with open("BENCHMARK.json") as f:
    workloads = [w["name"] for w in json.load(f)["workloads"]]

got = {}
for seed in SEEDS:
    got[str(seed)] = {}
    for w in workloads:
        cmd = ["./_build/default/benchmark/tashbench.exe", "rep", "--smoke",
               "--workload", w, "--seed", str(seed)]
        out = subprocess.run(cmd, capture_output=True, text=True, check=True).stdout
        rec = json.loads(out.strip().splitlines()[-1])
        got[str(seed)][w] = {f: rec[f] for f in FIELDS}

if "--write" in sys.argv[1:]:
    with open(RECORD, "w") as f:
        json.dump({"seeds": got}, f, indent=2)
        f.write("\n")
    print(f"sim_identity: wrote {RECORD}")
    sys.exit(0)

with open(RECORD) as f:
    expected = json.load(f)["seeds"]
diffs = []
for seed in sorted(set(got) | set(expected), key=int):
    if seed not in expected or seed not in got:
        diffs.append(f"seed {seed}: only in {'the run' if seed not in expected else RECORD}")
        continue
    for w in sorted(set(workloads) | set(expected[seed])):
        want = expected[seed].get(w)
        have = got[seed].get(w)
        if want is None or have is None:
            diffs.append(f"seed {seed} {w}: only in {'the run' if want is None else RECORD}")
            continue
        for f in FIELDS:
            if want.get(f) != have[f]:
                diffs.append(
                    f"seed {seed} {w}.{f}: recorded {want.get(f)!r}, now {have[f]!r}")
for d in diffs:
    print("sim_identity: " + d)
if diffs:
    sys.exit(1)
print(f"sim_identity: {len(workloads)} workloads identical at seeds "
      + ", ".join(str(s) for s in SEEDS))
PY

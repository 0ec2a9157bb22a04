#!/usr/bin/env python3
"""Check a BENCH_micro.json record written by bench/main.exe.

  python3 bench/check_record.py [RECORD]         # key presence only
  python3 bench/check_record.py --full [RECORD]  # presence + headline claims

RECORD defaults to BENCH_micro.json. The presence-only form is for the
committed record; --full is for a record just regenerated with
`bench/main.exe -- --quick --only latency,parallel_apply,hotkey,soak,partition,monitor`,
and also asserts the inequalities each section's headline rests on. Exits 1
listing every missing key and every failed claim.
"""

import json
import sys

# Sections the committed record must carry.
COMMITTED = [
    "hotkey/abort_rate_blind_r8",
    "hotkey/abort_rate_delta_r8",
    "hotkey/goodput_delta_r8",
    "soak/store_pruned",
    "soak/cert_pruned",
    "partition/local_scaling_p4_over_p1",
    "partition/chaos_seed1966/violations",
    "monitor/overhead_pct",
]

# Further keys a regenerated record must carry: the per-stage latency
# histogram (including the Base-vs-MW durability stage the tracer exists
# to expose), parallel apply, hotkey and partition goodputs.
REGENERATED = [
    "latency/tpcb/base/certify/p50",
    "latency/tpcb/base/durability/p50",
    "latency/tpcb/tashkent-mw/durability/p50",
    "parallel_apply/goodput_w1",
    "parallel_apply/goodput_w4",
    "parallel_apply/mean_parallelism_w4",
    "hotkey/goodput_blind_r8",
    "partition/local_goodput_p1",
    "partition/local_goodput_p4",
    "partition/cross30_goodput",
    "partition/cross00_goodput",
    "partition/cross01_goodput",
    "partition/cross01_accepts_per_commit",
]

# (claim, check) pairs over a regenerated record.
CLAIMS = [
    # Parallel apply actually runs in parallel and pays off.
    ("parallel_apply/mean_parallelism_w4 > 1.0",
     lambda m: m["parallel_apply/mean_parallelism_w4"] > 1.0),
    ("parallel_apply/goodput_w4 > parallel_apply/goodput_w1",
     lambda m: m["parallel_apply/goodput_w4"] > m["parallel_apply/goodput_w1"]),
    # Commutative certification headline: delta certification beats the
    # blind baseline on abort rate and goodput at 8 replicas, theta = 0.99.
    ("hotkey/abort_rate_delta_r8 < hotkey/abort_rate_blind_r8",
     lambda m: m["hotkey/abort_rate_delta_r8"] < m["hotkey/abort_rate_blind_r8"]),
    ("hotkey/goodput_delta_r8 > hotkey/goodput_blind_r8",
     lambda m: m["hotkey/goodput_delta_r8"] > m["hotkey/goodput_blind_r8"]),
    # Partitioned certification: near-linear certified-goodput scaling
    # 1 -> 4 certifier groups in the certification-bound regime,
    # cross-partition traffic commits atomically, and the partitioned chaos
    # smokes stay invariant-clean.
    ("partition/local_scaling_p4_over_p1 >= 3.0",
     lambda m: m["partition/local_scaling_p4_over_p1"] >= 3.0),
    ("partition/cross10_goodput > 0",
     lambda m: m["partition/cross10_goodput"] > 0),
    # Cross-partition records ride the certify round's one Paxos proposal,
    # so a 1% cross mix costs almost nothing against the 0% row. The bound
    # is the measured ratio (0.9966 at the bench's seed) minus its spread
    # over quick runs at seeds 1-7 and 20060418 (0.9957-0.9982), rounded
    # down. With a Paxos proposal per cross record it was 0.93.
    ("partition/cross01_goodput >= 0.994 * partition/cross00_goodput",
     lambda m: m["partition/cross01_goodput"] >= 0.994 * m["partition/cross00_goodput"]),
    ("partition/chaos_seed1966/violations == 0",
     lambda m: m["partition/chaos_seed1966/violations"] == 0),
    ("partition/chaos_seed2006/violations == 0",
     lambda m: m["partition/chaos_seed2006/violations"] == 0),
    ("partition/chaos_seed1966/cross_commits > 0",
     lambda m: m["partition/chaos_seed1966/cross_commits"] > 0),
    # The online protocol monitors are pure observers: the simulation
    # cannot see them, so simulated goodput is the same with them on and
    # off (their host cost is not measured here), and a healthy fixed-seed
    # run stays violation-free while the monitors actually consume events.
    ("monitor/goodput_on == monitor/goodput_off",
     lambda m: m["monitor/goodput_on"] == m["monitor/goodput_off"]),
    ("monitor/overhead_pct < 5.0", lambda m: m["monitor/overhead_pct"] < 5.0),
    ("monitor/violations == 0", lambda m: m["monitor/violations"] == 0),
    ("monitor/events > 0", lambda m: m["monitor/events"] > 0),
    # Soak: both GC paths fired and the late-window gauges stay bounded by
    # the early ones.
    ("soak/store_pruned > 0", lambda m: m["soak/store_pruned"] > 0),
    ("soak/cert_pruned > 0", lambda m: m["soak/cert_pruned"] > 0),
    ("soak/violations == 0", lambda m: m["soak/violations"] == 0),
    ("soak/store_versions_late_max <= 1.5 * soak/store_versions_early_max + 512",
     lambda m: m["soak/store_versions_late_max"]
     <= 1.5 * m["soak/store_versions_early_max"] + 512),
    ("soak/cert_bytes_late_max <= 1.5 * soak/cert_bytes_early_max + 65536",
     lambda m: m["soak/cert_bytes_late_max"]
     <= 1.5 * m["soak/cert_bytes_early_max"] + 65536),
]


def main(argv):
    full = "--full" in argv
    paths = [a for a in argv if a != "--full"]
    path = paths[0] if paths else "BENCH_micro.json"
    with open(path) as f:
        record = json.load(f)
    required = COMMITTED + (REGENERATED if full else [])
    problems = ["missing key " + key for key in required if key not in record]
    if full:
        for claim, check in CLAIMS:
            try:
                ok = check(record)
            except KeyError as e:
                problems.append("missing key %s (needed by %s)" % (e.args[0], claim))
                continue
            if not ok:
                problems.append("failed: " + claim)
    for p in problems:
        print("%s: %s" % (path, p), file=sys.stderr)
    if problems:
        return 1
    print("%s: %d keys%s ok" % (path, len(required), " and %d claims" % len(CLAIMS) if full else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

(** Chaos experiment: TPC-B on a replicated cluster under a fault plan
    (certifier-leader crashes, partitions, loss bursts, replica outages,
    and storage faults — fsync stalls, degraded disks, torn/corrupt WAL
    tails), asserting the GSI safety invariants after every heal and at
    the end: no duplicated or lost certified writeset, contiguous log
    versions, certifier prefix agreement, and replica state equal to the
    log prefix ({!Tashkent.Cluster.check_log_invariants} and
    [check_consistency]) — plus the {e durability} invariant: every commit
    acked durable to a proxy before a crash is still recorded at its acked
    version in the current leader's outcome table, and still the same
    transaction in its certified log above the GC floor, after recovery
    (proxies record acks in a harness-side journal,
    {!Tashkent.Proxy.enable_commit_journal}). Deterministic: the same seed
    and plan replay bit-identically. *)

type plan_kind =
  | Scripted
      (** the fixed acceptance scenario: a leader crash at 2 s (recovered
          at 5 s), replica0 partitioned from all certifiers at 8 s (healed
          at 10 s), a 10% drop burst at 12 s, and a final heal-all. With
          [n_partitions > 1]: group 1's leader crashed at 2 s (recovered at
          5 s), group 0's at 8 s (recovered at 10 s), the drop burst and
          the heal-all — one group down at a time, so every group keeps a
          Paxos majority and cross-partition transactions keep committing
          through both failovers. *)
  | Scripted_disk
      (** the storage-fault acceptance scenario: a 600 ms fsync stall on
          the leader's disk at 2 s for 2 s (above the 250 ms fsync
          deadline, so the disk watchdog forces an abdication), a
          torn-tail leader crash at 6 s (recovered at 8 s), a corrupt-tail
          crash of certifier 0 at 11 s (recovered at 13 s), and a final
          heal-all. *)
  | Random of int  (** seeded {!Fault.random_plan} *)
  | Explicit of Fault.plan
      (** a fully spelled-out plan — shrunk explore repros and targeted
          message-tap schedules run through the same harness *)

type config = {
  cluster : Tashkent.Cluster.config;
      (** the cluster under test. With [n_partitions > 1] the clients
          drive {!Workload.Partlocal} through each replica's
          {!Tashkent.Session} (a third of transactions span two groups),
          the [Scripted] plan crashes group leaders instead, random
          plans gain a group-leader crash, and every checkpoint also
          asserts {!Tashkent.Cluster.check_cross_atomicity}. The
          durability check walks each proxy's one journal
          ({!Tashkent.Proxy.journaled_commits}, both kinds of commit)
          against the group leader's {!Tashkent.Certifier.outcome} table
          and, above the GC floor, the log entry's
          {!Tashkent.Types.entry_id}. Replicas with [apply_workers > 1]
          exercise crash/recovery mid-parallel-apply. *)
  duration : Sim.Time.t;
  plan : plan_kind;  (** its seed is separate from the cluster's *)
  collect_trace : bool;
      (** record lifecycle spans for the whole run (including fault
          windows); read them from [result.trace] *)
  disk_faults : bool;
      (** pass [~disk_faults:true] to {!Fault.random_plan} (no effect on
          scripted plans) *)
  fsync_stall : Sim.Time.t;
      (** per-op stall used by random disk-fault plans; the default 600 ms
          is above the certifiers' fsync deadline, forcing a
          degraded-disk failover *)
  deltas : bool;
      (** run TPC-B with commutative {!Mvcc.Writeset.Add} balance updates
          (default off) — chaos with deltas exercises the certification
          fast path and delta WAL replay through crashes and failovers *)
  monitors : bool;
      (** attach the five online protocol monitors ({!Obs.Monitor}) to the
          cluster's event stream (default on). Monitors are pure
          observers, so the run is bit-identical either way; disabling is
          for overhead measurement only. *)
  progress_bound : Sim.Time.t;
      (** progress-monitor deadline: how long a submitted transaction may
          stay unresolved, counted from submission or the last fault heal
          (default 5 s) *)
}

val default_config : unit -> config
(** Tashkent-MW, 3 replicas, 3 certifiers, seed 1966, replica GC every
    5 s (short enough that log truncation {e and} store pruning both fire
    within the run, so the invariants are asserted with GC active), 20
    simulated seconds, the scripted plan. *)

type result = {
  commits : int;
  cert_aborts : int;
  local_aborts : int;
  cross_commits : int;
      (** multi-partition transactions committed atomically across
          certifier groups ({!Tashkent.Session} stats; 0 when
          [n_partitions = 1]) *)
  cross_aborts : int;
      (** multi-partition transactions aborted (atomically — no fragment
          installed) *)
  cert_requests : int;
  cert_retries : int;  (** certify attempts beyond the first *)
  cert_failovers : int;  (** timeouts that rotated the target certifier *)
  refetches : int;
  fault : Fault.stats;
  checks : int;  (** invariant checkpoints performed *)
  violations : string list;  (** empty on a passing run *)
  monitor_violations : string list;
      (** online monitor findings (formatted with their sim timestamps);
          empty on a passing run or when [config.monitors] was off *)
  monitor_events : int;  (** protocol events the monitors consumed *)
  bridge_heals : int;
      (** commit replies whose composed remotes failed to bridge the
          replica's applied prefix, forcing a fetch before the install
          ({!Tashkent.Proxy.catch_ups} [Bridge], summed over proxies). The
          stale-re-answer regression schedules assert this stayed > 0 —
          i.e. the pathological interleaving still occurs and is healed. *)
  ran_for : Sim.Time.t;
  trace : Obs.Trace.t;
      (** the run's tracer; disabled (no events) unless
          [config.collect_trace] was set *)
  durable_acked : int;
      (** commits acked durable to proxies over the run (the journal the
          durability invariant is checked against) *)
  torn_discarded : int;
      (** torn WAL records truncated by certifier recovery scans *)
  corrupt_discarded : int;
      (** checksum-failed WAL records truncated by recovery scans *)
  disk_failovers : int;  (** leader abdications forced by the disk watchdog *)
}

val run : ?config:config -> unit -> result

val pp_result : Format.formatter -> result -> unit

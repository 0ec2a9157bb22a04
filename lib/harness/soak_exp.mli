(** Sustained-load soak harness for the GC watermark: simulated hours of
    Zipfian delta traffic (optionally under periodic leader and replica
    crashes), sampling the growth-sensitive gauges every window and
    asserting the long-run shape — row-version counts and the live
    certified log plateau instead of growing with wall-clock, latency
    percentiles stay flat after warmup, both GC paths actually fired
    ([store_pruned > 0], [cert_pruned > 0]), and a replica whose outage
    outlived the watermark TTL healed via snapshot transfer. Running with
    replica GC off reproduces the unbounded-growth baseline (the
    boundedness assertions then fail, by design). Deterministic in the
    seed. *)

type config = {
  cluster : Tashkent.Cluster.config;
      (** the cluster under soak (default: seed 2006, replica GC every
          5 s, a 30 s stale-snapshot escape hatch;
          [replica.gc_interval = None] disables GC — the unbounded
          baseline). With [n_partitions > 1] the Zipfian clients run
          through {!Tashkent.Session} (hot keys hash across every group,
          so a multi-key transaction may commit cross-partition), the
          periodic chaos round-robins its certifier crashes over the
          groups, the sampled log gauges sum over groups (floor = the
          minimum), and the final checkpoint also asserts
          {!Tashkent.Cluster.check_cross_atomicity}. *)
  duration : Sim.Time.t;  (** total simulated run (default 600 s) *)
  window : Sim.Time.t;  (** sampling window (default 30 s) *)
  chaos : bool;  (** inject the periodic fault plan (default on) *)
  chaos_period : Sim.Time.t;
      (** one fault every this often (default 120 s), alternating a 5 s
          leader crash with a 30 s replica outage — longer than the
          watermark TTL, so recovery needs a snapshot transfer *)
  skew : float;  (** Zipf exponent of the hot-key workload *)
  deltas : bool;  (** ship hot-row increments as commutative deltas *)
}

val default_config : unit -> config
(** Tashkent-MW, 3 replicas, 3 certifiers, 600 simulated seconds in 30 s
    windows, GC every 5 s, chaos every 120 s, Zipfian deltas over
    {!Workload.Hotkey.profile}'s hot set and default clients per replica.
    Every run attaches the five online protocol monitors ({!Obs.Monitor})
    with a 10 s progress bound, counted from submission or the last fault
    heal; the first window is warmup, excluded from the boundedness and
    latency assertions. *)

type window_sample = {
  at : Sim.Time.t;  (** offset of the window's end from run start *)
  goodput : float;  (** committed transactions per second *)
  p95_ms : float;
  p99_ms : float;  (** update response percentiles within the window *)
  store_versions : int;
      (** max row-version-chain records across up replicas — the gauge
          that grows without bound when vacuuming is off *)
  cert_entries : int;
      (** live slots in the certified log, summed over group leaders *)
  cert_bytes : int;  (** bytes held by those live slots *)
  gc_floor : int;  (** the truncation floor (minimum across groups) *)
}

(** The post-warmup windows split into an early and a late half — what
    the boundedness assertions compare. *)
type split = {
  early_versions : int;  (** max [store_versions] in the early half *)
  late_versions : int;
  early_bytes : int;  (** max [cert_bytes] in the early half *)
  late_bytes : int;
  early_p99_ms : float;  (** median window [p99_ms] in the early half *)
  late_p99_ms : float;
}

type result = {
  run : Scenario.outcome;
      (** the {!Scenario.run_plan} loop's findings: [fault] is [None] when
          the plan was empty (chaos off, or a run too short for it);
          [violations] holds the final invariant check's, then the growth
          assertions' *)
  windows : window_sample list;  (** oldest first, warmup included *)
  split : split;
  commits : int;
  store_pruned : int;  (** row versions vacuumed, summed over replicas *)
  cert_pruned : int;  (** log entries truncated at the leader *)
  snapshot_installs : int;
      (** pruned-prefix recoveries healed by snapshot transfer *)
  floor_heals : int;
      (** below-floor livelocks broken by an eager refresh from the commit
          path ({!Tashkent.Proxy.catch_ups} [Floor]), summed over replicas *)
  stale_expired : int;  (** transactions doomed by [max_snapshot_age] *)
}

val run : ?config:config -> unit -> result

val pp_result : Format.formatter -> result -> unit

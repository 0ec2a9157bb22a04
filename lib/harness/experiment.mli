(** One measured run: build a system, warm it up, measure a steady-state
    window, and report the metrics the paper plots. *)

type workload_kind =
  | All_updates
  | Tpc_b
  | Tpc_w
  | Hotkey
  | Part_local
      (** {!Workload.Partlocal}: two-row updates bucketed by the cluster's
          key partitioner, with a [cross_ratio] fraction spanning two
          partitions — the partitioned-certification scaling workload *)

val workload_name : workload_kind -> string

type system =
  | Standalone  (** a single unreplicated database (§9.2's control) *)
  | Replicated of Tashkent.Types.mode
  | Replicated_nocert of Tashkent.Types.mode
      (** certifier certification without disk writes — the paper's
          [tashAPInoCERT] curve *)

val system_name : system -> string

type config = {
  system : system;
  cluster : Tashkent.Cluster.config;
      (** the cluster to build (default: {!Tashkent.Cluster.config} at
          seed 20060418). A replicated run writes the system's mode into
          it and its replica config, applies the workload's storage
          profile ({!Scenario.storage_profile}), disables periodic dumps,
          and for [Replicated_nocert] runs a single non-durable
          certifier. With [n_partitions > 1] clients run through
          {!Tashkent.Session} so a transaction may atomically span
          groups; [Host_modulo] hosting is partial replication. *)
  cross_ratio : float;
      (** fraction of {!Part_local} transactions that span two partitions
          (ignored by the other workloads; default 0) *)
  clients_per_replica : int option;
      (** closed-loop client population per replica; [None] (default)
          keeps each workload profile's own default *)
  part_exec_cpu : Sim.Time.t option;
      (** {!Part_local} only: per-transaction replica execution CPU;
          [None] (default) keeps the profile's PostgreSQL-calibrated
          1.65 ms. The partition-scaling benchmark lowers it so replica
          execution (which partitioning does {e not} shard) stays off the
          critical path. *)
  workload : workload_kind;
  deltas : bool;
      (** ship commutative {!Mvcc.Writeset.Add} ops where the workload
          supports them (Hotkey's hot-row bump, TPC-B's balance updates);
          off = the blind read-modify-write baseline *)
  hot_skew : float;  (** Zipf θ for the {!Hotkey} workload (default 0.99) *)
  warmup : Sim.Time.t;
  measure : Sim.Time.t;
  trace : bool;
      (** record per-transaction lifecycle spans during the measured window
          (warmup spans are cleared by the post-warmup reset); populates
          [stage_latency] in the result. Off by default — the ring buffer
          bounds memory, but span recording still costs a little time. *)
  monitors : bool;
      (** attach the five online protocol monitors ({!Obs.Monitor}) for the
          whole run (warmup included); populates [monitor_violations].
          Off by default so performance baselines stay cost-free; the
          monitor-overhead benchmark flips exactly this knob. Ignored by
          [Standalone]. *)
}

val default : config

type result = {
  throughput : float;  (** requests (committed + aborted) per second *)
  goodput : float;  (** committed requests per second *)
  resp_ms : float;  (** mean response time of committed update txs *)
  p99_ms : float;  (** 99th-percentile response time of committed update txs *)
  ro_resp_ms : float;  (** mean response time of read-only txs *)
  commits : int;
  aborts : int;
  abort_rate_measured : float;
  cross_commits : int;
      (** multi-partition transactions committed atomically across
          certifier groups (0 when [n_partitions = 1]) *)
  cross_aborts : int;
  cert_ws_per_fsync : float;
      (** writesets grouped per certifier-log fsync, over every group's
          leader (weighted by fsyncs) *)
  cert_accept_broadcasts : int;
      (** multi-entry Accept broadcasts sent by the group leaders *)
  cert_mean_accept_batch : float;
      (** mean entries per Accept broadcast (> 1 under load), weighted by
          each leader's broadcasts *)
  db_ws_per_fsync : float;  (** commit records grouped per database-log fsync,
                                averaged over replicas *)
  artificial_conflict_pct : float;
      (** fraction of shipped remote writesets flagged as artificially
          conflicting by any group's leader (§5.2.1 / §9.3) *)
  cert_cpu_util : float;
      (** averaged over every certifier group's leader — with partitioned
          certification this reads as per-group load *)
  cert_disk_util : float;
  replica_cpu_util : float;
  replica_disk_util : float;
  apply_parallelism : float;
      (** mean over replicas of the parallel applier's time-weighted exec
          concurrency ({!Tashkent.Proxy.apply_parallelism}); 1.0 when
          [apply_workers = 1] *)
  apply_stalls : int;
      (** total applier items (all replicas) that waited for a conflicting
          predecessor; 0 when [apply_workers = 1] *)
  stage_latency : (string * Obs.Trace.stage_stats) list;
      (** per-stage latency aggregates over the measured window (durations
          in µs of sim time), sorted by stage name; empty unless
          [config.trace] was set (and always empty for [Standalone]) *)
  monitor_violations : string list;
      (** online monitor findings over the whole run; empty on a clean run
          or with [monitors] off *)
  monitor_events : int;  (** protocol events the monitors consumed *)
}

val scenario : config -> Scenario.config
(** The scenario a replicated run starts, with the derived settings
    described at [config.cluster].
    @raise Invalid_argument for [Standalone]. *)

val measure : config -> Scenario.t -> result
(** Warm a started scenario up for [warmup], reset every stat window,
    measure for [measure], and read the results. *)

val run : config -> result
(** Blocking (runs the whole simulation): builds the system, warms it up
    for [warmup], resets every stat window, measures for [measure], and
    reads the results. Counters in the result are for the measured window
    only; utilizations are cumulative busy-time fractions. *)

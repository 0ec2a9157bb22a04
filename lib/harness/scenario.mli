(** One simulated run, declared once and built the same way by every
    harness and CLI command: the cluster to build, the workload its
    closed-loop clients run, and the observers watching it. *)

type config = {
  cluster : Tashkent.Cluster.config;
  spec : Workload.Spec.t;  (** the clients' workload (and initial rows) *)
  trace : bool;  (** record per-transaction lifecycle spans *)
  monitors : bool;
      (** feed the five online protocol monitors ({!Obs.Monitor}); off
          leaves the event stream disabled, so the monitor sees nothing *)
  progress_bound : Sim.Time.t option;
      (** progress-monitor deadline; [None] keeps {!Obs.Monitor.attach}'s
          default *)
}

val config :
  ?trace:bool ->
  ?monitors:bool ->
  ?progress_bound:Sim.Time.t ->
  Tashkent.Cluster.config ->
  Workload.Spec.t ->
  config
(** A scenario record; the observers default to off. *)

type t = {
  engine : Sim.Engine.t;
  cluster : Tashkent.Cluster.t;
  trace : Obs.Trace.t;  (** disabled unless [config.trace] *)
  monitor : Obs.Monitor.t;
  collector : Workload.Driver.Collector.t;
      (** the clients' collector, created disabled *)
}

val start : config -> t
(** Create the engine, then the trace, the event stream, the cluster and
    the monitor; load the spec's initial rows, {!Tashkent.Cluster.settle},
    and spawn [spec.clients_per_replica] clients per replica from the
    stream [Rng.create (seed + 1)], each through its replica's
    {!Tashkent.Session}. The order is fixed, so a seed replays
    bit-identically. *)

val storage_profile :
  Workload.Spec.t -> Tashkent.Replica.config -> Tashkent.Replica.config
(** The workload's page-cache and database-size model applied to a
    replica config. *)

val run_for : t -> Sim.Time.t -> unit
(** Advance the simulation by a span. *)

val proxies : ?up:bool -> ?part:int -> t -> Tashkent.Proxy.t list
(** Every hosted proxy, replica by replica in partition order; [~up:true]
    skips crashed replicas, [~part] keeps one partition. *)

val dbs : ?up:bool -> ?part:int -> t -> Mvcc.Db.t list
(** Every hosted database, in the order of {!proxies}. *)

val sum : ('a -> int) -> 'a list -> int

val invariant_violations : t -> string list
(** The log invariants, replica consistency and cross-partition
    atomicity ({!Tashkent.Cluster.check_log_invariants},
    [check_consistency], [check_cross_atomicity], in that order), each
    failure prefixed with its check's name; empty when all hold. *)

val wait_for : t -> step:Sim.Time.t -> limit:int -> (unit -> bool) -> unit
(** Run in [step] increments, at most [limit] of them, until [ready ()]
    holds. *)

val drain : t -> Fault.t -> limit:int -> unit
(** [wait_for] in 1 s steps until the injector is quiescent. *)

val monitor_violations : t -> string list
(** Finalize the monitor at the current time and format its findings with
    their sim timestamps. *)

(** Closed-loop clients executing a {!Spec} against either a replicated
    proxy or a standalone database, with warmup-aware measurement. *)

module Collector : sig
  type t

  val create : unit -> t

  val enable : t -> unit
  (** Start counting (call after warm-up). *)

  val disable : t -> unit
  val reset : t -> unit

  val record_commit : t -> Spec.kind -> Sim.Time.t -> unit
  (** Record a committed transaction and its response time (no-op while
      disabled). Exposed for custom drivers. *)

  val record_abort : t -> unit
  val committed : t -> int
  val update_committed : t -> int
  val aborted : t -> int

  val mean_response_ms : t -> float
  (** Mean response time of committed {e update} transactions. *)

  val mean_ro_response_ms : t -> float
  val p95_response_ms : t -> float
  val p99_response_ms : t -> float

  val goodput : t -> window:Sim.Time.t -> float
  (** Committed transactions per second over a window. *)

  val throughput_all : t -> window:Sim.Time.t -> float
  (** All finished transactions (committed + certifier-aborted) per second
      — the paper's req/sec axis counts requests served. *)
end

(** Where a replica's clients send their transactions: its first
    partition's proxy, or its {!Tashkent.Session} router, through which a
    transaction may touch any hosted partition and commits atomically
    across certifier groups when its writes span more than one. Use
    [Session] (with a partition-aware spec such as {!Partlocal.profile})
    whenever the cluster runs with [n_partitions > 1]. *)
val spawn_replica_clients :
  Sim.Engine.t ->
  replica:Tashkent.Replica.t ->
  spec:Spec.t ->
  rng:Sim.Rng.t ->
  collector:Collector.t ->
  replica_ix:int ->
  n_replicas:int ->
  unit
(** Spawn [spec.clients_per_replica] client fibers against the replica's
    {!Tashkent.Session}; each runs until cancelled. Fibers are registered
    with the replica (killed by a crash) and respawned after recovery. *)

val spawn_standalone_clients :
  Sim.Engine.t ->
  db:Mvcc.Db.t ->
  cpu:Sim.Resource.t ->
  spec:Spec.t ->
  rng:Sim.Rng.t ->
  collector:Collector.t ->
  unit
(** The centralised-database control: same client loop, straight to
    {!Mvcc.Db.commit_standalone}, no middleware. *)

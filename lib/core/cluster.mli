(** Whole-system wiring: certifier groups and a set of database replicas
    on one simulated LAN — the architecture of Figure 2, generalised to
    partitioned certification (DESIGN.md §15).

    The keyspace is split into [n_partitions] static partitions (see
    {!Partitioner}); each partition gets its own certifier group — its own
    Paxos ring, WAL, certification log and GC watermark, in its own
    version space. Replicas host either every partition ([Host_all]) or
    one partition each ([Host_modulo]: partial replication — a replica
    loads, applies and refreshes only its subscription). With
    [n_partitions = 1] (the default) everything reduces to the legacy
    single-group cluster: same names, same RNG stream, same histories. *)

(** Which partitions each replica subscribes to: [Host_all] — every
    replica hosts every partition (cross-partition transactions possible
    on any replica); [Host_modulo] — replica [i] hosts only partition
    [i mod n_partitions] (pure partial replication; every transaction is
    partition-local by construction). *)
type hosting = Host_all | Host_modulo

type config = {
  mode : Types.mode;
  n_replicas : int;
  n_certifiers : int;  (** per group *)
  n_partitions : int;
  hosting : hosting;
  certifier : Certifier.config;
  replica : Replica.config;
  seed : int;
}

val default_config : Types.mode -> config

val config :
  ?n_replicas:int ->
  ?n_certifiers:int ->
  ?n_partitions:int ->
  ?hosting:hosting ->
  ?apply_workers:int ->
  ?gc_interval:Sim.Time.t option ->
  ?max_snapshot_age:Sim.Time.t option ->
  ?certifier:Certifier.config ->
  ?replica:Replica.config ->
  ?seed:int ->
  Types.mode ->
  config
(** Smart constructor over {!default_config}: each optional argument
    overrides the corresponding field. [apply_workers], [gc_interval] and
    [max_snapshot_age] are applied to the replica config {e after}
    [replica], so [config ~replica ~apply_workers:4 mode] parallelises a
    custom replica setup; pass [~gc_interval:None] to disable vacuuming
    entirely (the unbounded-growth baseline). *)

type t

val create :
  ?engine:Sim.Engine.t ->
  ?metrics:Obs.Registry.t ->
  ?trace:Obs.Trace.t ->
  ?events:Obs.Events.t ->
  config ->
  t
(** Builds an {!Env.t} (network included) and the certifier groups and
    replicas inside it. Every component registers its metrics in [metrics]
    (a fresh registry when omitted) and records lifecycle spans into
    [trace] (disabled when omitted); the resulting metric namespace is
    [proxy.*], [cert_client.*], [replica.*], [certifier.*] and [net.*].
    Certifiers are [cert<i>] in a 1-partition cluster and [p<g>.cert<i>]
    otherwise; a multi-partition replica's endpoints are [replica<i>#p<g>].

    The configuration is validated first; impossible settings
    ([n_replicas < 1], an even or non-positive [n_certifiers],
    [n_partitions < 1], [Host_modulo] with fewer replicas than partitions,
    [replica.apply_workers < 1], negative
    CPU/staleness/deadline/GC-interval/snapshot-age/watermark-TTL times)
    raise one [Invalid_argument] naming every problem. *)

val env : t -> Env.t
(** The environment the components were built in. *)

val engine : t -> Sim.Engine.t
val network : t -> Types.message Net.Network.t

val configuration : t -> config
(** The (validated) configuration the cluster was built from. *)

val metrics : t -> Obs.Registry.t
(** The shared registry all components registered into. *)

val trace : t -> Obs.Trace.t
val events : t -> Obs.Events.t
(** The shared tracer ([Obs.Trace.disabled] unless one was passed in). *)

val replicas : t -> Replica.t list
val replica : t -> int -> Replica.t

val partitioner : t -> Partitioner.t
(** The cluster's key → partition map (shared with every replica session;
    workloads use it to build partition-local key pools). *)

val certifiers : t -> Certifier.t list
(** Every certifier, group by group in partition order (the construction
    order — identical to the legacy flat list when [n_partitions = 1]). *)

val certifier_groups : t -> (int * Certifier.t list) list
(** Partition → its certifier group, ascending. *)

val group : t -> part:int -> Certifier.t list
(** @raise Invalid_argument on an unknown partition. *)

val certifier_ids : t -> string list

val leader : t -> Certifier.t option
(** The certifier currently claiming leadership of {e group 0} — the
    cluster's only group when [n_partitions = 1] (the historical
    contract). *)

val group_leader : t -> part:int -> Certifier.t option
val leaders : t -> Certifier.t list
(** The current leaders, one per group that has one. *)

val settle : t -> unit
(** Run the engine until {e every} certifier group has a leader (bounded
    wait); call once after {!create} before submitting work. *)

val load_all : t -> (Mvcc.Key.t * Mvcc.Value.t) list -> unit
(** Install the initial rows (version 0) on every replica; each replica
    keeps only the partitions it hosts. Every certifier gets a lookup of the
    same rows, which its log folds its truncated base state onto
    ({!Cert_log.create}). *)

val check_consistency : t -> (unit, string) result
(** Safety invariant (§7), per partition: every up replica hosting the
    partition has database state equal to that group's certifier log
    applied up to the replica's version — i.e. each hosted partition is a
    consistent prefix of that partition's history. Truncation-aware: the
    reference state is rebuilt from the log's folded base wedge at the GC
    floor plus the live entries; a replica still below the floor (about to
    heal via snapshot transfer) is skipped. *)

val check_log_invariants : t -> (unit, string) result
(** Structural invariants on each group's certification log, checked
    against that group's current leader: contiguous versions from the
    truncation floor, at-most-once certification per (origin, req_id) —
    cross-partition fragments included — every commit acknowledged by an
    up replica backed by a log entry of that origin (live or in the
    truncation ledger), and prefix agreement between every up member's log
    and its leader's. The chaos harness asserts this after each heal;
    requires proxy stats untouched by {!reset_stats} since the run
    began. *)

val check_cross_atomicity : ?settle:Sim.Time.t -> t -> (unit, string) result
(** Cross-partition atomicity: for every fragment committed with an
    {!Types.xatom} witness, every sibling group (that still has an up
    member to ask) must report the transaction committed in its own
    never-pruned outcome table — none may report it aborted or unknown.
    Because each group delivers its own decision independently (its
    fragment's witness-stamped entry, or an abort record), a scan under
    live traffic can catch an exchange mid-flight; a non-empty
    scan runs the simulation for [settle] (default 1 s) and reports only
    the problems that survive it. Trivially [Ok] (and side-effect-free)
    when [n_partitions = 1]. *)

val total_commits : t -> int
(** Summed proxy commit counts over every hosted partition. Under
    partitioned certification a cross-partition transaction contributes
    once {e per fragment}; per-transaction counts live in
    {!Session.stats}. *)

val reset_stats : t -> unit
(** Start a fresh measurement window for the whole cluster: one
    [Obs.Registry.reset] (zeroing every registered counter and running each
    component's re-baselining hook) plus an [Obs.Trace.reset] (emptying the
    span ring). Used between warmup and the measured phase. *)

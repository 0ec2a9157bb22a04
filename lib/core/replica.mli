(** One database replica: CPU, disks, and — per hosted keyspace partition
    — an {!Mvcc.Db} engine with its {!Proxy}, wired for the chosen system
    ({!Types.mode}) and IO layout, plus the crash/recovery procedures of
    §7.1–7.2 and §8.1.

    Under partitioned certification a replica may host several partitions
    (each with a private version space, database and proxy, sharing the
    machine's CPU and devices) or only a subset of them (partial
    replication: it loads, applies and refreshes nothing outside its
    subscriptions). A {!Session} fronts the partitions for clients. A
    1-partition replica is structurally the legacy replica: one database,
    one proxy named [<name>], same RNG stream, same metric names. *)

(** Where the database log lives relative to the data pages (§9.2):
    [Shared_io] puts WAL fsyncs, page reads and page write-backs on one
    device (the paper's single-disk servers); [Dedicated_io] gives the log
    its own device and serves data from RAM (the paper's ramdisk runs). *)
type io_layout = Shared_io | Dedicated_io

(** How a Tashkent-MW replica arranges recovery (§7.1). *)
type mw_recovery =
  | Dump_based of { interval : Sim.Time.t }
      (** case 1: all WAL sync writes disabled; periodic full dumps *)
  | Integrity_kept of { wal_sync_interval : Sim.Time.t }
      (** case 2: WAL synced in the background but not on commits *)

type config = {
  mode : Types.mode;
  io : io_layout;
  mw_recovery : mw_recovery;
  eager_precert : bool;
      (** give remote writesets priority over local lock holders (§8.2);
          when false, deadlocks are resolved by proxy soft recovery *)
  exec_cpu : Sim.Time.t;  (** CPU to execute one transaction (charged by
                              {!use_cpu} from the workload driver) *)
  apply_cpu_per_ws : Sim.Time.t;
  page_read_miss : float;
  page_writeback_per_op : float;
  bg_page_writes_per_sec : float;
  staleness_bound : Sim.Time.t option;
  group_remote_batches : bool;  (** §3's grouping optimisation (ablation knob) *)
  apply_workers : int;
      (** parallel applier fibers for certified commits (default 1; see
          {!Proxy.config.apply_workers}) *)
  db_size_bytes : int;
      (** logical database size, for dump/restore time (dumps stream at
          3 MB/s and restores at 5 MB/s, the paper's §9.6 rates) *)
  gc_interval : Sim.Time.t option;
      (** database vacuum period (default 30 s): prune row versions below
          both the local oldest active snapshot and the cluster GC floor
          gossiped by the certifier; [None] disables vacuuming (versions
          grow without bound — the pre-watermark behaviour) *)
  max_snapshot_age : Sim.Time.t option;
      (** escape hatch: doom a local transaction still Active after this
          long so a stalled snapshot cannot pin garbage collection forever
          (default [None]; see {!Mvcc.Db.config.max_snapshot_age}) *)
}

val default_config : Types.mode -> config

type t

val create :
  Env.t ->
  name:string ->
  n_partitions:int ->
  groups:(int * string list * int) list ->
  config:config ->
  unit ->
  t
(** Build a replica inside [env]: its private random stream is derived with
    {!Env.split_rng} (so construction order fixes the run), its proxies
    join [env]'s network, and its metrics/trace handles come from [env].

    [n_partitions] is the cluster-wide partition count (it parameterises
    the key {!Partitioner}); [groups] lists the partitions this replica
    hosts as [(partition, certifier group member ids, req_id_base)] —
    req_id bases must be globally unique per (replica, partition). A
    legacy single-group replica is [~n_partitions:1 ~groups:[(0, certs,
    base)]]. Hosted-partition endpoints are named [<name>] when
    [n_partitions = 1] and [<name>#p<k>] otherwise.

    The replica registers [replica.<name>.*] gauges over its log disk and
    CPU, per-partition [replica.<endpoint>.*] gauges over each database,
    and an [on_reset] hook that restarts the database and disk stat
    windows (so one [Obs.Registry.reset] re-windows the whole replica). *)

val name : t -> string

val proxy : t -> Proxy.t
(** The lowest hosted partition's proxy — {e the} proxy of a 1-partition
    replica (every legacy harness path). *)

val db : t -> Mvcc.Db.t
(** The lowest hosted partition's database. *)

val session : t -> Session.t
(** The partition router fronting this replica's proxies. *)

val partitions : t -> int list
(** Hosted partitions, ascending. *)

val hosts : t -> part:int -> bool
val proxy_of : t -> part:int -> Proxy.t option
val db_of : t -> part:int -> Mvcc.Db.t option
val cpu : t -> Sim.Resource.t
val log_disk : t -> Storage.Disk.t
val data_disk : t -> Storage.Disk.t
val is_up : t -> bool
val config : t -> config

val load : t -> (Mvcc.Key.t * Mvcc.Value.t) list -> unit
(** Install initial rows (version 0). Each hosted partition takes only its
    own slice of [rows] (per the {!Partitioner}); rows of partitions this
    replica does not subscribe to are dropped — partial replication. *)

val use_cpu : t -> Sim.Time.t -> unit
(** Charge transaction-execution CPU (blocking fiber op). *)

(** {1 Clients} *)

val register_client : t -> Sim.Engine.fiber -> unit
(** Client fibers registered here are cancelled when the replica crashes. *)

val set_respawn_clients : t -> (unit -> unit) -> unit
(** Called after a successful recovery so the workload can restart its
    clients. *)

(** {1 Crash and recovery} *)

type recovery_report = {
  took : Sim.Time.t;  (** total downtime-to-resume duration *)
  restore_took : Sim.Time.t;  (** local redo / dump-restore phase *)
  replay_took : Sim.Time.t;  (** fetch-and-apply phase *)
  restored_version : int;  (** version recovered from local durable state *)
  writesets_replayed : int;  (** remote writesets fetched from the certifier *)
  final_version : int;
}

val crash : t -> unit

val recover : t -> recovery_report
(** Blocking fiber op. Base/Tashkent-API: database-internal redo (§7.2).
    Tashkent-MW case 1: restore from the newest intact dump; case 2:
    database redo of the synced WAL prefix. All modes then fetch and apply
    the missing remote writesets from the certifier. *)

val dumps_taken : t -> int

(** A snapshot-isolation database replica engine.

    Stands in for the paper's PostgreSQL 8.0.3: multi-version rows, eager
    row write locks with first-updater-wins and deadlock detection, writeset
    extraction, a WAL whose commit records are group-committed to a log
    disk, and the Tashkent-API extension — commit records may be flushed in
    any grouped order while transactions are {e announced} strictly by a
    supplied sequence number ([COMMIT n], paper §8.3).

    Blocking operations (lock waits, WAL flushes, page-in reads) must run in
    a fiber. All state transitions are otherwise synchronous and
    deterministic. *)

type t

type txid = int

(** How the WAL treats synchronous writes (paper §7.1). *)
type durability =
  | Synchronous  (** fsync on every commit — standalone, Base, Tashkent-API *)
  | Asynchronous
      (** all WAL synchronous writes disabled — Tashkent-MW "case 1":
          neither durability nor physical integrity survives a crash *)
  | Periodic of Sim.Time.t
      (** background syncs only — Tashkent-MW "case 2": integrity kept,
          recent commits lost *)

type config = {
  durability : durability;
  page_read_miss : float;
      (** Probability that a logical row read must fetch a page from the
          data disk (0 for a database that fits in RAM). *)
  page_writeback_per_op : float;
      (** Expected dirty-page writebacks per modified row, performed by a
          background writer on the data disk. Use for workloads whose
          dirty pages coalesce poorly (large key spaces). *)
  background_page_writes_per_sec : float;
      (** Constant-rate background page flushing — the right model when a
          small hot page set absorbs all writes. Active once the database
          has committed something. *)
  remote_priority : bool;
      (** If true, writes made through {!apply_certified} preempt
          conflicting local lock holders (the "priority tagging" some
          databases offer, §8.2); if false, conflicts queue and can
          deadlock, to be resolved by the middleware's soft recovery. *)
  gc_interval : Sim.Time.t option;
      (** Periodic vacuum of row versions older than the oldest active
          snapshot (PostgreSQL's "garbage collection to delete old
          snapshots", §8.1), additionally capped by the cluster GC floor
          once one has been gossiped (see {!set_cluster_gc_floor}). *)
  max_snapshot_age : Sim.Time.t option;
      (** Escape hatch for the GC watermark: a {e local} transaction still
          Active after this long is doomed by the vacuum pass (counted in
          {!stale_snapshots_expired}), so one stalled or leaked snapshot
          cannot pin garbage collection — or the cluster floor — forever.
          [None] disables expiry. *)
}

val default_config : config

val create :
  Sim.Engine.t ->
  rng:Sim.Rng.t ->
  log_disk:Storage.Disk.t ->
  ?data_disk:Storage.Disk.t ->
  ?config:config ->
  ?name:string ->
  unit ->
  t

val name : t -> string
val config : t -> config
val engine : t -> Sim.Engine.t

val current_version : t -> int
(** Version of the newest announced snapshot. *)

val load : t -> (Key.t * Value.t) list -> unit
(** Populate initial data as part of version 0 (identical on every
    replica; no logging). *)

(** {1 Transactions} *)

type tx

type abort_reason =
  | Ww_conflict of Key.t
      (** first-updater-wins: a concurrent transaction committed a write
          to this key *)
  | Deadlock of txid list  (** the wait would close this cycle *)
  | Preempted  (** force-aborted (priority writeset or soft recovery) *)

val pp_abort_reason : Format.formatter -> abort_reason -> unit

val begin_tx : t -> tx
val tx_id : tx -> txid
val snapshot_version : tx -> int

val read : tx -> Key.t -> Value.t option
(** Snapshot read (sees the transaction's own writes). May block on a
    page-in. *)

val write : tx -> Key.t -> Writeset.op -> (unit, abort_reason) result
(** Buffer a write, taking the row lock eagerly. May block behind the
    current holder. On [Error] the transaction has been aborted and its
    locks released. *)

val writeset : tx -> Writeset.t
(** The extracted writeset so far (the paper's trigger mechanism). *)

val abort : tx -> unit
(** Roll back; idempotent, also safe on doomed transactions. *)

val commit_readonly : tx -> unit
(** Finish a transaction that wrote nothing: no version is created, no log
    record written, nothing counted. @raise Invalid_argument if the
    transaction has a non-empty writeset. *)

val is_doomed : tx -> abort_reason option
(** A transaction force-aborted while its owner fiber was elsewhere learns
    about it here (or via the [Error] of its next operation). *)

(** {1 Committing}

    Every commit ends in one finish. Its redo records are appended (and
    grouped with every concurrent committer's fsync) at once; each
    writeset's rows land at their own version; and the visible version
    advances only through the contiguous prefix of finished announce orders
    ({!Commit_order.complete}), so snapshot reads always see a gap-free
    prefix of the global history. An {e in-order} finish additionally waits
    for its order's turn before installing — Tashkent-API's [COMMIT n] —
    while the publish barrier alone lets parallel workers install out of
    order. Each redo record names its chain predecessor (the version applied
    just before it), which recovery verifies. *)

val commit_standalone : tx -> (int, abort_reason) result
(** Centralised-database commit: assigns the next version itself, makes
    the commit durable per the configured {!durability}, announces, and
    returns the new version. *)

val next_order : t -> int
(** Allocate the next announce sequence number ([COMMIT n]'s [n]). The
    caller must eventually finish every allocated number, in any submission
    order — gaps block later announcements (the abuse deadlock of §5.2). *)

val commit_certified :
  tx -> version:int -> prev:int -> order:int -> in_order:bool ->
  (unit, abort_reason) result
(** Commit a local transaction the certifier committed at the global
    [version]; [prev] is its chain predecessor and [order] its announce
    sequence number (from {!next_order}). On a doomed transaction the
    transaction is rolled back and [order] is {e not} consumed: the caller
    re-installs the buffered writeset under the same order with
    {!apply_certified}. *)

val apply_certified :
  t -> batch:(int * Writeset.t) list -> prev:int -> order:int -> in_order:bool ->
  (unit, abort_reason) result
(** Apply a run of certified writesets — [(version, writeset)] pairs, the
    first chained after [prev] — as one local transaction ([C4] of the
    proxy pseudo-code): locks are taken once over the union, the redo
    records share one sync, but each writeset's rows are installed at its
    own certified version. Keeping the versions faithful is what makes a
    later duplicate delivery of any batched writeset (e.g. a delayed commit
    reply backfilling after a certifier failover) land idempotently instead
    of double-applying — which blind images shrug off but commutative deltas
    would double count. Takes locks like any writer; with [remote_priority]
    it preempts conflicting holders, otherwise a detected deadlock aborts
    the application (no effects) and the caller must resolve the cycle and
    retry with the {e same} [order], which is not consumed on failure.
    @raise Invalid_argument on an empty batch. *)

val doom : t -> txid -> unit
(** Force-abort an active transaction (soft recovery / eager
    pre-certification). Its locks are released immediately; its owner
    learns via [Error Preempted] / {!is_doomed}. Unknown ids are
    ignored. *)

val active_txids : t -> txid list

(** {1 Snapshot reads for the store} *)

val read_committed : t -> ?at:int -> Key.t -> Value.t option
val store : t -> Store.t

(** {1 Crash and recovery} *)

val crash : t -> unit
(** Power-cut: volatile state (un-synced WAL tail, memory store, active
    transactions, allocated orders) is lost. *)

val recover : t -> int
(** Standard recovery (paper §7.2), after a {!crash}: rebuild the store
    by redoing the durable WAL, in version order, stopping at the first
    record whose chain predecessor is missing — concurrent commits log
    records out of version order, so a lost middle record truncates
    everything above it and recovery always yields a consistent prefix.
    Returns the recovered version. With [Asynchronous] durability this recovers an {e empty}
    database — that is why Tashkent-MW needs dumps (§7.1). *)

val restore_from_dump : t -> version:int -> Store.t -> unit
(** Tashkent-MW recovery, after a {!crash}: replace the store with a dump
    copy taken at [version]; the middleware then replays newer remote
    writesets. *)

val dump : t -> int * Store.t
(** [(version, copy)] of the latest announced snapshot ("DUMP DATA"). The
    time/IO cost of dumping is charged by the caller. *)

(** {1 Garbage collection (the cluster GC watermark)} *)

val oldest_active_snapshot : t -> int
(** Oldest snapshot version any live (non-doomed) transaction still reads;
    the current version when none is active. This is the replica's
    watermark report, piggybacked on certification and fetch requests. *)

val set_cluster_gc_floor : t -> int -> unit
(** Record the cluster-wide GC floor gossiped by the certifier. Monotone —
    a floor below the recorded one is ignored. The vacuum pass never prunes
    versions above [min floor local_oldest]; until the first call the
    database vacuums on local information alone (standalone behaviour). *)

val cluster_gc_floor : t -> int
(** The recorded floor (0 until {!set_cluster_gc_floor} is first called). *)

val vacuum : t -> int
(** One vacuum pass now — what the [gc_interval] fiber runs — returning the
    floor it pruned to: [min] of the cluster floor and
    {!oldest_active_snapshot}, after dooming over-age snapshots. The result
    equals {!Store.gc} at that floor, but the pass visits only the rows
    written by the redo records after its cursor, so it costs the records
    logged since the floor last passed them, not the size of the store. The
    cursor stops before the first record above the floor and before the
    first record of a commit that is logged but not yet installed. Crash,
    {!recover} and a floor below the last pass's restart it at the log's
    first record; after {!restore_from_dump} it starts at the log's end but
    stays there until the floor reaches the dump's newest row (DESIGN.md
    §14). *)

val stale_snapshots_expired : t -> int
(** Transactions doomed by the [max_snapshot_age] escape hatch. *)

(** {1 Statistics} *)

val commits : t -> int
val aborts : t -> int
val deadlocks_detected : t -> int

val backfills : t -> int
(** Commits installed at or below the store's current version: the reply
    overtook the remote-writeset stream after a certifier failover; see
    {!Store.install_at}. *)

val wal : t -> (int * int * Writeset.t) Storage.Wal.t
(** Exposed for fsync/group statistics. The record is
    [(version, prev, writeset)] where [prev] is the version this replica
    applied immediately before [version] — the chain recovery verifies. *)

val reset_stats : t -> unit

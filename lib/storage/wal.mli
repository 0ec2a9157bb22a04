(** Write-ahead log with group commit and checksummed records.

    Carries typed records so that recovery can actually redo them. Appends
    are in-memory; durability happens on [sync]/[append_and_sync], where the
    single-writer discipline batches every record appended since the last
    flush into one device [fsync] — the group-commit optimisation whose loss
    is the subject of the paper.

    Each record is framed with a length and a checksum, as a real log would
    be. Two storage faults are modelled on top of the clean {!crash}:
    - a {e torn tail} ({!crash}[ ~torn:true]): the first un-synced record
      was mid-write at power-off and survives as a partial slot;
    - {e tail corruption} ({!corrupt_tail}): the newest durable record's
      payload no longer matches its checksum.

    {!recover} is the checksum scan: it verifies the log front to back,
    truncates at the first torn or corrupt record, and reports what was
    discarded. {!records_from} also refuses to read past an unreadable
    record, so a torn record can never be replayed even if a caller skips
    the scan. After a torn crash the log must go through {!recover} before
    new appends.

    With [synchronous = false] the log never touches the device (PostgreSQL
    with WAL synchronous writes disabled, paper §7.1 case 1): commits are
    fast but the un-synced tail — which is everything — is lost on {!crash}. *)

type 'r t

type scan = {
  verified : int;  (** records in the intact prefix that recovery replays *)
  torn : int;  (** partially-written records discarded by the scan *)
  corrupt : int;  (** checksum-mismatch (or unreachable) records discarded *)
}

val create :
  Sim.Engine.t -> disk:Disk.t -> ?synchronous:bool -> ?name:string -> unit -> 'r t

val name : 'r t -> string
val synchronous : 'r t -> bool

(** {1 Appending} *)

val append : 'r t -> bytes:int -> 'r -> int
(** Buffer a record, returning its LSN (1-based, dense). Non-blocking. *)

val append_and_sync : 'r t -> bytes:int -> 'r -> int
(** Append, then block until the record is durable (or return immediately
    in asynchronous mode). Concurrent callers share fsyncs. *)

val append_batch : 'r t -> bytes_of:('r -> int) -> 'r list -> int
(** Buffer a producer-side batch of records in order, returning the last
    LSN. Equivalent to [append] per record, but additionally counted as
    one batch by {!batch_appends}, so grouping decided by the producer (a
    multi-entry Paxos Accept) is visible separately from the fsync-side
    grouping of {!mean_group_size}. Non-blocking. *)

val sync : 'r t -> unit
(** Block until everything appended so far is durable. No-op in
    asynchronous mode or when already durable. *)

val flushing_since : 'r t -> Sim.Time.t option
(** When an fsync is currently in flight, the sim time it started — the
    hook a disk watchdog uses to detect a stalled flush. [None] when the
    device is idle. *)

(** {1 State} *)

val last_lsn : 'r t -> int
val durable_lsn : 'r t -> int

val records_from : 'r t -> int -> 'r list
(** [records_from t lsn] returns the durable records with LSN > [lsn] in
    append order — the redo stream. Stops at the first torn or corrupt
    record: an unreadable record (and everything behind it) is never
    replayed. *)

val appended : 'r t -> int -> 'r
(** [appended t lsn] is the payload of appended record [lsn]
    ([1 <= lsn <= last_lsn t]), durable or not — the log owner's own read
    of what it wrote, where {!records_from} is the redo stream and stops
    at {!durable_lsn} (an asynchronous log has no durable record). The
    replica vacuum walks its redo log with it. Allocates nothing.
    @raise Invalid_argument outside that range. *)

(** {1 Crash and recovery} *)

val crash : ?torn:bool -> ?torn_bytes:int -> 'r t -> int
(** Lose the un-synced tail, returning how many records were dropped. The
    durable prefix survives and remains readable. With [~torn:true] the
    first un-synced record additionally survives as a partially-written
    slot ([torn_bytes] of it on disk, default half) past the durable
    prefix; the log must then be passed through {!recover} before reuse.
    Any in-flight fsync is invalidated: its batch is no longer marked
    durable (the tail it covered is gone). *)

val corrupt_tail : 'r t -> bool
(** Corrupt the newest durable record so its checksum no longer verifies.
    Corrupting it again leaves it corrupt. Returns [false] when the log has
    no durable record to corrupt. *)

val recover : 'r t -> 'r list * scan
(** Checksum scan: verify records front to back, truncate the log at the
    first torn/corrupt record, and return the surviving payloads in append
    order together with a report of what was discarded. Resets volatile
    flush state; the discard totals are also accumulated into
    {!torn_discarded}/{!corrupt_discarded}. *)

val torn_discarded : 'r t -> int
(** Cumulative torn records discarded across all {!recover} scans. Not
    cleared by {!reset_stats}. *)

val corrupt_discarded : 'r t -> int
(** Cumulative corrupt records discarded across all {!recover} scans. Not
    cleared by {!reset_stats}. *)

(** {1 Statistics} *)

val sync_count : 'r t -> int
val records_synced : 'r t -> int

val mean_group_size : 'r t -> float
(** Mean number of records made durable per fsync — the paper's
    "writesets per fsync" metric (§9.2 reports ~29 for Tashkent-MW). *)

val batch_appends : 'r t -> int
(** Number of {!append_batch} calls with at least one record. *)

val reset_stats : 'r t -> unit

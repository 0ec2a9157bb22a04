(** The certifier: certification service + ordered durable log (§6.1, §7.3).

    A group of certifier nodes replicates the log of certified writesets
    with {!Paxos}. The elected leader serves certification requests — one
    {!Types.cert_request} type, naming one transaction and carrying its
    fragments. A one-fragment request is certified in the leader's
    batched rounds, where its log position is both vote and decision:

    + intersect the incoming writeset against every writeset committed
      after the transaction's start version (fast, via {!Cert_log});
    + on success assign the next global version and replicate the log
      entry — every certifier appends it to its disk-backed WAL (batched
      into few fsyncs by {!Storage.Wal}), and a majority of acks commits it;
    + reply with the decision, the commit version, and the remote writesets
      the replica has not seen, each carrying the §5.2.1
      artificial-conflict annotation (computed by back-certification).

    Under partitioned certification each group owns one keyspace
    partition and the ring replicates {!Types.record}s, not bare entries.
    A request with several fragments is a cross-partition transaction; it
    runs a coordinator-less two-round commit among the involved groups:

    + {e prepare}: each group's leader replicates a [Prepared] record
      carrying ALL the transaction's fragments. The group's {e vote} is
      computed at delivery — a pure function of the delivered log, floor
      and pin table, hence identical on every member and re-derivable
      after any crash or failover (the vote is durable because it is
      deterministic, not because it is written down);
    + {e vote exchange}: at delivery the leader gossips its vote to the
      sibling groups' members; a yes-vote pins the fragment's keys
      (first-prepared-wins) until the decision;
    + {e decide}: once a leader holds all votes (all-yes) or any no-vote,
      it replicates the decision in its own ring: a commit is the local
      fragment as a [Committed] entry stamped with the {!Types.xatom}
      witness, an abort a [Decision] record. Every involved leader decides
      independently and identically, so no coordinator death can block
      the transaction; a periodic sweep re-gossips votes (with
      fragments) for anything left hanging.

    The leader's certify fiber is the group's only proposer: each of its
    rounds sends one Paxos proposal, under one WAL sync, holding the
    round's certified entries, its [Prepared] records and every decision
    reached since the previous round.

    Every decided transaction — either kind — is recorded in one
    never-pruned outcome table keyed by its {!Types.gtx_id}; a retried
    request is answered from it through the same reply path as a fresh
    decision, but is not counted again.

    Durability can be disabled ([durable = false]) to reproduce the paper's
    [tashAPInoCERT] configuration: certification happens as usual but
    nothing is written to disk and replies return immediately. The
    cross-partition records still go through the group's ring, and a
    delivered cross-partition commit takes the log's next version.

    Forced aborts at a configurable rate reproduce §9.5: the request pays
    the full certification cost, then aborts. *)

type config = {
  durable : bool;
  forced_abort_rate : float;
  certify_cpu : Sim.Time.t;  (** CPU per certification request *)
  watermark_ttl : Sim.Time.t;
      (** GC-watermark report aging: a replica's oldest-snapshot report
          older than this no longer pins the group floor, so one
          partitioned or dead replica cannot stop log truncation — it
          heals later through a full snapshot transfer. Default 10 s. *)
}

val default_config : config

type t

val create :
  Env.t ->
  id:string ->
  peers:string list ->
  ?partition:int ->
  ?directory:(int * string list) list ->
  ?initial:(Mvcc.Key.t -> Mvcc.Value.t option) ->
  ?config:config ->
  unit ->
  t
(** Builds the node inside [env]: its private random stream is derived with
    {!Env.split_rng}, the network endpoint [id] registers on [env]'s
    network, and the node's log disk and Paxos node are created before the
    message pump is spawned.

    [partition] (default 0) is the keyspace partition this node's group
    certifies; [directory] maps every partition to the member ids of its
    certifier group (own group included) and is the static routing table
    for cross-partition vote gossip. A 1-partition cluster passes the
    defaults and behaves exactly like the legacy single-group certifier.
    [initial] looks up the rows loaded into the replicas before any commit
    (default: none); the log, and every log rebuilt after a crash, folds
    its truncated base state onto it ({!Cert_log.create}).

    Observability: counters register under [certifier.<id>.*] in
    [env.metrics], with gauges over the WAL, Paxos batch
    stats, the log and CPU/disk utilization; an [on_reset] hook re-baselines
    the cumulative log stats and restarts the WAL/Paxos windows, so one
    [Obs.Registry.reset] restarts this node's whole measurement window.
    With a live [trace], the leader records [cert.batch]
    (one certification round, including the group-commit gate wait),
    [cert.durability] (per accepted entry, propose → majority delivery,
    carrying the requester's trace id) and [wal.fsync] spans. *)

val id : t -> string

val is_leader : t -> bool
val system_version : t -> int
(** Version of the newest {e delivered} (majority-committed) entry on this
    node, in this group's version space. *)

val log : t -> Cert_log.t

val outcome : t -> Types.gtx_id -> int option option
(** This node's outcome table, one for every kind of transaction:
    [Some (Some v)] — the transaction (or this group's fragment of it)
    committed at version [v]; [Some None] — a cross-partition transaction
    aborted; [None] — unknown or still in flight (a single-partition
    abort is never recorded). The table answers retried requests, and
    unlike the log's slots it survives {!Cert_log.truncate} (and is
    rebuilt by redelivery after a crash), so harnesses can verify acked
    commits whose log prefix was pruned behind the GC watermark. *)

val x_debug : t -> gtx:Types.gtx_id -> string
(** One-line dump of this node's state for a cross-partition transaction
    (outcome, or the in-flight exchange state) — for harness violation
    messages and postmortems. *)

(** {1 Fault injection} *)

val crash : ?wal_fault:Paxos.Node.wal_fault -> t -> unit
(** Crash-stop this certifier. [wal_fault] additionally leaves the node's
    Paxos WAL with a torn or corrupt tail for the recovery checksum scan
    ({!Storage.Wal.recover}) to find on {!recover}. *)

val recover : t -> unit
val is_up : t -> bool

val disk : t -> Storage.Disk.t
(** The node's log device — the handle the fault injector uses to stall or
    degrade it. *)

val disk_failovers : t -> int
(** Times the disk watchdog made this node abdicate leadership because a
    WAL flush was still in flight after 250 ms (a healthy fsync takes
    6–12 ms). Cumulative. *)

(** {1 Statistics (meaningful on the leader)} *)

type stats = {
  requests : int;
  commits : int;
  aborts_ww : int;
  aborts_forced : int;
  fetches : int;
  log_bytes : int;
  log_fsyncs : int;
  log_records : int;
  mean_group_size : float;
  back_certifications : int;
  artificial_conflicts : int;
      (** remote writesets annotated with a conflict in some reply *)
  cert_batches : int;  (** certify-fiber scheduling rounds served *)
  mean_cert_batch : float;
      (** mean requests certified per round — grows with load *)
  accept_broadcasts : int;
  mean_accept_batch : float;
      (** mean entries per multi-entry Paxos Accept (> 1 under load) *)
  cpu_utilization : float;
  disk_utilization : float;
  disk_failovers : int;  (** abdications forced by the disk watchdog *)
  disk_fsync_stalls : int;  (** fsyncs served while a stall was injected *)
  disk_io_errors : int;  (** transient IO errors injected *)
  wal_torn_discarded : int;  (** torn records dropped by recovery scans *)
  wal_corrupt_discarded : int;
      (** corrupt records dropped by recovery scans *)
  xprepares : int;  (** cross-partition Prepared records delivered here *)
  xcommits : int;  (** cross-partition fragments committed here *)
  xaborts : int;  (** cross-partition transactions aborted here *)
}

val stats : t -> stats
(** Counts since creation or the last reset; utilizations are busy-time
    fractions over the whole run. [log_bytes] and [back_certifications] are
    windowed against the baseline captured at the last reset (the log itself
    is state and survives resets). *)


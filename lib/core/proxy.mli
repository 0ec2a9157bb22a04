(** The transparent replication proxy (§6.2).

    Sits in front of one database replica: clients open transactions through
    it, it tracks [replica_version], invokes certification on commit, and
    applies every certified writeset — a commit reply's remotes, the
    replica's own commit, refresh and bridge-heal fetches — through one
    {!Apply_pool}, under the ordering policy its mode implies (the paper's
    three systems differ only in who orders commits, §1, §5.2):

    - Base and Tashkent-MW ([Serial]): one applier commits the items in
      order; a reply's fresh remotes form one item when
      [group_remote_batches] is set.
    - Tashkent-API ([Commit_n]): every reply remote and own commit is its
      own item, committed concurrently and announced in order ([COMMIT n]);
      the pool's key index serialises exactly the items that conflict —
      the artificial conflicts of §5.2.1. A fetched batch stays one item.
    - [apply_workers > 1], any mode ([Parallel]): a bounded worker pool
      with the same key index, each writeset its own item, published
      through the database's contiguous-prefix barrier.

    Ordering discipline: commit replies from the certifier arrive in global
    version order (the certifier answers at log-apply time, links are FIFO);
    a single {e applier} fiber consumes them in that order and dispatches
    their items, so the pool sees versions in order. Each item carries its
    redo chain predecessor — what this replica had dispatched before it —
    so recovery can verify the chain however the items finish. Abort
    replies are handled directly by the client's fiber — they touch no
    versioned state and must not queue behind a blocked application (that
    is what lets a lock held by a doomed-to-abort local transaction drain,
    §8.2). *)

type config = {
  mode : Types.mode;
  apply_cpu_per_ws : Sim.Time.t;
      (** fixed CPU to re-apply one remote writeset, plus a built-in 35 µs
          per row operation — roughly an order of magnitude below executing
          the original transaction (§10.3) *)
  staleness_bound : Sim.Time.t option;
      (** idle refresh interval (§6.2 "bounding staleness"); [None]
          disables the refresher *)
  group_remote_batches : bool;
      (** merge a reply's remote writesets into one transaction (§3,
          "grouping remote writesets"). Disabling reproduces the paper's
          naive strawman: one commit per remote writeset. *)
  apply_workers : int;
      (** number of parallel applier fibers. With more than one, the
          pool runs the [Parallel] policy whatever the mode: every
          certified writeset is its own item, non-conflicting ones apply
          concurrently (their WAL fsyncs group), conflicting ones wait for
          their predecessors, and version visibility advances only through
          the contiguous-order publish barrier, so GSI snapshots are
          unchanged. With one, the mode's own policy applies. *)
}
(** Soft recovery (a remote writeset that deadlocks against local
    transactions dooms the local cycle members and retries) and local
    certification (§6.2: a transaction's effective start version is raised
    to the locally verified point before it asks the certifier, which its
    write locks make safe) are always on. *)

type t

val create :
  Env.t ->
  addr:string ->
  ?part:int ->
  db:Mvcc.Db.t ->
  cpu:Sim.Resource.t ->
  certifiers:string list ->
  req_id_base:int ->
  config:config ->
  unit ->
  t
(** Registers endpoint [addr] on [env]'s network and spawns the reply
    dispatcher, the applier fiber with its {!Apply_pool}, and (if
    configured) the staleness refresher.

    Observability: counters register under [proxy.<addr>.*] in
    [env.metrics], the cumulative [Cert_client] robustness counters are
    exported as [cert_client.<addr>.*] gauges, and the pool adds
    [replica.<addr>.apply.*]. With a live [env.trace], every update
    transaction gets a trace id at {!begin_tx} and the proxy records
    [txn.commit], [certify], [apply.wait] (an item queued in the pool),
    [apply] (remote writesets installing), [durability] (the own commit)
    and [backfill] spans on the sim clock, every apply-side span under the
    trace id of the commit or refresh that dispatched it (taxonomy in
    DESIGN.md §10). With a live
    [env.events], the proxy feeds the protocol-event stream —
    [Tx_submitted]/[Tx_resolved] around every certified commit,
    [Ws_install]/[Snapshot_advance] at each store-extending install,
    [Snapshot_load] when a refresh answers with a full state transfer,
    and [Actor_reset] on {!pause} — tagged with partition [part]
    (default 0, the single-partition layout).

    @raise Invalid_argument if [config.apply_workers < 1]. *)

val addr : t -> string
val mode : t -> Types.mode
val replica_version : t -> int
val db : t -> Mvcc.Db.t

val client : t -> Cert_client.t
(** The underlying certifier client, exposed for its fault/robustness
    counters (retries, failovers, re-fetches). *)

val enable_commit_journal : t -> unit
(** Start recording every commit acked durable to this proxy (at
    commit-reply arrival — i.e. after the certifier group reached majority
    durability). The journal is a harness-side oracle: it is never cleared
    by crash/pause paths, so a chaos experiment can assert each acked
    commit is still present in the certified log after recovery. *)

val journaled_commits : t -> (Types.gtx_id * int) list
(** The journal, oldest first, as [(transaction, commit_version)] pairs:
    [(address, req_id)] for a single-partition commit, the session's
    transaction for a cross-partition fragment (whose version is this
    partition's). Empty unless {!enable_commit_journal} was called. *)

(** {1 Client interface (the "JDBC" face)} *)

type tx

type failure =
  | Cert_abort of Types.abort_cause  (** certifier found a write–write conflict *)
  | Local_abort of Mvcc.Db.abort_reason  (** aborted at the replica before
                                             certification *)

val pp_failure : Format.formatter -> failure -> unit

val begin_tx : t -> tx
val read : t -> tx -> Mvcc.Key.t -> Mvcc.Value.t option
val write : t -> tx -> Mvcc.Key.t -> Mvcc.Writeset.op -> (unit, failure) result
val abort : t -> tx -> unit

val commit :
  ?cross:Types.gtx_id * Types.xfragment list -> t -> tx -> (unit, failure) result
(** Blocking. Read-only transactions commit immediately; update
    transactions go through certification, remote-writeset application and
    the local ordered commit.

    [cross] makes this the commit of one fragment of the cross-partition
    transaction it names: [tx]'s writeset must be the fragment owned by
    this proxy's partition (the {!Session} routes writes by key, so this
    holds by construction), and the list holds every fragment, this
    proxy's own among them (matched by origin address). The pipeline is
    the same; the reply's version and remotes are in this partition's
    version space. *)

val tx_writeset : tx -> Mvcc.Writeset.t
(** The transaction's accumulated writeset (used by the {!Session} to
    build cross-partition fragments before commit). *)

val tx_start_version : tx -> int
(** The snapshot version this transaction started on, in this proxy's
    partition version space. *)

(** {1 Maintenance} *)

val refresh : t -> unit
(** Fetch and apply remote writesets the replica is missing (used by the
    staleness refresher and by recovery). Blocking; no-op if busy. *)

val pause : t -> unit
(** Stop issuing new work (replica crash). In-flight client transactions
    fail. *)

val disconnect : t -> unit
(** Drop the proxy's network endpoint and queued messages (crash): replies
    in flight to it vanish, and the network's FIFO floors for its links are
    purged so {!reconnect} starts clean. *)

val reconnect : t -> unit
(** Re-register the endpoint dropped by {!disconnect}, reusing the same
    mailbox (the dispatcher fiber stays parked across the outage). *)

val resume : t -> unit

(** {1 Statistics} *)

type stats = {
  commits : int;
  cert_aborts : int;
  local_aborts : int;
  read_only_commits : int;
  remote_ws_applied : int;
  apply_batches : int;
  artificial_serializations : int;
      (** pool items that conflicted with a pending predecessor at
          dispatch, so had to wait for it (the pool's key index; always 0
          under the [Serial] policy) *)
  refreshes : int;
  local_cert_promotions : int;
      (** commits whose effective start version was raised by local
          certification (§6.2) *)
  preempted_commits : int;
      (** certified-commit transactions that were doomed locally (lock
          preemption by a remote writeset, §8.2) while their commit reply
          was delayed by a certifier failover; their writesets were
          installed from the buffer under the certifier's decision *)
  apply_stalls : int;
      (** pool items still waiting for a conflicting predecessor when
          they reached execution *)
}

val stats : t -> stats
(** Counts since creation or the last reset. Counters are plain counts (not
    rates); all are also readable through the registry passed to
    {!create}. *)

val apply_parallelism : t -> float
(** Time-weighted mean number of concurrently executing apply items (see
    {!Apply_pool.parallelism}). *)

(** Why this replica had to catch up on history it was missing. *)
type catch_up =
  | Floor
      (** a certification abort revealed the applied version had fallen
          below the certifier's truncation floor (its watermark report
          went stale — e.g. across a leader election — and the floor passed
          it), triggering an eager refresh from the commit path. Without
          the eager heal the replica livelocks: every request re-aborts as
          snapshot-too-old, the abort traffic keeps the idle refresher from
          ever firing, and its frozen report pins the cluster floor
          forever. *)
  | Bridge
      (** a commit reply arrived whose composed remotes did not bridge
          every version between the applied prefix and the commit version,
          forcing a fetch (usually answered with a state transfer) before
          the install. The schedule that produces such a reply: the
          certifier re-answers a retried, already-decided request after the
          GC floor passed the replica's stale watermark, so the bridging
          log entries are gone. Installing without the heal would advance
          the replica over a permanent hole — silent divergence. *)
  | Snapshot
      (** a fetch whose asked-for log prefix had been truncated at the
          certifier was answered with (and installed from) a full state
          transfer *)

val catch_ups : t -> catch_up -> int
(** Catch-up episodes of each cause, also exported as
    [proxy.<addr>.catch_up.floor], [.bridge] and [.snapshot]. *)

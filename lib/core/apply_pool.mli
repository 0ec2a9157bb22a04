(** The one writeset applier behind a replica's proxy.

    The proxy feeds every certified writeset — commit-reply remotes, the
    replica's own commits, refresh and bridge-heal fetches — to this pool
    {e in version order}, one {e item} (one or more writesets installed as
    one local transaction) at a time. The {!policy} is the only thing the
    paper's three systems differ in (who orders commits, §1, §5.2):

    - [Serial] (Base, Tashkent-MW): one worker fiber runs items in
      submission order; nothing else is tracked.
    - [Commit_n] (Tashkent-API): every item runs in its own fiber, the
      database announces them in order ([COMMIT n]), and a key-level index
      over in-flight items makes each one wait for the newest pending writer
      of any key it touches — the artificial-conflict serialisation of
      §5.2.1, applied exactly where writesets conflict.
    - [Parallel n] (any mode): [n] worker fibers pick items in submission
      order and the same key index orders the conflicting ones;
      non-conflicting items overlap their lock work, CPU charges and WAL
      fsyncs (which group across workers).

    Commutative deltas ({!Mvcc.Writeset.Add}) relax the key-level
    dependencies: delta writers of the same key do not wait on each other
    (their store installs commute), only on the newest pending final-image
    writer of that key; a final-image write still waits on every pending
    writer of the key, blind or delta.

    Publication is decoupled from execution: each item's [on_published]
    callback fires strictly in submission order, run inline by whichever
    item completes the head of the queue. The database half of the same
    rule is {!Mvcc.Db.apply_certified}'s finish, whose visible version only
    advances through the contiguous prefix of announce orders — GSI
    snapshots never see a gap.

    Metrics (registered by {!create} under [replica.<name>.apply.*]):
    [stalls] (items that had to wait for a conflicting predecessor),
    [submitted], [parallelism] (time-weighted mean number of concurrently
    executing items, over time when at least one is executing) and
    [pending] (submitted but not yet published). Trace stage: [apply.wait]
    (submission to execution start, under the item's trace id). *)

type policy = Serial | Commit_n | Parallel of int

type t

type handle
(** One submitted item. *)

val create :
  Sim.Engine.t ->
  name:string ->
  policy:policy ->
  metrics:Obs.Registry.t ->
  trace:Obs.Trace.t ->
  unit ->
  t
(** Spawn the policy's worker fibers. [name] is the replica label used for
    fiber names, metric names and trace actors. Create at most one pool per
    [name] per registry.
    @raise Invalid_argument on [Parallel n] with [n < 2]. *)

val submit :
  t ->
  batch:(int * Mvcc.Writeset.t) list ->
  ?trace_id:int ->
  ?on_published:(unit -> unit) ->
  exec:(unit -> unit) ->
  unit ->
  handle
(** Enqueue one item installing [batch] ([(version, writeset)] pairs, the
    key-index input). [exec] runs in a worker fiber (its own fiber under
    [Commit_n]) once every in-flight predecessor writing an overlapping key
    has executed; it may block (lock waits, CPU, WAL flush). [on_published]
    runs once this item and every earlier-submitted one have executed.
    Items must be submitted in version order. *)

val has_deps : handle -> bool
(** Whether the item conflicted with a pending predecessor at submission
    time (the pool-level analogue of the certifier's [conflict_with]
    annotation); always false under [Serial]. *)

val parallelism : t -> float
(** Time-weighted mean number of concurrently executing items, measured
    over the time at least one item was executing. 0 if nothing has
    executed yet. Re-baselined by the registry's [reset]. *)

val stalls : t -> int
val pending : t -> int

val pause : t -> unit
(** Crash support: cancel every worker and item fiber, drop queued and
    in-flight items, clear the dependency index. Accounting is
    re-baselined. *)

val resume : t -> unit
(** Respawn the worker fibers after {!pause}. *)

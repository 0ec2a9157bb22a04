(** Row write-lock table with wait-for-graph deadlock detection.

    PostgreSQL-style eager write locking (paper §8.2): the first active
    transaction to write a row holds its lock until commit/abort;
    competitors queue. A cycle in the wait-for graph is a deadlock; the
    requester that would close the cycle is told so and becomes the victim.

    This module is purely logical (no blocking): the database layer parks
    fibers and calls back in here as locks are granted/released. *)

type txid = int

type t

val create : unit -> t

type holder
(** One transaction's lock state, made by {!register} when the
    transaction begins: its txid, the keys it was granted since its last
    {!release_all}, and the key it waits on, if any. A lock's owner and
    queue are holders, so the wait-for graph is walked through them with
    no lookup by txid. A transaction registers once and passes the same
    holder to every call. *)

val register : txid -> holder

val holder : t -> Key.t -> txid option

type acquire_result =
  | Granted
  | Would_block of txid  (** current holder *)
  | Deadlock of txid list  (** the cycle that granting the wait would close *)

val acquire : t -> holder -> Key.t -> acquire_result
(** Grant the lock if free or already held by this holder. Otherwise
    report the holder, or a deadlock if queueing behind that holder closes
    a cycle. [Would_block] does {e not} enqueue — call {!enqueue} to
    commit to waiting. *)

val enqueue : t -> holder -> Key.t -> unit
(** Register the holder as waiting for the lock on [key] (FIFO). *)

val cancel_wait : t -> holder -> Key.t -> unit

val release_all : t -> holder -> (Key.t * txid) list
(** Release every lock the holder was granted, granting each freed lock to
    its longest-waiting live waiter. Returns the (key, new holder) grants
    so the caller can wake the corresponding fibers. Waiters cancelled via
    {!cancel_wait} are skipped. The grants come back in descending
    {!Key.compare} order. *)

val held_by : holder -> Key.t list
(** Ascending by {!Key.compare}. *)

val lock_count : t -> int

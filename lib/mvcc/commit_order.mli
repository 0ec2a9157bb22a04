(** Ordered commit announcement — the Tashkent-API database extension.

    The paper's 20-line PostgreSQL change (§8.3): commit records may reach
    disk in any (grouped) order, but transactions are {e announced} as
    committed strictly by the sequence number supplied with [COMMIT n].
    A semaphore starts at 0; the commit carrying sequence [n] blocks until
    [n-1] announcements have happened, then announces and increments.

    Sequence numbers are dense and 1-based per database instance. Misusing
    the interface (announcing [n] without ever submitting [n-1]) blocks
    forever — the deadlock the paper warns about. *)

type t

val create : Sim.Engine.t -> unit -> t

val next_seq : t -> int
(** Allocate the next sequence number (what the proxy attaches to
    [COMMIT n]). *)

val wait_turn : t -> int -> unit
(** Block until all sequence numbers below [n] have been announced. *)

val complete : t -> int -> unit
(** Mark [n] finished. An in-order committer calls it after
    [wait_turn t n] (the announcement of [COMMIT n]); an out-of-order one
    (parallel apply) calls it without waiting. The announced prefix advances
    only through a contiguous run of completed numbers — [n] stays pending
    until every lower number has completed — and the turnstile is broadcast
    when the prefix moves, so {!wait_turn} and {!announced} observers always
    see a strictly ordered publication. Idempotent; numbers at or below the
    published prefix are ignored. *)

val announced : t -> int
val waiting : t -> int

val reset : t -> unit
(** Forget allocations and announcements (database restart). Parked
    waiters are abandoned. *)

(** Deterministic discrete-event simulation engine.

    The engine maintains a virtual clock and a queue of events. Concurrent
    activities are written as {e fibers}: ordinary OCaml functions that may
    block on simulated operations (sleeping, waiting for a message,
    acquiring a resource). Blocking is implemented with OCaml 5 effects, so
    fiber code reads like straight-line systems code.

    Ordering contract: events run in increasing [(time, scheduling order)].
    Events scheduled for the same instant run in FIFO order of scheduling,
    whether they were scheduled before the clock reached that instant or
    at it (events at the current instant wait in a FIFO ring beside the
    heap of later ones, and that split is invisible to callers). All
    randomness comes from explicit {!Rng.t} values. Two runs with the same
    seeds produce identical traces. *)

type t

type fiber
(** Handle on a spawned fiber. *)

exception Cancelled
(** Raised inside a fiber when it is resumed after {!cancel}. Fiber code
    normally does not observe it: the engine swallows it at the fiber's
    top level. Its [Fun.protect] finalisers run only if the fiber is
    resumed: a sleeping or yielding fiber always is, at its wake-up, and so
    is one parked by {!suspend}, {!suspend2} or {!join} whose [resume] is
    called later. A waiter that a structure drops because it was cancelled
    ([Mailbox], [Waitq], [Resource]) is never resumed, so its finalisers
    never run; it finishes when it is dropped (see {!drop_waiter}). *)

exception Stalled of string
(** Raised by {!run} when [stop_when_idle] is false and the event queue
    drains while fibers are still blocked (a lost-wakeup bug in the model).
    A fiber counts as blocked while it is parked by {!suspend}, {!suspend2}
    or {!join}, and stops counting when it is resumed or cancelled,
    whichever comes first; a sleeping fiber has its wake-up queued, so it
    never counts. *)

val create : unit -> t

(** {1 Clock and events} *)

val now : t -> Time.t
val events_processed : t -> int

val schedule : t -> at:Time.t -> (unit -> unit) -> unit
(** Run a callback at an absolute instant (must not be in the past). *)

val schedule_after : t -> Time.t -> (unit -> unit) -> unit

(** {1 Fibers} *)

val spawn : t -> ?name:string -> (unit -> unit) -> fiber
(** Create a fiber; it starts when the engine next reaches the current
    instant in its event loop. [name] is ignored: fibers are anonymous,
    and the argument stays only for callers built against the older
    signature. *)

val cancel : t -> fiber -> unit
(** Request cancellation. A running fiber is unaffected until it next
    blocks; a blocked fiber is discarded at its next (attempted) resume,
    and stops counting as blocked at once (structures that skip cancelled
    waiters never resume it). A cancelled fiber finishes, waking its
    {!join}ers, when it is resumed into {!Cancelled} and its cleanup has
    run, when a structure drops it ({!drop_waiter}), or, if it was
    cancelled before it started, at its start event without running.
    Cancelling a finished fiber is a no-op. *)

(** [fiber_alive f] is false once the fiber has finished or has been asked
    to cancel. *)
val fiber_alive : fiber -> bool

(** {1 Blocking operations (must be called from inside a fiber)} *)

val sleep : t -> Time.t -> unit
(** [sleep t span] resumes the fiber [span] later, or discards it then if
    it was cancelled meanwhile. A zero span returns at once, without
    yielding. *)

val yield : t -> unit
(** Resume after every event already queued for the current instant. *)

val suspend : t -> (('a -> unit) -> unit) -> 'a
(** [suspend t register] parks the current fiber and calls
    [register resume]. The fiber continues, with the value passed, when
    [resume] is invoked (from an event callback or another fiber). [resume]
    must be called at most once; later calls are ignored. If the fiber was
    cancelled while parked, [resume] discards the fiber instead. *)

val suspend2 : t -> (fiber -> ('a -> unit) -> unit) -> 'a
(** Like {!suspend} but also hands the current fiber to [register], letting
    synchronisation structures skip waiters that have been cancelled. *)

val drop_waiter : t -> fiber -> unit
(** [drop_waiter t f] is called by a structure that skips the waiter [f]
    because it is no longer {!fiber_alive} and will never resume it: a
    cancelled [f] finishes there, waking its {!join}ers. [f] must have
    registered its [resume] with that structure only. *)

val join : t -> fiber -> unit
(** Block until the fiber finishes (normally or by cancellation). *)

(** {1 Running} *)

val run : ?until:Time.t -> ?stop_when_idle:bool -> t -> unit
(** Process events in order. Stops when the clock would pass [until]
    (default: never), or when the queue is empty. With
    [stop_when_idle:false] (the default is [true]) an empty queue while
    fibers are still blocked raises {!Stalled} — useful to catch lost
    wakeups in tests. Exceptions escaping a fiber or callback propagate out
    of [run]. *)

val pending_events : t -> int
(** Events queued and not yet run, at the current instant and later. *)

(** Leader-side speculative overlay: entries certified and proposed to
    Paxos but not yet delivered.

    Key-indexed so that certifying against in-flight transactions is one
    hash lookup per writeset key instead of a writeset intersection per
    overlay entry — the overlay can hold a full multi-entry Accept batch
    per round, which made the old linear scan quadratic per batch. *)

type t

val create : unit -> t
val size : t -> int

val add : t -> Types.entry -> unit
(** Versions must be added in increasing order (they are: the certifier
    assigns them densely). *)

val holds_request : t -> origin:string -> req_id:int -> bool
(** Whether an in-flight single-partition entry for this (origin,
    request) exists — a retried request whose first attempt is proposed
    but not yet delivered must be dropped, not re-certified: certifying it
    again would abort it against its own twin (and the reply it waits for
    arrives at delivery). A cross-partition commit in flight never
    matches: its [req_id] is a session's sequence number. Linear in the
    overlay, which holds at most a few in-flight batches. *)

val conflict : t -> Mvcc.Writeset.t -> start_version:int -> int option
(** Largest overlay version above [start_version] writing a key in the
    writeset, if any. Overlaps where both the in-flight writer and the
    candidate wrote commutative deltas ({!Mvcc.Writeset.Add}) are skipped,
    matching {!Cert_log}'s delta fast path. *)

val delta_overlaps : t -> int
(** Cumulative count of key overlaps skipped because both sides were
    commutative deltas. *)

val remove : t -> int -> unit
(** Drop the entry with this version: on delivery (it is now in the
    {!Cert_log}) or on proposal rollback. Unknown versions are ignored. *)

val clear : t -> unit

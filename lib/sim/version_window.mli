(** A table keyed by an int that serves two kinds of key: the numbers in
    flight just above a moving frontier (a certifier leader's proposed and
    not yet delivered log versions, a Paxos leader's uncommitted slots, a
    store's installed versions above its visible snapshot, a database's
    active snapshots by transaction id), and the ids an origin numbers up
    from its own base and that are never pruned (the version a certifier
    decided for each of an origin's transactions). A per-origin table is
    a {!Dense} array of windows indexed by the origin's {!Names} index.

    Either kind forms a run of nearby numbers, so the table is a ring of
    cells covering the numbers from a base, indexed by a number's low
    bits: a lookup is an array read, with no hashing, and nothing rehashes
    as the numbers advance. When a number lies past the ring, the base
    first moves up over free cells; if held cells are in the way, the ring
    doubles, as long as it stays within a fixed multiple of the entries it
    holds, so a never-pruned run costs one to two words and a presence
    byte per id. A number farther out than that goes to a small spill
    table: one below the ring itself, one above it the held entries it
    would pass. *)

type 'a t

val create : 'a -> 'a t
(** [create fill] is an empty table; [fill] is the value of its free
    cells, returned by {!get} for a number the table does not hold. *)

val mem : 'a t -> int -> bool
(** Whether the table holds a number; one replaced with [fill] it does. *)

val get : 'a t -> int -> 'a
(** The value of a number, or [fill] if the table does not hold it. *)

val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit

val length : 'a t -> int
(** The number of entries held. *)

val reset : 'a t -> unit
(** Empty the table and shrink it back to its initial capacity. *)

val fold : (int -> 'a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over the entries held, in no particular order. *)

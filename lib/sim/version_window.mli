(** A table keyed by a version or slot number, for the numbers in flight
    just above a moving frontier: a certifier leader's proposed and not
    yet delivered log versions, a Paxos leader's uncommitted slots, a
    store's installed versions above its visible snapshot.

    Those numbers form a short run, so the table is a ring of cells
    indexed by a number's low bits, which doubles once half its cells are
    live: a lookup is an array read, with no hashing, and nothing rehashes
    as the numbers advance. An entry stays until it is removed or the
    table is reset, however far the numbers move on: when a new number
    needs an occupied cell, the older entry moves to a small spill table.
    Numbers are positive. *)

type 'a t

val create : 'a -> 'a t
(** [create fill] is an empty table; [fill] is the value of its free
    cells, returned by {!get} for a number the table does not hold. *)

val mem : 'a t -> int -> bool

val find : 'a t -> int -> 'a
(** The value of a number the table holds. Raises [Not_found] for one it
    does not hold. *)

val get : 'a t -> int -> 'a
(** The value of a number, or [fill] if the table does not hold it. *)

val replace : 'a t -> int -> 'a -> unit
val remove : 'a t -> int -> unit

val length : 'a t -> int
(** The number of entries held. *)

val reset : 'a t -> unit
(** Empty the table and shrink it back to its initial capacity. *)

val fold : ('a -> 'b -> 'b) -> 'a t -> 'b -> 'b
(** Over the values held, in no particular order. *)

(** A growable array indexed by small non-negative ints, each index
    present or absent: per-slot state of a Paxos log (slots are
    contiguous from 1), per-name state indexed by a {!Names} index. A
    lookup is an array read; the array doubles when an index past its end
    is set, and nothing rehashes. *)

type 'a t

val create : 'a -> 'a t
(** [create fill] is an empty array; [fill] is the value of every absent
    index, returned by {!get}. *)

val mem : 'a t -> int -> bool

val get : 'a t -> int -> 'a
(** The value at an index, or [fill] if the index is absent. *)

val set : 'a t -> int -> 'a -> unit
(** Make an index present with a value, growing the array to hold it. *)

val bound : 'a t -> int
(** One more than the highest index set since creation or the last
    {!reset}; 0 if none was. Every present index lies below it. *)

val reset : 'a t -> unit
(** Make every index absent and shrink back to the initial capacity. *)

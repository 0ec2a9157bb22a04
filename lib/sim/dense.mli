(** A growable array indexed by small non-negative ints, each index
    present or absent: per-slot state of a Paxos log (slots are
    contiguous from 1), per-name state indexed by a {!Names} index, per-key
    state indexed by a key's interned id.

    The cells sit in pages of 256, allocated as an index in them is first
    set, so growing copies only the small page directory, no page is
    large enough to be allocated in the major heap, and a table costs a
    word and a presence bit per cell of each page it touches, and two
    words per page of its index range. A lookup is two array reads, with
    no hashing, and nothing rehashes. *)

type 'a t

val create : 'a -> 'a t
(** [create fill] is an empty array; [fill] is the value of every absent
    index, returned by {!get}. It allocates nothing until an index is set. *)

val mem : 'a t -> int -> bool
(** Whether an index is present; one set to [fill] is. *)

val get : 'a t -> int -> 'a
(** The value at an index, or [fill] if the index is absent (or negative). *)

val set : 'a t -> int -> 'a -> unit
(** Make an index present with a value, growing the array to hold it.
    Raises [Invalid_argument] for a negative index. *)

val find_or_add : 'a t -> int -> (unit -> 'a) -> 'a
(** The value at an index, setting it to [make ()] first if the index is
    absent. *)

val remove : 'a t -> int -> unit
(** Make an index absent. *)

val length : 'a t -> int
(** The number of present indices. *)

val bound : 'a t -> int
(** One more than the highest index set since creation or the last
    {!reset}; 0 if none was. Every present index lies below it. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit
(** Over the present indices in increasing order. [f] may set or remove
    the index it is given. *)

val reset : 'a t -> unit
(** Make every index absent and release every page. *)

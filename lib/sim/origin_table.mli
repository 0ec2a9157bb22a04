(** Int values keyed by an origin and an id: the version a certifier
    decided or a monitor saw acked or appended for each transaction. The
    origins are the few proxy and session addresses, interned as small
    indices by a {!Names} table. Each origin numbers its ids up from its
    own base, so an origin's ids are an array offset by the first id seen:
    a lookup or a record is an array access, with no hashing, and nothing
    rehashes as the table grows.

    An id below the array's base re-bases it, and one past its end grows
    it, as long as the array stays within a fixed multiple of the ids it
    holds. An id farther out than that goes to a small spill table, and
    moves into the array when the array comes to cover it. *)

type t

val create : unit -> t

val none : int
(** The value of an id the table does not hold ([min_int]). It cannot be
    recorded. *)

val get : t -> origin:int -> int -> int
(** The value recorded for an origin's id, or {!none}. *)

val mem : t -> origin:int -> int -> bool

val replace : t -> origin:int -> int -> int -> unit
(** [replace t ~origin id v] records [v] for [origin]'s [id], replacing
    any earlier value. Raises [Invalid_argument] if [v] is {!none} or
    [origin] is negative. *)

val reset : t -> unit
(** Forget every origin's ids. *)

(** Interned component names.

    The simulated components that name themselves in messages and events
    (certifiers, proxies, Paxos nodes) are few, and each passes the same
    physical string every time. A name table finds a name by a scan on
    physical equality, a few pointer compares, and falls back to
    [String.equal] for a copy; nothing hashes the string. Indices are
    dense, in order of first sight, so per-name state can sit in an array
    indexed by them. *)

type t

val create : unit -> t

val of_list : string list -> t
(** A table holding the given names at indices [0, 1, ...] in list order
    (a repeated name keeps its first index). *)

val find : t -> string -> int
(** The index of a name, or -1 if the table does not hold it. *)

val index : t -> string -> int
(** The index of a name, adding it at the next index if it is new. *)

val name : t -> int -> string
(** The name at an index the table holds. *)

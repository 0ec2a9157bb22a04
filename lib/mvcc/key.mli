(** Identity of a row: table name plus primary key. *)

type t = private { table : string; row : string; hash : int }
(** [hash] is [Hashtbl.hash (table, row)], computed once by {!make}; the
    type is private so that no record literal can carry a stale hash. *)

val make : table:string -> row:string -> t

val equal : t -> t -> bool
(** Physical equality first, then the cached hashes, then the strings. *)

val compare : t -> t -> int
(** Lexicographic on [(table, row)]. *)

val hash : t -> int
(** The cached [(table, row)] pair hash: a field read. *)

val encoded_bytes : t -> int
(** Size of the identity when serialised into a writeset. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Tbl : Hashtbl.S with type key = t
module Set : Set.S with type elt = t

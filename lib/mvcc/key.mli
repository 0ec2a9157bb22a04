(** Identity of a row: table name plus primary key.

    Keys are interned: {!make} returns the one key that stands for a
    [(table, row)] pair, so two keys for the same row are physically
    equal. Each key carries a dense [id], numbered in the order keys are
    first made, which {!Dense} tables index by. The interner is per domain
    ([Domain.DLS]): a key belongs to the domain that made it, and ids from
    different domains name different rows. *)

type t = private { table : string; row : string; hash : int; id : int }
(** [hash] is [Hashtbl.hash (table, row)], computed once by {!make}; the
    type is private so that no record literal can carry a stale hash or a
    forged id. [id] depends on what the domain made before, so it names a
    row but must never decide an order: every ordering uses {!compare} or
    {!hash}. *)

val make : table:string -> row:string -> t
(** The interned key of [(table, row)]; the first call for a pair in a
    domain allocates it and gives it the next id. *)

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

(** A mutable map from keys to values: a {!Sim.Dense} array indexed by
    key id, so a lookup is two array reads, with no hashing and no bucket
    walk. A key whose value is physically equal to the table's [absent]
    value is unset. Iteration runs in id order, which is arbitrary: use it
    only for order-insensitive work. *)
module Dense : sig
  type key = t
  type 'a t

  val create : absent:'a -> 'a t
  val find : 'a t -> key -> 'a
  (** The key's value, or [absent]. *)

  val replace : 'a t -> key -> 'a -> unit
  (** Replacing with [absent] removes the key. *)

  val remove : 'a t -> key -> unit
  val length : 'a t -> int
  (** Keys whose value is not [absent]. *)

  val iter : (key -> 'a -> unit) -> 'a t -> unit
  val fold : ('a -> 'acc -> 'acc) -> 'a t -> 'acc -> 'acc

  val map_inplace : ('a -> 'a) -> 'a t -> unit
  (** Replace every set value [v] with [f v]; an [absent] result removes
      the key. *)

  val reset : 'a t -> unit
end

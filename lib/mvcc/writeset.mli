(** Writesets: the minimal description of a transaction's modifications.

    Extracted at the replica (the paper uses triggers in PostgreSQL),
    shipped to the certifier for write–write conflict detection, and
    re-applied at the other replicas. Order of operations within a writeset
    is preserved; a later operation on the same key supersedes the earlier
    one (only the final image is shipped).

    Two op families coexist. The final-image ops ([Insert]/[Update]/
    [Delete]) are blind writes: they pin a concrete value and conflict with
    any concurrent writer of the same key. [Add] is a commutative delta: it
    records an integer increment against whatever value is committed at
    apply time, so two concurrent [Add]s on the same key commute and the
    certifier lets both commit (the delta fast path). A delta folded onto a
    final image inside one writeset collapses to a final image — the
    transaction has pinned a value, so the commutativity is gone. *)

type op =
  | Insert of Value.t
  | Update of Value.t
  | Delete
  | Add of int  (** commutative integer increment against the committed base *)

type entry = { key : Key.t; op : op }

type t

val op_is_delta : op -> bool
(** True only for [Add]. *)

val empty : t
val is_empty : t -> bool
val singleton : Key.t -> op -> t
val add : t -> Key.t -> op -> t
val of_list : (Key.t * op) list -> t

val entries : t -> entry list
(** In first-write order (with superseded duplicates removed). A later
    final image replaces an earlier op on the same key; a later [Add]
    folds onto an earlier op (image + delta stays an image, delta + delta
    sums, delete + delta re-creates the row from a zero base). *)

val cardinal : t -> int
(** Distinct keys; seals the writeset. *)

val keys : t -> Key.t list

val iter_keys : t -> (Key.t -> unit) -> unit
(** Allocation-free iteration over the distinct keys, in first-write
    order. The certification hot path ({!Cert_log}) uses this instead of
    {!keys} to avoid building a list per conflict check. *)

val iter_entries : t -> (Key.t -> op -> unit) -> unit
(** Like {!iter_keys} but also hands over each key's final op, so the
    delta-aware certification and apply paths can classify writes without
    an extra lookup. *)

val find_op : t -> Key.t -> op option
(** The final op this writeset holds for [key], as {!entries} would give
    it. Walks the writes newest first by key identity (keys are interned),
    folding deltas as {!entries} does, without sealing the writeset and
    without allocating for the walk: a running transaction's
    read-your-writes costs its own writes, not a seal per read. *)

val all_deltas : t -> bool
(** True when every entry is an [Add] — the writeset commutes with any
    other all-delta writeset. Vacuously true for {!empty}. *)

val intersects : t -> t -> bool
(** True when the two writesets touch a common key — the certification
    test. Seals both, then runs in O(|a| + |b|) without allocating. *)

val union : t -> t -> t
(** [union earlier later]: combined effects, [later] winning on shared
    keys (with [later]'s deltas folding onto [earlier]'s images, as in
    {!entries}). Used to batch several remote writesets into one
    transaction (T1_2_3 in paper §3). *)

val encoded_bytes : t -> int
(** Wire/log size; the paper reports 54 B (AllUpdates), 158 B (TPC-B),
    275 B (TPC-W) averages. Delta ops are 9 B (tag + increment) plus the
    key, and legacy blind-write sets are unaffected. *)

val pp : Format.formatter -> t -> unit

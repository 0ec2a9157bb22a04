(** Multi-version row store.

    Each row carries a chain of versions tagged with the global commit
    version that created them; a snapshot read at version [v] sees the
    newest version [<= v]. Versions need not be dense at a replica: a
    replica that applies a batched remote writeset jumps straight from,
    say, version 0 to version 3 (paper §3, "grouping remote writesets").

    Commutative delta writes ({!Writeset.Add}) are kept symbolic in the
    version chains and folded onto the nearest final image below them at
    read time, so installing deltas out of order (parallel apply) yields
    the same chain — and the same snapshot reads — as installing them in
    version order. *)

type t

val create : unit -> t

val current_version : t -> int
(** Version of the newest installed snapshot. *)

val read : t -> at:int -> Key.t -> Value.t option
(** Snapshot read: newest committed value with version [<= at], or [None]
    if the row does not exist (never inserted, or deleted) in that
    snapshot. *)

val read_latest : t -> Key.t -> Value.t option

val latest_writer : t -> Key.t -> int
(** Commit version of the newest committed write to this key; 0 if never
    written. This is what the first-updater-wins check compares against a
    transaction's snapshot. *)

val blind_write_after : t -> Key.t -> after:int -> int option
(** Commit version of the newest {e final-image} write to this key that is
    newer than [after], skipping commutative delta entries; [None] if there
    is none. A delta write's first-updater-wins check asks this of its
    snapshot instead of {!latest_writer}: committed deltas commute with it
    and must not abort it. The walk stops at the first version [<= after],
    so it costs the entries newer than the snapshot, not the chain. *)

val install : t -> version:int -> Writeset.t -> unit
(** Commit a writeset, creating snapshot [version]. [version] must exceed
    {!current_version}; the store advances to it. *)

val install_at : t -> version:int -> Writeset.t -> unit
(** Slot a writeset's rows into their version chains at [version] without
    touching {!current_version} — the install half of every certified
    commit. Rows land as apply items finish (in any order); visibility is
    published separately with {!force_version} once every lower version has
    been installed, so snapshot reads never observe a gap. Idempotent for a
    version already present in a chain; keys already overwritten by a newer
    committed version keep the newer value (the globally-correct state —
    any later committed write to the same key was certified against a log
    containing [version]), which is what lets a commit reply that overtook
    the remote-writeset stream backfill below {!current_version}. *)

val preload : t -> Key.t -> Value.t -> unit
(** Insert a row as part of version 0 (initial database population). *)

val force_version : t -> int -> unit
(** Set the snapshot version without installing rows (used when restoring
    from a dump taken at that version). *)

val row_count : t -> int
val version_records : t -> int
(** Total version-chain entries, across all rows. *)

val copy : t -> t
(** Deep copy of the latest snapshot only — the "DUMP DATA" operation. The
    copy's chains are flattened to single versions. *)

val gc : t -> keep_after:int -> unit
(** Drop version-chain entries made obsolete by a newer version [<=]
    [keep_after] (no active snapshot older than [keep_after] exists). The
    boundary entry at or below [keep_after] is materialised with the same
    tombstone-preserving fold as {!read} — a deleted key stays deleted, and
    a delta run above a tombstone keeps folding from the deletion. A row
    whose whole remaining history is a tombstone at or below the floor is
    removed outright. Visits every row: the reference full scan that the
    tests hold the incremental collectors to. The certifier's log
    truncation and the replica vacuum ([Db.vacuum]) both apply {!gc_key}
    to the rows written since their last collection instead. *)

val gc_key : t -> keep_after:int -> Key.t -> unit
(** {!gc}'s rule applied to one row only. A caller that knows which rows
    changed since the last collection at or below [keep_after] (every other
    row is already flat there) pays for those rows alone. *)

val newest_version : t -> int
(** The newest version any chain holds, at least {!current_version}: rows
    installed at versions not yet published lie above it. Visits every
    row. *)

val tombstones : t -> (Key.t * int) list
(** Rows whose newest entry is a deletion, with its version. In a flat
    {!copy} these are the only rows {!gc} can still change (it removes
    each once [keep_after] reaches its version), which is how a restored
    replica finds the rows its own redo log never wrote. Visits every
    row. *)

val pruned : t -> int
(** Cumulative version-chain records dropped by {!gc} over this store's
    lifetime (including rows removed whole). *)

type chain
(** One row's version chain: immutable blocks, one per version, newest
    first. *)

val chain : t -> Key.t -> chain
(** The row's chain as it stands. A store operation that leaves a row
    unchanged leaves this physically equal ([==]) to what it was. *)

val pp_chain : Format.formatter -> t -> Key.t -> unit
(** Debug view of one key's raw version chain, newest first: [(v,B<img>)]
    for blind images, [(v,D<+d>)] for symbolic deltas. *)

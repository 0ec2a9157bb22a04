(** The certifier's ordered log of certified writesets, with the indexes
    needed for fast certification.

    Versions are dense and 1-based: entry [v] created snapshot [v].
    Certification ("writeset intersection", §6.1) asks: does any entry with
    version in [(after, now]] write a key that this writeset also writes?
    A per-key inverted index answers in O(keys in writeset).

    Back-certification for Tashkent-API (§5.2.1) asks the same question on
    an arbitrary window and caches how far back each entry has been checked
    ([certified_back_to]), exactly as the paper describes, so repeated
    responses to other replicas do not repeat the scan.

    Commutative deltas ({!Mvcc.Writeset.Add}) get a fast path: a key
    overlap where both the logged writer and the candidate wrote deltas is
    not a conflict — the increments commute and merge at apply time. Only
    a final-image write on either side makes the overlap abort. The same
    rule applies to back-certification windows: two delta writers need no
    artificial ordering between them.

    The log is truncatable behind the cluster GC watermark: {!truncate}
    drops the slot prefix at or below a floor, trims the per-key writer
    index to versions above it, and folds the dropped writesets into a
    materialised {e base state} at the floor — what snapshot transfers and
    consistency checks reconstruct from. Version arithmetic is unaffected:
    {!version} keeps counting globally, and live slots cover exactly
    [(floor, version]]. *)

type t

val create : ?initial:(Mvcc.Key.t -> Mvcc.Value.t option) -> unit -> t
(** [initial] looks up a row's image as loaded before any entry (default:
    no rows). When truncation first folds a key through a commutative
    delta, the key's base state starts from that image, so a truncated
    prefix that wrote only deltas to a key keeps the key's initial value. *)

val version : t -> int
(** Version of the newest entry (0 when empty). Counts globally — it does
    not shrink when the log is truncated. *)

val floor : t -> int
(** Newest truncated version (0 until the first {!truncate}); live entries
    are exactly [(floor, version]]. *)

val entries : t -> int
(** Number of live (untruncated) entries, [= version - floor]. *)

val append : t -> Types.entry -> unit
(** @raise Invalid_argument unless [entry.version = version t + 1]. *)

val truncate : t -> upto:int -> unit
(** Drop every entry with version [<= upto] (clamped to [version t]):
    free the slot prefix, trim the writer index, and fold the dropped
    writesets into the base state. Costs what the dropped entries wrote,
    not the log's history. Idempotent — a floor at or below the
    current one is a no-op. Monotone: the floor never moves backwards. *)

val get : t -> int -> Types.entry
(** @raise Invalid_argument unless [floor < v <= version] (truncated
    versions can no longer be fetched — use {!get_opt} or the base state). *)

val get_opt : t -> int -> Types.entry option
(** [Some] for live versions, [None] for truncated or future ones. *)

val base_rows : t -> (Mvcc.Key.t * Mvcc.Value.t option) list
(** Folded state at the floor for every key the truncated prefix ever
    wrote ([None] = the truncated history deleted the key). Keys never
    touched below the floor are absent: they still hold their initial
    value at the floor. This is the payload of a full snapshot transfer. *)

val base_records : t -> int
(** Version-chain records held by the base state. Every base row is flat
    at the floor, so this is one per row the truncated history left. *)

val truncated_for_origin : t -> string -> int
(** How many truncated entries carried this origin — keeps the
    no-lost-writeset accounting exact after truncation. *)

val conflict_in_window : t -> Mvcc.Writeset.t -> lo:int -> hi:int -> int option
(** Newest version [v] with [lo < v <= hi] whose writeset intersects the
    argument, if any. The window is clamped to the truncation floor — the
    scan structurally cannot reach pruned history, so a caller whose
    window genuinely extends below the floor must reject the request
    itself (snapshot too old) rather than trust a [None]. *)

val certify : t -> Mvcc.Writeset.t -> start_version:int -> int option
(** Certification test against everything after [start_version]; returns
    the newest conflicting version ([None] = pass). *)

val back_certify : t -> version:int -> down_to:int -> int option
(** Check entry [version] for conflicts against earlier entries down to
    (excluding) [down_to]; memoised per entry. Returns the newest
    conflicting version in that window. *)

val entries_between : t -> lo:int -> hi:int -> Types.entry list
(** Entries with [lo < version <= hi], oldest first. Clamped to the live
    window — truncated versions are silently absent, so floor-aware
    callers must seed from {!base_rows} when [lo < floor]. *)

val bytes_total : t -> int
(** Cumulative encoded size of all entries ever appended (survives
    truncation) — the certifier log growth the paper reports as 56
    MB/hour at 15 replicas. *)

val bytes_live : t -> int
(** Encoded size of the live (untruncated) entries only — the number the
    soak harness asserts stays bounded. *)

val pruned : t -> int
(** Cumulative entries dropped by {!truncate}. *)

val back_certifications : t -> int
(** How many extra windows {!back_certify} actually scanned. *)

val delta_overlaps : t -> int
(** Cumulative count of key overlaps skipped because both sides were
    commutative deltas — the certification fast path at work. *)

(** Shared vocabulary of the replication middleware. *)

(** Which of the paper's three systems is running (§4, §5). *)
type mode =
  | Base  (** ordering in middleware, durability in the database, serial commits *)
  | Tashkent_mw  (** durability moved to the certifier; replica commits in memory *)
  | Tashkent_api  (** durability in the database, commit order passed via COMMIT n *)

val pp_mode : Format.formatter -> mode -> unit
val mode_name : mode -> string

(** Identity of a transaction, carried by every {!cert_request} and
    keying the certifiers' outcome tables. A single-partition transaction
    is [(proxy address, req_id)], minted by its {!Cert_client}. A
    cross-partition one is minted once by the originating {!Session}
    ([gtx_origin] = the session's replica name, [gtx_seq] = a
    session-local counter) and carried unchanged through prepare, vote and
    decision, so every involved certifier group agrees on which
    transaction it is resolving. *)
type gtx_id = { gtx_origin : string; gtx_seq : int }

val gtx_equal : gtx_id -> gtx_id -> bool

val single_gtx : origin:string -> req_id:int -> gtx_id
(** The id of a single-partition transaction: its proxy's address and
    the request id of its certification request. *)

val pp_gtx : Format.formatter -> gtx_id -> unit

(** Atomicity witness stamped into a committed fragment's log entry:
    which cross-partition transaction it belongs to and which partitions
    hold its sibling fragments. The chaos harness walks these to check
    that no fragment ever commits without every sibling partition
    committing its own. *)
type xatom = { gtx : gtx_id; parts : int list }

(** A certified update transaction in a certifier group's log. *)
type entry = {
  version : int;  (** commit version in the group's version space (dense, 1-based) *)
  origin : string;  (** proxy that executed the transaction *)
  req_id : int;  (** idempotency token for request retries; for a
                     cross-partition fragment this is the [gtx_seq] (the
                     [xa] transaction disambiguates sessions) *)
  ws : Mvcc.Writeset.t;
  gc_floor : int;
      (** group GC watermark the leader stamped when proposing this
          entry: every certifier truncates its {!Cert_log} to this floor
          at delivery, so truncation replicates (and replays after a
          crash) deterministically through Paxos *)
  xa : xatom option;
      (** [Some _] iff this entry is one fragment of a cross-partition
          transaction *)
}

val entry_id : entry -> gtx_id
(** The transaction an entry commits: its [xa] transaction if present,
    otherwise [(origin, req_id)]. *)

val entry_bytes : entry -> int

type decision = Commit | Abort of abort_cause
and abort_cause = Ww_conflict | Forced
(** [Forced] aborts come from the injection knob used by the paper's §9.5
    goodput experiment. *)

val pp_decision : Format.formatter -> decision -> unit

(** A remote writeset shipped to a replica, with the artificial-conflict
    information of §5.2.1: [conflict_with] names the newest earlier version
    whose writeset intersects this one within the checked window (so the
    proxy must commit that version before submitting this writeset). *)
type remote_ws = { version : int; ws : Mvcc.Writeset.t; conflict_with : int option }

(** One partition's slice of a transaction's writeset; a
    single-partition request carries exactly one. Every certifier a
    cross-partition transaction involves receives ALL fragments (its own
    plus the siblings'): a group whose own copy of the request was lost
    can be brought into the vote by any sibling leader re-gossiping the
    fragments, which is what makes the two-round commit coordinator-less
    — no single node's survival is needed to finish the transaction. *)
type xfragment = {
  xf_part : int;  (** the partition this fragment writes *)
  xf_origin : string;
      (** proxy address hosting this fragment at the session's replica *)
  xf_start_version : int;
      (** snapshot version in partition [xf_part]'s version space *)
  xf_ws : Mvcc.Writeset.t;
}

(** The one certification request, sent by {!Cert_client} to the
    certifier group of each partition the transaction writes. A
    one-fragment request takes the batched certification path, where its
    cert-log position is both the vote and the decision; a request with
    several fragments takes prepare/vote/decide (see {!Certifier}). *)
type cert_request = {
  req_id : int;
      (** per-proxy reply-routing token, stable across certify retries *)
  trace_id : int;
      (** lifecycle trace id minted at [Proxy.begin_tx]; 0 when tracing is
          disabled. Stable across certify retries (same transaction). *)
  replica : string;  (** requesting proxy (= message reply address) *)
  replica_version : int;
      (** replica state at request time, in the receiving partition's
          version space, for trimming and back-certification (§5.2.1) *)
  oldest_snapshot : int;
      (** oldest snapshot any transaction on the sending replica still
          reads (= [replica_version] when idle): the replica's GC
          watermark report, piggybacked on its normal traffic *)
  gtx : gtx_id;  (** the transaction; retries carry the same id *)
  fragments : xfragment list;  (** every fragment, the receiver's included *)
}

type cert_reply = {
  req_id : int;
  decision : decision;
  commit_version : int;  (** valid when [decision = Commit] *)
  gc_floor : int;
      (** group GC watermark at reply time, gossiped back so every
          replica can vacuum its version chains up to the floor *)
  remotes : remote_ws list;
      (** intervening remote writesets in [(replica_version, commit_version)],
          oldest first *)
}

type fetch_request = {
  fetch_req_id : int;
      (** matches the reply to the waiting fetch; a reply whose id is no
          longer pending (a timed-out or superseded fetch) is discarded *)
  fetch_replica : string;
  from_version : int;
  fetch_oldest_snapshot : int;  (** watermark report, as in {!cert_request} *)
}

(** Full state transfer for a replica whose [from_version] predates the
    certifier's truncation floor: the folded base rows at [snap_version]
    ([None] = key deleted below the floor). Installed before
    [fetch_remotes] (which then cover [(snap_version, certifier_version]]). *)
type snapshot = { snap_version : int; rows : (Mvcc.Key.t * Mvcc.Value.t option) list }

type fetch_reply = {
  fetch_req_id : int;
  fetch_remotes : remote_ws list;
  certifier_version : int;
  fetch_gc_floor : int;  (** watermark gossip, as in {!cert_reply} *)
  fetch_snapshot : snapshot option;
      (** present iff the requested prefix was truncated — the explicit
          "too old, take a snapshot" answer *)
}

(** Leader-to-leader vote gossip for a cross-partition transaction.
    [xv_fragments] rides along so a group that never saw the original
    request can still prepare and vote; [xv_echo] marks a response to a
    received vote (and is not echoed again, stopping the ping-pong). *)
type xvote = {
  xv_gtx : gtx_id;
  xv_part : int;  (** the voter's partition *)
  xv_vote : bool;
  xv_echo : bool;
  xv_fragments : xfragment list;
}

(** Input to a certifier group's replicated state machine; a leader
    proposes a certify round's records as one batch. [Committed] is a
    certified-writeset entry. It is also how a group commits its fragment
    of a cross-partition transaction: the entry's [xa] names the
    transaction, and its version is assigned at proposal like any
    other's (at delivery under a non-durable certifier). [Prepared] opens a cross-partition transaction in the group,
    and [Decision] records the transaction's abort. A [Prepared] record
    carries no vote: the vote is computed at delivery, identically by
    every ring member, against the delivered log and pin state — which is
    exactly what makes it durable (it is re-derived unchanged by a
    failed-over leader or a crash replay). *)
type record =
  | Committed of entry
  | Prepared of { p_gtx : gtx_id; p_part : int; p_fragments : xfragment list }
  | Decision of { d_gtx : gtx_id }  (** the transaction aborts *)

(** Everything that travels on the wire. *)
type message =
  | Cert_request of cert_request
  | Cert_reply of cert_reply
  | Cert_redirect of { req_id : int; leader : string option }
  | Fetch_request of fetch_request
  | Fetch_reply of fetch_reply
  | Xvote of xvote
  | Paxos of record Paxos.Node.message

val message_bytes : message -> int

type mode = Base | Tashkent_mw | Tashkent_api

let mode_name = function
  | Base -> "base"
  | Tashkent_mw -> "tashkent-mw"
  | Tashkent_api -> "tashkent-api"

let pp_mode fmt mode = Format.pp_print_string fmt (mode_name mode)

(* Transaction identity, carried by every certification request and
   keying the certifiers' outcome tables. A single-partition transaction
   is (proxy address, req_id), minted by its Cert_client; a cross-partition
   one is minted once by the originating session (origin = the session's
   replica name, seq = a session-local counter) and carried unchanged
   through prepare, vote and decision so every involved certifier group
   agrees on which transaction it is resolving. *)
type gtx_id = { gtx_origin : string; gtx_seq : int }

let gtx_equal a b = a.gtx_seq = b.gtx_seq && String.equal a.gtx_origin b.gtx_origin
let single_gtx ~origin ~req_id = { gtx_origin = origin; gtx_seq = req_id }
let pp_gtx fmt g = Format.fprintf fmt "%s/x%d" g.gtx_origin g.gtx_seq

(* Atomicity witness stamped into a committed fragment's log entry: which
   cross-partition transaction it belongs to and which partitions hold its
   sibling fragments. The chaos harness checks that no fragment ever
   commits without every sibling partition committing its own. *)
type xatom = { gtx : gtx_id; parts : int list }

type entry = {
  version : int;
  origin : string;
  req_id : int;
  ws : Mvcc.Writeset.t;
  gc_floor : int;
  xa : xatom option;
}

let entry_id e =
  match e.xa with
  | Some x -> x.gtx
  | None -> single_gtx ~origin:e.origin ~req_id:e.req_id

let entry_bytes e =
  28 + Mvcc.Writeset.encoded_bytes e.ws
  + match e.xa with None -> 0 | Some x -> 20 + (4 * List.length x.parts)

type decision = Commit | Abort of abort_cause
and abort_cause = Ww_conflict | Forced

let pp_decision fmt = function
  | Commit -> Format.pp_print_string fmt "commit"
  | Abort Ww_conflict -> Format.pp_print_string fmt "abort(ww)"
  | Abort Forced -> Format.pp_print_string fmt "abort(forced)"

type remote_ws = { version : int; ws : Mvcc.Writeset.t; conflict_with : int option }

let remote_ws_bytes r = 12 + Mvcc.Writeset.encoded_bytes r.ws

(* One partition's slice of a transaction's writeset: a single-partition
   request carries exactly one. Every certifier a cross-partition
   transaction involves receives ALL fragments (its own plus the siblings'): a group
   whose own copy of the request was lost can be brought into the vote by
   any sibling leader re-gossiping the fragments, which is what makes the
   two-round commit coordinator-less — no single node's survival is needed
   to finish the transaction. *)
type xfragment = {
  xf_part : int;
  xf_origin : string; (* proxy address hosting this fragment at the session's replica *)
  xf_start_version : int; (* snapshot version in partition [xf_part]'s version space *)
  xf_ws : Mvcc.Writeset.t;
}

let xfragment_bytes f = 20 + Mvcc.Writeset.encoded_bytes f.xf_ws

(* One request type for every commit. A one-fragment request takes the
   batched certification path, where its cert-log position is both vote
   and decision; several fragments take prepare/vote/decide. *)
type cert_request = {
  req_id : int;
  trace_id : int;
  replica : string;
  replica_version : int;
  oldest_snapshot : int;
  gtx : gtx_id;
  fragments : xfragment list;
}

type cert_reply = {
  req_id : int;
  decision : decision;
  commit_version : int;
  gc_floor : int;
  remotes : remote_ws list;
}

type fetch_request = {
  fetch_req_id : int;
  fetch_replica : string;
  from_version : int;
  fetch_oldest_snapshot : int;
}

(* A full state transfer for a replica whose needed log prefix was
   truncated: folded rows at [snap_version] for every key the truncated
   history wrote ([None] = deleted). The receiver installs these over its
   restored state, jumps to [snap_version], then applies the remotes. *)
type snapshot = { snap_version : int; rows : (Mvcc.Key.t * Mvcc.Value.t option) list }

let snapshot_bytes s =
  List.fold_left
    (fun a (key, value) ->
      a + Mvcc.Key.encoded_bytes key
      + match value with Some v -> Mvcc.Value.encoded_bytes v | None -> 0)
    8 s.rows

type fetch_reply = {
  fetch_req_id : int;
  fetch_remotes : remote_ws list;
  certifier_version : int;
  fetch_gc_floor : int;
  fetch_snapshot : snapshot option;
}

(* Leader-to-leader vote gossip. [xv_fragments] rides along so a group
   that never saw the original request can still prepare and vote;
   [xv_echo] marks a response to a received vote (and is not echoed again,
   stopping the ping-pong). *)
type xvote = {
  xv_gtx : gtx_id;
  xv_part : int;
  xv_vote : bool;
  xv_echo : bool;
  xv_fragments : xfragment list;
}

(* The certifier group's replicated state machine input. [Committed] is
   a certified-writeset entry, and a cross-partition commit decision too
   (its [xa] names the transaction). [Prepared] opens a cross-partition
   transaction; [Decision] records its abort. A [Prepared] record carries
   no vote: the vote is computed at delivery, identically by every ring
   member, against the delivered log + pin state — which is exactly what
   makes it durable (it can always be re-derived after a failover or a
   crash replay). *)
type record =
  | Committed of entry
  | Prepared of { p_gtx : gtx_id; p_part : int; p_fragments : xfragment list }
  | Decision of { d_gtx : gtx_id }

let record_bytes = function
  | Committed e -> 4 + entry_bytes e
  | Prepared p ->
      List.fold_left (fun a f -> a + xfragment_bytes f) 28 p.p_fragments
  | Decision _ -> 28

type message =
  | Cert_request of cert_request
  | Cert_reply of cert_reply
  | Cert_redirect of { req_id : int; leader : string option }
  | Fetch_request of fetch_request
  | Fetch_reply of fetch_reply
  | Xvote of xvote
  | Paxos of record Paxos.Node.message

let message_bytes = function
  | Cert_request { fragments = [ f ]; _ } -> 52 + Mvcc.Writeset.encoded_bytes f.xf_ws
  | Cert_request r -> List.fold_left (fun a f -> a + xfragment_bytes f) 64 r.fragments
  | Cert_reply r -> List.fold_left (fun a rw -> a + remote_ws_bytes rw) 36 r.remotes
  | Cert_redirect _ -> 24
  | Fetch_request _ -> 32
  | Fetch_reply r ->
      List.fold_left (fun a rw -> a + remote_ws_bytes rw) 32 r.fetch_remotes
      + (match r.fetch_snapshot with Some s -> snapshot_bytes s | None -> 0)
  | Xvote v -> List.fold_left (fun a f -> a + xfragment_bytes f) 40 v.xv_fragments
  | Paxos m -> Paxos.Node.message_bytes record_bytes m

open Sim

type config = {
  durable : bool;
  forced_abort_rate : float;
  certify_cpu : Time.t;
  watermark_ttl : Time.t;
}

(* A healthy log fsync is 6–12 ms; a flush still in flight after this
   long means the disk has stalled and the leader should hand off. *)
let fsync_deadline = Time.of_ms 250.

let default_config =
  {
    durable = true;
    forced_abort_rate = 0.;
    certify_cpu = Time.us 40;
    (* A replica's snapshot report older than this no longer pins the GC
       floor: a partitioned or dead replica must not stop the cluster from
       truncating, it heals later via a full snapshot transfer. *)
    watermark_ttl = Time.sec 10;
  }

type stats = {
  requests : int;
  commits : int;
  aborts_ww : int;
  aborts_forced : int;
  fetches : int;
  log_bytes : int;
  log_fsyncs : int;
  log_records : int;
  mean_group_size : float;
  back_certifications : int;
  artificial_conflicts : int;
  cert_batches : int;
  mean_cert_batch : float;
  accept_broadcasts : int;
  mean_accept_batch : float;
  cpu_utilization : float;
  disk_utilization : float;
  disk_failovers : int;
  disk_fsync_stalls : int;
  disk_io_errors : int;
  wal_torn_discarded : int;
  wal_corrupt_discarded : int;
  xprepares : int;
  xcommits : int;
  xaborts : int;
}

(* Transaction id -> version: a window of sequence numbers per origin,
   indexed by the origin's index in a [Names] table of the few proxy and
   session addresses. Neither a lookup nor a delivered entry hashes a
   string or builds a [gtx_id]. *)
module Outcomes = struct
  type t = { mutable origins : Names.t; seqs : int Version_window.t Dense.t }

  let create () = { origins = Names.create (); seqs = Dense.create (Version_window.create 0) }

  let reset t =
    t.origins <- Names.create ();
    Dense.reset t.seqs

  let seqs t (g : Types.gtx_id) = Dense.get t.seqs (Names.find t.origins g.gtx_origin)

  let find_opt t (g : Types.gtx_id) =
    let seqs = seqs t g in
    if Version_window.mem seqs g.gtx_seq then Some (Version_window.get seqs g.gtx_seq) else None

  let mem t (g : Types.gtx_id) = Version_window.mem (seqs t g) g.gtx_seq

  let record t ~origin ~seq version =
    let seqs =
      Dense.find_or_add t.seqs (Names.index t.origins origin) (fun () ->
          Version_window.create 0)
    in
    Version_window.replace seqs seq version

  let replace t (g : Types.gtx_id) version =
    record t ~origin:g.gtx_origin ~seq:g.gtx_seq version
end

(* The value of free [pending_replies] cells. *)
let no_request =
  {
    Types.req_id = 0;
    trace_id = 0;
    replica = "";
    replica_version = 0;
    oldest_snapshot = 0;
    gtx = Types.single_gtx ~origin:"" ~req_id:0;
    fragments = [];
  }

(* A proposed entry awaiting delivery: the request to answer, and its
   [cert.durability] span until delivery closes it. *)
type pending = { req : Types.cert_request; mutable durability : Obs.Trace.span }

(* The span of a closed [pending], and the value of free cells. *)
let closed = Obs.Trace.span (Obs.Trace.disabled ()) ~stage:"" ~actor:"" ()
let no_pending = { req = no_request; durability = closed }

(* The outcome-table value of an aborted transaction (versions are
   1-based). Only cross-partition aborts are recorded: a single-partition
   abort is never replicated, and its retry is certified afresh. *)
let aborted = 0

(* Per cross-partition transaction state. Everything here is volatile and
   rebuilt by Paxos redelivery after a crash; the only durable facts are
   the records in the ring: the Prepared record, then the decision — an
   xa-stamped Committed entry or an abort Decision (votes being a
   deterministic function of the delivered prefix is what makes the vote
   itself durable). *)
type xstate = {
  xs_gtx : Types.gtx_id;
  mutable xs_parts : int list;  (* involved partitions, sorted *)
  mutable xs_fragments : Types.xfragment list;
  mutable xs_proposed : bool;  (* our Prepared record proposed (leader-side) *)
  mutable xs_prepared : bool;  (* our Prepared record delivered *)
  mutable xs_vote : bool option;  (* our vote, computed at delivery *)
  mutable xs_votes : (int * bool) list;  (* sibling votes received via gossip *)
  mutable xs_reply : Types.cert_request option;  (* freshest request awaiting a reply *)
  mutable xs_decided : bool;  (* our decision queued, proposed or delivered *)
  mutable xs_prepared_at : Time.t;  (* for the re-solicitation sweep *)
}

(* Work queued for the certify fiber: a request from a proxy (a reply is
   owed), a prepare solicited internally for a cross-partition
   transaction learned about through vote gossip (no reply owed), or a
   cross-partition decision (commit or abort) reached since the last
   round. *)
type task = Req of Types.cert_request | Prep of xstate | Decide of xstate * bool

type t = {
  engine : Engine.t;
  rng : Rng.t;
  node_id : string;
  partition : int;
  (* partition -> member ids of that partition's certifier group (own
     group included): the static routing table for vote gossip. *)
  directory : (int * string list) list;
  net : Types.message Net.Network.t;
  mailbox : Types.message Mailbox.t;
  cfg : config;
  cpu : Resource.t;
  disk : Storage.Disk.t;
  paxos_node : Types.record Paxos.Node.t;
  mutable clog : Cert_log.t;
  initial : Mvcc.Key.t -> Mvcc.Value.t option;
      (* the loaded rows, which every rebuilt log folds its base onto *)
  (* Leader-side speculative overlay: certified entries proposed to Paxos
     but not yet delivered, key-indexed (see Overlay). *)
  overlay : Overlay.t;
  cert_work : task Mailbox.t;
  pending_replies : pending Version_window.t; (* version -> request *)
  (* Transaction id -> version committed here, or [aborted]: the retry-
     idempotency witness for every kind of request. Deliberately never
     pruned by log truncation and rebuilt by Paxos redelivery after a
     crash, so it remains the durability witness for commits whose log
     slots were truncated behind the GC watermark. *)
  outcomes : Outcomes.t;
  (* Cross-partition machinery. [xstates] holds in-flight transactions
     (pruned at decision). [pins] holds keys locked by delivered
     yes-voted Prepared records (deterministic, delivery-driven,
     identical on every ring member); [pins_spec] is the leader's
     volatile twin for proposed-but-undelivered prepares. *)
  xstates : (string, xstate) Hashtbl.t;
  pins : string Mvcc.Key.Tbl.t;
  pins_spec : string Mvcc.Key.Tbl.t;
  (* Deliveries accumulated within one instant, flushed as one reply batch
     sharing a single log scan. *)
  mutable delivered : (Types.cert_request * Types.decision * int) list; (* newest first *)
  mutable flush_scheduled : bool;
  (* Round pacing: the certify fiber blocks here until the current batch
     is locally durable (or the node crashes), so the next batch forms
     while the disk works. *)
  round_gate : unit Mailbox.t;
  mutable round_waiting : bool;
  mutable was_leader : bool;
  mutable up : bool;
  (* Group GC watermark: freshest oldest-active-snapshot report per
     replica (with receipt time, for TTL aging) and the folded floor the
     leader last stamped into a proposed entry. The floor is monotone;
     truncation itself happens at delivery, from the stamp, identically on
     every certifier. *)
  snapshot_reports : (string, int * Time.t) Hashtbl.t;
  mutable gc_floor : int;
  trace : Obs.Trace.t;
  events : Obs.Events.t;
  (* counters *)
  c_requests : Stats.Counter.t;
  c_commits : Stats.Counter.t;
  c_aborts_ww : Stats.Counter.t;
  c_aborts_forced : Stats.Counter.t;
  c_fetches : Stats.Counter.t;
  c_artificial : Stats.Counter.t;
  c_cert_batches : Stats.Counter.t;
  c_disk_failovers : Stats.Counter.t;
  c_cert_conflicts : Stats.Counter.t;
  c_delta_fastpath : Stats.Counter.t;
  c_too_old : Stats.Counter.t;
  c_snapshot_transfers : Stats.Counter.t;
  (* Cross-partition visibility: prepares delivered, fragments committed,
     transactions aborted (each counted once per certifier). *)
  c_xprepares : Stats.Counter.t;
  c_xcommits : Stats.Counter.t;
  c_xaborts : Stats.Counter.t;
  cert_batch_sizes : Stats.Summary.t;
  (* The log and its back-certification scan counter survive a registry
     reset (they are state, not statistics), so windowed stats subtract a
     baseline captured at the last reset. *)
  mutable base_log_bytes : int;
  mutable base_back_certs : int;
}

let id t = t.node_id
let is_leader t = Paxos.Node.is_leader t.paxos_node
let leader_hint t = Paxos.Node.leader_hint t.paxos_node
let system_version t = Cert_log.version t.clog
let log t = t.clog

let outcome t gtx =
  match Outcomes.find_opt t.outcomes gtx with
  | None -> None
  | Some v -> Some (if v = aborted then None else Some v)

let xkey (g : Types.gtx_id) = g.gtx_origin ^ "/" ^ string_of_int g.gtx_seq

let x_debug t ~gtx =
  match outcome t gtx with
  | Some (Some v) -> Printf.sprintf "%s:committed@%d" t.node_id v
  | Some None -> Printf.sprintf "%s:aborted" t.node_id
  | None -> (
      match Hashtbl.find_opt t.xstates (xkey gtx) with
      | None -> Printf.sprintf "%s@v%d:no-state(leader=%b,up=%b)" t.node_id
                  (Cert_log.version t.clog) (is_leader t) t.up
      | Some xs ->
          Printf.sprintf
            "%s@v%d:xs(leader=%b,up=%b,proposed=%b,prepared=%b,decided=%b,vote=%s,votes=[%s],frags=%d,reply=%b)"
            t.node_id (Cert_log.version t.clog) (is_leader t) t.up xs.xs_proposed xs.xs_prepared
            xs.xs_decided
            (match xs.xs_vote with
            | None -> "?"
            | Some true -> "y"
            | Some false -> "n")
            (String.concat ","
               (List.map
                  (fun (p, v) -> Printf.sprintf "p%d=%b" p v)
                  xs.xs_votes))
            (List.length xs.xs_fragments)
            (xs.xs_reply <> None))

let is_up t = t.up
let disk t = t.disk
let disk_failovers t = Stats.Counter.value t.c_disk_failovers

let send t ~dst msg =
  Net.Network.send t.net ~src:t.node_id ~dst ~size:(Types.message_bytes msg) msg

(* ------------------------------------------------------------------ *)
(* Certification *)

let next_version t = Cert_log.version t.clog + Overlay.size t.overlay + 1

let record_snapshot_report t ~replica ~oldest =
  Hashtbl.replace t.snapshot_reports replica (oldest, Engine.now t.engine)

(* Fold the freshest per-replica snapshot reports with every in-flight
   reply window into the group GC floor. Monotone, and only advanced
   when at least one report is fresh — a silent cluster keeps its floor
   rather than truncating history someone may still need. Reports older
   than [watermark_ttl] are ignored so one partitioned or dead replica
   cannot pin the floor forever; when it comes back asking for a pruned
   prefix it gets a full snapshot transfer instead. Folding the
   [replica_version] of every accepted-but-unreplied request (including
   undecided cross-partition requests) keeps the floor below every
   reply-composition window, so reply composition can never need a
   truncated entry. *)
let advance_watermark t =
  let base = max t.gc_floor (Cert_log.floor t.clog) in
  let now = Engine.now t.engine in
  let fresh = ref false in
  let candidate =
    Hashtbl.fold
      (fun _ (oldest, at) acc ->
        if Time.(Time.diff now at <= t.cfg.watermark_ttl) then begin
          fresh := true;
          min acc oldest
        end
        else acc)
      t.snapshot_reports max_int
  in
  if !fresh then begin
    let low (req : Types.cert_request) acc = min acc req.replica_version in
    let candidate =
      Version_window.fold (fun _ p acc -> low p.req acc) t.pending_replies candidate
    in
    let candidate =
      List.fold_left (fun acc (req, _, _) -> low req acc) candidate t.delivered
    in
    let candidate =
      Hashtbl.fold
        (fun _ xs acc -> match xs.xs_reply with Some req -> low req acc | None -> acc)
        t.xstates candidate
    in
    if candidate > base then t.gc_floor <- candidate else t.gc_floor <- base
  end
  else t.gc_floor <- base;
  t.gc_floor

(* Every log append is announced, so the online monitors can join it with
   the verdicts and acks below. *)
let append t (entry : Types.entry) =
  Cert_log.append t.clog entry;
  Obs.Events.emit t.events
    (Obs.Events.Log_append
       {
         actor = t.node_id;
         part = t.partition;
         version = entry.version;
         origin = entry.origin;
         req_id = entry.req_id;
         cross = Option.is_some entry.xa;
       })

(* A log entry shipped as a remote writeset, annotated with the newest
   earlier entry it conflicts with back to [down_to] (§5.2.1). *)
let remote t ~down_to (entry : Types.entry) =
  let conflict_with = Cert_log.back_certify t.clog ~version:entry.version ~down_to in
  { Types.version = entry.version; ws = entry.ws; conflict_with }

(* The one reply path, for a batch of [(request, decision, version)]
   (version 0 for an abort). A commit reply carries everything the
   replica has not seen between its reported version and the commit
   version, each annotated with artificial-conflict info: ONE
   entries_between scan covers the union of the batch's windows, each
   reply then indexes into it, and back-certification stays memoised per
   log slot, so overlapping windows don't re-scan. The replica's own
   entries are included too: under failover a retried commit reply can
   overtake the reply for an earlier own transaction, and a reply that
   skipped own-origin versions would advance the replica past a hole it
   can never fill (its own pending commit's reply is the only other
   carrier). Self-contained replies keep every applied prefix gap-free;
   the proxy's staleness filter discards the own entries it has already
   installed. A window reaching below the truncation floor (a retry
   re-answered after the floor passed the replica's stale report) starts
   at the floor; the proxy bridges the gap with a fetch.

   Verdicts and acks go on the typed event stream (one branch when
   disabled) under the log entry's identity — the asking proxy as origin,
   the transaction's sequence number as req_id — so the online monitors
   can join them with the appends. Counts nothing: a fresh decision is
   counted where it is made, an answer from the outcome table not at
   all. *)
let send_replies t (batch : (Types.cert_request * Types.decision * int) list) =
  let lo =
    List.fold_left
      (fun acc ((req : Types.cert_request), _, _) -> min acc req.replica_version)
      max_int batch
    |> max (Cert_log.floor t.clog)
  in
  let hi = List.fold_left (fun acc (_, _, version) -> max acc (version - 1)) 0 batch in
  let entries = Array.of_list (Cert_log.entries_between t.clog ~lo ~hi) in
  (* entries.(i) holds version lo + 1 + i *)
  List.iter
    (fun ((req : Types.cert_request), decision, version) ->
      let remotes = ref [] in
      for v = min (version - 1) (lo + Array.length entries) downto max lo req.replica_version + 1
      do
        let r = remote t ~down_to:req.replica_version entries.(v - lo - 1) in
        if Option.is_some r.conflict_with then Stats.Counter.incr t.c_artificial;
        remotes := r :: !remotes
      done;
      let origin = req.replica and req_id = req.gtx.gtx_seq in
      let committed = match decision with Types.Commit -> true | Types.Abort _ -> false in
      Obs.Events.emit t.events
        (Obs.Events.Verdict
           { actor = t.node_id; part = t.partition; origin; req_id; committed; version });
      if committed then
        Obs.Events.emit t.events
          (Obs.Events.Durable_ack
             { actor = t.node_id; part = t.partition; origin; req_id; version });
      send t ~dst:req.replica
        (Types.Cert_reply
           {
             req_id = req.req_id;
             decision;
             commit_version = version;
             gc_floor = Cert_log.floor t.clog;
             remotes = !remotes;
           }))
    batch

(* A fresh certification abort: counted, then answered. *)
let reject t req cause =
  (match cause with
  | Types.Ww_conflict ->
      Stats.Counter.incr t.c_aborts_ww;
      Stats.Counter.incr t.c_cert_conflicts
  | Types.Forced -> Stats.Counter.incr t.c_aborts_forced);
  send_replies t [ (req, Types.Abort cause, 0) ]

(* A request whose transaction this node already decided (a retry) is
   answered from the outcome table. *)
let answer_decided t (req : Types.cert_request) =
  match Outcomes.find_opt t.outcomes req.gtx with
  | None -> false
  | Some v ->
      send_replies t
        [ (req, (if v = aborted then Types.Abort Types.Ww_conflict else Types.Commit), v) ];
      true

let redirect t (req : Types.cert_request) =
  send t ~dst:req.replica (Types.Cert_redirect { req_id = req.req_id; leader = leader_hint t })

(* ------------------------------------------------------------------ *)
(* Cross-partition commit: prepare / vote / decide *)

let xstate t (gtx : Types.gtx_id) =
  let k = xkey gtx in
  match Hashtbl.find_opt t.xstates k with
  | Some xs -> xs
  | None ->
      let xs =
        {
          xs_gtx = gtx;
          xs_parts = [];
          xs_fragments = [];
          xs_proposed = false;
          xs_prepared = false;
          xs_vote = None;
          xs_votes = [];
          xs_reply = None;
          xs_decided = false;
          xs_prepared_at = Engine.now t.engine;
        }
      in
      Hashtbl.add t.xstates k xs;
      xs

let set_fragments xs (fragments : Types.xfragment list) =
  if xs.xs_fragments = [] && fragments <> [] then begin
    xs.xs_fragments <- fragments;
    xs.xs_parts <-
      List.sort_uniq compare (List.map (fun f -> f.Types.xf_part) fragments)
  end

let own_fragment t xs =
  List.find_opt (fun f -> f.Types.xf_part = t.partition) xs.xs_fragments

let sibling_parts t xs = List.filter (fun p -> p <> t.partition) xs.xs_parts

let pinned t ws =
  let hit = ref false in
  Mvcc.Writeset.iter_keys ws (fun key ->
      if Mvcc.Key.Tbl.mem t.pins key || Mvcc.Key.Tbl.mem t.pins_spec key then
        hit := true);
  !hit

(* Lock the keys of our fragment of [xs] in [tbl] under its gtx key. *)
let pin t tbl xs =
  match own_fragment t xs with
  | Some frag ->
      let gk = xkey xs.xs_gtx in
      Mvcc.Writeset.iter_keys frag.Types.xf_ws (fun key -> Mvcc.Key.Tbl.replace tbl key gk)
  | None -> ()

(* Release the keys of our fragment of [xs] that [tbl] still holds for
   it; a later transaction's speculative pin on a key stays. *)
let unpin t tbl xs =
  match own_fragment t xs with
  | Some frag ->
      let gk = xkey xs.xs_gtx in
      Mvcc.Writeset.iter_keys frag.Types.xf_ws (fun key ->
          match Mvcc.Key.Tbl.find_opt tbl key with
          | Some g when String.equal g gk -> Mvcc.Key.Tbl.remove tbl key
          | Some _ | None -> ())
  | None -> ()

let send_xvote t ~gtx ~vote ~echo ~fragments ~to_parts =
  List.iter
    (fun p ->
      if p <> t.partition then
        match List.assoc_opt p t.directory with
        | Some members ->
            List.iter
              (fun m ->
                send t ~dst:m
                  (Types.Xvote
                     {
                       xv_gtx = gtx;
                       xv_part = t.partition;
                       xv_vote = vote;
                       xv_echo = echo;
                       xv_fragments = fragments;
                     }))
              members
        | None -> ())
    to_parts

let broadcast_vote t xs ~echo ~to_parts =
  match xs.xs_vote with
  | Some vote ->
      send_xvote t ~gtx:xs.xs_gtx ~vote ~echo ~fragments:xs.xs_fragments ~to_parts
  | None -> ()

(* Queue the group's decision for the next certify round once the
   outcome is determined: all-yes commits, any-no aborts (no need to wait
   for stragglers once a no is in). Votes are sticky and deterministic,
   so every involved group's leader eventually decides the SAME outcome
   independently — there is no coordinator whose death can block it.
   Called from delivery, vote gossip and the sweep; it never proposes. *)
let maybe_decide t xs =
  if is_leader t && xs.xs_prepared && not xs.xs_decided then
    match xs.xs_vote with
    | None -> ()
    | Some own ->
        let vote_of p =
          if p = t.partition then Some own else List.assoc_opt p xs.xs_votes
        in
        let votes = List.map vote_of xs.xs_parts in
        let any_no = List.exists (function Some false -> true | _ -> false) votes in
        let all_yes = List.for_all (function Some true -> true | _ -> false) votes in
        if any_no || all_yes then begin
          xs.xs_decided <- true;
          Mailbox.send t.cert_work (Decide (xs, all_yes))
        end

(* Leader-side: add our group's Prepared record to the round's batch. The
   keys of our fragment go into [pins_spec] immediately so a
   single-partition request certified between propose and delivery
   cannot slip into the conflict window undetected. *)
let prepare t xs records =
  if (not xs.xs_proposed) && not xs.xs_prepared then begin
    records :=
      Types.Prepared { p_gtx = xs.xs_gtx; p_part = t.partition; p_fragments = xs.xs_fragments }
      :: !records;
    xs.xs_proposed <- true;
    pin t t.pins_spec xs
  end

(* A cross-partition request reaching the leader: answer immediately from
   the outcome witness if already decided, otherwise (re)prepare, adopt
   the reply route, and push the vote exchange along. *)
let handle_xreq t (req : Types.cert_request) records =
  if not (answer_decided t req) then begin
    let xs = xstate t req.gtx in
    if xs.xs_reply = None && not xs.xs_proposed then Stats.Counter.incr t.c_requests;
    xs.xs_reply <- Some req;
    set_fragments xs req.fragments;
    prepare t xs records;
    if xs.xs_prepared then begin
      broadcast_vote t xs ~echo:false ~to_parts:(sibling_parts t xs);
      maybe_decide t xs
    end
  end

(* Add a queued decision to the round's batch, unless a delivered one got
   there first. A commit is our fragment as a Committed entry stamped with
   the atomicity witness, versioned through the overlay like any
   certified entry; an abort is a Decision record. Under tashAPInoCERT a
   single-partition commit is appended as it is certified, outside Paxos,
   so there the overlay stays empty and the commit takes the version it
   is delivered at. *)
let decide t xs ~commit ~floor_stamp records =
  if not (Outcomes.mem t.outcomes xs.xs_gtx) then
    if commit then begin
      (* Our yes vote needs our fragment. *)
      let frag = Option.get (own_fragment t xs) in
      let entry =
        {
          Types.version = next_version t;
          origin = frag.Types.xf_origin;
          req_id = xs.xs_gtx.Types.gtx_seq;
          ws = frag.Types.xf_ws;
          gc_floor = floor_stamp;
          xa = Some { Types.gtx = xs.xs_gtx; parts = xs.xs_parts };
        }
      in
      if t.cfg.durable then Overlay.add t.overlay entry;
      records := Types.Committed entry :: !records
    end
    else records := Types.Decision { d_gtx = xs.xs_gtx } :: !records

(* Vote gossip from a sibling partition's certifier. Votes are stashed on
   every member (not just the leader) so a failed-over leader inherits
   them; a non-echo vote is answered with our own so the exchange
   converges from either side. A vote for a transaction we never prepared
   carries the fragments — the leader solicits its own prepare from them,
   which is what un-sticks a group whose original request was lost. *)
let handle_xvote t (v : Types.xvote) =
  Obs.Events.emit t.events
    (Obs.Events.Xvote
       {
         actor = t.node_id;
         part = t.partition;
         from_part = v.xv_part;
         gtx = xkey v.xv_gtx;
         vote = v.xv_vote;
       });
  match Outcomes.find_opt t.outcomes v.xv_gtx with
  | Some version ->
      (* Already decided here: answer with a vote consistent with the
         global decision so the asking group converges too. *)
      if is_leader t && not v.xv_echo then
        send_xvote t ~gtx:v.xv_gtx ~vote:(version <> aborted) ~echo:true ~fragments:[]
          ~to_parts:[ v.xv_part ]
  | None ->
      let xs = xstate t v.xv_gtx in
      set_fragments xs v.xv_fragments;
      xs.xs_votes <-
        (v.xv_part, v.xv_vote) :: List.remove_assoc v.xv_part xs.xs_votes;
      if is_leader t then begin
        if (not xs.xs_prepared) && not xs.xs_proposed then begin
          if xs.xs_fragments <> [] then
            Mailbox.send t.cert_work (Prep xs)
        end
        else if xs.xs_prepared && not v.xv_echo then
          broadcast_vote t xs ~echo:true ~to_parts:[ v.xv_part ];
        maybe_decide t xs
      end

(* ------------------------------------------------------------------ *)
(* Certification rounds *)

(* Certify one single-partition request against the log plus the overlay
   (which accumulates the round's own accepted entries, so intra-round
   ww-conflicts abort the later request); an accepted entry joins the
   round's batch. *)
let certify t (req : Types.cert_request) (frag : Types.xfragment) ~floor_stamp records =
  if answer_decided t req then
    (* Retried request whose transaction already committed. *)
    ()
  else if Overlay.holds_request t.overlay ~origin:req.replica ~req_id:req.req_id
  then
    (* Retried request whose first attempt is proposed but not
       yet delivered (the client timed out faster than this
       round's fsync + quorum). Certifying it again would abort
       it against its own in-flight twin; dropping it is safe —
       the reply goes out at delivery. *)
    ()
  else if
    frag.xf_start_version < Cert_log.floor t.clog || req.replica_version < floor_stamp
  then begin
    (* Snapshot too old: the conflict window reaches below the
       truncation floor, where the writer index no longer exists,
       so absence of a conflict can't be proven. GSI must refuse;
       the replica refreshes (snapshot transfer if needed) and
       the client retries on a current snapshot. The same holds for
       a reply window reaching below the floor this round stamps: a
       new leader folds only the reports of the replicas that have
       reached it, and must not admit a request its floor has passed. *)
    Stats.Counter.incr t.c_requests;
    Stats.Counter.incr t.c_too_old;
    reject t req Types.Ww_conflict
  end
  else begin
    Stats.Counter.incr t.c_requests;
    let skips_before =
      Cert_log.delta_overlaps t.clog + Overlay.delta_overlaps t.overlay
    in
    let conflict =
      match
        Cert_log.certify t.clog frag.xf_ws ~start_version:frag.xf_start_version
      with
      | Some v -> Some v
      | None ->
          Overlay.conflict t.overlay frag.xf_ws
            ~start_version:frag.xf_start_version
    in
    (* A key pinned by an in-flight prepared cross-partition
       fragment conflicts with everything: the fragment may
       commit at any later version, so a certification window
       closing now cannot be proven conflict-free. First-
       prepared-wins; the single-partition request retries. *)
    let conflict =
      match conflict with
      | Some _ -> conflict
      | None -> if pinned t frag.xf_ws then Some (next_version t) else None
    in
    match conflict with
    | Some _ -> reject t req Types.Ww_conflict
    | None ->
        if
          Cert_log.delta_overlaps t.clog + Overlay.delta_overlaps t.overlay
          > skips_before
        then Stats.Counter.incr t.c_delta_fastpath;
        if t.cfg.forced_abort_rate > 0. && Rng.chance t.rng t.cfg.forced_abort_rate
        then reject t req Types.Forced
        else begin
          let version = next_version t in
          let entry =
            {
              Types.version;
              origin = req.replica;
              req_id = req.req_id;
              ws = frag.xf_ws;
              gc_floor = floor_stamp;
              xa = None;
            }
          in
          if t.cfg.durable then begin
            Obs.Events.emit t.events
              (Obs.Events.Request_admitted
                 {
                   actor = t.node_id;
                   part = t.partition;
                   origin = req.replica;
                   req_id = req.req_id;
                   replica_version = req.replica_version;
                 });
            Overlay.add t.overlay entry;
            Version_window.replace t.pending_replies version
              {
                req;
                durability =
                  Obs.Trace.span t.trace ~id:req.trace_id ~stage:"cert.durability"
                    ~actor:t.node_id ();
              };
            records := Types.Committed entry :: !records
          end
          else begin
            (* tashAPInoCERT: no disk write, apply and answer. *)
            append t entry;
            Outcomes.replace t.outcomes req.gtx version;
            Stats.Counter.incr t.c_commits;
            send_replies t [ (req, Types.Commit, version) ];
            Cert_log.truncate t.clog ~upto:entry.gc_floor
          end
        end
  end

(* One scheduling round of the certify fiber, the group's only proposer:
   the tasks are served in arrival order — single-partition requests
   certified, cross-partition prepares and decisions added — and the
   round's records go to Paxos as ONE multi-entry proposal: one Accept
   broadcast, one WAL batch per acceptor. *)
let process_round t tasks ~work =
  Stats.Counter.incr t.c_cert_batches;
  Stats.Summary.observe t.cert_batch_sizes (float_of_int work);
  let sp_batch = Obs.Trace.span t.trace ~stage:"cert.batch" ~actor:t.node_id () in
  (* One watermark fold per round; every entry accepted this round is
     stamped with it, so truncation replicates through Paxos. *)
  let floor_stamp = advance_watermark t in
  let records = ref [] in
  List.iter
    (function
      | Req ({ fragments = [ frag ]; _ } as req) -> certify t req frag ~floor_stamp records
      | Req req -> handle_xreq t req records
      | Prep xs -> if not (Outcomes.mem t.outcomes xs.xs_gtx) then prepare t xs records
      | Decide (xs, commit) -> decide t xs ~commit ~floor_stamp records)
    tasks;
  (match List.rev !records with
  | [] -> ()
  | batch ->
      (* [process_tasks] saw this node lead and nothing in the round
         yields, so the proposal is always taken. *)
      let proposed = Paxos.Node.propose_batch t.paxos_node batch in
      assert proposed;
      (* Group-commit pacing: hold the next round until this batch is
         locally durable. Arrivals meanwhile queue in cert_work, so the
         fsync cycle that groups the log records also sets the batch
         boundary — under load the next batch is the whole pile, not one
         request. *)
      let wal = Paxos.Node.wal t.paxos_node in
      ignore
        (Engine.spawn t.engine (fun () ->
             let sp = Obs.Trace.span t.trace ~stage:"wal.fsync" ~actor:t.node_id () in
             Storage.Wal.sync wal;
             Obs.Trace.finish t.trace sp;
             Mailbox.send t.round_gate ()));
      t.round_waiting <- true;
      Mailbox.recv t.round_gate;
      t.round_waiting <- false);
  Obs.Trace.finish t.trace sp_batch

let process_tasks t (tasks : task list) =
  (* Requests and prepares cost certification CPU; a decision, the
     outcome of votes already counted, costs none. *)
  let work =
    List.fold_left (fun n -> function Req _ | Prep _ -> n + 1 | Decide _ -> n) 0 tasks
  in
  Resource.use t.cpu (Time.mul t.cfg.certify_cpu work);
  (* A freshly elected leader re-proposes entries inherited from the
     previous term; until those are delivered its log can be missing
     majority-accepted entries, so certifying now could commit a retried
     request twice or abort it against its own twin. Hold the batch until
     the inherited prefix has applied (or leadership/liveness is lost).
     The same gate covers cross-partition prepares and decisions: an
     inherited Prepared record or decision must deliver (and recreate its
     xstate or outcome) before this round could propose a duplicate. *)
  while t.up && is_leader t && not (Paxos.Node.leader_ready t.paxos_node) do
    Engine.sleep t.engine (Time.of_ms 1.)
  done;
  if t.up then
    if is_leader t then process_round t tasks ~work
    else
      List.iter
        (function
          | Req req -> redirect t req
          | Prep _ -> ()
          | Decide (xs, _) -> xs.xs_decided <- false)
        tasks

let handle_fetch t (freq : Types.fetch_request) =
  ignore
    (Engine.spawn t.engine (fun () ->
         Resource.use t.cpu t.cfg.certify_cpu;
         if t.up then begin
           Stats.Counter.incr t.c_fetches;
           let floor = Cert_log.floor t.clog in
           (* A fetch from below the truncation floor cannot be served
              incrementally — those entries are gone. The well-defined
              answer is a full snapshot transfer: the folded base rows at
              the floor, then the live entries above it. *)
           let snapshot =
             if freq.from_version < floor then begin
               Stats.Counter.incr t.c_snapshot_transfers;
               Some { Types.snap_version = floor; rows = Cert_log.base_rows t.clog }
             end
             else None
           in
           let lo = if snapshot = None then freq.from_version else floor in
           let entries =
             Cert_log.entries_between t.clog ~lo ~hi:(Cert_log.version t.clog)
           in
           (* Like commit replies, fetches include the asking replica's
              own entries: a replica rebuilding after a crash (dump
              restore, or a redo that lost the un-synced WAL tail) replays
              from a version below its own committed writes and must get
              them back from the global log. The steady-state refresher is
              unaffected — it fetches from its replica version, which its
              own commits can never exceed. *)
           send t ~dst:freq.fetch_replica
             (Types.Fetch_reply
                {
                  fetch_req_id = freq.fetch_req_id;
                  fetch_remotes = List.map (remote t ~down_to:lo) entries;
                  certifier_version = Cert_log.version t.clog;
                  fetch_gc_floor = floor;
                  fetch_snapshot = snapshot;
                })
         end))

(* ------------------------------------------------------------------ *)
(* Delivery from Paxos: the replicated state machine *)

let flush_replies t =
  let batch = List.rev t.delivered in
  t.delivered <- [];
  t.flush_scheduled <- false;
  if t.up && batch <> [] then send_replies t batch

(* A cross-partition transaction's decision delivered: the fragment's
   Committed entry at [version], or an abort ([version = aborted]). The
   pins are released, the outcome recorded in the never-pruned outcome
   table, the waiting proxy answered, and the in-flight state dropped. *)
let on_decided t (gtx : Types.gtx_id) ~version =
  let xs = xstate t gtx in
  let commit = version <> aborted in
  unpin t t.pins xs;
  unpin t t.pins_spec xs;
  Obs.Events.emit t.events
    (Obs.Events.Decision
       { actor = t.node_id; part = t.partition; gtx = xkey gtx; committed = commit });
  Outcomes.replace t.outcomes gtx version;
  Stats.Counter.incr (if commit then t.c_xcommits else t.c_xaborts);
  (if is_leader t then
     match xs.xs_reply with
     | Some req ->
         xs.xs_reply <- None;
         if commit then begin
           Stats.Counter.incr t.c_commits;
           send_replies t [ (req, Types.Commit, version) ]
         end
         else reject t req Types.Ww_conflict
     | None -> ());
  Hashtbl.remove t.xstates (xkey gtx)

let on_deliver_entry t (entry : Types.entry) =
  let proposed = entry.Types.version in
  match entry.xa with
  | Some x when Outcomes.mem t.outcomes x.gtx ->
      (* A duplicate decision — re-proposed across a leader change, or a
         second copy chosen in a later slot — appends nothing: the
         transaction is decided here already. *)
      Overlay.remove t.overlay proposed
  | _ ->
      (* A leader taking over from a crash may find gap slots whose
         entries died un-acked with the old leader and no-op them; an
         inherited entry in a later slot still carries the version the
         dead leader stamped, now too high. Re-stamp it to the next
         contiguous version: every certifier applies in slot order so the
         renumbering is identical everywhere, and it can only shrink the
         window the entry was certified against, never grow it. Every
         append, cross-partition commits included, is versioned at
         proposal, so a version too LOW never reaches delivery: it trips
         [Cert_log.append]'s invariant. The exception is tashAPInoCERT,
         whose single-partition commits are appended outside Paxos: there
         a delivered cross-partition commit takes the next version. *)
      let expected = Cert_log.version t.clog + 1 in
      let entry =
        if proposed > expected || not t.cfg.durable then
          { entry with Types.version = expected }
        else entry
      in
      append t entry;
      (* Replicated truncation: every certifier prunes from the stamp the
         leader folded at proposal time, in slot order — so the live window
         (and the base state behind it) is identical everywhere, including
         during crash-recovery redelivery. *)
      let floor_before = Cert_log.floor t.clog in
      Cert_log.truncate t.clog ~upto:entry.gc_floor;
      if Cert_log.floor t.clog > floor_before then
        Obs.Events.emit t.events
          (Obs.Events.Gc_floor
             { actor = t.node_id; part = t.partition; floor = Cert_log.floor t.clog });
      (* Speculative state is keyed by the PROPOSED version. *)
      Overlay.remove t.overlay proposed;
      match entry.xa with
      | Some x -> on_decided t x.gtx ~version:entry.version
      | None ->
          Outcomes.record t.outcomes ~origin:entry.origin ~seq:entry.req_id entry.version;
          let p = Version_window.get t.pending_replies proposed in
          if p.durability != closed then begin
            Obs.Trace.finish t.trace p.durability;
            p.durability <- closed
          end;
          if Version_window.mem t.pending_replies proposed && is_leader t then begin
            Version_window.remove t.pending_replies proposed;
            Stats.Counter.incr t.c_commits;
            t.delivered <- (p.req, Types.Commit, entry.version) :: t.delivered;
            if not t.flush_scheduled then begin
              t.flush_scheduled <- true;
              (* Zero delay: runs after the delivering fiber finishes this
                 instant, so a whole committed batch flushes as one. *)
              Engine.schedule_after t.engine Time.zero (fun () -> flush_replies t)
            end
          end

(* Prepared delivery: THE vote point. The vote is a pure function of the
   delivered log, the truncation floor and the pin table — state that is
   identical on every ring member at this slot — so every member computes
   the same vote, and a crash replay or failed-over leader re-derives it
   unchanged. Yes-votes pin the fragment's keys until the decision. *)
let on_prepared t (gtx : Types.gtx_id) (fragments : Types.xfragment list) =
  let xs = xstate t gtx in
  if not xs.xs_prepared then begin
    set_fragments xs fragments;
    let vote =
      match own_fragment t xs with
      | None -> false
      | Some frag ->
          frag.Types.xf_start_version >= Cert_log.floor t.clog
          && Cert_log.certify t.clog frag.Types.xf_ws
               ~start_version:frag.Types.xf_start_version
             = None
          && not (Mvcc.Writeset.entries frag.Types.xf_ws
                  |> List.exists (fun (e : Mvcc.Writeset.entry) ->
                         Mvcc.Key.Tbl.mem t.pins e.key))
    in
    xs.xs_prepared <- true;
    xs.xs_vote <- Some vote;
    xs.xs_prepared_at <- Engine.now t.engine;
    Stats.Counter.incr t.c_xprepares;
    Obs.Events.emit t.events
      (Obs.Events.Prepared
         { actor = t.node_id; part = t.partition; gtx = xkey gtx; vote });
    if vote then pin t t.pins xs;
    unpin t t.pins_spec xs;
    if is_leader t then begin
      broadcast_vote t xs ~echo:false ~to_parts:(sibling_parts t xs);
      maybe_decide t xs
    end
  end

let on_deliver t _slot (record : Types.record) =
  match record with
  | Types.Committed entry -> on_deliver_entry t entry
  | Types.Prepared p -> on_prepared t p.p_gtx p.p_fragments
  | Types.Decision d ->
      if not (Outcomes.mem t.outcomes d.d_gtx) then on_decided t d.d_gtx ~version:aborted

(* ------------------------------------------------------------------ *)
(* Wiring *)

let spawn_role_watch t =
  (* Clear speculative state when leadership is lost; outstanding requests
     will time out at the proxies and be retried at the new leader. For
     cross-partition state, only the leader-volatile parts go: proposed-
     but-undelivered prepares and decisions are re-armed, to be proposed
     again if leadership returns, and the reply route re-arms from the
     proxy's retry. Delivered prepares, votes and pins are replicated
     state and stay. *)
  ignore
    (Engine.spawn t.engine (fun () ->
         let rec loop () =
           Engine.sleep t.engine (Time.of_ms 5.);
           let now_leader = is_leader t in
           if t.was_leader && not now_leader then begin
             (* Speculative admissions die with leadership: the monitors'
                outstanding-request window must not outlive them. *)
             Obs.Events.emit t.events (Obs.Events.Actor_reset { actor = t.node_id });
             Overlay.clear t.overlay;
             Version_window.reset t.pending_replies;
             Mvcc.Key.Tbl.reset t.pins_spec;
             Hashtbl.iter
               (fun _ xs ->
                 if not (Outcomes.mem t.outcomes xs.xs_gtx) then begin
                   xs.xs_reply <- None;
                   xs.xs_decided <- false;
                   if not xs.xs_prepared then xs.xs_proposed <- false
                 end)
               t.xstates
           end;
           t.was_leader <- now_leader;
           loop ()
         in
         loop ()))

(* Re-solicitation sweep: while leading, periodically re-gossip our vote
   for prepared-but-undecided transactions (carrying the full fragments,
   so a group that lost its request can still join) and queue the
   decision once the votes determine it, and queue a prepare for any
   transaction we only know from gossip. This is the liveness half of the
   coordinator-less commit: any surviving leader can finish any
   transaction whose Prepared record made it into at least one ring. A
   decision already queued or proposed is left alone: within a term Paxos
   re-sends a lost Accept, and a lost leadership re-arms it (the role
   watch). *)
let spawn_xsweep t =
  ignore
    (Engine.spawn t.engine (fun () ->
         let rec loop () =
           Engine.sleep t.engine (Time.of_ms 100.);
           (if t.up && is_leader t then
              let now = Engine.now t.engine in
              Hashtbl.iter
                (fun _ xs ->
                  if not (xs.xs_decided || Outcomes.mem t.outcomes xs.xs_gtx) then
                    if xs.xs_prepared then begin
                      if Time.(Time.diff now xs.xs_prepared_at > Time.of_ms 50.) then begin
                        broadcast_vote t xs ~echo:false ~to_parts:(sibling_parts t xs);
                        maybe_decide t xs
                      end
                    end
                    else if (not xs.xs_proposed) && xs.xs_fragments <> [] then
                      Mailbox.send t.cert_work (Prep xs))
                t.xstates);
           loop ()
         in
         loop ()))

(* Degraded-disk failover (the disk watchdog): while this node leads, a WAL
   flush still in flight past [fsync_deadline] means the log device has
   stalled — every certified-but-unsynced batch is stuck behind it, and so
   is the whole cluster's commit path. The leader steps down (with a long
   election backoff, so a healthy-disk acceptor wins) rather than making the
   group wait out the stall; proxies retry at the new leader. *)
let spawn_disk_watch t =
  let backoff = Time.scale Paxos.Node.election_timeout_hi 8. in
  ignore
    (Engine.spawn t.engine (fun () ->
         let rec loop () =
           Engine.sleep t.engine (Time.div fsync_deadline 4);
           (if t.up && is_leader t then
              match Storage.Wal.flushing_since (Paxos.Node.wal t.paxos_node) with
              | Some started
                when Time.(Time.diff (Engine.now t.engine) started > fsync_deadline) ->
                  Stats.Counter.incr t.c_disk_failovers;
                  Paxos.Node.abdicate t.paxos_node ~backoff
              | Some _ | None -> ());
           loop ()
         in
         loop ()))

(* Restart the measurement windows of the state that survives a reset:
   re-baseline the cumulative log stats (windowed by baseline instead of
   clearing) and restart the WAL / Paxos batch windows. *)
let rebaseline t =
  t.base_log_bytes <- Cert_log.bytes_total t.clog;
  t.base_back_certs <- Cert_log.back_certifications t.clog;
  Paxos.Node.reset_batch_stats t.paxos_node;
  Storage.Wal.reset_stats (Paxos.Node.wal t.paxos_node)

let create (env : Env.t) ~id:node_id ~peers ?(partition = 0) ?(directory = [])
    ?(initial = fun _ -> None) ?(config = default_config) () =
  let engine = env.Env.engine and net = env.Env.net in
  let metrics = env.Env.metrics and trace = env.Env.trace in
  let events = env.Env.events in
  (* Private stream drawn from the env root, in construction order. *)
  let rng = Env.split_rng env in
  let counter name = Obs.Registry.counter metrics ("certifier." ^ node_id ^ "." ^ name) in
  let mailbox = Net.Network.register net node_id in
  let disk = Storage.Disk.create engine ~rng:(Rng.split rng) ~name:(node_id ^ ".disk") () in
  let rec t =
    lazy
      {
        engine;
        rng;
        node_id;
        partition;
        directory;
        net;
        mailbox;
        cfg = config;
        cpu = Resource.create engine ~name:(node_id ^ ".cpu") ~capacity:1 ();
        disk;
        paxos_node =
          Paxos.Node.create engine ~rng:(Rng.split rng) ~id:node_id ~peers ~disk
            ~send:(fun ~dst msg ->
              let wrapped = Types.Paxos msg in
              Net.Network.send net ~src:node_id ~dst
                ~size:(Types.message_bytes wrapped) wrapped)
            ~on_deliver:(fun slot record -> on_deliver (Lazy.force t) slot record)
            ();
        clog = Cert_log.create ~initial ();
        initial;
        overlay = Overlay.create ();
        cert_work = Mailbox.create engine ~name:(node_id ^ ".certwork") ();
        pending_replies = Version_window.create no_pending;
        outcomes = Outcomes.create ();
        xstates = Hashtbl.create 64;
        pins = Mvcc.Key.Tbl.create 64;
        pins_spec = Mvcc.Key.Tbl.create 64;
        delivered = [];
        flush_scheduled = false;
        round_gate = Mailbox.create engine ~name:(node_id ^ ".roundgate") ();
        round_waiting = false;
        was_leader = false;
        up = true;
        snapshot_reports = Hashtbl.create 8;
        gc_floor = 0;
        trace;
        events;
        c_requests = counter "requests";
        c_commits = counter "commits";
        c_aborts_ww = counter "aborts_ww";
        c_aborts_forced = counter "aborts_forced";
        c_fetches = counter "fetches";
        c_artificial = counter "artificial_conflicts";
        c_cert_batches = counter "cert_batches";
        c_disk_failovers = counter "disk_failovers";
        c_cert_conflicts = counter "cert.conflicts";
        c_delta_fastpath = counter "cert.delta_fastpath";
        c_too_old = counter "cert.snapshot_too_old";
        c_snapshot_transfers = counter "snapshot_transfers";
        c_xprepares = counter "xprepares";
        c_xcommits = counter "xcommits";
        c_xaborts = counter "xaborts";
        cert_batch_sizes =
          Obs.Registry.summary metrics ("certifier." ^ node_id ^ ".cert_batch_size");
        base_log_bytes = 0;
        base_back_certs = 0;
      }
  in
  let t = Lazy.force t in
  (* Gauges over state owned by sub-components (WAL, Paxos, CPU, disk, the
     log): read-only views, windowed — where windowing makes sense — by the
     on_reset hook below rather than by zeroing the owners. *)
  let g name read = Obs.Registry.gauge metrics ("certifier." ^ node_id ^ "." ^ name) read in
  let wal () = Paxos.Node.wal t.paxos_node in
  g "wal.fsyncs" (fun () -> float_of_int (Storage.Wal.sync_count (wal ())));
  g "wal.records_synced" (fun () -> float_of_int (Storage.Wal.records_synced (wal ())));
  g "wal.mean_group_size" (fun () -> Storage.Wal.mean_group_size (wal ()));
  g "paxos.accept_broadcasts" (fun () ->
      float_of_int (Paxos.Node.accept_broadcasts t.paxos_node));
  g "paxos.mean_accept_batch" (fun () -> Paxos.Node.mean_accept_batch t.paxos_node);
  g "log.bytes" (fun () ->
      float_of_int (Cert_log.bytes_total t.clog - t.base_log_bytes));
  g "log.back_certifications" (fun () ->
      float_of_int (Cert_log.back_certifications t.clog - t.base_back_certs));
  (* Truncation visibility: the live window (what memory actually holds)
     and the cumulative prune count. Never windowed — the soak harness
     asserts bounds on the raw values. *)
  g "cert_log.entries" (fun () -> float_of_int (Cert_log.entries t.clog));
  g "cert_log.bytes" (fun () -> float_of_int (Cert_log.bytes_live t.clog));
  g "cert_log.pruned" (fun () -> float_of_int (Cert_log.pruned t.clog));
  g "cert_log.floor" (fun () -> float_of_int (Cert_log.floor t.clog));
  g "cpu.utilization" (fun () -> Resource.utilization t.cpu);
  g "disk.utilization" (fun () -> Storage.Disk.utilization t.disk);
  (* Storage-fault visibility: current injected state plus cumulative fault
     and recovery-scan counters (never windowed — they are fault evidence,
     not throughput). *)
  g "disk.stalled" (fun () -> if Storage.Disk.stalled t.disk then 1. else 0.);
  g "disk.stall_extra_ms" (fun () ->
      match Storage.Disk.stall_extra t.disk with
      | None -> 0.
      | Some extra -> Time.to_ms extra);
  g "disk.degrade_factor" (fun () -> Storage.Disk.degrade_factor t.disk);
  g "disk.fsync_stalls" (fun () -> float_of_int (Storage.Disk.fsync_stalls t.disk));
  g "disk.io_errors" (fun () -> float_of_int (Storage.Disk.io_errors t.disk));
  g "disk.failovers" (fun () -> float_of_int (Stats.Counter.value t.c_disk_failovers));
  g "wal.torn_discarded" (fun () ->
      float_of_int (Storage.Wal.torn_discarded (wal ())));
  g "wal.corrupt_discarded" (fun () ->
      float_of_int (Storage.Wal.corrupt_discarded (wal ())));
  (* Registry reset = the certifier's own window reset. *)
  Obs.Registry.on_reset metrics (fun () -> rebaseline t);
  ignore
    (Engine.spawn engine (fun () ->
         let rec loop () =
           (match Mailbox.recv mailbox with
           | Types.Paxos msg -> if t.up then Paxos.Node.handle t.paxos_node msg
           | Types.Cert_request req ->
               if t.up then begin
                 record_snapshot_report t ~replica:req.replica
                   ~oldest:req.oldest_snapshot;
                 Mailbox.send t.cert_work (Req req)
               end
           | Types.Xvote v -> if t.up then handle_xvote t v
           | Types.Fetch_request freq ->
               if t.up then begin
                 record_snapshot_report t ~replica:freq.fetch_replica
                   ~oldest:freq.fetch_oldest_snapshot;
                 handle_fetch t freq
               end
           | Types.Cert_reply _ | Types.Cert_redirect _ | Types.Fetch_reply _ -> ());
           loop ()
         in
         loop ()));
  ignore
    (Engine.spawn engine (fun () ->
         let rec loop () =
           (* Blocks for the first request, then drains everything queued
              behind it: the batch formation rule. Under load the queue
              refills while this round's CPU + proposal happen, so batch
              size tracks the arrival rate. *)
           process_tasks t (Mailbox.recv_batch t.cert_work);
           loop ()
         in
         loop ()));
  spawn_role_watch t;
  spawn_xsweep t;
  spawn_disk_watch t;
  t

(* ------------------------------------------------------------------ *)
(* Faults *)

let crash ?wal_fault t =
  if t.up then begin
    t.up <- false;
    Obs.Events.emit t.events (Obs.Events.Node_crash { actor = t.node_id });
    (* A dead node has no network presence: drop the endpoint (so in-flight
       and future sends to it vanish, and per-link FIFO floors are purged)
       and discard anything already queued. The mailbox object survives for
       {!recover} to reattach — the pump fiber stays parked on it. *)
    Net.Network.unregister t.net t.node_id;
    Mailbox.clear t.mailbox;
    Paxos.Node.crash ?wal_fault t.paxos_node;
    (* Volatile certifier state is lost; the log is rebuilt from the durable
       Paxos log on recovery: redelivery re-appends from version 1 — and in
       the same stroke re-derives every cross-partition vote, pin and
       outcome, because those too are pure functions of the delivered
       prefix. *)
    t.clog <- Cert_log.create ~initial:t.initial ();
    Overlay.clear t.overlay;
    Mailbox.clear t.cert_work;
    (* The WAL drops its durability waiters on crash, so the roundsync fiber
       never fires: release the certify fiber here instead. *)
    Mailbox.clear t.round_gate;
    if t.round_waiting then Mailbox.send t.round_gate ();
    t.delivered <- [];
    Version_window.reset t.pending_replies;
    Outcomes.reset t.outcomes;
    Hashtbl.reset t.xstates;
    Mvcc.Key.Tbl.reset t.pins;
    Mvcc.Key.Tbl.reset t.pins_spec;
    Hashtbl.reset t.snapshot_reports;
    t.gc_floor <- 0;
    t.base_log_bytes <- 0;
    t.base_back_certs <- 0
  end

let recover t =
  if not t.up then begin
    Net.Network.reattach t.net t.node_id t.mailbox;
    t.up <- true;
    Obs.Events.emit t.events (Obs.Events.Node_recover { actor = t.node_id });
    Paxos.Node.recover t.paxos_node
  end

let stats t =
  let wal = Paxos.Node.wal t.paxos_node in
  {
    requests = Stats.Counter.value t.c_requests;
    commits = Stats.Counter.value t.c_commits;
    aborts_ww = Stats.Counter.value t.c_aborts_ww;
    aborts_forced = Stats.Counter.value t.c_aborts_forced;
    fetches = Stats.Counter.value t.c_fetches;
    log_bytes = Cert_log.bytes_total t.clog - t.base_log_bytes;
    log_fsyncs = Storage.Wal.sync_count wal;
    log_records = Storage.Wal.records_synced wal;
    mean_group_size = Storage.Wal.mean_group_size wal;
    back_certifications = Cert_log.back_certifications t.clog - t.base_back_certs;
    artificial_conflicts = Stats.Counter.value t.c_artificial;
    cert_batches = Stats.Counter.value t.c_cert_batches;
    mean_cert_batch = Stats.Summary.mean t.cert_batch_sizes;
    accept_broadcasts = Paxos.Node.accept_broadcasts t.paxos_node;
    mean_accept_batch = Paxos.Node.mean_accept_batch t.paxos_node;
    cpu_utilization = Resource.utilization t.cpu;
    disk_utilization = Storage.Disk.utilization t.disk;
    disk_failovers = Stats.Counter.value t.c_disk_failovers;
    disk_fsync_stalls = Storage.Disk.fsync_stalls t.disk;
    disk_io_errors = Storage.Disk.io_errors t.disk;
    wal_torn_discarded = Storage.Wal.torn_discarded wal;
    wal_corrupt_discarded = Storage.Wal.corrupt_discarded wal;
    xprepares = Stats.Counter.value t.c_xprepares;
    xcommits = Stats.Counter.value t.c_xcommits;
    xaborts = Stats.Counter.value t.c_xaborts;
  }

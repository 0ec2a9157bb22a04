open Sim

type violation = { at : Time.t; monitor : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%.3fs] %s: %s"
    (float_of_int (Time.to_us v.at) /. 1e6)
    v.monitor v.detail

(* A per-origin table: one window of request ids per interned origin
   index, so that a lookup neither builds a tuple nor hashes a string.
   [none] is the value of an id it does not hold. *)
let none = min_int
let ids () = Version_window.create none
let per_origin () = Dense.create (ids ())

(* Per-certifier view for the durability and gc-floor monitors. Rebuilt
   from scratch when the node crashes: recovery redelivers the Paxos log
   from the first slot, so the log view restarts at version 0 and the
   re-appends are checked against the global acked table — which is exactly
   the "acked commits survive recovery" obligation. *)
type cert_state = {
  mutable log_version : int; (* last contiguously appended version *)
  appended : int Version_window.t Dense.t; (* origin -> req_id -> version *)
  mutable floor : int;
  outstanding : int Version_window.t Dense.t;
      (* admitted, unanswered: origin -> req_id -> replica_version (live snapshot) *)
}

(* Per-(replica, partition) proxy view for the serial-order monitor. *)
type store_state = {
  mutable base : int; (* every version <= base is installed *)
  installed : unit Version_window.t; (* versions > base installed so far *)
  mutable visible : int; (* last announced snapshot version *)
}

type xrecord = {
  mutable decided : bool option;
  votes : (int, bool) Hashtbl.t; (* participant part -> its fixed vote *)
}

(* Per-partition durable acks: the version of each acked commit, and the
   commit acked at each version. *)
type acks = {
  versions : int Version_window.t Dense.t; (* origin -> req_id -> version *)
  origin_at : int Dense.t; (* version -> origin index *)
  req_at : int Dense.t; (* version -> req_id *)
}

type t = {
  events : Events.t;
  progress_bound : Time.t;
  mutable violations : violation list; (* newest first *)
  mutable n_violations : int;
  mutable n_events : int;
  actors : Names.t; (* actor and origin strings, interned *)
  origins : Names.t;
  (* 1. commit-durability, per partition *)
  acked : acks Dense.t; (* per partition *)
  certs : cert_state Dense.t; (* per actor; also feeds monitor 4 *)
  (* 2. serial order / GSI *)
  stores : store_state Dense.t; (* per actor *)
  (* 3. cross-partition atomicity *)
  xas : (string, xrecord) Hashtbl.t;
  (* 5. progress: per actor, tx -> submission time *)
  pending : Time.t Version_window.t Dense.t;
  mutable healthy : bool;
  mutable last_heal : Time.t;
  mutable last_progress_check : Time.t;
}

let violationf t ~at ~monitor fmt =
  Format.kasprintf
    (fun detail ->
      t.n_violations <- t.n_violations + 1;
      t.violations <- { at; monitor; detail } :: t.violations)
    fmt

let new_cert () =
  { log_version = 0; appended = per_origin (); floor = 0; outstanding = per_origin () }

let new_store () = { base = 0; installed = Version_window.create (); visible = 0 }
let new_acks () = { versions = per_origin (); origin_at = Dense.create 0; req_at = Dense.create 0 }
let cert_state t actor = Dense.find_or_add t.certs (Names.index t.actors actor) new_cert
let store_state t actor = Dense.find_or_add t.stores (Names.index t.actors actor) new_store
let acks t part = Dense.find_or_add t.acked part new_acks

(* Whether a commit other than (ix, req_id) was acked at [version]. *)
let acked_other acks version ~ix ~req_id =
  Dense.mem acks.origin_at version
  && (Dense.get acks.origin_at version <> ix || Dense.get acks.req_at version <> req_id)

let xrecord t gtx =
  match Hashtbl.find_opt t.xas gtx with
  | Some r -> r
  | None ->
      let r = { decided = None; votes = Hashtbl.create 4 } in
      Hashtbl.replace t.xas gtx r;
      r

(* --- 1. commit-durability --------------------------------------------- *)

let on_durable_ack t at ~part ~origin ~req_id ~version =
  let ix = Names.index t.origins origin in
  let acks = acks t part in
  let versions = Dense.find_or_add acks.versions ix ids in
  (let v = Version_window.get versions req_id in
   if v <> none && v <> version then
     violationf t ~at ~monitor:"durability"
       "commit (%s,%d) p%d acked at v=%d was previously acked at v=%d"
       origin req_id part version v);
  if acked_other acks version ~ix ~req_id then
    violationf t ~at ~monitor:"durability"
      "p%d v=%d acked for (%s,%d) but already acked for (%s,%d)" part
      version origin req_id
      (Names.name t.origins (Dense.get acks.origin_at version))
      (Dense.get acks.req_at version);
  Version_window.replace versions req_id version;
  Dense.set acks.origin_at version ix;
  Dense.set acks.req_at version req_id

let on_verdict t at ~part ~origin ~req_id ~committed ~actor =
  let cs = cert_state t actor in
  let ix = Names.index t.origins origin in
  Version_window.remove (Dense.get cs.outstanding ix) req_id;
  if (not committed) && Version_window.mem (Dense.get (acks t part).versions ix) req_id then
    violationf t ~at ~monitor:"durability"
      "commit (%s,%d) p%d was durably acked but %s later replied abort" origin
      req_id part actor

let on_log_append t at ~actor ~part ~version ~origin ~req_id =
  let cs = cert_state t actor in
  let ix = Names.index t.origins origin in
  if version <> cs.log_version + 1 then
    violationf t ~at ~monitor:"serial-order"
      "%s appended v=%d after v=%d (certified order broken)" actor version
      cs.log_version;
  cs.log_version <- max cs.log_version version;
  let appended = Dense.find_or_add cs.appended ix ids in
  (let v = Version_window.get appended req_id in
   if v <> none && v <> version then
     violationf t ~at ~monitor:"serial-order"
       "%s appended (%s,%d) twice: v=%d and v=%d" actor origin req_id v
       version);
  Version_window.replace appended req_id version;
  (* The durability obligations: an acked commit keeps its version across
     any recovery's re-append, and nothing else takes that version. *)
  let acks = acks t part in
  (let v = Version_window.get (Dense.get acks.versions ix) req_id in
   if v <> none && v <> version then
     violationf t ~at ~monitor:"durability"
       "acked commit (%s,%d) p%d re-appeared at v=%d (acked at v=%d)" origin
       req_id part version v);
  if acked_other acks version ~ix ~req_id then
    violationf t ~at ~monitor:"durability"
      "p%d v=%d belongs to acked commit (%s,%d) but %s appended (%s,%d)"
      part version
      (Names.name t.origins (Dense.get acks.origin_at version))
      (Dense.get acks.req_at version) actor origin req_id

(* --- 2. serial order / GSI -------------------------------------------- *)

let on_ws_install t at ~actor ~version =
  let ss = store_state t actor in
  if version <= ss.base || Version_window.mem ss.installed version then
    violationf t ~at ~monitor:"serial-order"
      "%s installed writeset v=%d twice" actor version
  else Version_window.replace ss.installed version ()

let on_snapshot_advance t at ~actor ~version =
  let ss = store_state t actor in
  if version < ss.visible then
    violationf t ~at ~monitor:"serial-order"
      "%s visible snapshot went backwards: v=%d after v=%d" actor version
      ss.visible
  else begin
    (* The snapshot may only expose the contiguous installed prefix. *)
    for v = max ss.visible ss.base + 1 to version do
      if v > ss.base && not (Version_window.mem ss.installed v) then
        violationf t ~at ~monitor:"serial-order"
          "%s snapshot advanced to v=%d over uninstalled v=%d" actor version v
    done;
    ss.visible <- version;
    (* Compact: everything below the visible horizon is settled. *)
    if version > ss.base then begin
      for v = ss.base + 1 to version do
        Version_window.remove ss.installed v
      done;
      ss.base <- version
    end
  end

let on_snapshot_load t ~actor ~version =
  let ss = store_state t actor in
  Version_window.reset ss.installed;
  ss.base <- version;
  ss.visible <- version

(* --- 3. cross-partition atomicity ------------------------------------- *)

let on_prepared t at ~part ~gtx ~vote =
  let r = xrecord t gtx in
  (match Hashtbl.find_opt r.votes part with
  | Some v when v <> vote ->
      violationf t ~at ~monitor:"cross-atomicity"
        "%s p%d fixed vote %b but the group previously voted %b" gtx part vote
        v
  | _ -> ());
  Hashtbl.replace r.votes part vote;
  match r.decided with
  | Some true when not vote ->
      violationf t ~at ~monitor:"cross-atomicity"
        "%s decided commit but p%d votes abort" gtx part
  | _ -> ()

let on_decision t at ~part ~gtx ~committed =
  let r = xrecord t gtx in
  (match r.decided with
  | Some d when d <> committed ->
      violationf t ~at ~monitor:"cross-atomicity"
        "%s decision %s at p%d conflicts with earlier decision %s" gtx
        (if committed then "commit" else "abort")
        part
        (if d then "commit" else "abort")
  | _ -> ());
  r.decided <- Some committed;
  if committed then
    Hashtbl.iter
      (fun p v ->
        if not v then
          violationf t ~at ~monitor:"cross-atomicity"
            "%s decided commit but p%d had voted abort" gtx p)
      r.votes

(* --- 4. monotone GC floor --------------------------------------------- *)

let on_gc_floor t at ~actor ~part ~floor =
  let cs = cert_state t actor in
  if floor < cs.floor then
    violationf t ~at ~monitor:"gc-floor"
      "%s p%d floor went backwards: %d after %d" actor part floor cs.floor;
  (* Report in (origin, req_id) order. *)
  let live = ref [] in
  Dense.iteri
    (fun ix reqs ->
      Version_window.fold
        (fun req_id rv () ->
          if rv < floor then live := (Names.name t.origins ix, req_id, rv) :: !live)
        reqs ())
    cs.outstanding;
  List.iter
    (fun (origin, req_id, rv) ->
      violationf t ~at ~monitor:"gc-floor"
        "%s p%d advanced floor to %d over live snapshot rv=%d of pending \
         (%s,%d)"
        actor part floor rv origin req_id)
    (List.sort
       (fun (a, x, _) (b, y, _) ->
         match String.compare a b with 0 -> Int.compare x y | c -> c)
       !live);
  cs.floor <- max cs.floor floor

(* --- 5. progress -------------------------------------------------------- *)

let check_progress t ~now =
  (* Report in (actor, tx) order. *)
  let overdue = ref [] in
  Dense.iteri
    (fun actor_ix txs ->
      Version_window.fold
        (fun tx submitted () ->
          (* The clock starts at submission, or at the last heal if the run
             was faulted since: "eventually commits or aborts once faults
             heal". *)
          let since =
            if Time.(submitted < t.last_heal) then t.last_heal else submitted
          in
          if Time.(Time.add since t.progress_bound < now) then
            overdue := (Names.name t.actors actor_ix, actor_ix, tx, submitted) :: !overdue)
        txs ())
    t.pending;
  List.iter
    (fun (actor, actor_ix, tx, submitted) ->
      Version_window.remove (Dense.get t.pending actor_ix) tx;
      violationf t ~at:now ~monitor:"progress"
        "%s #%d submitted at %.3fs still unresolved %.1fs after faults healed"
        actor tx
        (float_of_int (Time.to_us submitted) /. 1e6)
        (float_of_int (Time.to_us t.progress_bound) /. 1e6))
    (List.sort
       (fun (a, _, x, _) (b, _, y, _) ->
         match String.compare a b with 0 -> Int.compare x y | c -> c)
       !overdue)

let maybe_check_progress t ~now =
  if t.healthy && Time.(Time.add t.last_progress_check (Time.sec 1) < now)
  then begin
    t.last_progress_check <- now;
    check_progress t ~now
  end

(* --- node lifecycle ----------------------------------------------------- *)

let drop_actor_pending t actor = Dense.remove t.pending (Names.index t.actors actor)

let on_node_crash t actor =
  (* A crashed certifier rebuilds its log by redelivery (checked against
     the acked table as it does); a crashed replica's stores are re-seeded
     by the Snapshot_load its recovery emits. Either way the old per-actor
     view is void, as is any client work the crash cancelled. *)
  let i = Names.index t.actors actor in
  Dense.remove t.certs i;
  Dense.remove t.stores i;
  drop_actor_pending t actor

(* A certifier that lost leadership abandons its admitted requests
   without crashing (it stops answering them), so their snapshots no
   longer pin its floor once it truncates as a follower. *)
let on_actor_reset t actor =
  let i = Names.index t.actors actor in
  if Dense.mem t.certs i then Dense.reset (Dense.get t.certs i).outstanding;
  drop_actor_pending t actor

let handle t at ev =
  t.n_events <- t.n_events + 1;
  (match ev with
  | Events.Request_admitted { actor; origin; req_id; replica_version; _ } ->
      let cs = cert_state t actor in
      let reqs = Dense.find_or_add cs.outstanding (Names.index t.origins origin) ids in
      Version_window.replace reqs req_id replica_version
  | Events.Verdict { actor; part; origin; req_id; committed; _ } ->
      on_verdict t at ~part ~origin ~req_id ~committed ~actor
  | Events.Durable_ack { part; origin; req_id; version; _ } ->
      on_durable_ack t at ~part ~origin ~req_id ~version
  | Events.Log_append { actor; part; version; origin; req_id; _ } ->
      on_log_append t at ~actor ~part ~version ~origin ~req_id
  | Events.Gc_floor { actor; part; floor } -> on_gc_floor t at ~actor ~part ~floor
  | Events.Prepared { part; gtx; vote; _ } -> on_prepared t at ~part ~gtx ~vote
  | Events.Xvote _ -> ()
  | Events.Decision { part; gtx; committed; _ } ->
      on_decision t at ~part ~gtx ~committed
  | Events.Ws_install { actor; version; _ } -> on_ws_install t at ~actor ~version
  | Events.Snapshot_advance { actor; version; _ } ->
      on_snapshot_advance t at ~actor ~version
  | Events.Snapshot_load { actor; version; _ } ->
      on_snapshot_load t ~actor ~version
  | Events.Tx_submitted { actor; tx } ->
      let txs =
        Dense.find_or_add t.pending (Names.index t.actors actor) (fun () ->
            Version_window.create Time.zero)
      in
      Version_window.replace txs tx at
  | Events.Tx_resolved { actor; tx; _ } ->
      Version_window.remove (Dense.get t.pending (Names.index t.actors actor)) tx
  | Events.Node_crash { actor } -> on_node_crash t actor
  | Events.Node_recover _ -> ()
  | Events.Actor_reset { actor } -> on_actor_reset t actor
  | Events.Fault_health { healthy } ->
      if healthy && not t.healthy then t.last_heal <- at;
      t.healthy <- healthy);
  maybe_check_progress t ~now:at

let attach ?(progress_bound = Time.sec 20) ?metrics events =
  let t =
    {
      events;
      progress_bound;
      violations = [];
      n_violations = 0;
      n_events = 0;
      actors = Names.create ();
      origins = Names.create ();
      acked = Dense.create (new_acks ());
      certs = Dense.create (new_cert ());
      stores = Dense.create (new_store ());
      xas = Hashtbl.create 64;
      pending = Dense.create (Version_window.create Time.zero);
      healthy = true;
      last_heal = Time.zero;
      last_progress_check = Time.zero;
    }
  in
  Events.subscribe events (fun at ev -> handle t at ev);
  (match metrics with
  | Some reg ->
      Registry.gauge reg "monitor.violations" (fun () ->
          float_of_int t.n_violations);
      Registry.gauge reg "monitor.events" (fun () -> float_of_int t.n_events)
  | None -> ());
  t

let finalize t ~now =
  (* End of run: the workload has drained, so anything still pending is
     stuck for good — apply the progress bound one last time even if the
     event stream went silent. *)
  if t.healthy then check_progress t ~now

let violations t = List.rev t.violations
let violation_count t = t.n_violations
let events_seen t = t.n_events

open Sim

type violation = { at : Time.t; monitor : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%.3fs] %s: %s"
    (float_of_int (Time.to_us v.at) /. 1e6)
    v.monitor v.detail

(* Per-certifier view for the durability and gc-floor monitors. Rebuilt
   from scratch when the node crashes: recovery redelivers the Paxos log
   from the first slot, so the log view restarts at version 0 and the
   re-appends are checked against the global acked table — which is exactly
   the "acked commits survive recovery" obligation. *)
type cert_state = {
  mutable log_version : int; (* last contiguously appended version *)
  appended : (string * int, int) Hashtbl.t; (* (origin, req_id) -> version *)
  mutable floor : int;
  outstanding : (string * int, int) Hashtbl.t;
      (* admitted, unanswered requests -> replica_version (live snapshot) *)
}

(* Per-(replica, partition) proxy view for the serial-order monitor. *)
type store_state = {
  mutable base : int; (* every version <= base is installed *)
  installed : (int, unit) Hashtbl.t; (* versions > base installed so far *)
  mutable visible : int; (* last announced snapshot version *)
}

type xrecord = {
  mutable decided : bool option;
  votes : (int, bool) Hashtbl.t; (* participant part -> its fixed vote *)
}

type t = {
  events : Events.t;
  progress_bound : Time.t;
  mutable violations : violation list; (* newest first *)
  mutable n_violations : int;
  mutable n_events : int;
  (* 1. commit-durability *)
  acked : (int * string * int, int) Hashtbl.t; (* (part,origin,req) -> v *)
  acked_at : (int * int, string * int) Hashtbl.t; (* (part,v) -> key *)
  certs : (string, cert_state) Hashtbl.t; (* also feeds monitor 4 *)
  (* 2. serial order / GSI *)
  stores : (string, store_state) Hashtbl.t;
  (* 3. cross-partition atomicity *)
  xas : (string, xrecord) Hashtbl.t;
  (* 5. progress *)
  pending : (string * int, Time.t) Hashtbl.t;
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

let cert_state t actor =
  match Hashtbl.find_opt t.certs actor with
  | Some s -> s
  | None ->
      let s =
        {
          log_version = 0;
          appended = Hashtbl.create 64;
          floor = 0;
          outstanding = Hashtbl.create 16;
        }
      in
      Hashtbl.replace t.certs actor s;
      s

let store_state t actor =
  match Hashtbl.find_opt t.stores actor with
  | Some s -> s
  | None ->
      let s = { base = 0; installed = Hashtbl.create 64; visible = 0 } in
      Hashtbl.replace t.stores actor s;
      s

let xrecord t gtx =
  match Hashtbl.find_opt t.xas gtx with
  | Some r -> r
  | None ->
      let r = { decided = None; votes = Hashtbl.create 4 } in
      Hashtbl.replace t.xas gtx r;
      r

(* --- 1. commit-durability --------------------------------------------- *)

let on_durable_ack t at ~part ~origin ~req_id ~version =
  let key = (part, origin, req_id) in
  (match Hashtbl.find_opt t.acked key with
  | Some v when v <> version ->
      violationf t ~at ~monitor:"durability"
        "commit (%s,%d) p%d acked at v=%d was previously acked at v=%d"
        origin req_id part version v
  | _ -> ());
  (match Hashtbl.find_opt t.acked_at (part, version) with
  | Some (o, r) when not (String.equal o origin && r = req_id) ->
      violationf t ~at ~monitor:"durability"
        "p%d v=%d acked for (%s,%d) but already acked for (%s,%d)" part
        version origin req_id o r
  | _ -> ());
  Hashtbl.replace t.acked key version;
  Hashtbl.replace t.acked_at (part, version) (origin, req_id)

let on_verdict t at ~part ~origin ~req_id ~committed ~actor =
  let cs = cert_state t actor in
  Hashtbl.remove cs.outstanding (origin, req_id);
  if (not committed) && Hashtbl.mem t.acked (part, origin, req_id) then
    violationf t ~at ~monitor:"durability"
      "commit (%s,%d) p%d was durably acked but %s later replied abort" origin
      req_id part actor

let on_log_append t at ~actor ~part ~version ~origin ~req_id =
  let cs = cert_state t actor in
  if version <> cs.log_version + 1 then
    violationf t ~at ~monitor:"serial-order"
      "%s appended v=%d after v=%d (certified order broken)" actor version
      cs.log_version;
  cs.log_version <- max cs.log_version version;
  (match Hashtbl.find_opt cs.appended (origin, req_id) with
  | Some v when v <> version ->
      violationf t ~at ~monitor:"serial-order"
        "%s appended (%s,%d) twice: v=%d and v=%d" actor origin req_id v
        version
  | _ -> ());
  Hashtbl.replace cs.appended (origin, req_id) version;
  (* The durability obligations: an acked commit keeps its version across
     any recovery's re-append, and nothing else takes that version. *)
  (match Hashtbl.find_opt t.acked (part, origin, req_id) with
  | Some v when v <> version ->
      violationf t ~at ~monitor:"durability"
        "acked commit (%s,%d) p%d re-appeared at v=%d (acked at v=%d)" origin
        req_id part version v
  | _ -> ());
  match Hashtbl.find_opt t.acked_at (part, version) with
  | Some (o, r) when not (String.equal o origin && r = req_id) ->
      violationf t ~at ~monitor:"durability"
        "p%d v=%d belongs to acked commit (%s,%d) but %s appended (%s,%d)"
        part version o r actor origin req_id
  | _ -> ()

(* --- 2. serial order / GSI -------------------------------------------- *)

let on_ws_install t at ~actor ~version =
  let ss = store_state t actor in
  if version <= ss.base || Hashtbl.mem ss.installed version then
    violationf t ~at ~monitor:"serial-order"
      "%s installed writeset v=%d twice" actor version
  else Hashtbl.replace ss.installed version ()

let on_snapshot_advance t at ~actor ~version =
  let ss = store_state t actor in
  if version < ss.visible then
    violationf t ~at ~monitor:"serial-order"
      "%s visible snapshot went backwards: v=%d after v=%d" actor version
      ss.visible
  else begin
    (* The snapshot may only expose the contiguous installed prefix. *)
    for v = max ss.visible ss.base + 1 to version do
      if v > ss.base && not (Hashtbl.mem ss.installed v) then
        violationf t ~at ~monitor:"serial-order"
          "%s snapshot advanced to v=%d over uninstalled v=%d" actor version v
    done;
    ss.visible <- version;
    (* Compact: everything below the visible horizon is settled. *)
    if version > ss.base then begin
      for v = ss.base + 1 to version do
        Hashtbl.remove ss.installed v
      done;
      ss.base <- version
    end
  end

let on_snapshot_load t ~actor ~version =
  let ss = store_state t actor in
  Hashtbl.reset ss.installed;
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
  Hashtbl.iter
    (fun (origin, req_id) rv ->
      if rv < floor then
        violationf t ~at ~monitor:"gc-floor"
          "%s p%d advanced floor to %d over live snapshot rv=%d of pending \
           (%s,%d)"
          actor part floor rv origin req_id)
    cs.outstanding;
  cs.floor <- max cs.floor floor

(* --- 5. progress -------------------------------------------------------- *)

let check_progress t ~now =
  let overdue = ref [] in
  Hashtbl.iter
    (fun key submitted ->
      (* The clock starts at submission, or at the last heal if the run was
         faulted since: "eventually commits or aborts once faults heal". *)
      let since =
        if Time.(submitted < t.last_heal) then t.last_heal else submitted
      in
      if Time.(Time.add since t.progress_bound < now) then
        overdue := key :: !overdue)
    t.pending;
  List.iter
    (fun ((actor, tx) as key) ->
      let submitted = Hashtbl.find t.pending key in
      Hashtbl.remove t.pending key;
      violationf t ~at:now ~monitor:"progress"
        "%s #%d submitted at %.3fs still unresolved %.1fs after faults healed"
        actor tx
        (float_of_int (Time.to_us submitted) /. 1e6)
        (float_of_int (Time.to_us t.progress_bound) /. 1e6))
    !overdue

let maybe_check_progress t ~now =
  if t.healthy && Time.(Time.add t.last_progress_check (Time.sec 1) < now)
  then begin
    t.last_progress_check <- now;
    check_progress t ~now
  end

(* --- node lifecycle ----------------------------------------------------- *)

let drop_actor_pending t actor =
  let stale =
    Hashtbl.fold
      (fun ((a, _) as key) _ acc ->
        if String.equal a actor then key :: acc else acc)
      t.pending []
  in
  List.iter (Hashtbl.remove t.pending) stale

let on_node_crash t actor =
  (* A crashed certifier rebuilds its log by redelivery (checked against
     the acked table as it does); a crashed replica's stores are re-seeded
     by the Snapshot_load its recovery emits. Either way the old per-actor
     view is void, as is any client work the crash cancelled. *)
  Hashtbl.remove t.certs actor;
  Hashtbl.remove t.stores actor;
  drop_actor_pending t actor

(* A certifier that lost leadership abandons its admitted requests
   without crashing (it stops answering them), so their snapshots no
   longer pin its floor once it truncates as a follower. *)
let on_actor_reset t actor =
  (match Hashtbl.find_opt t.certs actor with
  | Some cs -> Hashtbl.reset cs.outstanding
  | None -> ());
  drop_actor_pending t actor

let handle t at ev =
  t.n_events <- t.n_events + 1;
  (match ev with
  | Events.Request_admitted { actor; origin; req_id; replica_version; _ } ->
      let cs = cert_state t actor in
      Hashtbl.replace cs.outstanding (origin, req_id) replica_version
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
      Hashtbl.replace t.pending (actor, tx) at
  | Events.Tx_resolved { actor; tx; _ } -> Hashtbl.remove t.pending (actor, tx)
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
      acked = Hashtbl.create 1024;
      acked_at = Hashtbl.create 1024;
      certs = Hashtbl.create 8;
      stores = Hashtbl.create 8;
      xas = Hashtbl.create 64;
      pending = Hashtbl.create 64;
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

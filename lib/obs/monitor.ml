open Sim

type violation = { at : Time.t; monitor : string; detail : string }

let pp_violation ppf v =
  Format.fprintf ppf "[%.3fs] %s: %s"
    (float_of_int (Time.to_us v.at) /. 1e6)
    v.monitor v.detail

(* Request and transaction keys of the tables that are not per origin:
   the number above 16 bits of interned name index, so that an
   {!Int_table} lookup neither builds a tuple nor hashes a string. *)
let name_bits = 16
let name_mask = (1 lsl name_bits) - 1
let max_number = 1 lsl (Sys.int_size - name_bits - 2)

let pack ix n =
  if ix > name_mask || n >= max_number || n < -max_number then
    invalid_arg "Obs.Monitor: name index or request number out of range";
  (n lsl name_bits) lor ix

let packed_ix key = key land name_mask
let packed_number key = key asr name_bits

(* Per-certifier view for the durability and gc-floor monitors. Rebuilt
   from scratch when the node crashes: recovery redelivers the Paxos log
   from the first slot, so the log view restarts at version 0 and the
   re-appends are checked against the global acked table — which is exactly
   the "acked commits survive recovery" obligation. *)
type cert_state = {
  mutable log_version : int; (* last contiguously appended version *)
  appended : Origin_table.t; (* (origin, req_id) -> version *)
  mutable floor : int;
  outstanding : int Int_table.t;
      (* admitted, unanswered (origin, req_id) -> replica_version (live snapshot) *)
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

(* No commit acked at a version: [acked_at] cells hold packed keys. *)
let unacked = min_int

type t = {
  events : Events.t;
  progress_bound : Time.t;
  mutable violations : violation list; (* newest first *)
  mutable n_violations : int;
  mutable n_events : int;
  actors : Names.t; (* actor and origin strings, interned *)
  origins : Names.t;
  (* 1. commit-durability, per partition *)
  acked : Origin_table.t Dense.t; (* (origin, req) -> v *)
  acked_at : int Dense.t Dense.t; (* v -> (origin, req), or [unacked] *)
  certs : cert_state option Dense.t; (* per actor; also feeds monitor 4 *)
  (* 2. serial order / GSI *)
  stores : store_state option Dense.t; (* per actor *)
  (* 3. cross-partition atomicity *)
  xas : (string, xrecord) Hashtbl.t;
  (* 5. progress: per actor, tx -> submission time *)
  pending : Time.t Int_table.t Dense.t;
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
  let i = Names.index t.actors actor in
  match Dense.get t.certs i with
  | Some s -> s
  | None ->
      let s =
        {
          log_version = 0;
          appended = Origin_table.create ();
          floor = 0;
          outstanding = Int_table.create 16;
        }
      in
      Dense.set t.certs i (Some s);
      s

let store_state t actor =
  let i = Names.index t.actors actor in
  match Dense.get t.stores i with
  | Some s -> s
  | None ->
      let s = { base = 0; installed = Version_window.create (); visible = 0 } in
      Dense.set t.stores i (Some s);
      s

(* The table at index [i] of [tables], created on first use. *)
let table tables i ~create =
  if Dense.mem tables i then Dense.get tables i
  else begin
    let tbl = create () in
    Dense.set tables i tbl;
    tbl
  end

let acked_table t part = table t.acked part ~create:Origin_table.create
let acked_at t part version = Dense.get (Dense.get t.acked_at part) version

let set_acked_at t part version key =
  if not (Dense.mem t.acked_at part) then Dense.set t.acked_at part (Dense.create unacked);
  Dense.set (Dense.get t.acked_at part) version key

let pending_table t actor_ix = table t.pending actor_ix ~create:(fun () -> Int_table.create 16)

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
  let key = pack ix req_id in
  let acked = acked_table t part in
  (let v = Origin_table.get acked ~origin:ix req_id in
   if v <> Origin_table.none && v <> version then
     violationf t ~at ~monitor:"durability"
       "commit (%s,%d) p%d acked at v=%d was previously acked at v=%d"
       origin req_id part version v);
  (let held = acked_at t part version in
   if held <> unacked && held <> key then
     violationf t ~at ~monitor:"durability"
       "p%d v=%d acked for (%s,%d) but already acked for (%s,%d)" part
       version origin req_id
       (Names.name t.origins (packed_ix held))
       (packed_number held));
  Origin_table.replace acked ~origin:ix req_id version;
  set_acked_at t part version key

let on_verdict t at ~part ~origin ~req_id ~committed ~actor =
  let cs = cert_state t actor in
  let ix = Names.index t.origins origin in
  Int_table.remove cs.outstanding (pack ix req_id);
  if (not committed) && Origin_table.mem (acked_table t part) ~origin:ix req_id then
    violationf t ~at ~monitor:"durability"
      "commit (%s,%d) p%d was durably acked but %s later replied abort" origin
      req_id part actor

let on_log_append t at ~actor ~part ~version ~origin ~req_id =
  let cs = cert_state t actor in
  let ix = Names.index t.origins origin in
  let key = pack ix req_id in
  if version <> cs.log_version + 1 then
    violationf t ~at ~monitor:"serial-order"
      "%s appended v=%d after v=%d (certified order broken)" actor version
      cs.log_version;
  cs.log_version <- max cs.log_version version;
  (let v = Origin_table.get cs.appended ~origin:ix req_id in
   if v <> Origin_table.none && v <> version then
     violationf t ~at ~monitor:"serial-order"
       "%s appended (%s,%d) twice: v=%d and v=%d" actor origin req_id v
       version);
  Origin_table.replace cs.appended ~origin:ix req_id version;
  (* The durability obligations: an acked commit keeps its version across
     any recovery's re-append, and nothing else takes that version. *)
  (let v = Origin_table.get (acked_table t part) ~origin:ix req_id in
   if v <> Origin_table.none && v <> version then
     violationf t ~at ~monitor:"durability"
       "acked commit (%s,%d) p%d re-appeared at v=%d (acked at v=%d)" origin
       req_id part version v);
  let held = acked_at t part version in
  if held <> unacked && held <> key then
    violationf t ~at ~monitor:"durability"
      "p%d v=%d belongs to acked commit (%s,%d) but %s appended (%s,%d)"
      part version
      (Names.name t.origins (packed_ix held))
      (packed_number held) actor origin req_id

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
  let live =
    Int_table.fold
      (fun key rv acc -> if rv < floor then (key, rv) :: acc else acc)
      cs.outstanding []
  in
  let origin key = Names.name t.origins (packed_ix key) in
  List.iter
    (fun (key, rv) ->
      violationf t ~at ~monitor:"gc-floor"
        "%s p%d advanced floor to %d over live snapshot rv=%d of pending \
         (%s,%d)"
        actor part floor rv (origin key) (packed_number key))
    (List.sort
       (fun (a, _) (b, _) ->
         match String.compare (origin a) (origin b) with
         | 0 -> Int.compare (packed_number a) (packed_number b)
         | c -> c)
       live);
  cs.floor <- max cs.floor floor

(* --- 5. progress -------------------------------------------------------- *)

let check_progress t ~now =
  (* Report in (actor, tx) order. *)
  let overdue = ref [] in
  for actor_ix = 0 to Dense.bound t.pending - 1 do
    if Dense.mem t.pending actor_ix then
      Int_table.iter
        (fun tx submitted ->
          (* The clock starts at submission, or at the last heal if the run
             was faulted since: "eventually commits or aborts once faults
             heal". *)
          let since =
            if Time.(submitted < t.last_heal) then t.last_heal else submitted
          in
          if Time.(Time.add since t.progress_bound < now) then
            overdue := (Names.name t.actors actor_ix, actor_ix, tx, submitted) :: !overdue)
        (Dense.get t.pending actor_ix)
  done;
  List.iter
    (fun (actor, actor_ix, tx, submitted) ->
      Int_table.remove (Dense.get t.pending actor_ix) tx;
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

let drop_actor_pending t actor =
  let i = Names.index t.actors actor in
  if Dense.mem t.pending i then Int_table.reset (Dense.get t.pending i)

let on_node_crash t actor =
  (* A crashed certifier rebuilds its log by redelivery (checked against
     the acked table as it does); a crashed replica's stores are re-seeded
     by the Snapshot_load its recovery emits. Either way the old per-actor
     view is void, as is any client work the crash cancelled. *)
  let i = Names.index t.actors actor in
  if Dense.mem t.certs i then Dense.set t.certs i None;
  if Dense.mem t.stores i then Dense.set t.stores i None;
  drop_actor_pending t actor

(* A certifier that lost leadership abandons its admitted requests
   without crashing (it stops answering them), so their snapshots no
   longer pin its floor once it truncates as a follower. *)
let on_actor_reset t actor =
  (match Dense.get t.certs (Names.index t.actors actor) with
  | Some cs -> Int_table.reset cs.outstanding
  | None -> ());
  drop_actor_pending t actor

let handle t at ev =
  t.n_events <- t.n_events + 1;
  (match ev with
  | Events.Request_admitted { actor; origin; req_id; replica_version; _ } ->
      let cs = cert_state t actor in
      let key = pack (Names.index t.origins origin) req_id in
      Int_table.replace cs.outstanding key replica_version
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
      Int_table.replace (pending_table t (Names.index t.actors actor)) tx at
  | Events.Tx_resolved { actor; tx; _ } ->
      Int_table.remove (pending_table t (Names.index t.actors actor)) tx
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
      acked = Dense.create (Origin_table.create ());
      acked_at = Dense.create (Dense.create unacked);
      certs = Dense.create None;
      stores = Dense.create None;
      xas = Hashtbl.create 64;
      pending = Dense.create (Int_table.create 1);
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

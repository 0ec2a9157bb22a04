(* End-to-end tests of the replication middleware: certification log,
   certifier group, proxy behaviour, the three system modes, fault
   tolerance and the prefix-consistency safety invariant. *)

open Sim
open Tashkent

let k table row = Mvcc.Key.make ~table ~row
let vi n = Mvcc.Value.int n
let upd n = Mvcc.Writeset.Update (vi n)
let ws1 key n = Mvcc.Writeset.singleton key (upd n)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cert_log *)

let entry version origin req_id ws =
  { Types.version; origin; req_id; ws; gc_floor = 0; xa = None }

let test_cert_log_append_and_certify () =
  let log = Cert_log.create () in
  Cert_log.append log (entry 1 "r0" 1 (ws1 (k "t" "a") 1));
  Cert_log.append log (entry 2 "r1" 2 (ws1 (k "t" "b") 2));
  Cert_log.append log (entry 3 "r0" 3 (ws1 (k "t" "a") 3));
  check_int "version" 3 (Cert_log.version log);
  (* conflicting writeset started at version 0 *)
  Alcotest.(check (option int)) "conflict newest" (Some 3)
    (Cert_log.certify log (ws1 (k "t" "a") 9) ~start_version:0);
  Alcotest.(check (option int)) "no conflict after 3" None
    (Cert_log.certify log (ws1 (k "t" "a") 9) ~start_version:3);
  Alcotest.(check (option int)) "disjoint key passes" None
    (Cert_log.certify log (ws1 (k "t" "zz") 9) ~start_version:0);
  (* dense version check *)
  match Cert_log.append log (entry 5 "r0" 9 (ws1 (k "t" "c") 1)) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "gap in versions must be rejected"

let test_cert_log_entries_between () =
  let log = Cert_log.create () in
  for v = 1 to 5 do
    Cert_log.append log (entry v "r0" v (ws1 (k "t" (string_of_int v)) v))
  done;
  let versions lo hi =
    List.map (fun (e : Types.entry) -> e.version) (Cert_log.entries_between log ~lo ~hi)
  in
  Alcotest.(check (list int)) "window (2,4]" [ 3; 4 ] (versions 2 4);
  Alcotest.(check (list int)) "clamped hi" [ 5 ] (versions 4 99);
  Alcotest.(check (list int)) "empty window" [] (versions 5 5)

let test_cert_log_back_certify () =
  let log = Cert_log.create () in
  Cert_log.append log (entry 1 "r0" 1 (ws1 (k "t" "x") 1));
  Cert_log.append log (entry 2 "r1" 2 (ws1 (k "t" "y") 2));
  Cert_log.append log (entry 3 "r2" 3 (ws1 (k "t" "x") 3));
  (* entry 3 conflicts with entry 1 when checked back to version 0 *)
  Alcotest.(check (option int)) "finds older conflict" (Some 1)
    (Cert_log.back_certify log ~version:3 ~down_to:0);
  (* entry 2 is conflict-free all the way down *)
  Alcotest.(check (option int)) "no conflict" None
    (Cert_log.back_certify log ~version:2 ~down_to:0);
  let scans = Cert_log.back_certifications log in
  (* repeating the same check is memoised *)
  ignore (Cert_log.back_certify log ~version:2 ~down_to:0);
  check_int "memoised" scans (Cert_log.back_certifications log)

let test_cert_log_delta_fast_path () =
  let add key d = Mvcc.Writeset.singleton key (Mvcc.Writeset.Add d) in
  let log = Cert_log.create () in
  Cert_log.append log (entry 1 "r0" 1 (add (k "t" "a") 1));
  Cert_log.append log (entry 2 "r1" 2 (add (k "t" "a") 2));
  (* delta vs committed deltas: both overlaps are skipped, no conflict *)
  let skips0 = Cert_log.delta_overlaps log in
  Alcotest.(check (option int)) "delta certifies over deltas" None
    (Cert_log.certify log (add (k "t" "a") 5) ~start_version:0);
  check_bool "fast-path skips counted" true (Cert_log.delta_overlaps log > skips0);
  (* a blind write of the same key conflicts with the committed deltas *)
  Alcotest.(check (option int)) "blind write conflicts" (Some 2)
    (Cert_log.certify log (ws1 (k "t" "a") 9) ~start_version:0);
  (* and a delta conflicts with a committed blind write below the deltas *)
  Cert_log.append log (entry 3 "r0" 3 (ws1 (k "t" "a") 9));
  Cert_log.append log (entry 4 "r1" 4 (add (k "t" "a") 1));
  Alcotest.(check (option int)) "delta finds the blind write under a delta" (Some 3)
    (Cert_log.certify log (add (k "t" "a") 5) ~start_version:0);
  Alcotest.(check (option int)) "delta started after the blind write passes" None
    (Cert_log.certify log (add (k "t" "a") 5) ~start_version:3)

let test_cert_log_truncation () =
  let log = Cert_log.create () in
  for v = 1 to 10 do
    Cert_log.append log (entry v "r0" v (ws1 (k "t" (string_of_int v)) v))
  done;
  let bytes_before = Cert_log.bytes_total log in
  Cert_log.truncate log ~upto:6;
  check_int "floor" 6 (Cert_log.floor log);
  check_int "live entries" 4 (Cert_log.entries log);
  check_int "version arithmetic intact" 10 (Cert_log.version log);
  check_int "pruned counted" 6 (Cert_log.pruned log);
  check_bool "live bytes shrank" true (Cert_log.bytes_live log < bytes_before);
  check_int "cumulative bytes kept" bytes_before (Cert_log.bytes_total log);
  (* idempotent, and a stale (lower) floor is a no-op *)
  Cert_log.truncate log ~upto:6;
  Cert_log.truncate log ~upto:3;
  check_int "idempotent floor" 6 (Cert_log.floor log);
  check_int "idempotent pruned" 6 (Cert_log.pruned log);
  (* below-floor slots are unreachable, never served stale *)
  check_bool "get_opt below the floor" true (Cert_log.get_opt log 6 = None);
  (match Cert_log.get log 3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "get below the floor must raise");
  (* no certification scan reaches below the floor: a key written only in
     the truncated prefix no longer conflicts (the certifier answers
     too-old start versions before ever scanning) *)
  Alcotest.(check (option int)) "pre-floor writer invisible" None
    (Cert_log.certify log (ws1 (k "t" "4") 99) ~start_version:0);
  Alcotest.(check (option int)) "live writer still found" (Some 8)
    (Cert_log.certify log (ws1 (k "t" "8") 99) ~start_version:0);
  Alcotest.(check (option int)) "back_certify below the floor" None
    (Cert_log.back_certify log ~version:4 ~down_to:0);
  check_int "entries_between clamps at the floor" 4
    (List.length (Cert_log.entries_between log ~lo:0 ~hi:10));
  (* appending continues the same version arithmetic *)
  Cert_log.append log (entry 11 "r1" 11 (ws1 (k "t" "11") 11));
  check_int "append after truncate" 11 (Cert_log.version log);
  check_int "five live" 5 (Cert_log.entries log);
  (* the folded base answers below-floor state *)
  check_bool "truncated write folded into the base" true
    (List.exists
       (fun (key, v) -> Mvcc.Key.equal key (k "t" "4") && v = Some (vi 4))
       (Cert_log.base_rows log));
  check_int "per-origin truncation ledger" 6
    (Cert_log.truncated_for_origin log "r0")

let test_cert_log_truncate_folds_deletes () =
  let log = Cert_log.create () in
  Cert_log.append log (entry 1 "r0" 1 (ws1 (k "t" "a") 1));
  Cert_log.append log
    (entry 2 "r0" 2 (Mvcc.Writeset.singleton (k "t" "a") Mvcc.Writeset.Delete));
  Cert_log.append log (entry 3 "r0" 3 (ws1 (k "t" "b") 3));
  Cert_log.truncate log ~upto:3;
  check_int "everything truncated" 0 (Cert_log.entries log);
  let base = Cert_log.base_rows log in
  check_bool "deleted key reads None in the base" true
    (List.exists (fun (key, v) -> Mvcc.Key.equal key (k "t" "a") && v = None) base);
  check_bool "live key folded" true
    (List.exists
       (fun (key, v) -> Mvcc.Key.equal key (k "t" "b") && v = Some (vi 3))
       base);
  (* a floor beyond the head clamps instead of inventing versions *)
  Cert_log.truncate log ~upto:99;
  check_int "clamped to the head" 3 (Cert_log.floor log);
  Cert_log.append log (entry 4 "r0" 4 (ws1 (k "t" "c") 4));
  check_int "append after clamped truncate" 4 (Cert_log.version log)

(* Regression for the delta chaos smokes (plan seeds 7 and 13 under disk
   faults): a truncated prefix that only added deltas to a key must fold
   them onto the key's loaded image, not onto 0. *)
let test_cert_log_truncate_keeps_initial_image () =
  let acct = k "t" "acct" in
  let initial key = if Mvcc.Key.equal key acct then Some (vi 1000) else None in
  let log = Cert_log.create ~initial () in
  List.iteri
    (fun i d ->
      Cert_log.append log
        (entry (i + 1) "r0" (i + 1) (Mvcc.Writeset.singleton acct (Mvcc.Writeset.Add d))))
    [ 5; -3; 7 ];
  Cert_log.append log (entry 4 "r0" 4 (ws1 (k "t" "fresh") 1));
  Cert_log.truncate log ~upto:4;
  let base_of key =
    List.assoc_opt key
      (List.map (fun (key, v) -> (Mvcc.Key.to_string key, v)) (Cert_log.base_rows log))
  in
  check_bool "deltas fold onto the loaded image" true
    (base_of (Mvcc.Key.to_string acct) = Some (Some (vi 1009)));
  check_bool "a key loaded with nothing folds from its first write" true
    (base_of (Mvcc.Key.to_string (k "t" "fresh")) = Some (Some (vi 1)))

(* The full-scan truncation the log used to run, kept as the oracle for the
   touched-keys one: after folding the dropped prefix into the base, it
   flattens every base row ever written and filters every writer list. The
   rest restates the log's certification rules over a plain slot list, so
   the two must give the same answers at every step. *)
module Full_scan_log = struct
  type slot = { entry : Types.entry; mutable certified_back_to : int }

  type t = {
    mutable slots : slot list;  (* live entries, oldest first *)
    mutable floor : int;
    mutable head : int;
    writers : (int * bool) list ref Mvcc.Key.Tbl.t;
    base : Mvcc.Store.t;
    base_keys : unit Mvcc.Key.Tbl.t;
    mutable live_bytes : int;
    mutable pruned : int;
  }

  let create () =
    {
      slots = [];
      floor = 0;
      head = 0;
      writers = Mvcc.Key.Tbl.create 16;
      base = Mvcc.Store.create ();
      base_keys = Mvcc.Key.Tbl.create 16;
      live_bytes = 0;
      pruned = 0;
    }

  let append t (entry : Types.entry) =
    t.slots <- t.slots @ [ { entry; certified_back_to = entry.version - 1 } ];
    t.head <- entry.version;
    t.live_bytes <- t.live_bytes + Types.entry_bytes entry;
    Mvcc.Writeset.iter_entries entry.ws (fun key op ->
        let tagged = (entry.version, Mvcc.Writeset.op_is_delta op) in
        match Mvcc.Key.Tbl.find_opt t.writers key with
        | Some versions -> versions := tagged :: !versions
        | None -> Mvcc.Key.Tbl.replace t.writers key (ref [ tagged ]))

  let truncate t ~upto =
    let upto = min upto t.head in
    if upto > t.floor then begin
      let dropped, kept = List.partition (fun s -> s.entry.Types.version <= upto) t.slots in
      List.iter
        (fun { entry = e; _ } ->
          t.live_bytes <- t.live_bytes - Types.entry_bytes e;
          t.pruned <- t.pruned + 1;
          Mvcc.Writeset.iter_entries e.ws (fun key _ ->
              Mvcc.Key.Tbl.replace t.base_keys key ());
          Mvcc.Store.install t.base ~version:e.version e.ws)
        dropped;
      Mvcc.Store.gc t.base ~keep_after:upto;
      t.slots <- kept;
      t.floor <- upto;
      let dead = ref [] in
      Mvcc.Key.Tbl.iter
        (fun key versions ->
          match List.filter (fun (v, _) -> v > upto) !versions with
          | [] -> dead := key :: !dead
          | kept -> versions := kept)
        t.writers;
      List.iter (fun key -> Mvcc.Key.Tbl.remove t.writers key) !dead
    end

  let base_rows t =
    Mvcc.Key.Tbl.fold
      (fun key () acc -> (key, Mvcc.Store.read_latest t.base key) :: acc)
      t.base_keys []

  let conflict_in_window t ws ~lo ~hi =
    let lo = max lo t.floor in
    if hi <= lo then None
    else begin
      let best = ref None in
      Mvcc.Writeset.iter_entries ws (fun key op ->
          let mine_delta = Mvcc.Writeset.op_is_delta op in
          match Mvcc.Key.Tbl.find_opt t.writers key with
          | None -> ()
          | Some versions ->
              List.iter
                (fun (v, writer_delta) ->
                  if v <= hi && v > lo && not (mine_delta && writer_delta) then
                    match !best with Some b when b >= v -> () | _ -> best := Some v)
                !versions);
      !best
    end

  let certify t ws ~start_version = conflict_in_window t ws ~lo:start_version ~hi:t.head

  let back_certify t ~version ~down_to =
    match List.find_opt (fun s -> s.entry.Types.version = version) t.slots with
    | None -> None
    | Some slot when down_to >= slot.certified_back_to -> None
    | Some slot ->
        let conflict =
          conflict_in_window t slot.entry.ws ~lo:down_to ~hi:slot.certified_back_to
        in
        (match conflict with
        | None -> slot.certified_back_to <- max down_to t.floor
        | Some v -> slot.certified_back_to <- v);
        conflict
end

(* Random writeset streams over a small key space (blind, delete and [Add]
   ops), truncated at random floors — behind the current one, inside the
   live window and past the head. After every step the touched-keys log and
   the full-scan oracle agree on the folded base, the accounting, and every
   certification and back-certification answer over a sweep of windows. *)
let prop_truncate_matches_full_scan =
  QCheck.Test.make ~name:"truncation matches the full-scan oracle" ~count:200
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let n_keys = 2 + Rng.int rng 10 in
      let key () = k "t" (string_of_int (Rng.int rng n_keys)) in
      let op () =
        match Rng.int rng 4 with
        | 0 -> Mvcc.Writeset.Insert (vi (Rng.int rng 100))
        | 1 -> upd (Rng.int rng 100)
        | 2 -> Mvcc.Writeset.Delete
        | _ -> Mvcc.Writeset.Add (1 + Rng.int rng 9)
      in
      let writeset () = Mvcc.Writeset.of_list (List.init (1 + Rng.int rng 3) (fun _ -> (key (), op ()))) in
      let log = Cert_log.create () and oracle = Full_scan_log.create () in
      let sorted rows =
        List.sort (fun (a, _) (b, _) -> Mvcc.Key.compare a b) rows
      in
      let agree () =
        let version = Cert_log.version log and floor = Cert_log.floor log in
        let probes = List.init 4 (fun _ -> writeset ()) in
        sorted (Cert_log.base_rows log) = sorted (Full_scan_log.base_rows oracle)
        && Cert_log.floor log = oracle.floor
        && Cert_log.pruned log = oracle.pruned
        && Cert_log.bytes_live log = oracle.live_bytes
        && Cert_log.base_records log = Mvcc.Store.version_records oracle.base
        && List.for_all
             (fun start_version ->
               List.for_all
                 (fun ws ->
                   Cert_log.certify log ws ~start_version
                   = Full_scan_log.certify oracle ws ~start_version)
                 probes)
             (List.init (version - floor + 2) (fun i -> floor - 1 + i))
        && List.for_all
             (fun v ->
               let down_to = Rng.int rng (v + 1) - 1 in
               Cert_log.back_certify log ~version:v ~down_to
               = Full_scan_log.back_certify oracle ~version:v ~down_to)
             (List.init (version - floor) (fun i -> floor + 1 + i))
      in
      let ok = ref true in
      for step = 1 to 60 do
        if !ok then begin
          let ws = writeset () in
          let e = entry (Cert_log.version log + 1) "r0" step ws in
          Cert_log.append log e;
          Full_scan_log.append oracle e;
          if Rng.chance rng 0.3 then begin
            let upto = Rng.int rng (Cert_log.version log + 3) in
            Cert_log.truncate log ~upto;
            Full_scan_log.truncate oracle ~upto
          end;
          ok := agree ()
        end
      done;
      !ok)

(* Truncation costs what the dropped entries wrote: after 20 000 distinct
   keys have been truncated, appending and truncating one 2-key entry
   allocates exactly what it does over a 100-key history, and little. *)
let test_cert_log_truncate_cost_independent_of_history () =
  let words_for_one_step history =
    let log = Cert_log.create () in
    for v = 1 to history do
      Cert_log.append log (entry v "r0" v (ws1 (k "t" (string_of_int v)) v))
    done;
    Cert_log.truncate log ~upto:history;
    let v = history + 1 in
    let e =
      entry v "r0" v
        (Mvcc.Writeset.of_list [ (k "t" "1", upd v); (k "t" "2", Mvcc.Writeset.Add 1) ])
    in
    let before = Gc.minor_words () in
    Cert_log.append log e;
    Cert_log.truncate log ~upto:v;
    let words = Gc.minor_words () -. before in
    check_int "floor" v (Cert_log.floor log);
    check_int "one base record per key" history (Cert_log.base_records log);
    words
  in
  let small = words_for_one_step 100 and large = words_for_one_step 20_000 in
  Alcotest.(check (float 0.)) "same allocation at 100 and 20 000 truncated keys" small large;
  check_bool (Printf.sprintf "a small constant (%.0f words)" large) true (large < 500.)

let test_overlay_delta_fast_path () =
  let add key d = Mvcc.Writeset.singleton key (Mvcc.Writeset.Add d) in
  let o = Overlay.create () in
  Overlay.add o (entry 5 "r0" 1 (add (k "t" "a") 1));
  Alcotest.(check (option int)) "delta passes an uncertified delta" None
    (Overlay.conflict o (add (k "t" "a") 2) ~start_version:0);
  check_bool "skip counted" true (Overlay.delta_overlaps o > 0);
  Alcotest.(check (option int)) "blind write conflicts with it" (Some 5)
    (Overlay.conflict o (ws1 (k "t" "a") 9) ~start_version:0);
  Overlay.add o (entry 6 "r1" 2 (ws1 (k "t" "b") 9));
  Alcotest.(check (option int)) "delta conflicts with an uncertified blind write"
    (Some 6)
    (Overlay.conflict o (add (k "t" "b") 2) ~start_version:0)

(* ------------------------------------------------------------------ *)
(* Cluster helpers *)

let quick_replica mode =
  {
    (Replica.default_config mode) with
    Replica.exec_cpu = Time.us 200;
    staleness_bound = Some (Time.of_ms 200.);
  }

let make_cluster ?(mode = Types.Base) ?(n_replicas = 3) ?(n_certifiers = 3) ?(seed = 7)
    ?(certifier = Certifier.default_config) ?replica () =
  let replica = Option.value ~default:(quick_replica mode) replica in
  let cfg =
    { Cluster.mode; n_replicas; n_certifiers; n_partitions = 1;
      hosting = Cluster.Host_all; certifier; replica; seed }
  in
  let c = Cluster.create cfg in
  Cluster.load_all c
    [ (k "t" "a", vi 0); (k "t" "b", vi 0); (k "t" "c", vi 0); (k "t" "d", vi 0) ];
  Cluster.settle c;
  c

let run_for c span =
  Engine.run ~until:(Time.add (Engine.now (Cluster.engine c)) span) (Cluster.engine c)

(* Run one update transaction on replica [i]; store the outcome. *)
let submit_tx c i ~key ~value outcome =
  let r = Cluster.replica c i in
  let p = Replica.proxy r in
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let tx = Proxy.begin_tx p in
         Replica.use_cpu r (Replica.config r).Replica.exec_cpu;
         match Proxy.write p tx key (upd value) with
         | Error f ->
             Proxy.abort p tx;
             outcome := Some (Error f)
         | Ok () -> outcome := Some (Proxy.commit p tx)))

let expect_commit msg = function
  | Some (Ok ()) -> ()
  | Some (Error f) -> Alcotest.fail (Format.asprintf "%s: failed: %a" msg Proxy.pp_failure f)
  | None -> Alcotest.fail (msg ^ ": transaction never finished")

let check_consistent c =
  match Cluster.check_consistency c with
  | Ok () -> ()
  | Error msg -> Alcotest.fail ("inconsistent: " ^ msg)

(* ------------------------------------------------------------------ *)
(* End-to-end per mode *)

let test_mode_replicates mode () =
  let c = make_cluster ~mode () in
  let o1 = ref None and o2 = ref None and o3 = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:10 o1;
  submit_tx c 1 ~key:(k "t" "b") ~value:20 o2;
  submit_tx c 2 ~key:(k "t" "c") ~value:30 o3;
  run_for c (Time.sec 3);
  expect_commit "tx1" !o1;
  expect_commit "tx2" !o2;
  expect_commit "tx3" !o3;
  (* staleness bound has propagated everything everywhere *)
  List.iter
    (fun r ->
      let db = Replica.db r in
      let got key =
        match Mvcc.Db.read_committed db key with
        | Some v -> Mvcc.Value.as_int v
        | None -> -1
      in
      check_int (Replica.name r ^ " a") 10 (got (k "t" "a"));
      check_int (Replica.name r ^ " b") 20 (got (k "t" "b"));
      check_int (Replica.name r ^ " c") 30 (got (k "t" "c")))
    (Cluster.replicas c);
  check_consistent c

let test_conflict_aborts_one () =
  let c = make_cluster () in
  let o1 = ref None and o2 = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:1 o1;
  submit_tx c 1 ~key:(k "t" "a") ~value:2 o2;
  run_for c (Time.sec 3);
  let commits =
    List.length
      (List.filter (fun o -> match !o with Some (Ok ()) -> true | _ -> false) [ o1; o2 ])
  in
  let cert_aborts =
    List.length
      (List.filter
         (fun o ->
           match !o with
           | Some (Error (Proxy.Cert_abort Types.Ww_conflict)) -> true
           | _ -> false)
         [ o1; o2 ])
  in
  check_int "one committed" 1 commits;
  check_int "one certification abort" 1 cert_aborts;
  check_consistent c

let test_sequential_same_key_both_commit () =
  (* Non-concurrent writers to the same key never conflict. *)
  let c = make_cluster () in
  let o1 = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:1 o1;
  run_for c (Time.sec 2);
  expect_commit "first" !o1;
  let o2 = ref None in
  submit_tx c 1 ~key:(k "t" "a") ~value:2 o2;
  run_for c (Time.sec 2);
  expect_commit "second" !o2;
  check_consistent c

let test_read_only_never_blocks () =
  let c = make_cluster () in
  let p = Replica.proxy (Cluster.replica c 0) in
  let elapsed = ref Time.zero in
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let started = Engine.now (Cluster.engine c) in
         let tx = Proxy.begin_tx p in
         ignore (Proxy.read p tx (k "t" "a"));
         (match Proxy.commit p tx with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "read-only transactions always commit");
         elapsed := Time.diff (Engine.now (Cluster.engine c)) started));
  run_for c (Time.sec 1);
  check_bool "no certifier round-trip" true Time.(!elapsed < Time.of_ms 1.);
  check_int "counted as read-only" 1 (Proxy.stats p).Proxy.read_only_commits

let test_snapshot_reads_at_replica () =
  (* A transaction reads its snapshot even while newer versions land. *)
  let c = make_cluster () in
  let p0 = Replica.proxy (Cluster.replica c 0) in
  let observed = ref (-1) in
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let tx = Proxy.begin_tx p0 in
         ignore (Proxy.read p0 tx (k "t" "a"));
         Engine.sleep (Cluster.engine c) (Time.sec 1);
         (match Proxy.read p0 tx (k "t" "a") with
         | Some v -> observed := Mvcc.Value.as_int v
         | None -> ());
         Proxy.abort p0 tx));
  let o = ref None in
  submit_tx c 1 ~key:(k "t" "a") ~value:99 o;
  run_for c (Time.sec 3);
  expect_commit "writer" !o;
  check_int "snapshot unchanged" 0 !observed

let test_api_artificial_conflict_serialized () =
  (* Two sequential commits to the same key on replica 1 produce remote
     writesets that artificially conflict at replica 0 (Tashkent-API). *)
  let c = make_cluster ~mode:Types.Tashkent_api () in
  (* Disable the refresher on replica 0? Not needed: the conflict info
     travels with fetch replies too. Make replica 1 commit twice, then have
     replica 0 commit once so the reply carries both remotes. *)
  let o1 = ref None and o2 = ref None in
  submit_tx c 1 ~key:(k "t" "a") ~value:1 o1;
  run_for c (Time.of_ms 300.);
  submit_tx c 1 ~key:(k "t" "a") ~value:2 o2;
  run_for c (Time.of_ms 300.);
  expect_commit "first" !o1;
  expect_commit "second" !o2;
  let o3 = ref None in
  submit_tx c 0 ~key:(k "t" "b") ~value:3 o3;
  run_for c (Time.sec 2);
  expect_commit "third" !o3;
  check_consistent c;
  let applied = (Proxy.stats (Replica.proxy (Cluster.replica c 0))).Proxy.remote_ws_applied in
  check_bool "replica0 applied both remotes" true (applied >= 2)

let test_certifier_leader_crash_progress () =
  let c = make_cluster () in
  let o1 = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:1 o1;
  run_for c (Time.sec 2);
  expect_commit "before crash" !o1;
  (match Cluster.leader c with
  | Some leader -> Certifier.crash leader
  | None -> Alcotest.fail "no leader");
  (* new transactions keep committing after failover (retries) *)
  let o2 = ref None in
  submit_tx c 1 ~key:(k "t" "b") ~value:2 o2;
  run_for c (Time.sec 5);
  expect_commit "after failover" !o2;
  check_consistent c

let test_certifier_recover_rejoins () =
  let c = make_cluster () in
  let victim = List.hd (Cluster.certifiers c) in
  Certifier.crash victim;
  let o = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:5 o;
  run_for c (Time.sec 4);
  expect_commit "with one certifier down" !o;
  Certifier.recover victim;
  run_for c (Time.sec 4);
  (* the recovered certifier catches up on the log via state transfer *)
  check_int "log caught up" (Certifier.system_version victim)
    (match Cluster.leader c with
    | Some l -> Certifier.system_version l
    | None -> -1)

let test_replica_crash_recover_base () =
  let c = make_cluster ~mode:Types.Base () in
  let o1 = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:7 o1;
  run_for c (Time.sec 2);
  expect_commit "committed before crash" !o1;
  let r0 = Cluster.replica c 0 in
  Replica.crash r0;
  (* other replicas continue *)
  let o2 = ref None in
  submit_tx c 1 ~key:(k "t" "b") ~value:8 o2;
  run_for c (Time.sec 2);
  expect_commit "progress while down" !o2;
  let report = ref None in
  ignore
    (Engine.spawn (Cluster.engine c) (fun () -> report := Some (Replica.recover r0)));
  run_for c (Time.sec 10);
  (match !report with
  | Some rep ->
      check_bool "restored own commit from WAL" true (rep.Replica.restored_version >= 1);
      check_bool "replayed missed writesets" true (rep.Replica.writesets_replayed >= 1)
  | None -> Alcotest.fail "recovery did not finish");
  check_consistent c;
  (* no committed transaction was lost *)
  let got key =
    match Mvcc.Db.read_committed (Replica.db r0) key with
    | Some v -> Mvcc.Value.as_int v
    | None -> -1
  in
  check_int "own commit survived" 7 (got (k "t" "a"));
  check_int "missed commit replayed" 8 (got (k "t" "b"))

let test_replica_crash_recover_mw_dump () =
  let replica =
    {
      (quick_replica Types.Tashkent_mw) with
      Replica.mw_recovery = Replica.Dump_based { interval = Time.sec 2 };
      db_size_bytes = 1_000_000;
    }
  in
  let c = make_cluster ~mode:Types.Tashkent_mw ~replica () in
  let o1 = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:7 o1;
  run_for c (Time.sec 3);
  expect_commit "committed" !o1;
  (* wait for a dump to be taken *)
  run_for c (Time.sec 3);
  let r0 = Cluster.replica c 0 in
  check_bool "dump taken" true (Replica.dumps_taken r0 >= 1);
  let o2 = ref None in
  submit_tx c 1 ~key:(k "t" "b") ~value:9 o2;
  run_for c (Time.sec 2);
  expect_commit "second" !o2;
  Replica.crash r0;
  let report = ref None in
  ignore
    (Engine.spawn (Cluster.engine c) (fun () -> report := Some (Replica.recover r0)));
  run_for c (Time.sec 30);
  (match !report with
  | Some _ -> ()
  | None -> Alcotest.fail "recovery did not finish");
  check_consistent c;
  let got key =
    match Mvcc.Db.read_committed (Replica.db r0) key with
    | Some v -> Mvcc.Value.as_int v
    | None -> -1
  in
  check_int "pre-crash commit survives (durability in middleware)" 7 (got (k "t" "a"));
  check_int "missed commit replayed" 9 (got (k "t" "b"))

let test_replica_crash_recover_mw_integrity_kept () =
  let replica =
    {
      (quick_replica Types.Tashkent_mw) with
      Replica.mw_recovery = Replica.Integrity_kept { wal_sync_interval = Time.of_ms 100. };
    }
  in
  let c = make_cluster ~mode:Types.Tashkent_mw ~replica () in
  let o1 = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:7 o1;
  run_for c (Time.sec 2);
  expect_commit "committed" !o1;
  run_for c (Time.sec 1);
  let r0 = Cluster.replica c 0 in
  Replica.crash r0;
  let report = ref None in
  ignore
    (Engine.spawn (Cluster.engine c) (fun () -> report := Some (Replica.recover r0)));
  run_for c (Time.sec 10);
  check_consistent c;
  check_int "commit recovered from synced WAL prefix" 7
    (match Mvcc.Db.read_committed (Replica.db r0) (k "t" "a") with
    | Some v -> Mvcc.Value.as_int v
    | None -> -1)

let test_staleness_bound_refreshes_idle_replica () =
  let c = make_cluster () in
  let o = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:42 o;
  run_for c (Time.sec 2);
  expect_commit "writer" !o;
  (* replica 2 received nothing directly; the refresher must pull it *)
  run_for c (Time.sec 2);
  let r2 = Cluster.replica c 2 in
  check_int "idle replica caught up" 42
    (match Mvcc.Db.read_committed (Replica.db r2) (k "t" "a") with
    | Some v -> Mvcc.Value.as_int v
    | None -> -1);
  check_bool "used a fetch" true ((Proxy.stats (Replica.proxy r2)).Proxy.refreshes >= 1)

let test_forced_abort_rate () =
  let certifier = { Certifier.default_config with forced_abort_rate = 1.0 } in
  let c = make_cluster ~certifier () in
  let o = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:1 o;
  run_for c (Time.sec 2);
  (match !o with
  | Some (Error (Proxy.Cert_abort Types.Forced)) -> ()
  | _ -> Alcotest.fail "expected forced abort");
  check_consistent c


let test_partitioned_replica_retries_until_heal () =
  let c = make_cluster () in
  let net = Cluster.network c in
  let r0 = Replica.name (Cluster.replica c 0) in
  List.iter (fun cert -> Net.Network.partition net r0 cert) (Cluster.certifier_ids c);
  let o = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:1 o;
  run_for c (Time.sec 2);
  check_bool "commit stuck while partitioned" true (!o = None);
  List.iter (fun cert -> Net.Network.heal net r0 cert) (Cluster.certifier_ids c);
  run_for c (Time.sec 3);
  expect_commit "commits after heal" !o;
  check_consistent c

let test_local_certification_promotes_start () =
  let c = make_cluster () in
  let p0 = Replica.proxy (Cluster.replica c 0) in
  (* Client A opens a transaction, then B commits while A is still open; by
     A's commit time the database is ahead of A's start version, so the
     proxy promotes A's effective start (6.2). *)
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let txa = Proxy.begin_tx p0 in
         ignore (Proxy.write p0 txa (k "t" "c") (upd 1));
         Engine.sleep (Cluster.engine c) (Time.sec 1);
         match Proxy.commit p0 txa with
         | Ok () -> ()
         | Error f -> Alcotest.fail (Format.asprintf "A failed: %a" Proxy.pp_failure f)));
  let ob = ref None in
  submit_tx c 0 ~key:(k "t" "b") ~value:2 ob;
  run_for c (Time.sec 3);
  expect_commit "B" !ob;
  check_bool "a start-version promotion happened" true
    ((Proxy.stats p0).Proxy.local_cert_promotions >= 1);
  check_consistent c

(* Soft recovery without priority writes: a remote writeset that closes a
   lock cycle with a local transaction gets the deadlock, so the proxy must
   doom the local cycle member and retry the writeset, which then installs
   at its certified version. The cycle on replica0: the remote takes [a]
   and queues behind M on [b]; L, holding [c], queues behind the remote on
   [a]; when M aborts, the remote reaches for [c] and finds L. *)
let test_remote_deadlock_dooms_local () =
  let replica = { (quick_replica Types.Tashkent_mw) with Replica.eager_precert = false } in
  let c = make_cluster ~mode:Types.Tashkent_mw ~n_replicas:2 ~replica () in
  let engine = Cluster.engine c in
  let p0 = Replica.proxy (Cluster.replica c 0) in
  let p1 = Replica.proxy (Cluster.replica c 1) in
  let db0 = Replica.db (Cluster.replica c 0) in
  let local_a = ref None in
  ignore
    (Engine.spawn engine (fun () ->
         let m = Proxy.begin_tx p0 in
         ignore (Proxy.write p0 m (k "t" "b") (upd 20));
         Engine.sleep engine (Time.of_ms 1500.);
         Proxy.abort p0 m));
  ignore
    (Engine.spawn engine (fun () ->
         let l = Proxy.begin_tx p0 in
         ignore (Proxy.write p0 l (k "t" "c") (upd 30));
         Engine.sleep engine (Time.sec 1);
         local_a := Some (Proxy.write p0 l (k "t" "a") (upd 30));
         Proxy.abort p0 l));
  let remote = ref None in
  ignore
    (Engine.spawn engine (fun () ->
         let tx = Proxy.begin_tx p1 in
         List.iter
           (fun row -> ignore (Proxy.write p1 tx (k "t" row) (upd 7)))
           [ "a"; "b"; "c" ];
         remote := Some (Proxy.commit p1 tx)));
  run_for c (Time.sec 3);
  expect_commit "remote writer" !remote;
  (match !local_a with
  | Some (Error (Proxy.Local_abort Mvcc.Db.Preempted)) -> ()
  | Some (Ok ()) -> Alcotest.fail "local transaction was not doomed"
  | Some (Error f) -> Alcotest.fail (Format.asprintf "wrong failure: %a" Proxy.pp_failure f)
  | None -> Alcotest.fail "local write never returned");
  check_bool "the remote writeset hit the deadlock" true
    (Mvcc.Db.deadlocks_detected db0 >= 1);
  let certified = Proxy.replica_version p1 in
  List.iter
    (fun row ->
      let key = k "t" row in
      check_int ("installed at the certified version: " ^ row) certified
        (Mvcc.Store.latest_writer (Mvcc.Db.store db0) key);
      check_bool ("installed value: " ^ row) true
        (Mvcc.Db.read_committed db0 key = Some (vi 7)))
    [ "a"; "b"; "c" ];
  check_consistent c

(* A remote writeset counts toward the proxy's replica version as soon as it
   is dispatched, but the database snapshot only moves once it is installed.
   A transaction begun in between reads the older snapshot, so its
   certification window must start there too: starting at the replica
   version would skip the writeset it never saw, a lost update. *)
let test_start_version_is_db_snapshot () =
  let replica =
    { (quick_replica Types.Tashkent_mw) with Replica.apply_cpu_per_ws = Time.of_ms 50. }
  in
  let c = make_cluster ~mode:Types.Tashkent_mw ~replica () in
  let p0 = Replica.proxy (Cluster.replica c 0) in
  let db0 = Proxy.db p0 in
  let observed = ref None in
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let rec poll () =
           if Proxy.replica_version p0 > Mvcc.Db.current_version db0 then begin
             let tx = Proxy.begin_tx p0 in
             observed :=
               Some (Proxy.tx_start_version tx, Mvcc.Db.current_version db0,
                     Proxy.replica_version p0);
             Proxy.abort p0 tx
           end
           else begin
             Engine.sleep (Cluster.engine c) (Time.of_ms 1.);
             poll ()
           end
         in
         poll ()));
  let o = ref None in
  submit_tx c 1 ~key:(k "t" "a") ~value:7 o;
  run_for c (Time.sec 3);
  expect_commit "remote writer" !o;
  match !observed with
  | None -> Alcotest.fail "replica 0 never had a remote writeset in flight"
  | Some (start_version, snapshot, rv) ->
      check_bool "a dispatched writeset was not yet installed" true (rv > snapshot);
      check_int "start version is the db snapshot" snapshot start_version

let test_consistency_checker_detects_corruption () =
  let c = make_cluster () in
  let o = ref None in
  submit_tx c 0 ~key:(k "t" "a") ~value:5 o;
  run_for c (Time.sec 2);
  expect_commit "setup" !o;
  check_consistent c;
  (* corrupt replica 1 behind the middleware's back *)
  let store = Mvcc.Db.store (Replica.db (Cluster.replica c 1)) in
  Mvcc.Store.install store
    ~version:(Mvcc.Store.current_version store + 1)
    (ws1 (k "t" "a") 666);
  match Cluster.check_consistency c with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "checker must flag a corrupted replica"

(* ------------------------------------------------------------------ *)
(* Parallel apply: config validation and serial-equivalence seed sweep *)

let string_contains s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let test_cluster_config_validation () =
  let expect_invalid name cfg =
    match Cluster.create cfg with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail (name ^ ": expected Invalid_argument")
  in
  expect_invalid "zero replicas" (Cluster.config ~n_replicas:0 Types.Base);
  expect_invalid "even certifiers" (Cluster.config ~n_certifiers:2 Types.Base);
  expect_invalid "zero apply workers" (Cluster.config ~apply_workers:0 Types.Base);
  expect_invalid "negative exec_cpu"
    (Cluster.config
       ~replica:{ (quick_replica Types.Base) with Replica.exec_cpu = Time.us (-5) }
       Types.Base);
  expect_invalid "negative gc_interval"
    (Cluster.config ~gc_interval:(Some (Time.us (-1))) Types.Base);
  expect_invalid "negative max_snapshot_age"
    (Cluster.config ~max_snapshot_age:(Some (Time.us (-1))) Types.Base);
  expect_invalid "negative watermark_ttl"
    (Cluster.config
       ~certifier:{ Certifier.default_config with watermark_ttl = Time.us (-1) }
       Types.Base);
  (* several problems are reported in one message naming each of them *)
  match Cluster.create (Cluster.config ~n_replicas:0 ~apply_workers:0 Types.Base) with
  | exception Invalid_argument msg ->
      check_bool "message names both problems" true
        (string_contains msg "n_replicas" && string_contains msg "apply_workers")
  | _ -> Alcotest.fail "expected Invalid_argument"

(* Run a fixed conflict-free workload (each client owns one key, committing
   serially) and return (total commits, sorted final key values). With no
   conflicts the outcome is timing-independent, so the parallel applier must
   reproduce the serial applier's result exactly. *)
let parallel_equiv_run ~seed ~apply_workers =
  let replica =
    {
      (quick_replica Types.Tashkent_mw) with
      Replica.apply_workers;
      apply_cpu_per_ws = Time.us 300;
    }
  in
  let c = Cluster.create (Cluster.config ~n_replicas:3 ~replica ~seed Types.Tashkent_mw) in
  let n_clients = 2 and n_txs = 4 in
  let key_name i j = Printf.sprintf "r%dc%d" i j in
  let rows =
    List.concat
      (List.init 3 (fun i ->
           List.init n_clients (fun j -> (k "t" (key_name i j), vi 0))))
  in
  Cluster.load_all c rows;
  Cluster.settle c;
  let engine = Cluster.engine c in
  let failures = ref 0 in
  List.iteri
    (fun i r ->
      let p = Replica.proxy r in
      for j = 0 to n_clients - 1 do
        let key = k "t" (key_name i j) in
        ignore
          (Engine.spawn engine (fun () ->
               for t = 1 to n_txs do
                 let tx = Proxy.begin_tx p in
                 Replica.use_cpu r (Replica.config r).Replica.exec_cpu;
                 match Proxy.write p tx key (upd t) with
                 | Error _ ->
                     Proxy.abort p tx;
                     incr failures
                 | Ok () -> (
                     match Proxy.commit p tx with Ok () -> () | Error _ -> incr failures)
               done))
      done)
    (Cluster.replicas c);
  run_for c (Time.sec 10);
  check_int "workload finished cleanly" 0 !failures;
  check_consistent c;
  let finals =
    List.sort compare
      (List.map
         (fun (key, _) ->
           ( Mvcc.Key.to_string key,
             match Mvcc.Db.read_committed (Replica.db (Cluster.replica c 0)) key with
             | Some v -> Mvcc.Value.as_int v
             | None -> -1 ))
         rows)
  in
  (Cluster.total_commits c, finals)

let test_parallel_apply_matches_serial () =
  List.iter
    (fun seed ->
      let commits1, finals1 = parallel_equiv_run ~seed ~apply_workers:1 in
      let commits4, finals4 = parallel_equiv_run ~seed ~apply_workers:4 in
      check_int (Printf.sprintf "seed %d: every tx committed" seed) 24 commits1;
      check_int (Printf.sprintf "seed %d: same commits" seed) commits1 commits4;
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "seed %d: same final values" seed)
        finals1 finals4)
    [ 3; 11; 42 ]

(* Hot-key delta traffic: every replica's clients increment the same two hot
   rows with commutative deltas. Certification passes every writeset (the
   delta fast path), remote deltas commute around local delta holders instead
   of preempting them, and the symbolic store folds the increments in any
   install order — so every transaction commits and the final sums are
   timing-independent. The parallel applier must reproduce the serial
   applier's commit count and final values exactly, per seed. *)
let hotkey_equiv_run ~seed ~apply_workers =
  let replica =
    {
      (quick_replica Types.Tashkent_mw) with
      Replica.apply_workers;
      apply_cpu_per_ws = Time.us 300;
    }
  in
  let c =
    Cluster.create (Cluster.config ~n_replicas:3 ~replica ~seed Types.Tashkent_mw)
  in
  let hot_keys = [ k "hot" "0"; k "hot" "1" ] in
  Cluster.load_all c (List.map (fun key -> (key, vi 0)) hot_keys);
  Cluster.settle c;
  let engine = Cluster.engine c in
  let failures = ref 0 in
  let n_txs = 4 in
  List.iteri
    (fun i r ->
      let p = Replica.proxy r in
      List.iteri
        (fun j key ->
          ignore
            (Engine.spawn engine (fun () ->
                 for t = 1 to n_txs do
                   let tx = Proxy.begin_tx p in
                   Replica.use_cpu r (Replica.config r).Replica.exec_cpu;
                   match
                     Proxy.write p tx key (Mvcc.Writeset.Add ((100 * i) + (10 * j) + t))
                   with
                   | Error _ ->
                       Proxy.abort p tx;
                       incr failures
                   | Ok () -> (
                       match Proxy.commit p tx with Ok () -> () | Error _ -> incr failures)
                 done)))
        hot_keys)
    (Cluster.replicas c);
  run_for c (Time.sec 10);
  check_int "every hot-key delta committed" 0 !failures;
  check_consistent c;
  let finals =
    List.map
      (fun key ->
        match Mvcc.Db.read_committed (Replica.db (Cluster.replica c 0)) key with
        | Some v -> Mvcc.Value.as_int v
        | None -> -1)
      hot_keys
  in
  (Cluster.total_commits c, finals)

let test_hotkey_deltas_match_across_workers () =
  List.iter
    (fun seed ->
      let commits1, finals1 = hotkey_equiv_run ~seed ~apply_workers:1 in
      let commits4, finals4 = hotkey_equiv_run ~seed ~apply_workers:4 in
      check_int (Printf.sprintf "seed %d: every tx committed" seed) 24 commits1;
      check_int (Printf.sprintf "seed %d: same commits" seed) commits1 commits4;
      Alcotest.(check (list int))
        (Printf.sprintf "seed %d: same final sums" seed)
        finals1 finals4)
    [ 3; 11; 42 ]

(* Property: random non-conflicting and conflicting traffic across random
   modes keeps every replica a consistent prefix, and conflicting
   concurrent writers never both commit. *)
let prop_prefix_consistency_under_traffic =
  QCheck.Test.make ~name:"replicas stay prefix-consistent under traffic" ~count:10
    QCheck.(pair (int_range 0 1000) (int_range 0 2))
    (fun (seed, mode_ix) ->
      let mode =
        match mode_ix with
        | 0 -> Types.Base
        | 1 -> Types.Tashkent_mw
        | _ -> Types.Tashkent_api
      in
      let c = make_cluster ~mode ~seed () in
      let rng = Rng.create (seed + 13) in
      let outcomes = ref [] in
      for _round = 1 to 8 do
        let n = 1 + Rng.int rng 4 in
        for _ = 1 to n do
          let o = ref None in
          outcomes := o :: !outcomes;
          let key = k "t" (Rng.pick rng [| "a"; "b"; "c"; "d" |]) in
          submit_tx c (Rng.int rng 3) ~key ~value:(Rng.int rng 1000) o
        done;
        run_for c (Time.of_ms 400.)
      done;
      run_for c (Time.sec 3);
      let finished =
        List.for_all (fun o -> !o <> None) !outcomes
      in
      finished && Cluster.check_consistency c = Ok ())

let suites =
  [
    ( "core.cert_log",
      [
        Alcotest.test_case "append and certify" `Quick test_cert_log_append_and_certify;
        Alcotest.test_case "entries_between" `Quick test_cert_log_entries_between;
        Alcotest.test_case "back-certification memoised" `Quick test_cert_log_back_certify;
        Alcotest.test_case "delta fast path" `Quick test_cert_log_delta_fast_path;
        Alcotest.test_case "overlay delta fast path" `Quick test_overlay_delta_fast_path;
        Alcotest.test_case "truncation" `Quick test_cert_log_truncation;
        Alcotest.test_case "truncation folds deletes" `Quick
          test_cert_log_truncate_folds_deletes;
        Alcotest.test_case "truncation keeps initial images" `Quick
          test_cert_log_truncate_keeps_initial_image;
        Alcotest.test_case "truncation cost independent of history" `Quick
          test_cert_log_truncate_cost_independent_of_history;
      ]
      @ [ QCheck_alcotest.to_alcotest prop_truncate_matches_full_scan ] );
    ( "core.end_to_end",
      [
        Alcotest.test_case "base replicates" `Quick (test_mode_replicates Types.Base);
        Alcotest.test_case "tashkent-mw replicates" `Quick
          (test_mode_replicates Types.Tashkent_mw);
        Alcotest.test_case "tashkent-api replicates" `Quick
          (test_mode_replicates Types.Tashkent_api);
        Alcotest.test_case "concurrent conflict aborts exactly one" `Quick
          test_conflict_aborts_one;
        Alcotest.test_case "sequential writers both commit" `Quick
          test_sequential_same_key_both_commit;
        Alcotest.test_case "read-only commits locally" `Quick test_read_only_never_blocks;
        Alcotest.test_case "snapshot stability at replica" `Quick
          test_snapshot_reads_at_replica;
        Alcotest.test_case "api applies conflicting remotes correctly" `Quick
          test_api_artificial_conflict_serialized;
        Alcotest.test_case "forced aborts (9.5 knob)" `Quick test_forced_abort_rate;
        Alcotest.test_case "staleness bound refreshes idle replica" `Quick
          test_staleness_bound_refreshes_idle_replica;
        Alcotest.test_case "consistency checker detects corruption" `Quick
          test_consistency_checker_detects_corruption;
        Alcotest.test_case "partitioned replica retries until heal" `Quick
          test_partitioned_replica_retries_until_heal;
        Alcotest.test_case "local certification promotes start version" `Quick
          test_local_certification_promotes_start;
        Alcotest.test_case "start version is the db snapshot" `Quick
          test_start_version_is_db_snapshot;
        Alcotest.test_case "remote deadlock dooms the local cycle" `Quick
          test_remote_deadlock_dooms_local;
      ] );
    ( "core.fault_tolerance",
      [
        Alcotest.test_case "certifier leader crash: progress" `Quick
          test_certifier_leader_crash_progress;
        Alcotest.test_case "certifier recovery: state transfer" `Quick
          test_certifier_recover_rejoins;
        Alcotest.test_case "replica crash/recover (base)" `Quick
          test_replica_crash_recover_base;
        Alcotest.test_case "replica crash/recover (mw, dumps)" `Quick
          test_replica_crash_recover_mw_dump;
        Alcotest.test_case "replica crash/recover (mw, integrity kept)" `Quick
          test_replica_crash_recover_mw_integrity_kept;
      ]
      @ [ QCheck_alcotest.to_alcotest prop_prefix_consistency_under_traffic ] );
    ( "core.parallel_apply",
      [
        Alcotest.test_case "config validation" `Quick test_cluster_config_validation;
        Alcotest.test_case "seed sweep matches serial applier" `Quick
          test_parallel_apply_matches_serial;
        Alcotest.test_case "hot-key deltas match across worker counts" `Quick
          test_hotkey_deltas_match_across_workers;
      ] );
  ]

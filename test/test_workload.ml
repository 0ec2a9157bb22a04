(* Tests for the benchmark workloads: writeset sizes and mixes match the
   paper's description, and the closed-loop driver measures correctly. *)

open Sim

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* Generate n update-transaction writesets from a spec by running its
   bodies against a recording context. *)
let sample_writesets ?(n = 500) ?(n_replicas = 4) (spec : Workload.Spec.t) =
  let rng = Rng.create 99 in
  let store = Hashtbl.create 1024 in
  List.iter
    (fun (k, v) -> Hashtbl.replace store (Mvcc.Key.to_string k) v)
    (spec.initial_rows ~n_replicas);
  let out = ref [] in
  let tries = ref 0 in
  while List.length !out < n && !tries < n * 20 do
    incr tries;
    let client = Rng.int rng spec.clients_per_replica in
    let replica_ix = Rng.int rng n_replicas in
    let body = spec.new_tx ~rng ~client ~replica_ix ~n_replicas in
    let ws = ref Mvcc.Writeset.empty in
    let ctx =
      {
        Workload.Spec.read =
          (fun k -> Hashtbl.find_opt store (Mvcc.Key.to_string k));
        write = (fun k op -> ws := Mvcc.Writeset.add !ws k op);
        client_rng = rng;
      }
    in
    body.run ctx;
    match body.kind with
    | Workload.Spec.Update -> out := !ws :: !out
    | Workload.Spec.Read_only ->
        if not (Mvcc.Writeset.is_empty !ws) then
          Alcotest.fail "read-only transaction produced writes"
  done;
  !out

let mean_bytes wss =
  let total = List.fold_left (fun a ws -> a + Mvcc.Writeset.encoded_bytes ws) 0 wss in
  float_of_int total /. float_of_int (List.length wss)

let test_allupdates_writeset_size () =
  let wss = sample_writesets (Workload.Allupdates.profile ()) in
  let mean = mean_bytes wss in
  (* paper: 54 bytes average *)
  check_bool
    (Printf.sprintf "mean %.0fB within [35, 80]" mean)
    true
    (mean >= 35. && mean <= 80.);
  List.iter
    (fun ws -> check_int "two rows per transaction" 2 (Mvcc.Writeset.cardinal ws))
    wss

let test_allupdates_no_conflicts () =
  (* Writesets of different clients never intersect (private partitions). *)
  let spec = Workload.Allupdates.profile () in
  let rng = Rng.create 4 in
  let ws_for client replica_ix =
    let body = spec.new_tx ~rng ~client ~replica_ix ~n_replicas:4 in
    let ws = ref Mvcc.Writeset.empty in
    body.run
      {
        Workload.Spec.read = (fun _ -> None);
        write = (fun k op -> ws := Mvcc.Writeset.add !ws k op);
        client_rng = rng;
      };
    !ws
  in
  for _ = 1 to 100 do
    let a = ws_for 0 0 and b = ws_for 1 0 and c = ws_for 0 1 in
    check_bool "different clients disjoint" false (Mvcc.Writeset.intersects a b);
    check_bool "different replicas disjoint" false (Mvcc.Writeset.intersects a c)
  done

let test_tpcb_writeset_size_and_shape () =
  let wss = sample_writesets (Workload.Tpcb.profile ()) in
  let mean = mean_bytes wss in
  (* paper: 158 bytes average *)
  check_bool
    (Printf.sprintf "mean %.0fB within [110, 210]" mean)
    true
    (mean >= 110. && mean <= 210.);
  List.iter
    (fun ws ->
      check_int "account+teller+branch+history" 4 (Mvcc.Writeset.cardinal ws);
      let tables =
        List.map (fun (k : Mvcc.Key.t) -> k.table) (Mvcc.Writeset.keys ws)
        |> List.sort_uniq compare
      in
      Alcotest.(check (list string)) "tables" [ "account"; "branch"; "history"; "teller" ] tables)
    wss

let test_tpcb_remote_branch_fraction () =
  let spec = Workload.Tpcb.profile ~branches_per_replica:1 () in
  let rng = Rng.create 11 in
  let remote = ref 0 and n = 2_000 in
  for _ = 1 to n do
    let body = spec.new_tx ~rng ~client:0 ~replica_ix:0 ~n_replicas:8 in
    let ws = ref Mvcc.Writeset.empty in
    body.run
      {
        Workload.Spec.read = (fun _ -> Some (Mvcc.Value.int 0));
        write = (fun k op -> ws := Mvcc.Writeset.add !ws k op);
        client_rng = rng;
      };
    let branch_key =
      List.find (fun (k : Mvcc.Key.t) -> k.table = "branch") (Mvcc.Writeset.keys !ws)
    in
    if branch_key.row <> "0" then incr remote
  done;
  let fraction = float_of_int !remote /. float_of_int n in
  (* 15% pick a random branch; with 8 branches, 7/8 of those are non-home *)
  check_bool
    (Printf.sprintf "remote fraction %.3f near 0.13" fraction)
    true
    (fraction > 0.09 && fraction < 0.18)

let test_tpcb_history_keys_unique () =
  let spec = Workload.Tpcb.profile () in
  let rng = Rng.create 3 in
  let seen = Hashtbl.create 64 in
  for _ = 1 to 200 do
    let body = spec.new_tx ~rng ~client:1 ~replica_ix:2 ~n_replicas:4 in
    let ws = ref Mvcc.Writeset.empty in
    body.run
      {
        Workload.Spec.read = (fun _ -> Some (Mvcc.Value.int 0));
        write = (fun k op -> ws := Mvcc.Writeset.add !ws k op);
        client_rng = rng;
      };
    List.iter
      (fun (k : Mvcc.Key.t) ->
        if k.table = "history" then begin
          check_bool "history key fresh" false (Hashtbl.mem seen k.row);
          Hashtbl.replace seen k.row ()
        end)
      (Mvcc.Writeset.keys !ws)
  done

let test_tpcw_update_fraction () =
  let spec = Workload.Tpcw.profile () in
  let rng = Rng.create 17 in
  let updates = ref 0 and n = 5_000 in
  for _ = 1 to n do
    let body = spec.new_tx ~rng ~client:0 ~replica_ix:0 ~n_replicas:4 in
    match body.kind with
    | Workload.Spec.Update -> incr updates
    | Workload.Spec.Read_only -> ()
  done;
  let fraction = float_of_int !updates /. float_of_int n in
  check_bool
    (Printf.sprintf "update fraction %.3f near 0.20" fraction)
    true
    (fraction > 0.17 && fraction < 0.23)

let test_tpcw_writeset_size () =
  let wss = sample_writesets ~n:300 (Workload.Tpcw.profile ()) in
  let mean = mean_bytes wss in
  (* paper: 275 bytes average (our mix of cart updates and buys) *)
  check_bool
    (Printf.sprintf "mean %.0fB within [120, 350]" mean)
    true
    (mean >= 120. && mean <= 350.)

(* ------------------------------------------------------------------ *)
(* Driver *)

let test_collector_gating_and_rates () =
  let c = Workload.Driver.Collector.create () in
  (* disabled: nothing recorded *)
  Workload.Driver.Collector.record_abort c;
  check_int "disabled ignores" 0 (Workload.Driver.Collector.aborted c);
  Workload.Driver.Collector.enable c;
  Workload.Driver.Collector.record_abort c;
  check_int "enabled counts" 1 (Workload.Driver.Collector.aborted c);
  Workload.Driver.Collector.record_commit c Workload.Spec.Update (Time.of_ms 30.);
  Workload.Driver.Collector.record_commit c Workload.Spec.Read_only (Time.of_ms 10.);
  check_int "committed" 2 (Workload.Driver.Collector.committed c);
  check_int "update committed" 1 (Workload.Driver.Collector.update_committed c);
  Alcotest.(check (float 0.5)) "update mean ms" 30.
    (Workload.Driver.Collector.mean_response_ms c);
  Alcotest.(check (float 0.5)) "ro mean ms" 10.
    (Workload.Driver.Collector.mean_ro_response_ms c);
  Alcotest.(check (float 1e-9)) "goodput" 0.2
    (Workload.Driver.Collector.goodput c ~window:(Time.sec 10));
  Alcotest.(check (float 1e-9)) "throughput incl aborts" 0.3
    (Workload.Driver.Collector.throughput_all c ~window:(Time.sec 10));
  Workload.Driver.Collector.reset c;
  check_int "reset" 0 (Workload.Driver.Collector.committed c)

let test_standalone_driver_runs () =
  let e = Engine.create () in
  let rng = Rng.create 5 in
  let disk = Storage.Disk.create e ~rng:(Rng.split rng) () in
  let cpu = Resource.create e ~capacity:1 () in
  let db = Mvcc.Db.create e ~rng:(Rng.split rng) ~log_disk:disk () in
  let spec = Workload.Allupdates.profile ~clients_per_replica:4 () in
  Mvcc.Db.load db (spec.initial_rows ~n_replicas:1);
  let collector = Workload.Driver.Collector.create () in
  Workload.Driver.Collector.enable collector;
  Workload.Driver.spawn_standalone_clients e ~db ~cpu ~spec ~rng:(Rng.split rng)
    ~collector;
  Engine.run ~until:(Time.sec 2) e;
  check_bool "committed plenty" true (Workload.Driver.Collector.committed collector > 100);
  check_int "no aborts in allupdates" 0 (Workload.Driver.Collector.aborted collector);
  check_int "db agrees" (Workload.Driver.Collector.committed collector) (Mvcc.Db.commits db)

let suites =
  [
    ( "workload.allupdates",
      [
        Alcotest.test_case "writeset size ~54B" `Quick test_allupdates_writeset_size;
        Alcotest.test_case "clients never conflict" `Quick test_allupdates_no_conflicts;
      ] );
    ( "workload.tpcb",
      [
        Alcotest.test_case "writeset size ~158B and shape" `Quick
          test_tpcb_writeset_size_and_shape;
        Alcotest.test_case "remote branch fraction" `Quick test_tpcb_remote_branch_fraction;
        Alcotest.test_case "history keys unique" `Quick test_tpcb_history_keys_unique;
      ] );
    ( "workload.tpcw",
      [
        Alcotest.test_case "20% updates" `Quick test_tpcw_update_fraction;
        Alcotest.test_case "writeset size" `Quick test_tpcw_writeset_size;
      ] );
    ( "workload.driver",
      [
        Alcotest.test_case "collector gating and rates" `Quick
          test_collector_gating_and_rates;
        Alcotest.test_case "standalone driver runs" `Quick test_standalone_driver_runs;
      ] );
  ]

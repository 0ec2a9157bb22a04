open Sim

type result = {
  dump_degradation : float;
  dump_duration : Time.t;
  mw_restore_duration : Time.t;
  mw_replayed : int;
  mw_replay_duration : Time.t;
  replay_rate : float;
  db_recovery_duration : Time.t;
  cert_bytes_per_ws : float;
  cert_log_bytes_per_hour : float;
  cert_recovery_duration : Time.t;
  update_rate : float;
}

let start ~mode ~n_replicas ~seed ~dump_interval =
  let spec = Workload.Tpcw.profile () in
  let replica =
    {
      (Scenario.storage_profile spec (Tashkent.Replica.default_config mode)) with
      mw_recovery = Tashkent.Replica.Dump_based { interval = dump_interval };
    }
  in
  Scenario.start
    (Scenario.config (Tashkent.Cluster.config ~n_replicas ~replica ~seed mode) spec)

(* The dumper fiber sleeps its interval from replica creation (t ~ 0)
   before the dump proper begins, while the measurement clock starts
   earlier (right after warm-up + baseline). The net duration must count
   only time the dump was actually running — not the tail of that idle
   lead-in. All three arguments are absolute sim times. *)
let net_dump_duration ~dump_began ~measured_from ~finished =
  Time.diff finished (Time.max dump_began measured_from)

(* Goodput of one replica over a window. *)
let replica_window_tput (sc : Scenario.t) i span =
  let proxy = Tashkent.Replica.proxy (Tashkent.Cluster.replica sc.cluster i) in
  let before = (Tashkent.Proxy.stats proxy).commits in
  Scenario.run_for sc span;
  let after = (Tashkent.Proxy.stats proxy).commits in
  float_of_int (after - before) /. Time.to_sec span

(* Crash replica [i], keep it down for [down], then recover it in a fiber
   and wait for its report in [step]s. *)
let crash_and_recover (sc : Scenario.t) i ~down ~step =
  let r = Tashkent.Cluster.replica sc.cluster i in
  Tashkent.Replica.crash r;
  Scenario.run_for sc down;
  let report = ref None in
  ignore (Engine.spawn sc.engine (fun () -> report := Some (Tashkent.Replica.recover r)));
  Scenario.wait_for sc ~step ~limit:60 (fun () -> !report <> None);
  match !report with
  | Some report -> report
  | None -> failwith "recovery_exp: replica recovery did not finish"

let run ?(n_replicas = 15) ?(seed = 1966) () =
  (* ---- Tashkent-MW cluster: dump, crash, restore, replay; certifier. ---- *)
  let dump_start = Time.sec 15 in
  let sc =
    start ~mode:Tashkent.Types.Tashkent_mw ~n_replicas ~seed
      ~dump_interval:dump_start
  in
  let cluster = sc.cluster and engine = sc.engine in
  let r0 = Tashkent.Cluster.replica cluster 0 in
  (* warm up, then baseline window before the dump begins *)
  Scenario.run_for sc (Time.sec 5);
  let baseline_tput = replica_window_tput sc 0 (Time.sec 8) in
  (* we are now inside the dump (it started at ~15 s); measure during-dump *)
  let dump_started_at = Engine.now engine in
  let during_dump_tput = replica_window_tput sc 0 (Time.sec 30) in
  (* run until the dump completes *)
  Scenario.wait_for sc ~step:(Time.sec 10) ~limit:60 (fun () ->
      Tashkent.Replica.dumps_taken r0 > 0);
  let dump_duration =
    net_dump_duration ~dump_began:dump_start ~measured_from:dump_started_at
      ~finished:(Engine.now engine)
  in
  (* certifier log growth during normal operation *)
  let leader =
    match Tashkent.Cluster.leader cluster with
    | Some l -> l
    | None -> failwith "recovery_exp: no leader"
  in
  let stats0 = Tashkent.Certifier.stats leader in
  let version0 = Tashkent.Certifier.system_version leader in
  let growth_window = Time.sec 30 in
  Scenario.run_for sc growth_window;
  let stats1 = Tashkent.Certifier.stats leader in
  let version1 = Tashkent.Certifier.system_version leader in
  let ws_in_window = version1 - version0 in
  let bytes_in_window = stats1.log_bytes - stats0.log_bytes in
  let update_rate = float_of_int ws_in_window /. Time.to_sec growth_window in
  let cert_bytes_per_ws =
    if ws_in_window = 0 then 0. else float_of_int bytes_in_window /. float_of_int ws_in_window
  in
  let cert_log_bytes_per_hour = float_of_int bytes_in_window /. Time.to_sec growth_window *. 3600. in
  (* crash replica 0, leave it down, recover from the dump *)
  let mw_report = crash_and_recover sc 0 ~down:(Time.sec 60) ~step:(Time.sec 20) in
  (* certifier crash + recovery via state transfer *)
  let victim =
    List.find
      (fun c -> not (Tashkent.Certifier.is_leader c))
      (Tashkent.Cluster.certifiers cluster)
  in
  Tashkent.Certifier.crash victim;
  Scenario.run_for sc (Time.sec 60);
  Tashkent.Certifier.recover victim;
  let cert_recover_start = Engine.now engine in
  Scenario.wait_for sc ~step:(Time.of_ms 500.) ~limit:240 (fun () ->
      Tashkent.Certifier.system_version victim
      >= Tashkent.Certifier.system_version leader - 5);
  let cert_recovery_duration = Time.diff (Engine.now engine) cert_recover_start in
  (* ---- Base cluster: database-internal recovery (§7.2). ---- *)
  let bsc =
    start ~mode:Tashkent.Types.Base ~n_replicas:(min n_replicas 4) ~seed:(seed + 7)
      ~dump_interval:(Time.sec 1_000_000)
  in
  Scenario.run_for bsc (Time.sec 8);
  let base_report = crash_and_recover bsc 0 ~down:(Time.sec 30) ~step:(Time.sec 5) in
  {
    dump_degradation =
      (if baseline_tput <= 0. then 0. else 1. -. (during_dump_tput /. baseline_tput));
    dump_duration;
    mw_restore_duration = mw_report.Tashkent.Replica.restore_took;
    mw_replayed = mw_report.writesets_replayed;
    mw_replay_duration = mw_report.replay_took;
    replay_rate =
      (let secs = Time.to_sec mw_report.replay_took in
       if secs <= 0. then 0. else float_of_int mw_report.writesets_replayed /. secs);
    db_recovery_duration = base_report.restore_took;
    cert_bytes_per_ws;
    cert_log_bytes_per_hour;
    cert_recovery_duration;
    update_rate;
  }

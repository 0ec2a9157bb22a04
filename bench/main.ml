(* Regenerates every table and figure of the paper's evaluation (§9).

   Usage:
     dune exec bench/main.exe                 -- everything
     dune exec bench/main.exe -- --quick      -- fewer points, shorter runs
     dune exec bench/main.exe -- --only fig4,fig14,recovery
     dune exec bench/main.exe -- --list       -- available sections
     dune exec bench/main.exe -- --only soak --profile
                                              -- per-module host profile *)

open Harness

let quick = ref false
let only : string list ref = ref []
let seconds = ref 10.
let list_only = ref false
let profile = ref false

let all_sections =
  [
    "fig4"; "fig6"; "fig8"; "fig10"; "fig12"; "fig14"; "standalone"; "recovery";
    "ablation"; "chaos"; "storage_chaos"; "latency"; "parallel_apply";
    "hotkey"; "soak"; "partition"; "monitor";
  ]

(* Machine-readable metrics for regression tracking, written to
   BENCH_micro.json after all requested sections ran: the sections'
   headline figures and the chaos fault/recovery counters. *)
let json_metrics : (string * float) list ref = ref []
let record_metric name v = json_metrics := (name, v) :: !json_metrics

let write_json () =
  let metrics = List.rev !json_metrics in
  let oc = open_out "BENCH_micro.json" in
  output_string oc "{\n";
  List.iteri
    (fun i (name, v) ->
      Printf.fprintf oc "  %S: %s%s\n" name
        (if Float.is_finite v then Printf.sprintf "%.17g" v else "null")
        (if i = List.length metrics - 1 then "" else ","))
    metrics;
  output_string oc "}\n";
  close_out oc;
  Report.kv "BENCH_micro.json" "written"

let () =
  let set_only s = only := String.split_on_char ',' s in
  Arg.parse
    [
      ("--quick", Arg.Set quick, " fewer replica counts and shorter windows");
      ("--only", Arg.String set_only, "SECTIONS comma-separated subset to run");
      ("--seconds", Arg.Set_float seconds, "S measurement window per point (default 10)");
      ("--list", Arg.Set list_only, " list section names and exit");
      ("--profile", Arg.Set profile, " sampled per-module host profile of each section");
    ]
    (fun s -> raise (Arg.Bad ("unexpected argument " ^ s)))
    "tashkent benchmark harness"

let wants name = !only = [] || List.mem name !only

let replicas () = if !quick then [ 1; 4; 8; 15 ] else [ 1; 2; 4; 6; 8; 10; 12; 15 ]
let abort_replicas () = if !quick then [ 2; 8; 15 ] else [ 1; 2; 4; 8; 12; 15 ]

let measure () = Sim.Time.of_sec (if !quick then Float.min !seconds 6. else !seconds)
let warmup () = Sim.Time.of_sec (if !quick then 3. else 4.)

(* Experiment.default with [n] replicas on the [io] disk layout; [tune]
   adjusts the rest of the cluster. *)
let base_cfg ?(n = 3) ?(tune = Fun.id) workload io =
  let d = Experiment.default in
  let c = d.cluster in
  {
    d with
    Experiment.workload;
    cluster = tune { c with n_replicas = n; replica = { c.replica with io } };
    warmup = warmup ();
    measure = measure ();
  }

let systems_for = function
  | Experiment.All_updates | Experiment.Tpc_b ->
      [
        Experiment.Replicated Tashkent.Types.Base;
        Experiment.Replicated Tashkent.Types.Tashkent_api;
        Experiment.Replicated_nocert Tashkent.Types.Tashkent_api;
        Experiment.Replicated Tashkent.Types.Tashkent_mw;
      ]
  | Experiment.Tpc_w ->
      [
        Experiment.Replicated Tashkent.Types.Base;
        Experiment.Replicated Tashkent.Types.Tashkent_api;
        Experiment.Replicated Tashkent.Types.Tashkent_mw;
      ]
  | Experiment.Hotkey | Experiment.Part_local ->
      (* these sections sweep their own knobs (deltas, partitions) rather
         than systems *)
      [ Experiment.Replicated Tashkent.Types.Tashkent_mw ]

let io_name = function
  | Tashkent.Replica.Shared_io -> "shared IO"
  | Tashkent.Replica.Dedicated_io -> "dedicated IO"

(* Run one (workload, io) sweep over systems x replica counts. *)
let sweep workload io =
  let results = Hashtbl.create 64 in
  List.iter
    (fun system ->
      List.iter
        (fun n ->
          let cfg = { (base_cfg ~n workload io) with Experiment.system } in
          let r = Experiment.run cfg in
          Hashtbl.replace results (Experiment.system_name system, n) r)
        (replicas ()))
    (systems_for workload);
  results

let get results sys n : Experiment.result = Hashtbl.find results (sys, n)

let print_throughput_table ~title ~workload results =
  Report.subsection title;
  let syss = List.map Experiment.system_name (systems_for workload) in
  let t = Report.table ~columns:("replicas" :: syss) in
  List.iter
    (fun n ->
      Report.row t
        (string_of_int n :: List.map (fun s -> Report.f1 (get results s n).goodput) syss))
    (replicas ());
  Report.print t

let print_response_table ~title ~workload results =
  Report.subsection title;
  let syss = List.map Experiment.system_name (systems_for workload) in
  let t = Report.table ~columns:("replicas" :: syss) in
  List.iter
    (fun n ->
      Report.row t
        (string_of_int n :: List.map (fun s -> Report.f1 (get results s n).resp_ms) syss))
    (replicas ());
  Report.print t

let nmax () = List.fold_left max 1 (replicas ())

let speedup results a b n =
  let ga = (get results a n).Experiment.goodput
  and gb = (get results b n).Experiment.goodput in
  if gb <= 0. then 0. else ga /. gb

(* ------------------------------------------------------------------ *)

let fig_allupdates ~io ~figt ~figr ~paper_factors () =
  Report.section (Printf.sprintf "Figures %s & %s: AllUpdates (%s)" figt figr (io_name io));
  let results = sweep Experiment.All_updates io in
  print_throughput_table
    ~title:(Printf.sprintf "Figure %s: throughput (req/sec)" figt)
    ~workload:Experiment.All_updates results;
  print_response_table
    ~title:(Printf.sprintf "Figure %s: response time (ms)" figr)
    ~workload:Experiment.All_updates results;
  let n = nmax () in
  let mw_x, api_x = paper_factors in
  Report.paper_vs
    ~what:(Printf.sprintf "tashkent-mw / base speedup at %d replicas" n)
    ~paper:mw_x
    ~measured:(Printf.sprintf "%.1fx" (speedup results "tashkent-mw" "base" n));
  Report.paper_vs
    ~what:(Printf.sprintf "tashkent-api / base speedup at %d replicas" n)
    ~paper:api_x
    ~measured:(Printf.sprintf "%.1fx" (speedup results "tashkent-api" "base" n));
  Report.paper_vs ~what:"base throughput per replica (req/s)" ~paper:"~49"
    ~measured:(Report.f1 ((get results "base" n).goodput /. float_of_int n));
  Report.paper_vs
    ~what:(Printf.sprintf "writesets per certifier fsync (mw, %d replicas)" n)
    ~paper:"~29"
    ~measured:(Report.f1 (get results "tashkent-mw" n).cert_ws_per_fsync);
  Report.kv
    (Printf.sprintf "entries per Accept broadcast (mw, %d replicas)" n)
    (Printf.sprintf "%.1f mean over %d broadcasts"
       (get results "tashkent-mw" n).cert_mean_accept_batch
       (get results "tashkent-mw" n).cert_accept_broadcasts);
  let two = if List.mem 2 (replicas ()) then 2 else 4 in
  Report.paper_vs ~what:"base response-time jump from 1 to 2 replicas" ~paper:"~2x"
    ~measured:
      (Printf.sprintf "%.1fx"
         (let r1 = (get results "base" 1).resp_ms in
          if r1 <= 0. then 0. else (get results "base" two).resp_ms /. r1))

let fig_tpcb ~io ~figt ~figr () =
  Report.section (Printf.sprintf "Figures %s & %s: TPC-B (%s)" figt figr (io_name io));
  let results = sweep Experiment.Tpc_b io in
  print_throughput_table
    ~title:(Printf.sprintf "Figure %s: throughput (req/sec)" figt)
    ~workload:Experiment.Tpc_b results;
  print_response_table
    ~title:(Printf.sprintf "Figure %s: response time (ms)" figr)
    ~workload:Experiment.Tpc_b results;
  let n = nmax () in
  Report.paper_vs ~what:"tashkent-mw / base speedup" ~paper:"2.6x"
    ~measured:(Printf.sprintf "%.1fx" (speedup results "tashkent-mw" "base" n));
  Report.paper_vs ~what:"tashkent-api / base speedup" ~paper:"1.3x"
    ~measured:(Printf.sprintf "%.1fx" (speedup results "tashkent-api" "base" n));
  Report.paper_vs ~what:"artificial conflict rate (remote writesets)" ~paper:"35%"
    ~measured:(Report.pct (get results "tashkent-api" n).artificial_conflict_pct)

let fig_tpcw () =
  Report.section "Figures 12 & 13: TPC-W shopping mix (shared IO)";
  let io = Tashkent.Replica.Shared_io in
  let results = sweep Experiment.Tpc_w io in
  print_throughput_table ~title:"Figure 12: throughput (tps)" ~workload:Experiment.Tpc_w
    results;
  Report.subsection "Figure 13: response times (ms), update / read-only";
  let syss = List.map Experiment.system_name (systems_for Experiment.Tpc_w) in
  let t =
    Report.table
      ~columns:("replicas" :: List.concat_map (fun s -> [ s ^ " upd"; s ^ " ro" ]) syss)
  in
  List.iter
    (fun n ->
      Report.row t
        (string_of_int n
        :: List.concat_map
             (fun s ->
               let r = get results s n in
               [ Report.f1 r.resp_ms; Report.f1 r.ro_resp_ms ])
             syss))
    (replicas ());
  Report.print t;
  let n = nmax () in
  Report.paper_vs ~what:"base vs tashkent-api throughput" ~paper:"equal"
    ~measured:(Printf.sprintf "%.2fx" (speedup results "tashkent-api" "base" n));
  Report.paper_vs ~what:"tashkent-mw vs base throughput" ~paper:"mw higher"
    ~measured:(Printf.sprintf "%.2fx" (speedup results "tashkent-mw" "base" n));
  Report.paper_vs ~what:"read-only response times across systems" ~paper:"similar"
    ~measured:
      (String.concat " / " (List.map (fun s -> Report.f1 (get results s n).ro_resp_ms) syss))

let fig14 () =
  Report.section "Figure 14: goodput under forced abort rates (dedicated IO)";
  let io = Tashkent.Replica.Dedicated_io in
  let sys_names = [ "tashkent-mw"; "tashkent-api"; "base" ] in
  let system_of = function
    | "tashkent-mw" -> Experiment.Replicated Tashkent.Types.Tashkent_mw
    | "tashkent-api" -> Experiment.Replicated Tashkent.Types.Tashkent_api
    | _ -> Experiment.Replicated Tashkent.Types.Base
  in
  let rates = [ 0.0; 0.2; 0.4 ] in
  let results = Hashtbl.create 64 in
  List.iter
    (fun s ->
      List.iter
        (fun rate ->
          List.iter
            (fun n ->
              let tune (c : Tashkent.Cluster.config) =
                { c with certifier = { c.certifier with forced_abort_rate = rate } }
              in
              let cfg =
                {
                  (base_cfg ~n ~tune Experiment.All_updates io) with
                  Experiment.system = system_of s;
                }
              in
              Hashtbl.replace results (s, rate, n) (Experiment.run cfg))
            (abort_replicas ()))
        rates)
    sys_names;
  Report.subsection "goodput (committed req/sec)";
  let t =
    Report.table
      ~columns:
        ("replicas"
        :: List.concat_map
             (fun s -> List.map (fun r -> Printf.sprintf "%s@%.0f%%" s (100. *. r)) rates)
             sys_names)
  in
  List.iter
    (fun n ->
      Report.row t
        (string_of_int n
        :: List.concat_map
             (fun s ->
               List.map
                 (fun rate ->
                   Report.f1 (Hashtbl.find results (s, rate, n) : Experiment.result).goodput)
                 rates)
             sys_names))
    (abort_replicas ());
  Report.print t;
  let n = List.fold_left max 1 (abort_replicas ()) in
  let g s rate = (Hashtbl.find results (s, rate, n) : Experiment.result).goodput in
  Report.paper_vs ~what:"ordering at 40% forced aborts" ~paper:"mw > api > base"
    ~measured:
      (Printf.sprintf "%s (%.0f > %.0f > %.0f)"
         (if g "tashkent-mw" 0.4 > g "tashkent-api" 0.4 && g "tashkent-api" 0.4 > g "base" 0.4
          then "holds"
          else "violated")
         (g "tashkent-mw" 0.4) (g "tashkent-api" 0.4) (g "base" 0.4));
  Report.paper_vs ~what:"abort rate actually measured at 40% knob" ~paper:"40%"
    ~measured:
      (Report.pct
         (Hashtbl.find results ("tashkent-mw", 0.4, n) : Experiment.result)
           .abort_rate_measured)

let standalone () =
  Report.section "Section 9.2: standalone vs 1-replica Tashkent-MW";
  let t = Report.table ~columns:[ "config"; "io"; "req/sec"; "resp (ms)" ] in
  let do_one system io =
    let cfg =
      { (base_cfg ~n:1 Experiment.All_updates io) with Experiment.system }
    in
    let r = Experiment.run cfg in
    Report.row t
      [ Experiment.system_name system; io_name io; Report.f1 r.goodput; Report.f1 r.resp_ms ];
    r
  in
  let s_sh = do_one Experiment.Standalone Tashkent.Replica.Shared_io in
  let m_sh =
    do_one (Experiment.Replicated Tashkent.Types.Tashkent_mw) Tashkent.Replica.Shared_io
  in
  let s_de = do_one Experiment.Standalone Tashkent.Replica.Dedicated_io in
  let m_de =
    do_one (Experiment.Replicated Tashkent.Types.Tashkent_mw) Tashkent.Replica.Dedicated_io
  in
  Report.print t;
  Report.paper_vs ~what:"shared IO: standalone vs 1-replica mw" ~paper:"517 vs 490"
    ~measured:(Printf.sprintf "%.0f vs %.0f" s_sh.goodput m_sh.goodput);
  Report.paper_vs ~what:"dedicated IO: standalone vs 1-replica mw" ~paper:"515 vs 491"
    ~measured:(Printf.sprintf "%.0f vs %.0f" s_de.goodput m_de.goodput);
  Report.paper_vs ~what:"replication overhead at 1 replica" ~paper:"within ~5%"
    ~measured:
      (Printf.sprintf "%.0f%%" (100. *. abs_float (1. -. (m_sh.goodput /. s_sh.goodput))))

let recovery () =
  Report.section "Section 9.6: recovery times (TPC-W, Tashkent-MW, 15 replicas)";
  let r = Recovery_exp.run () in
  Report.kv "system-wide update rate (writesets/s)" (Report.f1 r.update_rate);
  Report.paper_vs ~what:"dump duration" ~paper:"~230 s"
    ~measured:(Printf.sprintf "%.0f s" (Sim.Time.to_sec r.dump_duration));
  Report.paper_vs ~what:"throughput degradation during dump" ~paper:"~13%"
    ~measured:(Report.pct r.dump_degradation);
  Report.paper_vs ~what:"restore from dump" ~paper:"~140 s"
    ~measured:(Printf.sprintf "%.0f s" (Sim.Time.to_sec r.mw_restore_duration));
  Report.paper_vs ~what:"database-internal recovery (base/api)" ~paper:"2-4 s"
    ~measured:(Printf.sprintf "%.1f s" (Sim.Time.to_sec r.db_recovery_duration));
  Report.paper_vs ~what:"writeset replay rate (ws/s)" ~paper:"~900"
    ~measured:
      (Printf.sprintf "%.0f (%d ws in %.2f s)" r.replay_rate r.mw_replayed
         (Sim.Time.to_sec r.mw_replay_duration));
  Report.paper_vs ~what:"certifier log growth" ~paper:"~56 MB/hour"
    ~measured:(Printf.sprintf "%.1f MB/hour" (r.cert_log_bytes_per_hour /. 1.0e6));
  Report.paper_vs ~what:"certifier log bytes per writeset" ~paper:"~275 B"
    ~measured:(Printf.sprintf "%.0f B" r.cert_bytes_per_ws);
  Report.paper_vs ~what:"certifier recovery after 60 s down" ~paper:"~1 s per hour down"
    ~measured:(Printf.sprintf "%.2f s" (Sim.Time.to_sec r.cert_recovery_duration))

let ablation () =
  Report.section "Ablations: the design choices called out in DESIGN.md";
  let run_with ?(system = Experiment.Replicated Tashkent.Types.Base)
      ?(workload = Experiment.All_updates) ?(n = 8) ?(certifiers = 3)
      ?(eager_precert = true) ?(grouping = true) () =
    let tune (c : Tashkent.Cluster.config) =
      {
        c with
        n_certifiers = certifiers;
        replica = { c.replica with eager_precert; group_remote_batches = grouping };
      }
    in
    Experiment.run
      { (base_cfg ~n ~tune workload Tashkent.Replica.Shared_io) with Experiment.system }
  in
  Report.subsection
    "a) grouping remote writesets (\xc2\xa73): Base with vs without the T1_2_3 batching";
  let grouped = run_with ~grouping:true () in
  let naive = run_with ~grouping:false () in
  let t = Report.table ~columns:[ "variant"; "req/sec"; "resp (ms)"; "db recs/fsync" ] in
  Report.row t
    [ "grouped (2M writes)"; Report.f1 grouped.goodput; Report.f1 grouped.resp_ms;
      Report.f1 grouped.db_ws_per_fsync ];
  Report.row t
    [ "naive (1 tx per writeset)"; Report.f1 naive.goodput; Report.f1 naive.resp_ms;
      Report.f1 naive.db_ws_per_fsync ];
  Report.print t;
  Report.kv "grouping speedup"
    (Printf.sprintf "%.2fx" (if naive.goodput > 0. then grouped.goodput /. naive.goodput else 0.));
  Report.subsection
    "b) eager pre-certification / priority writes (\xc2\xa78.2) vs soft recovery (TPC-B, mw)";
  let eager = run_with ~system:(Experiment.Replicated Tashkent.Types.Tashkent_mw)
      ~workload:Experiment.Tpc_b ~eager_precert:true () in
  let lazy_ = run_with ~system:(Experiment.Replicated Tashkent.Types.Tashkent_mw)
      ~workload:Experiment.Tpc_b ~eager_precert:false () in
  let t = Report.table ~columns:[ "variant"; "req/sec"; "resp (ms)"; "abort rate" ] in
  Report.row t
    [ "priority writes"; Report.f1 eager.goodput; Report.f1 eager.resp_ms;
      Report.pct eager.abort_rate_measured ];
  Report.row t
    [ "queue + soft recovery"; Report.f1 lazy_.goodput; Report.f1 lazy_.resp_ms;
      Report.pct lazy_.abort_rate_measured ];
  Report.print t;
  Report.subsection "c) certifier replication degree (Paxos group size, mw AllUpdates)";
  let t = Report.table ~columns:[ "certifiers"; "req/sec"; "resp (ms)"; "cert recs/fsync" ] in
  List.iter
    (fun k ->
      let r =
        run_with ~system:(Experiment.Replicated Tashkent.Types.Tashkent_mw) ~certifiers:k ()
      in
      Report.row t
        [ string_of_int k; Report.f1 r.goodput; Report.f1 r.resp_ms;
          Report.f1 r.cert_ws_per_fsync ])
    [ 1; 3; 5 ];
  Report.print t

(* ------------------------------------------------------------------ *)
(* Latency breakdown: per-stage lifecycle percentiles from the tracer. *)

let latency () =
  Report.section
    "Latency breakdown: transaction lifecycle stages (TPC-B, 8 replicas)";
  let n = if !quick then 4 else 8 in
  let modes =
    [
      ("base", Tashkent.Types.Base);
      ("tashkent-mw", Tashkent.Types.Tashkent_mw);
      ("tashkent-api", Tashkent.Types.Tashkent_api);
    ]
  in
  let results =
    List.map
      (fun (name, mode) ->
        let cfg =
          {
            (base_cfg ~n Experiment.Tpc_b Tashkent.Replica.Shared_io) with
            Experiment.system = Experiment.Replicated mode;
            trace = true;
          }
        in
        (name, Experiment.run cfg))
      modes
  in
  (* One table per mode: every stage the tracer saw, p50/p95/p99 in ms. *)
  List.iter
    (fun (name, r) ->
      Report.subsection (Printf.sprintf "%s: per-stage latency (ms of sim time)" name);
      let t = Report.table ~columns:[ "stage"; "count"; "p50"; "p95"; "p99" ] in
      List.iter
        (fun (stage, (st : Obs.Trace.stage_stats)) ->
          Report.row t
            [
              stage;
              string_of_int st.Obs.Trace.count;
              Report.f1 (st.Obs.Trace.p50_us /. 1000.);
              Report.f1 (st.Obs.Trace.p95_us /. 1000.);
              Report.f1 (st.Obs.Trace.p99_us /. 1000.);
            ];
          List.iter
            (fun (pname, v) ->
              record_metric
                (Printf.sprintf "latency/tpcb/%s/%s/%s" name stage pname)
                v)
            [
              ("p50", st.Obs.Trace.p50_us);
              ("p95", st.Obs.Trace.p95_us);
              ("p99", st.Obs.Trace.p99_us);
            ])
        r.Experiment.stage_latency;
      Report.print t)
    results;
  let p50 name stage =
    match List.assoc_opt stage (List.assoc name results).Experiment.stage_latency with
    | Some (st : Obs.Trace.stage_stats) -> st.Obs.Trace.p50_us /. 1000.
    | None -> nan
  in
  Report.paper_vs
    ~what:"durability stage p50, base vs mw (ms)"
    ~paper:"serial fsync vs in-memory commit"
    ~measured:
      (Printf.sprintf "%.1f vs %.2f" (p50 "base" "durability")
         (p50 "tashkent-mw" "durability"))

(* ------------------------------------------------------------------ *)
(* Chaos: fault-plan runs with their recovery counters. *)

let chaos () =
  Report.section "Chaos: TPC-B under fault plans (crashes, partitions, loss)";
  let plans =
    if !quick then [ ("scripted", Harness.Chaos_exp.Scripted) ]
    else
      [
        ("scripted", Harness.Chaos_exp.Scripted);
        ("random-2", Harness.Chaos_exp.Random 2);
      ]
  in
  List.iter
    (fun (name, plan) ->
      let config = { (Harness.Chaos_exp.default_config ()) with plan } in
      let r = Harness.Chaos_exp.run ~config () in
      let fault = Option.get r.run.fault in
      Report.kv (name ^ " commits") (string_of_int r.commits);
      Report.kv (name ^ " cert retries") (string_of_int r.cert_retries);
      Report.kv (name ^ " cert failovers") (string_of_int r.cert_failovers);
      Report.kv (name ^ " re-fetches") (string_of_int r.refetches);
      Report.kv (name ^ " crashes/recoveries")
        (Printf.sprintf "%d/%d" fault.crashes fault.recoveries);
      Report.kv (name ^ " violations") (string_of_int (List.length r.run.violations));
      let m key v = record_metric (Printf.sprintf "chaos/%s/%s" name key) (float_of_int v) in
      m "commits" r.commits;
      m "cert_retries" r.cert_retries;
      m "cert_failovers" r.cert_failovers;
      m "refetches" r.refetches;
      m "crashes" fault.crashes;
      m "recoveries" fault.recoveries;
      m "violations" (List.length r.run.violations))
    plans

(* ------------------------------------------------------------------ *)
(* Storage chaos: disk-fault plans with the durability invariant. *)

let storage_chaos () =
  Report.section
    "Storage chaos: TPC-B under disk faults (stalls, torn/corrupt WAL tails)";
  let plans =
    if !quick then [ ("scripted-disk", Harness.Chaos_exp.Scripted_disk) ]
    else
      [
        ("scripted-disk", Harness.Chaos_exp.Scripted_disk);
        ("random-disk-7", Harness.Chaos_exp.Random 7);
        ("random-disk-13", Harness.Chaos_exp.Random 13);
      ]
  in
  List.iter
    (fun (name, plan) ->
      let config =
        { (Harness.Chaos_exp.default_config ()) with plan; disk_faults = true }
      in
      let r = Harness.Chaos_exp.run ~config () in
      let fault = Option.get r.run.fault in
      Report.kv (name ^ " commits") (string_of_int r.commits);
      Report.kv (name ^ " durable acked") (string_of_int r.durable_acked);
      Report.kv (name ^ " torn discarded") (string_of_int r.torn_discarded);
      Report.kv (name ^ " corrupt discarded") (string_of_int r.corrupt_discarded);
      Report.kv (name ^ " stalls injected") (string_of_int fault.disk_stalls);
      Report.kv (name ^ " disk failovers") (string_of_int r.disk_failovers);
      Report.kv (name ^ " checks/violations")
        (Printf.sprintf "%d/%d" r.run.checks (List.length r.run.violations));
      let m key v =
        record_metric (Printf.sprintf "storage_chaos/%s/%s" name key)
          (float_of_int v)
      in
      m "commits" r.commits;
      m "durable_acked" r.durable_acked;
      m "torn_discarded" r.torn_discarded;
      m "corrupt_discarded" r.corrupt_discarded;
      m "disk_stalls" fault.disk_stalls;
      m "disk_degrades" fault.disk_degrades;
      m "torn_crashes" fault.torn_crashes;
      m "corrupt_tails" fault.corrupt_tails;
      m "disk_failovers" r.disk_failovers;
      m "checks" r.run.checks;
      m "violations" (List.length r.run.violations))
    plans

(* ------------------------------------------------------------------ *)
(* Parallel apply: the conflict-aware applier pool (apply_workers knob).
   Base mode on AllUpdates is apply-dominated — every replica re-applies
   every remote writeset with a synchronous commit record. The comparison
   keeps per-writeset transactions ([group_remote_batches = false]; the §3
   batch-merge would collapse each batch into a single transaction, hiding
   the applier entirely), so applier concurrency shows up directly as
   goodput: workers share group-commit fsyncs instead of paying one fsync
   per writeset, and non-conflicting writesets overlap their lock and log
   latencies. *)

let parallel_apply () =
  Report.section "Parallel apply: AllUpdates, 8 replicas, 1 vs 4 applier workers";
  let run workers =
    let tune (c : Tashkent.Cluster.config) =
      {
        c with
        replica = { c.replica with group_remote_batches = false; apply_workers = workers };
      }
    in
    Experiment.run
      {
        (base_cfg ~n:8 ~tune Experiment.All_updates Tashkent.Replica.Shared_io) with
        Experiment.system = Experiment.Replicated Tashkent.Types.Base;
      }
  in
  let r1 = run 1 in
  let r4 = run 4 in
  Report.kv "goodput, 1 worker" (Report.f1 r1.Experiment.goodput);
  Report.kv "goodput, 4 workers" (Report.f1 r4.Experiment.goodput);
  Report.kv "speedup"
    (Printf.sprintf "%.2fx"
       (if r1.Experiment.goodput <= 0. then 0.
        else r4.Experiment.goodput /. r1.Experiment.goodput));
  Report.kv "mean apply parallelism (4 workers)"
    (Printf.sprintf "%.2f" r4.Experiment.apply_parallelism);
  Report.kv "apply stalls (conflicting items, 4 workers)"
    (string_of_int r4.Experiment.apply_stalls);
  record_metric "parallel_apply/goodput_w1" r1.Experiment.goodput;
  record_metric "parallel_apply/goodput_w4" r4.Experiment.goodput;
  record_metric "parallel_apply/mean_parallelism_w4" r4.Experiment.apply_parallelism;
  record_metric "parallel_apply/apply_stalls_w4"
    (float_of_int r4.Experiment.apply_stalls)

(* ------------------------------------------------------------------ *)
(* Hotkey: Zipfian hot-row contention, blind read-modify-write vs
   commutative deltas. Deltas turn the hot rows' write-write overlaps
   into certification fast-path passes, so the abort rate collapses and
   certified goodput rises — most visibly at 8 replicas, where the
   certifier sees eight replicas' worth of overlapping hot-row writes. *)

let hotkey () =
  Report.section
    "Hotkey: Zipfian hot rows (theta=0.99), blind writes vs commutative deltas";
  let run ~n ~deltas =
    Experiment.run
      {
        (base_cfg ~n Experiment.Hotkey Tashkent.Replica.Shared_io) with
        Experiment.system = Experiment.Replicated Tashkent.Types.Tashkent_mw;
        deltas;
      }
  in
  let t =
    Report.table
      ~columns:[ "replicas"; "variant"; "goodput"; "abort rate"; "resp (ms)" ]
  in
  let variant_name deltas = if deltas then "delta" else "blind" in
  let results =
    List.concat_map
      (fun n ->
        List.map
          (fun deltas ->
            let r = run ~n ~deltas in
            Report.row t
              [
                string_of_int n;
                variant_name deltas;
                Report.f1 r.Experiment.goodput;
                Report.pct r.Experiment.abort_rate_measured;
                Report.f1 r.Experiment.resp_ms;
              ];
            ((n, deltas), r))
          [ false; true ])
      [ 1; 8 ]
  in
  Report.print t;
  let get n deltas : Experiment.result = List.assoc (n, deltas) results in
  List.iter
    (fun n ->
      List.iter
        (fun deltas ->
          let r = get n deltas in
          let v = variant_name deltas in
          record_metric
            (Printf.sprintf "hotkey/abort_rate_%s_r%d" v n)
            r.Experiment.abort_rate_measured;
          record_metric
            (Printf.sprintf "hotkey/goodput_%s_r%d" v n)
            r.Experiment.goodput)
        [ false; true ])
    [ 1; 8 ];
  Report.paper_vs ~what:"abort rate at 8 replicas, blind vs delta"
    ~paper:"delta strictly lower"
    ~measured:
      (Printf.sprintf "%s vs %s (%s)"
         (Report.pct (get 8 false).Experiment.abort_rate_measured)
         (Report.pct (get 8 true).Experiment.abort_rate_measured)
         (if
            (get 8 true).Experiment.abort_rate_measured
            < (get 8 false).Experiment.abort_rate_measured
          then "holds"
          else "violated"));
  Report.paper_vs ~what:"goodput at 8 replicas, delta vs blind"
    ~paper:"delta higher"
    ~measured:
      (Printf.sprintf "%.1f vs %.1f (%s)" (get 8 true).Experiment.goodput
         (get 8 false).Experiment.goodput
         (if (get 8 true).Experiment.goodput > (get 8 false).Experiment.goodput
          then "holds"
          else "violated"))

let soak () =
  Report.section
    "Soak: sustained Zipfian delta load under GC watermark, periodic chaos";
  let config =
    if !quick then
      {
        (Soak_exp.default_config ()) with
        Soak_exp.duration = Sim.Time.sec 150;
        window = Sim.Time.sec 15;
        chaos_period = Sim.Time.sec 45;
      }
    else Soak_exp.default_config ()
  in
  let r = Soak_exp.run ~config () in
  Format.printf "%a@." Soak_exp.pp_result r;
  (* The early-half vs late-half split the harness asserts on: a bounded
     run keeps the late maxima level with the early ones and the p99
     median flat. *)
  let sp = r.Soak_exp.split in
  record_metric "soak/commits" (float_of_int r.Soak_exp.commits);
  record_metric "soak/store_versions_early_max" (float_of_int sp.early_versions);
  record_metric "soak/store_versions_late_max" (float_of_int sp.late_versions);
  record_metric "soak/cert_bytes_early_max" (float_of_int sp.early_bytes);
  record_metric "soak/cert_bytes_late_max" (float_of_int sp.late_bytes);
  record_metric "soak/p99_ms_early_median" sp.early_p99_ms;
  record_metric "soak/p99_ms_late_median" sp.late_p99_ms;
  record_metric "soak/store_pruned" (float_of_int r.Soak_exp.store_pruned);
  record_metric "soak/cert_pruned" (float_of_int r.Soak_exp.cert_pruned);
  record_metric "soak/snapshot_installs" (float_of_int r.Soak_exp.snapshot_installs);
  record_metric "soak/floor_heals" (float_of_int r.Soak_exp.floor_heals);
  record_metric "soak/violations" (float_of_int (List.length r.run.violations));
  Report.paper_vs ~what:"long-run growth under GC watermark"
    ~paper:"bounded (plateau)"
    ~measured:
      (if r.run.violations = [] then "bounded (0 violations)"
       else Printf.sprintf "%d violations" (List.length r.run.violations))

(* ------------------------------------------------------------------ *)
(* Partitioned certification: goodput scaling with certifier groups on
   the partition-local workload, the cost of a cross-partition mix, and
   the partitioned chaos smoke (one certifier group crashed mid-run). *)

let partition () =
  Report.section
    "Partitioned certification: sharded certifier groups (partlocal workload)";
  let n = if !quick then 8 else 12 in
  let run ~partitions ~cross_ratio =
    Experiment.run
      {
        (base_cfg ~n
           ~tune:(fun c -> { c with n_partitions = partitions })
           Experiment.Part_local Tashkent.Replica.Shared_io)
        with
        Experiment.system = Experiment.Replicated Tashkent.Types.Tashkent_mw;
        cross_ratio;
      }
  in
  (* The scaling claim needs the sharded components on the critical path:
     partial replication (Host_modulo) so the apply stream shards along
     with certification, an inflated certify cost standing in for the
     saturated-certifier regime of the paper (large writesets), a light
     execution cost (client execution is NOT sharded by partitioning), and
     enough closed-loop clients to keep 4 groups busy. *)
  let run_scaling ~partitions =
    Experiment.run
      {
        (base_cfg ~n
           ~tune:(fun c ->
             {
               c with
               n_partitions = partitions;
               hosting = Tashkent.Cluster.Host_modulo;
               certifier = { c.certifier with certify_cpu = Sim.Time.us 300 };
             })
           Experiment.Part_local Tashkent.Replica.Shared_io)
        with
        Experiment.system = Experiment.Replicated Tashkent.Types.Tashkent_mw;
        clients_per_replica = Some 80;
        part_exec_cpu = Some (Sim.Time.us 150);
      }
  in
  Report.subsection
    (Printf.sprintf
       "scaling: certification-bound regime, partial replication \
        (Host_modulo), %d replicas"
       n);
  let t =
    Report.table
      ~columns:
        [ "partitions"; "goodput"; "resp (ms)"; "p99 (ms)"; "abort rate"; "cert cpu" ]
  in
  let scaling =
    List.map
      (fun p ->
        let r = run_scaling ~partitions:p in
        Report.row t
          [
            string_of_int p;
            Report.f1 r.Experiment.goodput;
            Report.f1 r.Experiment.resp_ms;
            Report.f1 r.Experiment.p99_ms;
            Report.pct r.Experiment.abort_rate_measured;
            Report.pct r.Experiment.cert_cpu_util;
          ];
        record_metric
          (Printf.sprintf "partition/local_goodput_p%d" p)
          r.Experiment.goodput;
        (p, r))
      [ 1; 2; 4 ]
  in
  Report.print t;
  let g p = (List.assoc p scaling).Experiment.goodput in
  let scale = if g 1 <= 0. then 0. else g 4 /. g 1 in
  record_metric "partition/local_scaling_p4_over_p1" scale;
  Report.paper_vs ~what:"certified goodput scaling, 1 -> 4 partitions"
    ~paper:"near-linear (>= 3x)"
    ~measured:(Printf.sprintf "%.1fx" scale);
  Report.subsection
    (Printf.sprintf "cross-partition mix at 4 partitions, %d replicas" n);
  let t =
    Report.table
      ~columns:
        [
          "cross-ratio";
          "goodput";
          "cross commits";
          "cross aborts";
          "resp (ms)";
          "p99 (ms)";
        ]
  in
  List.iter
    (fun ratio ->
      let r = run ~partitions:4 ~cross_ratio:ratio in
      Report.row t
        [
          Report.pct ratio;
          Report.f1 r.Experiment.goodput;
          string_of_int r.Experiment.cross_commits;
          string_of_int r.Experiment.cross_aborts;
          Report.f1 r.Experiment.resp_ms;
          Report.f1 r.Experiment.p99_ms;
        ];
      record_metric
        (Printf.sprintf "partition/cross%02d_goodput" (int_of_float (ratio *. 100.)))
        r.Experiment.goodput;
      record_metric
        (Printf.sprintf "partition/cross%02d_commits" (int_of_float (ratio *. 100.)))
        (float_of_int r.Experiment.cross_commits))
    [ 0.1; 0.3 ];
  Report.print t;
  Report.subsection "chaos smoke: one certifier group crashed mid-run";
  List.iter
    (fun seed ->
      let d = Chaos_exp.default_config () in
      let config =
        { d with cluster = { d.cluster with n_partitions = 2; seed } }
      in
      let r = Chaos_exp.run ~config () in
      Report.kv
        (Printf.sprintf "seed %d commits/cross/violations" seed)
        (Printf.sprintf "%d/%d/%d" r.Chaos_exp.commits r.Chaos_exp.cross_commits
           (List.length r.run.violations));
      let m key v =
        record_metric (Printf.sprintf "partition/chaos_seed%d/%s" seed key)
          (float_of_int v)
      in
      m "commits" r.Chaos_exp.commits;
      m "cross_commits" r.Chaos_exp.cross_commits;
      m "cross_aborts" r.Chaos_exp.cross_aborts;
      m "violations" (List.length r.run.violations))
    [ 1966; 2006 ]

(* ------------------------------------------------------------------ *)
(* Monitor overhead: the five online protocol monitors are pure
   observers on the event stream, so goodput with them attached should
   be indistinguishable from goodput without. CI asserts the measured
   overhead stays under 5%. *)

let monitor_overhead () =
  Report.section
    "Monitor overhead: goodput with online protocol monitors off vs on";
  let run monitors =
    Experiment.run
      {
        (base_cfg ~n:(if !quick then 4 else 8) Experiment.Tpc_b
           Tashkent.Replica.Shared_io)
        with
        Experiment.system = Experiment.Replicated Tashkent.Types.Tashkent_mw;
        monitors;
      }
  in
  let off = run false in
  let on_ = run true in
  let overhead_pct =
    if off.Experiment.goodput <= 0. then 0.
    else 100. *. (1. -. (on_.Experiment.goodput /. off.Experiment.goodput))
  in
  Report.kv "goodput, monitors off" (Report.f1 off.Experiment.goodput);
  Report.kv "goodput, monitors on" (Report.f1 on_.Experiment.goodput);
  Report.kv "monitor events consumed" (string_of_int on_.Experiment.monitor_events);
  Report.kv "monitor violations"
    (string_of_int (List.length on_.Experiment.monitor_violations));
  Report.kv "overhead" (Printf.sprintf "%.1f%%" overhead_pct);
  record_metric "monitor/goodput_off" off.Experiment.goodput;
  record_metric "monitor/goodput_on" on_.Experiment.goodput;
  record_metric "monitor/events" (float_of_int on_.Experiment.monitor_events);
  record_metric "monitor/violations"
    (float_of_int (List.length on_.Experiment.monitor_violations));
  record_metric "monitor/overhead_pct" overhead_pct;
  Report.paper_vs ~what:"monitor goodput overhead" ~paper:"< 5% (pure observers)"
    ~measured:(Printf.sprintf "%.1f%%" overhead_pct)

let section name run =
  if wants name then if !profile then Profile.section name run else run ()

let () =
  if !list_only then begin
    List.iter print_endline all_sections;
    exit 0
  end;
  List.iter
    (fun bad ->
      if not (List.mem bad all_sections) then begin
        Printf.eprintf "unknown section %S; use --list\n" bad;
        exit 2
      end)
    !only;
  Printf.printf
    "Tashkent reproduction benchmark harness (%s mode, %.0fs windows)\n"
    (if !quick then "quick" else "full")
    (Sim.Time.to_sec (measure ()));
  section "fig4"
    (fig_allupdates ~io:Tashkent.Replica.Shared_io ~figt:"4" ~figr:"5"
       ~paper_factors:("5.0x", "3.0x"));
  section "fig6"
    (fig_allupdates ~io:Tashkent.Replica.Dedicated_io ~figt:"6" ~figr:"7"
       ~paper_factors:("5.0x", "3.2x"));
  section "fig8" (fig_tpcb ~io:Tashkent.Replica.Shared_io ~figt:"8" ~figr:"9");
  section "fig10" (fig_tpcb ~io:Tashkent.Replica.Dedicated_io ~figt:"10" ~figr:"11");
  section "fig12" fig_tpcw;
  section "fig14" fig14;
  section "standalone" standalone;
  section "recovery" recovery;
  section "ablation" ablation;
  section "chaos" chaos;
  section "storage_chaos" storage_chaos;
  section "latency" latency;
  section "parallel_apply" parallel_apply;
  section "hotkey" hotkey;
  section "soak" soak;
  section "partition" partition;
  section "monitor" monitor_overhead;
  if !json_metrics <> [] then write_json ();
  print_newline ()

(* Command-line front end: run a single measured experiment, the recovery
   experiment, or a consistency stress check. *)

open Cmdliner

(* A converter from [parse]'s names, printing [name]'s and rejecting any
   other word as an unknown [what]. *)
let word_conv what parse name =
  let parse s =
    Option.to_result ~none:(`Msg (Printf.sprintf "unknown %s %S" what s)) (parse s)
  in
  Arg.conv (parse, fun fmt v -> Format.pp_print_string fmt (name v))

let mode_of = function
  | "base" -> Some Tashkent.Types.Base
  | "mw" | "tashkent-mw" -> Some Tashkent.Types.Tashkent_mw
  | "api" | "tashkent-api" -> Some Tashkent.Types.Tashkent_api
  | _ -> None

let system_conv =
  word_conv "system"
    (function
      | "api-nocert" ->
          Some (Harness.Experiment.Replicated_nocert Tashkent.Types.Tashkent_api)
      | "standalone" -> Some Harness.Experiment.Standalone
      | s -> Option.map (fun m -> Harness.Experiment.Replicated m) (mode_of s))
    Harness.Experiment.system_name

let workload_conv =
  word_conv "workload"
    (function
      | "allupdates" -> Some Harness.Experiment.All_updates
      | "tpcb" | "tpc-b" -> Some Harness.Experiment.Tpc_b
      | "tpcw" | "tpc-w" -> Some Harness.Experiment.Tpc_w
      | "hotkey" -> Some Harness.Experiment.Hotkey
      | "partlocal" | "part-local" -> Some Harness.Experiment.Part_local
      | _ -> None)
    Harness.Experiment.workload_name

let io_conv =
  word_conv "io layout"
    (function
      | "shared" -> Some Tashkent.Replica.Shared_io
      | "dedicated" -> Some Tashkent.Replica.Dedicated_io
      | _ -> None)
    (function
      | Tashkent.Replica.Shared_io -> "shared"
      | Tashkent.Replica.Dedicated_io -> "dedicated")

let system_t =
  Arg.(
    value
    & opt system_conv (Harness.Experiment.Replicated Tashkent.Types.Tashkent_mw)
    & info [ "s"; "system" ] ~docv:"SYSTEM"
        ~doc:"System to run: base, mw, api, api-nocert, standalone.")

let workload_t =
  Arg.(
    value
    & opt workload_conv Harness.Experiment.All_updates
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:"allupdates, tpcb, tpcw, hotkey or partlocal.")

let io_t =
  Arg.(
    value
    & opt io_conv Tashkent.Replica.Shared_io
    & info [ "io" ] ~docv:"IO" ~doc:"Disk layout: shared or dedicated.")

let replicas_t =
  Arg.(value & opt int 3 & info [ "n"; "replicas" ] ~docv:"N" ~doc:"Database replicas.")

let certifiers_t =
  Arg.(
    value & opt int 3
    & info [ "certifiers" ] ~docv:"N"
        ~doc:"Certifier nodes (Paxos ring members per certifier group).")

let partitions_t =
  Arg.(
    value & opt int 1
    & info [ "partitions" ] ~docv:"N"
        ~doc:
          "Certifier groups. With more than one, the key space is sharded \
           by a static hash partitioner, each group certifies one shard on \
           its own Paxos ring and log, and clients run through the session \
           router so a transaction spanning groups commits atomically.")

let cross_ratio_t =
  Arg.(
    value & opt float 0.
    & info [ "cross-ratio" ] ~docv:"R"
        ~doc:
          "Fraction (0..1) of partlocal transactions that span two \
           partitions; the rest certify entirely within one certifier \
           group. Only meaningful with --workload partlocal and \
           --partitions > 1.")

let seconds_t ~default ~doc =
  Arg.(value & opt float default & info [ "seconds" ] ~docv:"S" ~doc)

let disk_faults_t ~doc = Arg.(value & flag & info [ "disk-faults" ] ~doc)

let abort_rate_t =
  Arg.(
    value & opt float 0. & info [ "abort-rate" ] ~docv:"R" ~doc:"Forced abort rate (0..1).")

let seed_t = Arg.(value & opt int 20060418 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.")

(* -n, --certifiers, --partitions and --seed, applied to a preset's
   default cluster. *)
let cluster_t =
  let apply n_replicas n_certifiers n_partitions seed
      (c : Tashkent.Cluster.config) =
    { c with n_replicas; n_certifiers; n_partitions; seed }
  in
  Term.(const apply $ replicas_t $ certifiers_t $ partitions_t $ seed_t)

let apply_workers_t =
  Arg.(
    value & opt int 1
    & info [ "apply-workers" ] ~docv:"W"
        ~doc:
          "Parallel applier fibers per replica. With more than one, \
           non-conflicting certified writesets apply concurrently behind a \
           dependency tracker; version visibility still advances in order.")

let deltas_t =
  Arg.(
    value & flag
    & info [ "deltas" ]
        ~doc:
          "Ship commutative increment (delta) ops where the workload supports \
           them (hotkey's hot-row bump, TPC-B's balance updates). Delta-delta \
           overlaps pass certification without conflicting; only a delta \
           against a blind write aborts.")

let skew_t =
  Arg.(
    value & opt float 0.99
    & info [ "skew" ] ~docv:"THETA"
        ~doc:"Zipfian exponent of the hotkey workload's key popularity.")

let gc_interval_t ~default =
  Term.map
    (fun s -> if s <= 0. then None else Some (Sim.Time.of_sec s))
    Arg.(
      value & opt float default
      & info [ "gc-interval" ] ~docv:"S"
          ~doc:
            "Replica vacuum period in seconds: old row versions below the \
             cluster GC watermark are pruned this often. 0 disables vacuuming \
             (the unbounded-growth baseline).")

let monitors_t =
  Arg.(
    value & flag
    & info [ "monitors" ]
        ~doc:
          "Attach the online protocol monitors (durability, serial order, \
           cross-partition atomicity, GC floor, progress) to the run; any \
           monitor violation is printed and makes the command exit 1.")

let run_cmd =
  let run system workload io cluster cross_ratio seconds abort_rate
      apply_workers deltas skew gc_interval monitors =
    let d = Harness.Experiment.default in
    let c : Tashkent.Cluster.config = cluster d.cluster in
    let cfg =
      {
        d with
        system;
        cluster =
          {
            c with
            certifier = { c.certifier with forced_abort_rate = abort_rate };
            replica = { c.replica with io; apply_workers; gc_interval };
          };
        cross_ratio;
        workload;
        deltas;
        hot_skew = skew;
        warmup = Sim.Time.of_sec (Float.min 5. (seconds /. 2.));
        measure = Sim.Time.of_sec seconds;
        monitors;
      }
    in
    let r = Harness.Experiment.run cfg in
    let open Harness.Report in
    kv "system" (Harness.Experiment.system_name system);
    kv "workload" (Harness.Experiment.workload_name workload);
    kv "replicas" (string_of_int c.n_replicas);
    (if c.n_partitions > 1 then begin
       kv "partitions" (string_of_int c.n_partitions);
       kv "cross-partition commits" (string_of_int r.cross_commits);
       kv "cross-partition aborts" (string_of_int r.cross_aborts);
       kv "certifier Accept broadcasts (leaders)" (string_of_int r.cert_accept_broadcasts)
     end);
    kv "throughput (committed+aborted req/s)" (f1 r.throughput);
    kv "goodput (committed req/s)" (f1 r.goodput);
    kv "update response time (ms)" (f1 r.resp_ms);
    kv "read-only response time (ms)" (f1 r.ro_resp_ms);
    kv "abort rate" (pct r.abort_rate_measured);
    kv "writesets per certifier fsync" (f1 r.cert_ws_per_fsync);
    kv "commit records per database fsync" (f1 r.db_ws_per_fsync);
    kv "artificial conflict rate" (pct r.artificial_conflict_pct);
    (if apply_workers > 1 then begin
       kv "mean apply parallelism" (f2 r.apply_parallelism);
       kv "apply stalls (conflicting items)" (string_of_int r.apply_stalls)
     end);
    kv "replica CPU utilization" (pct r.replica_cpu_util);
    kv "replica log-disk utilization" (pct r.replica_disk_util);
    kv "certifier CPU utilization" (pct r.cert_cpu_util);
    kv "certifier disk utilization" (pct r.cert_disk_util);
    if monitors then begin
      kv "monitor events" (string_of_int r.monitor_events);
      kv "monitor violations" (string_of_int (List.length r.monitor_violations));
      List.iter (fun v -> Printf.printf "  %s\n" v) r.monitor_violations;
      if r.monitor_violations <> [] then exit 1
    end
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:
         "Run one measured experiment and print its metrics; with \
          --monitors, exits 1 on any online protocol-monitor violation.")
    Term.(
      const run $ system_t $ workload_t $ io_t $ cluster_t $ cross_ratio_t
      $ seconds_t ~default:10. ~doc:"Measurement window."
      $ abort_rate_t $ apply_workers_t $ deltas_t $ skew_t
      $ gc_interval_t ~default:30. $ monitors_t)

let recovery_cmd =
  let run n seed =
    let r = Harness.Recovery_exp.run ~n_replicas:n ~seed () in
    let open Harness.Report in
    kv "update rate (writesets/s)" (f1 r.update_rate);
    kv "dump duration (s)" (f1 (Sim.Time.to_sec r.dump_duration));
    kv "throughput degradation during dump" (pct r.dump_degradation);
    kv "restore from dump (s)" (f1 (Sim.Time.to_sec r.mw_restore_duration));
    kv "replay rate (writesets/s)" (f1 r.replay_rate);
    kv "database-internal recovery (s)" (f1 (Sim.Time.to_sec r.db_recovery_duration));
    kv "certifier log growth (MB/hour)" (f1 (r.cert_log_bytes_per_hour /. 1.0e6));
    kv "certifier recovery after 60s down (s)"
      (f2 (Sim.Time.to_sec r.cert_recovery_duration))
  in
  Cmd.v
    (Cmd.info "recovery" ~doc:"Run the 9.6 recovery-time experiments.")
    Term.(const run $ replicas_t $ seed_t)

let consistency_cmd =
  let run n seconds seed =
    let sc =
      Harness.Scenario.start
        (Harness.Scenario.config
           (Tashkent.Cluster.config ~n_replicas:n ~seed Tashkent.Types.Tashkent_api)
           (Workload.Allupdates.profile ()))
    in
    let cluster = sc.cluster in
    Sim.Engine.run ~until:(Sim.Time.of_sec seconds) sc.engine;
    match Tashkent.Cluster.check_consistency cluster with
    | Ok () ->
        Printf.printf "OK: %d commits, every replica is a consistent prefix\n"
          (Tashkent.Cluster.total_commits cluster)
    | Error msg ->
        Printf.printf "VIOLATION: %s\n" msg;
        exit 1
  in
  Cmd.v
    (Cmd.info "consistency" ~doc:"Stress the cluster and verify the GSI safety invariant.")
    Term.(
      const run $ replicas_t
      $ seconds_t ~default:10. ~doc:"Measurement window."
      $ seed_t)

let chaos_cmd =
  let run cluster seconds plan_seed disk_faults apply_workers deltas
      gc_interval =
    let plan =
      match plan_seed with
      | None ->
          if disk_faults then Harness.Chaos_exp.Scripted_disk
          else Harness.Chaos_exp.Scripted
      | Some s -> Harness.Chaos_exp.Random s
    in
    let d = Harness.Chaos_exp.default_config () in
    let c : Tashkent.Cluster.config = cluster d.cluster in
    let config =
      {
        d with
        cluster = { c with replica = { c.replica with apply_workers; gc_interval } };
        duration = Sim.Time.of_sec seconds;
        plan;
        disk_faults;
        deltas;
      }
    in
    let r = Harness.Chaos_exp.run ~config () in
    Format.printf "%a@." Harness.Chaos_exp.pp_result r;
    if r.run.violations <> [] || r.run.monitor_violations <> [] then exit 1
  in
  let plan_seed_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "plan-seed" ] ~docv:"SEED"
          ~doc:
            "Generate a random fault plan from this seed instead of the scripted \
             acceptance scenario.")
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:
         "Run TPC-B under a fault plan (leader crashes, partitions, loss bursts, and \
          optionally storage faults) and verify the GSI and durability invariants \
          after every heal, with the online protocol monitors attached; exits 1 \
          on any checkpoint or monitor violation.")
    Term.(
      const run $ cluster_t
      $ seconds_t ~default:20. ~doc:"Simulated run length (the plan spans it)."
      $ plan_seed_t
      $ disk_faults_t
          ~doc:
            "Inject storage faults too: fsync stalls, degraded disks, and \
             torn/corrupt WAL tails. With a random plan this extends it; without \
             one it selects the scripted storage-fault scenario."
      $ apply_workers_t $ deltas_t
      $ gc_interval_t ~default:5.)

let soak_cmd =
  let run cluster seconds window gc_interval no_chaos chaos_period skew
      deltas =
    let c : Tashkent.Cluster.config =
      cluster (Harness.Soak_exp.default_config ()).cluster
    in
    let config =
      {
        Harness.Soak_exp.cluster = { c with replica = { c.replica with gc_interval } };
        duration = Sim.Time.of_sec seconds;
        window = Sim.Time.of_sec window;
        chaos = not no_chaos;
        chaos_period = Sim.Time.of_sec chaos_period;
        skew;
        deltas;
      }
    in
    let r = Harness.Soak_exp.run ~config () in
    Format.printf "%a@." Harness.Soak_exp.pp_result r;
    if r.run.violations <> [] || r.run.monitor_violations <> [] then exit 1
  in
  let window_t =
    Arg.(
      value & opt float 30.
      & info [ "window" ] ~docv:"S" ~doc:"Gauge-sampling window.")
  in
  let no_chaos_t =
    Arg.(
      value & flag
      & info [ "no-chaos" ]
          ~doc:"Disable the periodic leader/replica crash plan.")
  in
  let chaos_period_t =
    Arg.(
      value & opt float 120.
      & info [ "chaos-period" ] ~docv:"S"
          ~doc:
            "One fault every this often, alternating a short leader crash \
             with a replica outage longer than the watermark TTL (so its \
             recovery needs a snapshot transfer).")
  in
  let deltas_t =
    Arg.(
      value & opt bool true
      & info [ "deltas" ] ~docv:"BOOL"
          ~doc:"Ship hot-row increments as commutative deltas.")
  in
  Cmd.v
    (Cmd.info "soak"
       ~doc:
         "Run sustained Zipfian delta traffic with GC active (and periodic \
          chaos), sample version/log-growth gauges per window, and assert \
          they stay bounded and latency stays flat, with the online protocol \
          monitors attached; exits 1 on any violation.")
    Term.(
      const run $ cluster_t
      $ seconds_t ~default:600. ~doc:"Simulated run length."
      $ window_t $ gc_interval_t ~default:5. $ no_chaos_t $ chaos_period_t
      $ skew_t $ deltas_t)

let explore_cmd =
  let run cluster seconds first_seed n_seeds batch no_targeted no_shrink
      max_shrink_runs max_repros disk_faults =
    let d = Harness.Chaos_exp.default_config () in
    let config =
      {
        Harness.Explore_exp.base =
          {
            d with
            cluster = cluster d.cluster;
            duration = Sim.Time.of_sec seconds;
            disk_faults;
          };
        first_seed;
        n_seeds;
        batch;
        targeted = not no_targeted;
        shrink = not no_shrink;
        max_shrink_runs;
        max_repros;
      }
    in
    let r =
      Harness.Explore_exp.run
        ~on_progress:(fun line -> Format.printf "%s@." line)
        config
    in
    Format.printf "%a@." Harness.Explore_exp.pp_result r;
    if r.repros <> [] then exit 1
  in
  let first_seed_t =
    Arg.(
      value & opt int 1
      & info [ "first-seed" ] ~docv:"SEED" ~doc:"First plan seed of the sweep.")
  in
  let n_seeds_t =
    Arg.(
      value & opt int 8
      & info [ "seeds" ] ~docv:"N"
          ~doc:
            "Plan seeds to sweep; each yields a random schedule and (unless \
             $(b,--no-targeted)) a targeted message-tap schedule.")
  in
  let batch_t =
    Arg.(
      value & opt int 4
      & info [ "batch" ] ~docv:"N"
          ~doc:
            "Schedules run concurrently (one domain each). Batching changes \
             wall-clock time only; results are deterministic either way.")
  in
  let no_targeted_t =
    Arg.(
      value & flag
      & info [ "no-targeted" ]
          ~doc:
            "Sweep only random plans; skip the targeted schedules (precise \
             message delays/drops and announce-instant crashes).")
  in
  let no_shrink_t =
    Arg.(
      value & flag
      & info [ "no-shrink" ]
          ~doc:"Report violating schedules with their full plans, unshrunk.")
  in
  let max_shrink_runs_t =
    Arg.(
      value & opt int 48
      & info [ "max-shrink-runs" ] ~docv:"N"
          ~doc:"Chaos-run budget per shrink.")
  in
  let max_repros_t =
    Arg.(
      value & opt int 3
      & info [ "max-repros" ] ~docv:"N"
          ~doc:"Stop shrinking after this many distinct repros.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Sweep fault-plan seeds in parallel batches — random schedules plus \
          targeted message-level reorderings (delay the decisive Paxos ack, \
          drop the Nth certifier reply or cross-partition vote, crash a \
          certifier at its announce instant) — with the online protocol \
          monitors attached, and shrink any violating schedule to a minimal \
          explicit plan suitable as a CI regression; exits 1 if any schedule \
          violates.")
    Term.(
      const run $ cluster_t
      $ seconds_t ~default:20. ~doc:"Simulated length of each schedule."
      $ first_seed_t $ n_seeds_t $ batch_t $ no_targeted_t $ no_shrink_t
      $ max_shrink_runs_t $ max_repros_t
      $ disk_faults_t ~doc:"Extend the random schedules with storage faults.")

let trace_cmd =
  let run mode n certifiers seconds seed output check =
    let sc =
      Harness.Scenario.start
        (Harness.Scenario.config ~trace:true
           (Tashkent.Cluster.config ~n_replicas:n ~n_certifiers:certifiers ~seed mode)
           (Workload.Tpcb.profile ()))
    in
    Harness.Scenario.run_for sc (Sim.Time.of_sec seconds);
    let trace = sc.trace in
    let json = Obs.Trace.to_chrome_json trace in
    let oc = open_out output in
    output_string oc json;
    close_out oc;
    let open Harness.Report in
    kv "mode" (Tashkent.Types.mode_name mode);
    kv "spans recorded" (string_of_int (Obs.Trace.recorded trace));
    kv "spans retained" (string_of_int (List.length (Obs.Trace.events trace)));
    kv "spans dropped (ring wrap)" (string_of_int (Obs.Trace.dropped trace));
    kv "trace file" output;
    List.iter
      (fun (stage, (s : Obs.Trace.stage_stats)) ->
        kv
          (Printf.sprintf "%-16s n=%d" stage s.count)
          (Printf.sprintf "p50 %.0f µs  p95 %.0f µs  p99 %.0f µs" s.p50_us s.p95_us
             s.p99_us))
      (Obs.Trace.all_stage_stats trace);
    if check then begin
      let events = Obs.Trace.events trace in
      let problems = ref [] in
      let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
      if events = [] then add "no spans recorded";
      List.iter
        (fun (e : Obs.Trace.event) ->
          if Sim.Time.(e.finished < e.started) then
            add "span %s/%d finishes before it starts" e.stage e.id)
        events;
      let stages = Obs.Trace.stages trace in
      List.iter
        (fun required ->
          if not (List.mem required stages) then add "missing stage %S" required)
        [ "txn.commit"; "certify"; "durability" ];
      if not (String.length json > 0 && json.[0] = '{') then
        add "trace JSON does not start with an object";
      match List.rev !problems with
      | [] -> print_endline "trace check OK"
      | ps ->
          List.iter (fun p -> Printf.printf "trace check FAILED: %s\n" p) ps;
          exit 1
    end
  in
  let mode_t =
    Arg.(
      value
      & opt
          (word_conv "mode" mode_of Tashkent.Types.mode_name)
          Tashkent.Types.Tashkent_mw
      & info [ "m"; "mode" ] ~docv:"MODE" ~doc:"base, mw or api.")
  in
  let output_t =
    Arg.(
      value & opt string "trace.json"
      & info [ "o"; "output" ] ~docv:"FILE"
          ~doc:"Where to write the Chrome trace_event JSON.")
  in
  let check_t =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Validate the recorded trace (spans present, sim-clock ordering, key \
             lifecycle stages) and exit 1 on failure.")
  in
  Cmd.v
    (Cmd.info "trace"
       ~doc:
         "Run TPC-B with the transaction-lifecycle tracer on, write Chrome \
          trace_event JSON (load in chrome://tracing or Perfetto), and print \
          per-stage latency percentiles.")
    Term.(
      const run $ mode_t $ replicas_t $ certifiers_t
      $ seconds_t ~default:5. ~doc:"Simulated run length to trace."
      $ seed_t $ output_t $ check_t)

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval
       (Cmd.group ~default
          (Cmd.info "tashkent-cli" ~version:"1.0.0"
             ~doc:"Tashkent (EuroSys 2006) reproduction toolkit")
          [
            run_cmd;
            recovery_cmd;
            consistency_cmd;
            chaos_cmd;
            soak_cmd;
            explore_cmd;
            trace_cmd;
          ]))

(* Tests for the experiment harness: each system configuration runs and
   reports sane, paper-shaped metrics. These use short windows, so they
   assert robust orderings rather than point values. *)

let check_bool = Alcotest.(check bool)

(* [tune] adjusts the default cluster once it has [n] replicas. *)
let quick_cfg ?(tune = Fun.id) system workload n =
  let d = Harness.Experiment.default in
  {
    d with
    Harness.Experiment.system;
    cluster = tune { d.cluster with n_replicas = n };
    workload;
    warmup = Sim.Time.sec 2;
    measure = Sim.Time.sec 4;
  }

let test_each_system_runs () =
  List.iter
    (fun system ->
      let r = Harness.Experiment.run (quick_cfg system Harness.Experiment.All_updates 2) in
      check_bool
        (Harness.Experiment.system_name system ^ " produces throughput")
        true (r.goodput > 10.);
      check_bool "response time positive" true (r.resp_ms > 0.))
    [
      Harness.Experiment.Standalone;
      Harness.Experiment.Replicated Tashkent.Types.Base;
      Harness.Experiment.Replicated Tashkent.Types.Tashkent_mw;
      Harness.Experiment.Replicated Tashkent.Types.Tashkent_api;
      Harness.Experiment.Replicated_nocert Tashkent.Types.Tashkent_api;
    ]

(* Key ids come from a per-domain interner, so clusters running at once on
   parallel domains each number their rows from scratch, while the main
   domain's ids depend on every test that ran before. An id must decide
   nothing: the parallel runs match the same runs done one after the
   other. *)
let test_parallel_domains_match_sequential () =
  let open Harness.Experiment in
  let cfgs =
    [
      quick_cfg (Replicated Tashkent.Types.Tashkent_mw) Tpc_b 2;
      quick_cfg (Replicated Tashkent.Types.Tashkent_api) Tpc_w 2;
    ]
  in
  let summary c =
    let r = run c in
    (r.goodput, r.resp_ms, r.p99_ms, r.ro_resp_ms, r.commits, r.aborts)
  in
  let sequential = List.map summary cfgs in
  let parallel =
    List.map Domain.join (List.map (fun c -> Domain.spawn (fun () -> summary c)) cfgs)
  in
  List.iter2
    (fun (g, _, _, _, commits, _) (g', _, _, _, commits', _) ->
      Printf.printf "goodput %.3f / %.3f, commits %d / %d\n" g g' commits commits')
    sequential parallel;
  check_bool "parallel runs match sequential ones" true (sequential = parallel)

let test_headline_ordering () =
  (* The paper's core claim at any non-trivial replica count: both Tashkent
     systems clearly beat Base on AllUpdates. *)
  let run system =
    (Harness.Experiment.run (quick_cfg system Harness.Experiment.All_updates 6)).goodput
  in
  let base = run (Harness.Experiment.Replicated Tashkent.Types.Base) in
  let mw = run (Harness.Experiment.Replicated Tashkent.Types.Tashkent_mw) in
  let api = run (Harness.Experiment.Replicated Tashkent.Types.Tashkent_api) in
  check_bool
    (Printf.sprintf "mw (%.0f) > 2x base (%.0f)" mw base)
    true (mw > 2. *. base);
  check_bool (Printf.sprintf "api (%.0f) > 1.5x base (%.0f)" api base) true
    (api > 1.5 *. base);
  check_bool "mw >= api" true (mw >= api)

let test_base_serial_commit_ceiling () =
  (* Base's replicas commit serially: ~50-60 local commits/s/replica. *)
  let r =
    Harness.Experiment.run
      (quick_cfg (Harness.Experiment.Replicated Tashkent.Types.Base)
         Harness.Experiment.All_updates 4)
  in
  let per_replica = r.goodput /. 4. in
  check_bool
    (Printf.sprintf "base %.0f/replica within [30, 75]" per_replica)
    true
    (per_replica > 30. && per_replica < 75.)

let test_forced_abort_rate_respected () =
  let cfg =
    quick_cfg
      ~tune:(fun c ->
        { c with certifier = { c.certifier with forced_abort_rate = 0.3 } })
      (Harness.Experiment.Replicated Tashkent.Types.Tashkent_mw)
      Harness.Experiment.All_updates 3
  in
  let r = Harness.Experiment.run cfg in
  check_bool
    (Printf.sprintf "measured abort rate %.2f near 0.3" r.abort_rate_measured)
    true
    (r.abort_rate_measured > 0.22 && r.abort_rate_measured < 0.38);
  check_bool "goodput < throughput" true (r.goodput < r.throughput)

let test_grouping_ablation_direction () =
  let with_grouping grouping =
    Harness.Experiment.run
      (quick_cfg
         ~tune:(fun c ->
           { c with replica = { c.replica with group_remote_batches = grouping } })
         (Harness.Experiment.Replicated Tashkent.Types.Base)
         Harness.Experiment.All_updates 4)
  in
  let grouped = with_grouping true and naive = with_grouping false in
  check_bool
    (Printf.sprintf "grouping helps (%.0f vs %.0f)" grouped.goodput naive.goodput)
    true
    (grouped.goodput > naive.goodput)

let test_dedicated_io_not_worse () =
  let run io =
    Harness.Experiment.run
      (quick_cfg
         ~tune:(fun c -> { c with replica = { c.replica with io } })
         (Harness.Experiment.Replicated Tashkent.Types.Tashkent_api)
         Harness.Experiment.All_updates 4)
  in
  let shared = run Tashkent.Replica.Shared_io in
  let dedicated = run Tashkent.Replica.Dedicated_io in
  check_bool "dedicated >= 0.9x shared" true (dedicated.goodput >= 0.9 *. shared.goodput)

let test_certifier_group_size_free () =
  (* Replicating the certifier for availability costs ~nothing in
     throughput (fsyncs happen in parallel, majority = leader + 1). *)
  let run n_certifiers =
    Harness.Experiment.run
      (quick_cfg
         ~tune:(fun c -> { c with n_certifiers })
         (Harness.Experiment.Replicated Tashkent.Types.Tashkent_mw)
         Harness.Experiment.All_updates 4)
  in
  let one = run 1 and three = run 3 in
  check_bool
    (Printf.sprintf "3 certifiers within 15%% of 1 (%.0f vs %.0f)" three.goodput one.goodput)
    true
    (three.goodput > 0.85 *. one.goodput)

(* ------------------------------------------------------------------ *)
(* Scenarios *)

let test_partitioned_artificial_conflicts () =
  (* With two certifier groups every group's leader flags artificial
     conflicts on the writesets it ships, and the reported rate divides by
     the remote writesets shipped to every partition's proxies — so the
     numerator must count every group's flags, not group 0's alone. *)
  let cfg =
    {
      (quick_cfg
         ~tune:(fun c -> { c with n_partitions = 2 })
         (Harness.Experiment.Replicated Tashkent.Types.Tashkent_mw)
         Harness.Experiment.Part_local 4)
      with
      cross_ratio = 0.3;
    }
  in
  let sc = Harness.Scenario.start (Harness.Experiment.scenario cfg) in
  let r = Harness.Experiment.measure cfg sc in
  let flagged =
    List.map
      (fun l -> (Tashkent.Certifier.stats l).artificial_conflicts)
      (Tashkent.Cluster.leaders sc.cluster)
  in
  let shipped =
    Harness.Scenario.sum
      (fun p -> (Tashkent.Proxy.stats p).remote_ws_applied)
      (Harness.Scenario.proxies sc)
  in
  Alcotest.(check int) "one leader per group" 2 (List.length flagged);
  check_bool "every group flagged some" true (List.for_all (fun n -> n > 0) flagged);
  Alcotest.(check (float 1e-12))
    "rate counts every group's flags"
    (float_of_int (List.fold_left ( + ) 0 flagged) /. float_of_int shipped)
    r.artificial_conflict_pct

let test_session_clients_respawn () =
  (* Session clients killed by a replica crash are respawned by its
     recovery: the replica's proxies keep committing afterwards, and the
     run stays invariant- and monitor-clean. *)
  let sc =
    Harness.Scenario.start
      (Harness.Scenario.config ~monitors:true
         (Tashkent.Cluster.config ~n_partitions:2 ~seed:7 Tashkent.Types.Tashkent_mw)
         (Workload.Partlocal.profile ~partitions:2 ~cross_ratio:0.3 ()))
  in
  let injector =
    Fault.inject sc.cluster
      [
        (Sim.Time.sec 1, Fault.Crash_replica 1);
        (Sim.Time.sec 2, Fault.Recover_replica 1);
      ]
  in
  Harness.Scenario.run_for sc (Sim.Time.sec 5);
  check_bool "outage over" true (Fault.quiescent injector);
  let r1 = Tashkent.Cluster.replica sc.cluster 1 in
  let commits () =
    Harness.Scenario.sum
      (fun part ->
        match Tashkent.Replica.proxy_of r1 ~part with
        | Some p -> (Tashkent.Proxy.stats p).commits
        | None -> 0)
      (Tashkent.Replica.partitions r1)
  in
  let after_recovery = commits () in
  Harness.Scenario.run_for sc (Sim.Time.sec 4);
  let later = commits () in
  check_bool
    (Printf.sprintf "replica1 commits rise after recovery (%d -> %d)"
       after_recovery later)
    true (later > after_recovery);
  Alcotest.(check (list string)) "invariants hold" []
    (Harness.Scenario.invariant_violations sc);
  Alcotest.(check (list string)) "monitors clean" []
    (Harness.Scenario.monitor_violations sc)

(* The shared fault-run loop, on a small monitor-free cluster. [log]
   collects what the stop actions and the final check saw, as offsets
   from the injection in milliseconds. *)
let run_plan_logged ?(plan = []) ~duration stops =
  let sc =
    Harness.Scenario.start
      (Harness.Scenario.config
         (Tashkent.Cluster.config ~seed:5 Tashkent.Types.Tashkent_mw)
         (Workload.Allupdates.profile ()))
  in
  let started = Sim.Engine.now sc.engine in
  let log = ref [] in
  let note what =
    let at = Sim.Time.diff (Sim.Engine.now sc.engine) started in
    log := Printf.sprintf "%s@%.0f" what (Sim.Time.to_ms at) :: !log;
    [ what ]
  in
  let outcome =
    Harness.Scenario.run_plan sc ~plan ~duration ~stops
      ~at_stop:(fun offset ->
        note (Printf.sprintf "stop%.0f" (Sim.Time.to_ms offset)))
      ~drain_limit:30
      ~final:(fun () -> note "final")
  in
  (outcome, List.rev !log)

(* A stop at the very end runs before the final check (the soak's last
   window ends there). *)
let test_run_plan_stop_order () =
  let sec = Sim.Time.sec in
  let outcome, log =
    run_plan_logged ~duration:(sec 4) [ sec 3; sec 1; sec 4; sec 2; sec 1 ]
  in
  Alcotest.(check (list string))
    "each distinct stop once, in offset order, at its offset"
    [
      "stop1000@1000";
      "stop2000@2000";
      "stop3000@3000";
      "stop4000@4000";
      "final@4000";
    ]
    log;
  Alcotest.(check (list string))
    "violations in the order found"
    [ "stop1000"; "stop2000"; "stop3000"; "stop4000"; "final" ]
    outcome.violations;
  Alcotest.(check int) "stops plus the final check" 5 outcome.checks;
  check_bool "no plan, no injector" true (outcome.fault = None)

let test_run_plan_final_after_drain () =
  let sec = Sim.Time.sec in
  let plan =
    [ (sec 1, Fault.Crash_replica 1); (sec 6, Fault.Recover_replica 1) ]
  in
  let outcome, log = run_plan_logged ~plan ~duration:(sec 2) [ sec 1 ] in
  (match log with
  | [ stop; final ] ->
      Alcotest.(check string) "stop inside the run" "stop1000@1000" stop;
      let at = Scanf.sscanf final "final@%f" Fun.id in
      check_bool
        (Printf.sprintf "final check (%s) after the 6 s recovery" final)
        true (at >= 6000.)
  | _ -> Alcotest.failf "unexpected log [%s]" (String.concat "; " log));
  match outcome.fault with
  | Some f ->
      Alcotest.(check int) "crash injected" 1 f.crashes;
      Alcotest.(check int) "drained through the recovery" 1 f.recoveries
  | None -> Alcotest.fail "a non-empty plan must be injected"

(* The scripted plan heals or recovers at 5 s, 10 s and 14.5 s, so its
   checkpoints fall at 7 s, 12 s and 16.5 s. In a 12 s run only the one
   at 7 s is inside the run: the one at the very end is left to the final
   check and the one after it is never reached. *)
let test_scripted_chaos_checks () =
  let config =
    { (Harness.Chaos_exp.default_config ()) with duration = Sim.Time.sec 12 }
  in
  let r = Harness.Chaos_exp.run ~config () in
  Alcotest.(check (list string)) "no violations" [] r.run.violations;
  Alcotest.(check int) "in-window checkpoints plus the final one" 2
    r.run.checks

let test_net_dump_duration () =
  let ms = Sim.Time.of_ms in
  (* measurement started before the dump began: the idle lead-in between
     13.2 s and 15 s must not count toward the dump *)
  Alcotest.(check int) "lead-in subtracted"
    (Sim.Time.to_us (ms 85_000.))
    (Sim.Time.to_us
       (Harness.Recovery_exp.net_dump_duration ~dump_began:(ms 15_000.)
          ~measured_from:(ms 13_200.) ~finished:(ms 100_000.)));
  (* measurement started after the dump began: plain difference *)
  Alcotest.(check int) "no lead-in to subtract"
    (Sim.Time.to_us (ms 80_000.))
    (Sim.Time.to_us
       (Harness.Recovery_exp.net_dump_duration ~dump_began:(ms 15_000.)
          ~measured_from:(ms 20_000.) ~finished:(ms 100_000.)))

let test_recovery_experiment_smoke () =
  let r = Harness.Recovery_exp.run ~n_replicas:4 ~seed:77 () in
  check_bool "dump took minutes" true Sim.Time.(r.dump_duration > Sim.Time.sec 60);
  check_bool "restore took ~2 minutes" true
    Sim.Time.(r.mw_restore_duration > Sim.Time.sec 60);
  (* degradation is load-dependent and noisy in this short smoke window at
     small n; just require a sane fraction (the full-size measurement is the
     bench's `recovery` section, which lands near the paper's 13%) *)
  check_bool "degradation is a sane fraction" true
    (r.dump_degradation > -0.5 && r.dump_degradation < 0.9);
  check_bool "db recovery seconds" true
    Sim.Time.(
      r.db_recovery_duration >= Sim.Time.sec 2 && r.db_recovery_duration <= Sim.Time.sec 5);
  check_bool "replay happened" true (r.mw_replayed > 0);
  check_bool "cert log grows" true (r.cert_log_bytes_per_hour > 0.);
  check_bool "cert recovery fast" true Sim.Time.(r.cert_recovery_duration < Sim.Time.sec 10)

let test_soak_smoke () =
  (* A compressed soak (fixed seed, 2 simulated minutes, one leader crash
     and one 30 s replica outage): both GC paths must fire, growth must
     stay bounded, latency flat, the pruned-prefix recovery must heal via
     snapshot transfer, and all of it with zero invariant violations. The
     full-length run is `tashkent-cli soak` / the bench's `soak` section. *)
  let config =
    {
      (Harness.Soak_exp.default_config ()) with
      Harness.Soak_exp.duration = Sim.Time.sec 150;
      window = Sim.Time.sec 15;
      chaos_period = Sim.Time.sec 45;
    }
  in
  let r = Harness.Soak_exp.run ~config () in
  Alcotest.(check (list string)) "no violations" [] r.run.violations;
  check_bool "traffic flowed" true (r.commits > 1_000);
  check_bool "store GC pruned" true (r.store_pruned > 0);
  check_bool "cert log truncated" true (r.cert_pruned > 0);
  check_bool "pruned-prefix recovery used a snapshot" true
    (r.snapshot_installs > 0);
  (* every sampled window keeps the version count and live log small
     multiples of the steady-state working set *)
  List.iter
    (fun (w : Harness.Soak_exp.window_sample) ->
      check_bool "store versions bounded" true (w.store_versions < 20_000);
      check_bool "live log bytes bounded" true (w.cert_bytes < 4_000_000))
    r.windows

let test_soak_no_gc_baseline_grows () =
  (* The control: with vacuuming off the version count must climb with
     wall-clock — this is the unbounded growth the watermark exists to
     fix, and it keeps the soak's boundedness assertions honest. *)
  let d = Harness.Soak_exp.default_config () in
  let config =
    {
      d with
      Harness.Soak_exp.cluster =
        { d.cluster with replica = { d.cluster.replica with gc_interval = None } };
      duration = Sim.Time.sec 120;
      window = Sim.Time.sec 30;
      chaos = false;
    }
  in
  let r = Harness.Soak_exp.run ~config () in
  (* The certifier still truncates its log — that side is driven by the
     watermark stamps, not the replica vacuum knob — but no replica may
     prune a row version. *)
  check_bool "no store version pruned without GC" true (r.store_pruned = 0);
  check_bool "the boundedness assertions catch the growth" true
    (r.run.violations <> []);
  match r.windows with
  | first :: rest ->
      let last = List.nth rest (List.length rest - 1) in
      check_bool "version count climbs monotonically with the clock" true
        (last.Harness.Soak_exp.store_versions
        > 2 * first.Harness.Soak_exp.store_versions)
  | [] -> Alcotest.fail "no windows sampled"

let test_report_table_renders () =
  let t = Harness.Report.table ~columns:[ "a"; "bbbb" ] in
  Harness.Report.row t [ "1"; "2" ];
  Harness.Report.row t [ "333"; "4" ];
  (* smoke: must not raise on ragged/odd input *)
  Harness.Report.print t;
  Harness.Report.kv "key" "value";
  Harness.Report.paper_vs ~what:"x" ~paper:"1" ~measured:"2";
  Alcotest.(check string) "f1" "1.2" (Harness.Report.f1 1.25);
  Alcotest.(check string) "pct" "50%" (Harness.Report.pct 0.5)

(* ------------------------------------------------------------------ *)
(* Schedule exploration *)

let test_targeted_plan_deterministic () =
  let gen ?(n_partitions = 1) seed =
    Harness.Explore_exp.targeted_plan ~seed ~duration:(Sim.Time.sec 20)
      ~n_certifiers:3 ~n_replicas:3 ~n_partitions ()
  in
  check_bool "same seed, same plan" true (gen 3 = gen 3);
  check_bool "different seeds diverge" true (gen 3 <> gen 4);
  check_bool "heal-all backstop" true
    (List.exists (fun (_, a) -> a = Fault.Heal_all) (gen 3));
  (* Every generated plan carries at least one precise message tap. *)
  let has_tap plan =
    List.exists
      (fun (_, a) ->
        match a with
        | Fault.Delay_msg _ | Fault.Drop_msg _ | Fault.Crash_on_msg _ -> true
        | _ -> false)
      plan
  in
  List.iter
    (fun s -> check_bool "tap present" true (has_tap (gen s)))
    [ 1; 2; 3; 4; 5 ];
  (* Any certifier crashed by a tap has a recovery scheduled after it. *)
  List.iter
    (fun s ->
      List.iter
        (fun (t, a) ->
          match a with
          | Fault.Crash_on_msg { victim = Fault.Cert v; _ } ->
              check_bool "paired recovery" true
                (List.exists
                   (fun (t', a') ->
                     a' = Fault.Recover_certifier v && Sim.Time.(t < t'))
                   (gen s))
          | _ -> ())
        (gen s))
    [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_explore_smoke () =
  (* A small sweep over a healthy model: every schedule must come back
     clean (each run also exercises the five online monitors). *)
  let d = Harness.Chaos_exp.default_config () in
  let cfg =
    {
      (Harness.Explore_exp.default_config ()) with
      Harness.Explore_exp.base =
        {
          d with
          cluster = { d.cluster with seed = 20060418 };
          duration = Sim.Time.sec 10;
        };
      first_seed = 1;
      n_seeds = 2;
      batch = 2;
    }
  in
  let r = Harness.Explore_exp.run cfg in
  List.iter
    (fun rp ->
      Format.printf "explore repro: %a@." Harness.Explore_exp.pp_repro rp)
    r.repros;
  Alcotest.(check int) "scenarios" 4 r.scenarios_run;
  Alcotest.(check int) "no repros" 0 (List.length r.repros);
  Alcotest.(check int) "all clean" 4 r.clean

let test_seed11_stale_reanswer_regression () =
  (* Named regression, found by `tashkent-cli explore` (random schedule,
     plan seed 11, workload seed 20060418) and shrunk to one action: a
     bare leader crash at 4.131 s. The failover re-answers a retried,
     already-decided commit; meanwhile the GC floor has passed the
     requesting replica's stale watermark, so the re-answer's composed
     remotes cannot bridge the replica's applied prefix — before the fix
     the proxy installed the commit over the truncated hole and the
     serial-order monitor flagged the snapshot advancing across the
     missing versions. The proxy now detects the unbridged reply and
     fetches (a snapshot transfer) before installing: the run must be
     clean AND the heal must actually fire, proving the schedule still
     reaches the pathological interleaving. *)
  let d = Harness.Chaos_exp.default_config () in
  let config =
    {
      d with
      cluster = { d.cluster with seed = 20060418 };
      plan =
        Harness.Chaos_exp.Explicit
          [ (Sim.Time.of_ms 4131., Fault.Crash_group_leader 0) ];
    }
  in
  let r = Harness.Chaos_exp.run ~config () in
  List.iter (Printf.printf "seed11 violation: %s\n") r.run.violations;
  List.iter (Printf.printf "seed11 monitor violation: %s\n") r.run.monitor_violations;
  Alcotest.(check int) "no invariant violations" 0 (List.length r.run.violations);
  Alcotest.(check int) "no monitor violations" 0
    (List.length r.run.monitor_violations);
  check_bool "bridge heal fired" true (r.bridge_heals >= 1);
  check_bool "made progress" true (r.commits > 1000)

let suites =
  [
    ( "harness.experiment",
      [
        Alcotest.test_case "every system runs" `Quick test_each_system_runs;
        Alcotest.test_case "parallel domains match sequential runs" `Quick
          test_parallel_domains_match_sequential;
        Alcotest.test_case "headline ordering (mw > api > base)" `Quick
          test_headline_ordering;
        Alcotest.test_case "base serial-commit ceiling" `Quick
          test_base_serial_commit_ceiling;
        Alcotest.test_case "forced abort knob respected" `Quick
          test_forced_abort_rate_respected;
        Alcotest.test_case "grouping ablation direction" `Quick
          test_grouping_ablation_direction;
        Alcotest.test_case "dedicated io not worse" `Quick test_dedicated_io_not_worse;
        Alcotest.test_case "certifier replication is cheap" `Quick
          test_certifier_group_size_free;
      ] );
    ( "harness.scenario",
      [
        Alcotest.test_case "partitioned artificial-conflict rate" `Quick
          test_partitioned_artificial_conflicts;
        Alcotest.test_case "session clients respawn after a replica crash"
          `Quick test_session_clients_respawn;
        Alcotest.test_case "run_plan: stops in offset order" `Quick
          test_run_plan_stop_order;
        Alcotest.test_case "run_plan: final check after the drain" `Quick
          test_run_plan_final_after_drain;
        Alcotest.test_case "scripted chaos: checks = checkpoints before the end + 1"
          `Quick test_scripted_chaos_checks;
      ] );
    ( "harness.recovery",
      [
        Alcotest.test_case "net dump duration" `Quick test_net_dump_duration;
        Alcotest.test_case "recovery experiment smoke" `Slow
          test_recovery_experiment_smoke;
      ] );
    ( "harness.soak",
      [
        Alcotest.test_case "soak smoke (GC bounded, chaos clean)" `Slow
          test_soak_smoke;
        Alcotest.test_case "no-GC baseline grows unbounded" `Slow
          test_soak_no_gc_baseline_grows;
      ] );
    ( "harness.explore",
      [
        Alcotest.test_case "targeted plan is deterministic" `Quick
          test_targeted_plan_deterministic;
        Alcotest.test_case "explore smoke (healthy model sweeps clean)" `Slow
          test_explore_smoke;
        Alcotest.test_case "seed-11 stale re-answer over truncated hole" `Quick
          test_seed11_stale_reanswer_regression;
      ] );
    ( "harness.report",
      [ Alcotest.test_case "table rendering" `Quick test_report_table_renders ] );
  ]

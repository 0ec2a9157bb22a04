(* Regression tests for the fault-injection subsystem and the failover
   paths it flushed out: req-id-routed fetches (stale and concurrent
   replies), redirect handling for unknown leaders, endpoint restart after
   unregister, bounded certify backoff under a full partition, and the
   chaos experiment as a smoke test. *)

open Sim
open Tashkent

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* Deterministic fast LAN so timing assertions are exact. *)
let fast_config =
  {
    Net.Network.latency_lo = Time.us 50;
    latency_hi = Time.us 50;
    bandwidth_bytes_per_sec = 1e9;
  }

let make_net () =
  let e = Engine.create () in
  let net = Net.Network.create e ~rng:(Rng.create 3) ~config:fast_config () in
  (e, net)

(* A client endpoint: registers [my_addr] and pumps every arriving message
   into [Cert_client.handle], as the proxy's dispatcher does. *)
let make_client e net ~certifiers =
  let mbox = Net.Network.register net "r0" in
  let client =
    Cert_client.create e ~net ~my_addr:"r0" ~certifiers ~timeout:(Time.of_ms 5.)
      ~backoff_base:(Time.of_ms 1.) ~backoff_cap:(Time.of_ms 4.) ~req_id_base:100 ()
  in
  ignore
    (Engine.spawn e (fun () ->
         while true do
           Cert_client.handle client (Mailbox.recv mbox)
         done));
  client

(* ------------------------------------------------------------------ *)
(* Fetch routing *)

let test_stale_fetch_reply_discarded () =
  (* The reply to a timed-out fetch arrives AFTER its successor was issued:
     it must be discarded, not handed to the retry's waiter. *)
  let e, net = make_net () in
  let cert = Net.Network.register net "cert0" in
  let client = make_client e net ~certifiers:[ "cert0" ] in
  let seen = ref 0 in
  ignore
    (Engine.spawn e (fun () ->
         while true do
           match Mailbox.recv cert with
           | Types.Fetch_request freq ->
               incr seen;
               let reply n =
                 Net.Network.send net ~src:"cert0" ~dst:"r0"
                   (Types.Fetch_reply
                      {
                        fetch_req_id = freq.fetch_req_id;
                        fetch_remotes = [];
                        certifier_version = n;
                        fetch_gc_floor = 0;
                        fetch_snapshot = None;
                      })
               in
               if !seen = 1 then
                 (* Answer the first attempt well past its timeout, while
                    the retry is already pending. *)
                 Engine.schedule_after e (Time.of_ms 8.) (fun () -> reply 111)
               else reply 222
           | _ -> ()
         done));
  let result = ref None in
  ignore
    (Engine.spawn e (fun () ->
         result := Cert_client.fetch client ~replica:"r0" ~from_version:0 ~oldest_snapshot:0));
  Engine.run e;
  (match !result with
  | Some r -> check_int "retry's reply wins" 222 r.Types.certifier_version
  | None -> Alcotest.fail "fetch returned None");
  check_int "one refetch" 1 (Cert_client.refetches client)

let test_concurrent_fetches_routed_independently () =
  (* Two outstanding fetches; the certifier answers them in reverse order.
     Each waiter must receive its own reply (a single-slot waiter would
     cross them). *)
  let e, net = make_net () in
  let cert = Net.Network.register net "cert0" in
  let client = make_client e net ~certifiers:[ "cert0" ] in
  let held = ref [] in
  ignore
    (Engine.spawn e (fun () ->
         while true do
           (match Mailbox.recv cert with
           | Types.Fetch_request freq -> held := freq :: !held
           | _ -> ());
           if List.length !held = 2 then
             (* [held] is newest-first: replying in this order reverses
                arrival order. *)
             List.iter
               (fun (freq : Types.fetch_request) ->
                 Net.Network.send net ~src:"cert0" ~dst:"r0"
                   (Types.Fetch_reply
                      {
                        fetch_req_id = freq.fetch_req_id;
                        fetch_remotes = [];
                        certifier_version = freq.from_version + 1;
                        fetch_gc_floor = 0;
                        fetch_snapshot = None;
                      }))
               !held
         done));
  let ra = ref None and rb = ref None in
  ignore
    (Engine.spawn e (fun () ->
         ra := Cert_client.fetch client ~replica:"r0" ~from_version:10 ~oldest_snapshot:0));
  ignore
    (Engine.spawn e (fun () ->
         rb := Cert_client.fetch client ~replica:"r0" ~from_version:20 ~oldest_snapshot:0));
  Engine.run e;
  (match (!ra, !rb) with
  | Some a, Some b ->
      check_int "fetch A got A's reply" 11 a.Types.certifier_version;
      check_int "fetch B got B's reply" 21 b.Types.certifier_version
  | _ -> Alcotest.fail "a concurrent fetch returned None")

(* ------------------------------------------------------------------ *)
(* Certify retry paths *)

let test_redirect_to_unknown_leader_falls_back () =
  (* A redirect naming a certifier outside the configured group must fall
     back to round-robin probing instead of sending into the void. *)
  let e, net = make_net () in
  let c0 = Net.Network.register net "cert0" in
  let c1 = Net.Network.register net "cert1" in
  let client = make_client e net ~certifiers:[ "cert0"; "cert1" ] in
  ignore
    (Engine.spawn e (fun () ->
         while true do
           match Mailbox.recv c0 with
           | Types.Cert_request req ->
               Net.Network.send net ~src:"cert0" ~dst:"r0"
                 (Types.Cert_redirect { req_id = req.req_id; leader = Some "ghost" })
           | _ -> ()
         done));
  ignore
    (Engine.spawn e (fun () ->
         while true do
           match Mailbox.recv c1 with
           | Types.Cert_request req ->
               Net.Network.send net ~src:"cert1" ~dst:"r0"
                 (Types.Cert_reply
                    {
                      req_id = req.req_id;
                      decision = Types.Commit;
                      commit_version = 7;
                      gc_floor = 0;
                      remotes = [];
                    })
           | _ -> ()
         done));
  let reply = ref None in
  ignore
    (Engine.spawn e (fun () ->
         let ws = Mvcc.Writeset.singleton (Mvcc.Key.make ~table:"t" ~row:"a")
             (Mvcc.Writeset.Update (Mvcc.Value.int 1)) in
         let frag = { Types.xf_part = 0; xf_origin = "r0"; xf_start_version = 0; xf_ws = ws } in
         reply := Some (Cert_client.certify client ~replica_version:0 ~oldest_snapshot:0 [ frag ])));
  Engine.run e;
  (match !reply with
  | Some r ->
      check_bool "committed" true (r.Types.decision = Types.Commit);
      check_int "at cert1's version" 7 r.Types.commit_version
  | None -> Alcotest.fail "certify never returned");
  check_bool "went through a retry" true (Cert_client.retries client >= 1)

let test_bounded_backoff_under_full_partition () =
  (* With every certifier unreachable the client must probe at a decaying
     rate (capped exponential backoff), not spin at the timeout interval —
     and still commit promptly once healed. *)
  let cfg =
    {
      Cluster.mode = Types.Tashkent_mw;
      n_replicas = 1;
      n_certifiers = 3;
      n_partitions = 1;
      hosting = Cluster.Host_all;
      certifier = Certifier.default_config;
      replica = Replica.default_config Types.Tashkent_mw;
      seed = 5;
    }
  in
  let c = Cluster.create cfg in
  let e = Cluster.engine c in
  let key = Mvcc.Key.make ~table:"t" ~row:"a" in
  Cluster.load_all c [ (key, Mvcc.Value.int 0) ];
  Cluster.settle c;
  let r = Cluster.replica c 0 in
  let p = Replica.proxy r in
  let net = Cluster.network c in
  List.iter
    (fun cert -> Net.Network.partition net (Proxy.addr p) cert)
    (Cluster.certifier_ids c);
  let outcome = ref None in
  ignore
    (Engine.spawn e (fun () ->
         let tx = Proxy.begin_tx p in
         match Proxy.write p tx key (Mvcc.Writeset.Update (Mvcc.Value.int 9)) with
         | Error _ -> Alcotest.fail "local write failed"
         | Ok () -> outcome := Some (Proxy.commit p tx)));
  let run_for span = Engine.run ~until:(Time.add (Engine.now e) span) e in
  run_for (Time.sec 20);
  check_bool "still blocked while partitioned" true (!outcome = None);
  let attempts = 1 + Cert_client.retries (Proxy.client p) in
  check_bool
    (Printf.sprintf "probed at least thrice (%d)" attempts)
    true (attempts >= 3);
  (* A fixed 500 ms retry interval would make ~40 attempts in 20 s. *)
  check_bool
    (Printf.sprintf "backoff kept attempts bounded (%d)" attempts)
    true
    (attempts < 25);
  List.iter
    (fun cert -> Net.Network.heal net (Proxy.addr p) cert)
    (Cluster.certifier_ids c);
  run_for (Time.sec 5);
  (match !outcome with
  | Some (Ok ()) -> ()
  | Some (Error f) ->
      Alcotest.fail (Format.asprintf "commit failed after heal: %a" Proxy.pp_failure f)
  | None -> Alcotest.fail "commit never completed after heal");
  match Cluster.check_consistency c with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Endpoint restart *)

let test_restart_after_unregister_purges_floors () =
  (* A message in flight on a slowed link sets that link's FIFO floor far
     in the future. Unregistering the destination must purge the floor so
     a restarted endpoint gets fresh deliveries promptly. *)
  let e, net = make_net () in
  let b = Net.Network.register net "b" in
  Net.Network.slow_link net "a" "b" ~extra:(Time.sec 10);
  Net.Network.send net ~src:"a" ~dst:"b" 1;
  (* crash: the in-flight message will be dropped on arrival *)
  Net.Network.unregister net "b";
  Net.Network.restore_link net "a" "b";
  Net.Network.reattach net "b" b;
  let got = ref None in
  let at = ref Time.zero in
  ignore
    (Engine.spawn e (fun () ->
         got := Some (Mailbox.recv b);
         at := Engine.now e));
  Net.Network.send net ~src:"a" ~dst:"b" 2;
  Engine.run e;
  check_int "fresh message delivered" 2 (Option.value ~default:0 !got);
  check_bool "not stuck behind the stale floor" true Time.(!at < Time.sec 1)

(* ------------------------------------------------------------------ *)
(* Degraded-disk failover *)

let test_fsync_stall_forces_abdication () =
  (* A leader whose fsyncs exceed the configured deadline must step down so
     a healthy-disk certifier can lead. Needs live commit traffic: only a
     stuck in-flight flush trips the watchdog. *)
  let cfg =
    {
      Cluster.mode = Types.Tashkent_mw;
      n_replicas = 1;
      n_certifiers = 3;
      n_partitions = 1;
      hosting = Cluster.Host_all;
      certifier = Certifier.default_config;
      replica = Replica.default_config Types.Tashkent_mw;
      seed = 5;
    }
  in
  let c = Cluster.create cfg in
  let e = Cluster.engine c in
  let key = Mvcc.Key.make ~table:"t" ~row:"a" in
  Cluster.load_all c [ (key, Mvcc.Value.int 0) ];
  Cluster.settle c;
  let p = Replica.proxy (Cluster.replica c 0) in
  ignore
    (Engine.spawn e (fun () ->
         let n = ref 0 in
         while true do
           incr n;
           let tx = Proxy.begin_tx p in
           (match Proxy.write p tx key (Mvcc.Writeset.Update (Mvcc.Value.int !n)) with
           | Ok () -> ignore (Proxy.commit p tx)
           | Error _ -> Proxy.abort p tx);
           Engine.sleep e (Time.of_ms 20.)
         done));
  let run_for span = Engine.run ~until:(Time.add (Engine.now e) span) e in
  run_for (Time.sec 2);
  let old_leader =
    match Cluster.leader c with
    | Some l -> l
    | None -> Alcotest.fail "no leader before the stall"
  in
  Storage.Disk.set_stall (Certifier.disk old_leader) ~extra:(Time.of_ms 600.);
  run_for (Time.sec 3);
  check_bool "watchdog forced an abdication" true
    (Certifier.disk_failovers old_leader >= 1);
  check_bool "stalled leader stepped down" false (Certifier.is_leader old_leader);
  Storage.Disk.clear_stall (Certifier.disk old_leader);
  run_for (Time.sec 3);
  (match Cluster.leader c with
  | Some l ->
      check_bool "a healthy certifier leads" true (Certifier.id l <> Certifier.id old_leader)
  | None -> Alcotest.fail "no leader after the failover");
  (* the failover is visible in the metrics registry *)
  (match
     Obs.Registry.find (Cluster.metrics c)
       ("certifier." ^ Certifier.id old_leader ^ ".disk.failovers")
   with
  | Some (Obs.Registry.Gauge v) ->
      check_bool "disk.failovers gauge nonzero" true (v >= 1.)
  | _ -> Alcotest.fail "disk.failovers gauge missing");
  (match
     Obs.Registry.find (Cluster.metrics c)
       ("certifier." ^ Certifier.id old_leader ^ ".disk.fsync_stalls")
   with
  | Some (Obs.Registry.Gauge v) ->
      check_bool "disk.fsync_stalls gauge nonzero" true (v >= 1.)
  | _ -> Alcotest.fail "disk.fsync_stalls gauge missing");
  match Cluster.check_consistency c with
  | Ok () -> ()
  | Error m -> Alcotest.fail m

(* ------------------------------------------------------------------ *)
(* Chaos smoke *)

let chaos_ok name (r : Harness.Chaos_exp.result) =
  List.iter (fun v -> Printf.printf "%s violation: %s\n" name v) r.run.violations;
  List.iter
    (fun v -> Printf.printf "%s monitor violation: %s\n" name v)
    r.run.monitor_violations;
  check_int (name ^ ": no invariant violations") 0 (List.length r.run.violations);
  check_int (name ^ ": no monitor violations") 0
    (List.length r.run.monitor_violations);
  check_bool (name ^ ": monitors consumed events") true (r.run.monitor_events > 0);
  check_bool (name ^ ": made progress") true (r.commits > 1000);
  check_bool (name ^ ": checkpoints ran") true (r.run.checks >= 3);
  check_bool (name ^ ": faults actually fired") true
    ((Option.get r.run.fault).crashes >= 1)

let test_chaos_scripted () = chaos_ok "scripted" (Harness.Chaos_exp.run ())

(* A random plan on the default chaos config, run under [mode]: each mode
   orders commits through its own apply policy (Serial for Base/MW,
   Commit_n for Tashkent-API), so each needs its own fault net. *)
let test_chaos_random ~mode seed () =
  let d = Harness.Chaos_exp.default_config () in
  let cluster =
    Tashkent.Cluster.config ~gc_interval:d.cluster.replica.gc_interval ~seed:d.cluster.seed
      mode
  in
  let config = { d with cluster; plan = Harness.Chaos_exp.Random seed } in
  chaos_ok
    (Printf.sprintf "random-%d-%s" seed (Types.mode_name mode))
    (Harness.Chaos_exp.run ~config ())

let test_chaos_scripted_disk () =
  let config =
    { (Harness.Chaos_exp.default_config ()) with plan = Harness.Chaos_exp.Scripted_disk }
  in
  let r = Harness.Chaos_exp.run ~config () in
  chaos_ok "scripted-disk" r;
  check_bool "durable acks journaled" true (r.durable_acked > 100);
  check_bool "disk failover triggered" true (r.disk_failovers >= 1);
  check_bool "torn record discarded" true (r.torn_discarded >= 1);
  check_bool "corrupt record discarded" true (r.corrupt_discarded >= 1);
  let fault = Option.get r.run.fault in
  check_int "torn crash fired" 1 fault.torn_crashes;
  check_int "corrupt-tail crash fired" 1 fault.corrupt_tails;
  check_int "stall fired" 1 fault.disk_stalls

let test_chaos_random_disk () =
  let config =
    {
      (Harness.Chaos_exp.default_config ()) with
      plan = Harness.Chaos_exp.Random 7;
      disk_faults = true;
    }
  in
  let r = Harness.Chaos_exp.run ~config () in
  chaos_ok "random-disk-7" r;
  check_bool "torn record discarded" true (r.torn_discarded >= 1);
  let fault = Option.get r.run.fault in
  check_bool "disk faults fired" true
    (fault.disk_stalls >= 1
    && fault.disk_degrades >= 1
    && fault.torn_crashes >= 1
    && fault.corrupt_tails >= 1)

let test_chaos_parallel_apply_disk () =
  (* Disk faults with four applier workers per replica: crashes land in the
     middle of parallel applies, so recovery must come back to a consistent
     prefix despite out-of-order WAL records (the chain-checked redo scan). *)
  let d = Harness.Chaos_exp.default_config () in
  let config =
    {
      d with
      cluster =
        { d.cluster with replica = { d.cluster.replica with apply_workers = 4 } };
      plan = Harness.Chaos_exp.Random 7;
      disk_faults = true;
    }
  in
  let r = Harness.Chaos_exp.run ~config () in
  chaos_ok "parallel-apply-disk-7" r;
  let fault = Option.get r.run.fault in
  check_bool "disk faults fired" true
    (fault.disk_stalls >= 1 && fault.torn_crashes >= 1)

let test_chaos_random_disk_renumber () =
  (* Regression for the version re-stamping of inherited entries: this seed
     makes a leader die with proposed-but-unacked entries while a later
     entry survives on the followers, so the new leader no-ops the gap and
     the survivor must be renumbered at apply time. *)
  let config =
    {
      (Harness.Chaos_exp.default_config ()) with
      plan = Harness.Chaos_exp.Random 13;
      disk_faults = true;
    }
  in
  chaos_ok "random-disk-13" (Harness.Chaos_exp.run ~config ())

(* ------------------------------------------------------------------ *)
(* Plan generation and pretty-printing *)

let test_random_plan_deterministic () =
  let gen ?(n_partitions = 1) ?(disk_faults = false) seed =
    Fault.random_plan ~seed ~duration:(Time.sec 20) ~n_certifiers:3
      ~n_replicas:3 ~n_partitions ~disk_faults ()
  in
  check_bool "same seed, same plan" true (gen 5 = gen 5);
  check_bool "same seed, same partitioned plan" true
    (gen ~n_partitions:2 5 = gen ~n_partitions:2 5);
  check_bool "same seed, same disk plan" true
    (gen ~disk_faults:true 5 = gen ~disk_faults:true 5);
  check_bool "different seeds diverge" true (gen 5 <> gen 6);
  check_bool "non-empty" true (List.length (gen 5) >= 4);
  (* The generator promises every fault healed by a final backstop. *)
  check_bool "heal-all backstop present" true
    (List.exists (fun (_, a) -> a = Fault.Heal_all) (gen 5))

let test_pp_action_golden () =
  (* One case per action variant: the printed plan is the repro artifact
     explore emits, so its format is pinned. *)
  let cases =
    [
      ( Fault.Partition ([ Fault.Rep 0 ], [ Fault.Cert 0; Fault.Cert 1 ]),
        "partition {replica0} | {cert0 cert1}" );
      ( Fault.Heal ([ Fault.Rep 0 ], [ Fault.Cert 0; Fault.Cert 1 ]),
        "heal {replica0} | {cert0 cert1}" );
      (Fault.Heal_all, "heal-all");
      ( Fault.Drop_burst { rate = 0.1; duration = Time.sec 2 },
        "drop-burst 0.10 for 2.000s" );
      ( Fault.Latency_spike
          {
            a = Fault.Cert 0;
            b = Fault.Rep 1;
            extra = Time.of_ms 5.;
            duration = Time.sec 1;
          },
        "latency-spike cert0-replica1 +5.000ms for 1.000s" );
      (Fault.Crash_certifier 2, "crash cert2");
      (Fault.Recover_certifier 2, "recover cert2");
      (Fault.Crash_group_leader 1, "crash p1 leader");
      (Fault.Recover_group_crashed 1, "recover crashed p1 leader");
      (Fault.Crash_replica 0, "crash replica0");
      (Fault.Recover_replica 0, "recover replica0");
      ( Fault.Disk_stall
          { cert = None; extra = Time.of_ms 600.; duration = Time.sec 2 },
        "disk-stall leader +600.000ms for 2.000s" );
      ( Fault.Disk_degrade { cert = Some 1; factor = 4.; duration = Time.sec 1 },
        "disk-degrade cert1 x4.0 for 1.000s" );
      (Fault.Torn_crash { cert = None }, "torn-crash leader");
      (Fault.Corrupt_tail { cert = Some 0 }, "corrupt-tail cert0");
      ( Fault.Delay_msg
          {
            cls = Fault.M_paxos_accept_ok;
            src = None;
            dst = Some (Fault.Cert 1);
            nth = 3;
            extra = Time.of_ms 250.;
          },
        "delay-msg paxos-accept-ok#3 *->cert1 +250.000ms" );
      ( Fault.Drop_msg
          { cls = Fault.M_xvote; src = Some (Fault.Cert 0); dst = None; nth = 2 },
        "drop-msg xvote#2 cert0->*" );
      ( Fault.Crash_on_msg
          {
            cls = Fault.M_paxos_commit;
            src = Some (Fault.Cert 1);
            dst = None;
            nth = 1;
            victim = Fault.Cert 1;
          },
        "crash-on-msg paxos-commit#1 cert1->* kill cert1" );
    ]
  in
  List.iter
    (fun (action, expected) ->
      Alcotest.(check string)
        expected expected
        (Format.asprintf "%a" Fault.pp_action action))
    cases;
  (* Every message class has a distinct printed name (tap rules in a repro
     plan must be unambiguous). *)
  let classes =
    [
      Fault.M_cert_request;
      Fault.M_cert_reply;
      Fault.M_fetch_reply;
      Fault.M_xvote;
      Fault.M_paxos_prepare;
      Fault.M_paxos_accept;
      Fault.M_paxos_accept_ok;
      Fault.M_paxos_commit;
      Fault.M_paxos_heartbeat;
    ]
  in
  let names = List.map Fault.msg_class_name classes in
  check_int "distinct class names" (List.length classes)
    (List.length (List.sort_uniq compare names))

let test_orphaned_crash_recover_noop () =
  (* A shrunk plan may keep a crash or recover whose partner was edited
     out; the injector must treat a double crash / spurious recover as a
     no-op (not a crashed-node miscount or a network reattach error). *)
  let plan =
    [
      (Time.of_sec 1.0, Fault.Recover_replica 1);
      (Time.of_sec 1.5, Fault.Recover_certifier 0);
      (Time.of_sec 2.0, Fault.Crash_replica 1);
      (Time.of_sec 2.5, Fault.Crash_replica 1);
      (Time.of_sec 4.0, Fault.Recover_replica 1);
      (Time.of_sec 5.0, Fault.Heal_all);
    ]
  in
  let config =
    {
      (Harness.Chaos_exp.default_config ()) with
      plan = Harness.Chaos_exp.Explicit plan;
      duration = Time.sec 10;
    }
  in
  let r = Harness.Chaos_exp.run ~config () in
  check_int "no invariant violations" 0 (List.length r.run.violations);
  check_int "no monitor violations" 0 (List.length r.run.monitor_violations);
  let fault = Option.get r.run.fault in
  check_int "one crash counted" 1 fault.crashes;
  check_int "one recovery counted" 1 fault.recoveries

let suites =
  [
    ( "fault.failover",
      [
        Alcotest.test_case "stale fetch reply discarded" `Quick
          test_stale_fetch_reply_discarded;
        Alcotest.test_case "concurrent fetches routed" `Quick
          test_concurrent_fetches_routed_independently;
        Alcotest.test_case "redirect to unknown leader" `Quick
          test_redirect_to_unknown_leader_falls_back;
        Alcotest.test_case "bounded backoff under partition" `Quick
          test_bounded_backoff_under_full_partition;
        Alcotest.test_case "restart after unregister" `Quick
          test_restart_after_unregister_purges_floors;
        Alcotest.test_case "fsync stall forces abdication" `Quick
          test_fsync_stall_forces_abdication;
      ] );
    ( "fault.chaos",
      [
        Alcotest.test_case "scripted plan" `Quick test_chaos_scripted;
        Alcotest.test_case "random plan (seed 1)" `Quick
          (test_chaos_random ~mode:Types.Tashkent_mw 1);
        Alcotest.test_case "random plan (seed 1, Tashkent-API)" `Quick
          (test_chaos_random ~mode:Types.Tashkent_api 1);
        Alcotest.test_case "random plan (seed 2, Tashkent-API)" `Quick
          (test_chaos_random ~mode:Types.Tashkent_api 2);
        Alcotest.test_case "random plan (seed 2, Base)" `Quick
          (test_chaos_random ~mode:Types.Base 2);
        Alcotest.test_case "scripted disk-fault plan" `Quick test_chaos_scripted_disk;
        Alcotest.test_case "random disk-fault plan (seed 7)" `Quick
          test_chaos_random_disk;
        Alcotest.test_case "inherited-entry renumbering (seed 13)" `Quick
          test_chaos_random_disk_renumber;
        Alcotest.test_case "parallel apply under disk faults" `Quick
          test_chaos_parallel_apply_disk;
      ] );
    ( "fault.plan",
      [
        Alcotest.test_case "random_plan is deterministic" `Quick
          test_random_plan_deterministic;
        Alcotest.test_case "pp_action golden (every variant)" `Quick
          test_pp_action_golden;
        Alcotest.test_case "orphaned crash/recover are no-ops" `Quick
          test_orphaned_crash_recover_noop;
      ] );
  ]

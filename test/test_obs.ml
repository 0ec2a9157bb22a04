(* Tests for the observability layer: the metrics registry (naming,
   snapshot-vs-reset isolation, gauges, on_reset hooks) and the lifecycle
   tracer (span ordering under the sim clock, ring wraparound, Chrome
   trace JSON shape), plus integration with the cluster/harness so trace
   ids demonstrably survive certify retries and fetch backfills. *)

open Sim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* ------------------------------------------------------------------ *)
(* Registry *)

let test_registry_counter_snapshot_reset () =
  let reg = Obs.Registry.create () in
  let a = Obs.Registry.counter reg "proxy.r0.commits" in
  let b = Obs.Registry.counter reg "proxy.r0.aborts" in
  Stats.Counter.incr a;
  Stats.Counter.incr a;
  Stats.Counter.incr b;
  check_int "size" 2 (Obs.Registry.size reg);
  (match Obs.Registry.find reg "proxy.r0.commits" with
  | Some (Obs.Registry.Counter n) -> check_int "commits read" 2 n
  | _ -> Alcotest.fail "commits not a counter");
  (* Snapshot is a point-in-time read, sorted by name. *)
  let snap = Obs.Registry.snapshot reg in
  check_int "snapshot length" 2 (List.length snap);
  check_string "sorted first" "proxy.r0.aborts" (fst (List.hd snap));
  Stats.Counter.incr a;
  (match List.assoc "proxy.r0.commits" snap with
  | Obs.Registry.Counter n -> check_int "old snapshot unchanged" 2 n
  | _ -> Alcotest.fail "not a counter");
  (* Reset zeroes the live handles; the old snapshot is unaffected. *)
  Obs.Registry.reset reg;
  check_int "live counter zeroed" 0 (Stats.Counter.value a);
  (match List.assoc "proxy.r0.commits" snap with
  | Obs.Registry.Counter n -> check_int "snapshot isolated from reset" 2 n
  | _ -> Alcotest.fail "not a counter")

let test_registry_duplicate_raises () =
  let reg = Obs.Registry.create () in
  ignore (Obs.Registry.counter reg "x.y");
  Alcotest.check_raises "duplicate name"
    (Invalid_argument "Obs.Registry: duplicate metric \"x.y\"") (fun () ->
      ignore (Obs.Registry.counter reg "x.y"));
  (* The clash is cross-kind too: one namespace for all metric types. *)
  Alcotest.check_raises "duplicate across kinds"
    (Invalid_argument "Obs.Registry: duplicate metric \"x.y\"") (fun () ->
      Obs.Registry.gauge reg "x.y" (fun () -> 0.))

let test_registry_gauge_and_on_reset () =
  let reg = Obs.Registry.create () in
  let cum = ref 10. in
  Obs.Registry.gauge reg "wal.fsyncs" (fun () -> !cum);
  let c = Obs.Registry.counter reg "commits" in
  let hook_log = ref [] in
  Obs.Registry.on_reset reg (fun () -> hook_log := "first" :: !hook_log);
  Obs.Registry.on_reset reg (fun () -> hook_log := "second" :: !hook_log);
  Stats.Counter.incr c;
  cum := 42.;
  (match Obs.Registry.find reg "wal.fsyncs" with
  | Some (Obs.Registry.Gauge g) -> check_bool "gauge reads live" true (g = 42.)
  | _ -> Alcotest.fail "not a gauge");
  Obs.Registry.reset reg;
  (* Counters are zeroed, gauges are untouched, hooks run in order. *)
  check_int "counter zeroed" 0 (Stats.Counter.value c);
  (match Obs.Registry.find reg "wal.fsyncs" with
  | Some (Obs.Registry.Gauge g) -> check_bool "gauge survives reset" true (g = 42.)
  | _ -> Alcotest.fail "not a gauge");
  check_bool "hooks ran in registration order" true
    (List.rev !hook_log = [ "first"; "second" ])

let test_registry_summary_and_histogram () =
  let reg = Obs.Registry.create () in
  let s = Obs.Registry.summary reg "batch_size" in
  let h = Obs.Registry.histogram reg "latency_us" in
  Stats.Summary.observe s 2.;
  Stats.Summary.observe s 4.;
  for _ = 1 to 100 do
    Stats.Histogram.observe h 1000.
  done;
  (match Obs.Registry.find reg "batch_size" with
  | Some (Obs.Registry.Summary { count; mean; min; max }) ->
      check_int "summary count" 2 count;
      check_bool "summary mean" true (mean = 3.);
      check_bool "summary min/max" true (min = 2. && max = 4.)
  | _ -> Alcotest.fail "not a summary");
  match Obs.Registry.find reg "latency_us" with
  | Some (Obs.Registry.Histogram { count; p50; p99; _ }) ->
      check_int "histogram count" 100 count;
      (* Exponential buckets: percentiles are bucket midpoints near 1000. *)
      check_bool "p50 near 1ms" true (p50 > 900. && p50 < 1100.);
      check_bool "p99 near 1ms" true (p99 > 900. && p99 < 1100.)
  | _ -> Alcotest.fail "not a histogram"

(* ------------------------------------------------------------------ *)
(* Tracer *)

let test_trace_span_ordering () =
  let e = Engine.create () in
  let trace = Obs.Trace.create e in
  ignore
    (Engine.spawn e (fun () ->
         let outer =
           Obs.Trace.span trace ~id:(Obs.Trace.fresh_id trace) ~stage:"txn.commit"
             ~actor:"replica0" ()
         in
         Engine.sleep e (Time.us 50);
         let inner =
           Obs.Trace.span trace ~id:1 ~stage:"certify" ~actor:"replica0" ()
         in
         Engine.sleep e (Time.us 100);
         Obs.Trace.finish trace inner;
         Engine.sleep e (Time.us 25);
         Obs.Trace.finish trace outer));
  Engine.run e;
  check_int "two spans recorded" 2 (Obs.Trace.recorded trace);
  match Obs.Trace.events trace with
  | [ first; second ] ->
      (* Events land in finish order: the nested span closes first. *)
      check_string "inner finishes first" "certify" first.Obs.Trace.stage;
      check_string "outer finishes last" "txn.commit" second.Obs.Trace.stage;
      check_int "shared trace id" first.Obs.Trace.id second.Obs.Trace.id;
      check_int "inner start" 50 (Time.to_us first.Obs.Trace.started);
      check_int "inner duration" 100
        Time.(to_us (diff first.Obs.Trace.finished first.Obs.Trace.started));
      check_int "outer spans the whole tx" 175
        Time.(to_us (diff second.Obs.Trace.finished second.Obs.Trace.started));
      (* Nesting: the outer interval contains the inner one. *)
      check_bool "outer contains inner" true
        Time.(
          second.Obs.Trace.started <= first.Obs.Trace.started
          && first.Obs.Trace.finished <= second.Obs.Trace.finished)
  | evs -> Alcotest.fail (Printf.sprintf "expected 2 events, got %d" (List.length evs))

let test_trace_ring_wraparound () =
  let e = Engine.create () in
  let trace = Obs.Trace.create ~capacity:4 e in
  for _ = 1 to 6 do
    let sp =
      Obs.Trace.span trace ~id:(Obs.Trace.fresh_id trace) ~stage:"certify"
        ~actor:"r0" ()
    in
    Obs.Trace.finish trace sp
  done;
  check_int "recorded counts all" 6 (Obs.Trace.recorded trace);
  check_int "dropped = overflow" 2 (Obs.Trace.dropped trace);
  let evs = Obs.Trace.events trace in
  check_int "ring retains capacity" 4 (List.length evs);
  (* Oldest two spans (ids 1,2) were overwritten; survivors in order. *)
  check_bool "oldest dropped, order kept" true
    (List.map (fun ev -> ev.Obs.Trace.id) evs = [ 3; 4; 5; 6 ]);
  (* The aggregate histogram still saw every span despite the wrap. *)
  match Obs.Trace.stage_stats trace "certify" with
  | Some st -> check_int "stage stats count all spans" 6 st.Obs.Trace.count
  | None -> Alcotest.fail "stage missing"

let test_trace_disabled_inert () =
  let trace = Obs.Trace.disabled () in
  check_bool "disabled" false (Obs.Trace.enabled trace);
  check_int "fresh_id is 0" 0 (Obs.Trace.fresh_id trace);
  check_int "fresh_id stays 0" 0 (Obs.Trace.fresh_id trace);
  let sp = Obs.Trace.span trace ~id:7 ~stage:"certify" ~actor:"r0" () in
  Obs.Trace.finish trace sp;
  check_int "nothing recorded" 0 (Obs.Trace.recorded trace);
  check_bool "no events" true (Obs.Trace.events trace = []);
  check_bool "no stages" true (Obs.Trace.stages trace = []);
  check_string "empty chrome trace" "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[]}"
    (Obs.Trace.to_chrome_json trace)

let test_trace_reset_keeps_ids_ascending () =
  let e = Engine.create () in
  let trace = Obs.Trace.create ~capacity:8 e in
  let id1 = Obs.Trace.fresh_id trace in
  let sp = Obs.Trace.span trace ~id:id1 ~stage:"certify" ~actor:"r0" () in
  Obs.Trace.finish trace sp;
  Obs.Trace.reset trace;
  check_int "ring emptied" 0 (Obs.Trace.recorded trace);
  check_bool "stage stats cleared" true
    ((Option.get (Obs.Trace.stage_stats trace "certify")).Obs.Trace.count = 0);
  let id2 = Obs.Trace.fresh_id trace in
  check_bool "ids keep ascending across reset" true (id2 > id1)

let test_trace_chrome_json_golden () =
  let e = Engine.create () in
  let trace = Obs.Trace.create ~capacity:8 e in
  ignore
    (Engine.spawn e (fun () ->
         let a =
           Obs.Trace.span trace ~id:(Obs.Trace.fresh_id trace) ~stage:"certify"
             ~actor:"replica0" ()
         in
         Engine.sleep e (Time.us 100);
         Obs.Trace.finish trace a;
         let b =
           Obs.Trace.span trace ~id:(Obs.Trace.fresh_id trace)
             ~stage:"cert.durability" ~actor:"cert1" ()
         in
         Engine.sleep e (Time.us 50);
         Obs.Trace.finish trace b));
  Engine.run e;
  let expected =
    "{\"displayTimeUnit\":\"ms\",\"traceEvents\":["
    ^ "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,\"args\":{\"name\":\"replica0\"}},"
    ^ "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":2,\"tid\":0,\"args\":{\"name\":\"cert1\"}},"
    ^ "{\"name\":\"certify\",\"cat\":\"tashkent\",\"ph\":\"X\",\"ts\":0,\"dur\":100,\"pid\":1,\"tid\":1,\"args\":{\"trace_id\":1,\"actor\":\"replica0\"}},"
    ^ "{\"name\":\"cert.durability\",\"cat\":\"tashkent\",\"ph\":\"X\",\"ts\":100,\"dur\":50,\"pid\":2,\"tid\":2,\"args\":{\"trace_id\":2,\"actor\":\"cert1\"}}"
    ^ "]}"
  in
  check_string "golden chrome trace" expected (Obs.Trace.to_chrome_json trace)

(* ------------------------------------------------------------------ *)
(* Integration: cluster registry namespace and reset *)

let test_cluster_registry_namespace () =
  let cfg = Tashkent.Cluster.default_config Tashkent.Types.Tashkent_mw in
  let cluster =
    Tashkent.Cluster.create { cfg with Tashkent.Cluster.n_replicas = 2; n_certifiers = 3 }
  in
  Tashkent.Cluster.settle cluster;
  let reg = Tashkent.Cluster.metrics cluster in
  let names = List.map fst (Obs.Registry.snapshot reg) in
  let has prefix = List.exists (fun n -> String.starts_with ~prefix n) names in
  check_bool "proxy metrics registered" true (has "proxy.replica0.");
  check_bool "cert_client metrics registered" true (has "cert_client.replica0.");
  check_bool "replica metrics registered" true (has "replica.replica1.");
  check_bool "certifier metrics registered" true (has "certifier.cert0.");
  check_bool "certifier wal metrics registered" true (has "certifier.cert0.wal.");
  check_bool "certifier paxos metrics registered" true (has "certifier.cert0.paxos.");
  check_bool "network metrics registered" true (has "net.");
  (* Settling elects a leader, so messages already flowed. *)
  (match Obs.Registry.find reg "net.messages_delivered" with
  | Some (Obs.Registry.Gauge g) -> check_bool "settle delivered messages" true (g > 0.)
  | _ -> Alcotest.fail "net.messages_delivered missing");
  (* reset_stats goes through the registry and trace now. *)
  Tashkent.Cluster.reset_stats cluster;
  match Obs.Registry.find reg "proxy.replica0.commits" with
  | Some (Obs.Registry.Counter n) -> check_int "reset zeroes counters" 0 n
  | _ -> Alcotest.fail "proxy.replica0.commits missing"

let test_experiment_stage_latency () =
  (* The harness threads a live tracer through when [trace] is set; the
     measured window must yield per-stage aggregates for the paper's
     lifecycle stages, with Base showing a visible durability stage. *)
  let run mode =
    Harness.Experiment.run
      {
        Harness.Experiment.default with
        Harness.Experiment.system = Harness.Experiment.Replicated mode;
        cluster = { Harness.Experiment.default.cluster with n_replicas = 2 };
        workload = Harness.Experiment.Tpc_b;
        warmup = Time.sec 1;
        measure = Time.sec 3;
        trace = true;
      }
  in
  let base = run Tashkent.Types.Base in
  let mw = run Tashkent.Types.Tashkent_mw in
  let stage r name =
    match List.assoc_opt name r.Harness.Experiment.stage_latency with
    | Some (st : Obs.Trace.stage_stats) -> st
    | None -> Alcotest.fail (Printf.sprintf "stage %s missing" name)
  in
  List.iter
    (fun name ->
      check_bool (name ^ " has samples (base)") true ((stage base name).Obs.Trace.count > 0);
      check_bool (name ^ " has samples (mw)") true ((stage mw name).Obs.Trace.count > 0))
    [ "txn.commit"; "certify"; "durability"; "cert.batch"; "wal.fsync" ];
  (* The paper's Figure 7 gap: Base pays a per-commit local fsync in the
     durability stage; Tashkent-MW commits in memory (sub-millisecond). *)
  let base_dur = (stage base "durability").Obs.Trace.p50_us in
  let mw_dur = (stage mw "durability").Obs.Trace.p50_us in
  check_bool
    (Printf.sprintf "base durability p50 (%.0fus) >> mw (%.0fus)" base_dur mw_dur)
    true
    (base_dur > 10. *. Float.max mw_dur 1.)

let test_chaos_trace_ids_survive_faults () =
  (* Full chaos run (leader crash, partition, drop burst) with tracing on:
     spans must stay well-formed, and trace ids must be stable across
     certify retries — every certifier-side durability span carries an id
     minted at some proxy's begin_tx, and no transaction certifies twice. *)
  let cfg =
    { (Harness.Chaos_exp.default_config ()) with Harness.Chaos_exp.collect_trace = true }
  in
  let r = Harness.Chaos_exp.run ~config:cfg () in
  check_bool "no invariant violations" true (r.Harness.Chaos_exp.run.violations = []);
  check_bool "retries actually happened" true (r.Harness.Chaos_exp.cert_retries > 0);
  let evs = Obs.Trace.events r.Harness.Chaos_exp.trace in
  check_bool "spans recorded" true (evs <> []);
  List.iter
    (fun ev ->
      if Time.(ev.Obs.Trace.finished < ev.Obs.Trace.started) then
        Alcotest.fail ("span finished before it started: " ^ ev.Obs.Trace.stage))
    evs;
  let ids_of stage =
    List.filter_map
      (fun ev ->
        if String.equal ev.Obs.Trace.stage stage then Some ev.Obs.Trace.id else None)
      evs
  in
  let cert_ids = ids_of "certify" in
  (* One certify span per transaction: retries inside Cert_client reuse the
     same request (and trace id) rather than opening a new span. *)
  check_int "certify span ids distinct"
    (List.length cert_ids)
    (List.length (List.sort_uniq compare cert_ids));
  List.iter
    (fun id -> check_bool "certify spans carry real trace ids" true (id > 0))
    cert_ids;
  let dur_ids = List.sort_uniq compare (ids_of "cert.durability") in
  check_bool "certifier durability spans present" true (dur_ids <> []);
  let cert_id_set = List.sort_uniq compare cert_ids in
  let matched =
    List.length (List.filter (fun id -> List.mem id cert_id_set) dur_ids)
  in
  (* Nearly every certifier-side span pairs with a proxy-side certify span;
     the slack covers transactions still in flight when the clock stopped. *)
  check_bool
    (Printf.sprintf "durability ids match certify ids (%d/%d)" matched
       (List.length dur_ids))
    true
    (float_of_int matched >= 0.9 *. float_of_int (List.length dur_ids))

let test_backfill_trace_ids () =
  (* A staleness refresh on an idle replica mints its own trace id and
     records a [backfill] span bracketing the fetch, plus an [apply] span
     (same id) for the applier installing the fetched writesets. *)
  let e = Engine.create () in
  let trace = Obs.Trace.create e in
  let mode = Tashkent.Types.Tashkent_mw in
  let cluster =
    Tashkent.Cluster.create ~engine:e ~trace
      {
        Tashkent.Cluster.mode;
        n_replicas = 2;
        n_certifiers = 3;
        n_partitions = 1;
        hosting = Tashkent.Cluster.Host_all;
        certifier = Tashkent.Certifier.default_config;
        replica =
          {
            (Tashkent.Replica.default_config mode) with
            Tashkent.Replica.staleness_bound = Some (Time.of_ms 200.);
          };
        seed = 7;
      }
  in
  let key = Mvcc.Key.make ~table:"t" ~row:"a" in
  Tashkent.Cluster.load_all cluster [ (key, Mvcc.Value.int 0) ];
  Tashkent.Cluster.settle cluster;
  let p = Tashkent.Replica.proxy (Tashkent.Cluster.replica cluster 0) in
  ignore
    (Engine.spawn e (fun () ->
         let tx = Tashkent.Proxy.begin_tx p in
         (match Tashkent.Proxy.write p tx key (Mvcc.Writeset.Update (Mvcc.Value.int 1)) with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "write failed");
         match Tashkent.Proxy.commit p tx with
         | Ok () -> ()
         | Error _ -> Alcotest.fail "commit failed"));
  (* Replica 1 never commits, so its refresher must backfill the update. *)
  Engine.run ~until:(Time.add (Engine.now e) (Time.sec 2)) e;
  let evs = Obs.Trace.events trace in
  let spans stage =
    List.filter (fun ev -> String.equal ev.Obs.Trace.stage stage) evs
  in
  let backfills =
    List.filter (fun ev -> String.equal ev.Obs.Trace.actor "replica1") (spans "backfill")
  in
  check_bool "idle replica recorded backfill spans" true (backfills <> []);
  List.iter
    (fun (bf : Obs.Trace.event) ->
      check_bool "backfill has its own trace id" true (bf.Obs.Trace.id > 0))
    backfills;
  (* At least one backfill actually carried remote writesets: its trace id
     reappears on an apply span nested inside the backfill interval. *)
  let applied =
    List.filter
      (fun (ap : Obs.Trace.event) ->
        List.exists
          (fun (bf : Obs.Trace.event) ->
            ap.Obs.Trace.id = bf.Obs.Trace.id
            && String.equal ap.Obs.Trace.actor "replica1"
            && Time.(bf.Obs.Trace.started <= ap.Obs.Trace.started)
            && Time.(ap.Obs.Trace.finished <= bf.Obs.Trace.finished))
          backfills)
      (spans "apply")
  in
  check_bool "apply span shares the backfill's trace id" true (applied <> []);
  (* And the backfill installed the committed value on the idle replica. *)
  match
    Mvcc.Db.read_committed
      (Tashkent.Replica.db (Tashkent.Cluster.replica cluster 1))
      key
  with
  | Some v -> check_bool "value backfilled" true (v = Mvcc.Value.int 1)
  | None -> Alcotest.fail "key missing on idle replica"

(* ------------------------------------------------------------------ *)
(* Online protocol monitors, driven by synthetic event streams: each test
   feeds a hand-built sequence into a fresh monitor and checks exactly
   which invariant fires (or that a legal sequence stays clean). *)

let make_monitor ?progress_bound () =
  let e = Engine.create () in
  let events = Obs.Events.create e in
  let monitor = Obs.Monitor.attach ?progress_bound events in
  (e, events, monitor)

let emit = Obs.Events.emit

let monitor_names m =
  List.map (fun (v : Obs.Monitor.violation) -> v.monitor) (Obs.Monitor.violations m)

let test_monitor_clean_stream () =
  let _e, ev, m = make_monitor () in
  emit ev (Obs.Events.Request_admitted
       { actor = "cert0"; part = 0; origin = "r0"; req_id = 1; replica_version = 0 });
  emit ev (Obs.Events.Log_append
       { actor = "cert0"; part = 0; version = 1; origin = "r0"; req_id = 1; cross = false });
  emit ev (Obs.Events.Durable_ack
       { actor = "cert0"; part = 0; origin = "r0"; req_id = 1; version = 1 });
  emit ev (Obs.Events.Verdict
       { actor = "cert0"; part = 0; origin = "r0"; req_id = 1; committed = true; version = 1 });
  emit ev (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 1 });
  emit ev (Obs.Events.Snapshot_advance { actor = "r0#p0"; part = 0; version = 1 });
  emit ev (Obs.Events.Gc_floor { actor = "cert0"; part = 0; floor = 1 });
  Obs.Monitor.finalize m ~now:(Time.sec 1);
  check_int "clean" 0 (Obs.Monitor.violation_count m);
  check_int "events counted" 7 (Obs.Monitor.events_seen m)

let test_monitor_serial_order_double_install () =
  let _e, ev, m = make_monitor () in
  emit ev (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 1 });
  emit ev (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 1 });
  check_int "flagged" 1 (Obs.Monitor.violation_count m);
  check_bool "serial-order" true (monitor_names m = [ "serial-order" ])

let test_monitor_serial_order_gap () =
  let _e, ev, m = make_monitor () in
  emit ev (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 1 });
  emit ev (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 2 });
  emit ev (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 4 });
  emit ev (Obs.Events.Snapshot_advance { actor = "r0#p0"; part = 0; version = 2 });
  check_int "contiguous prefix clean" 0 (Obs.Monitor.violation_count m);
  (* Advancing visibility over the uninstalled v=3 is the violation the
     seed-11 stale re-answer produced. *)
  emit ev (Obs.Events.Snapshot_advance { actor = "r0#p0"; part = 0; version = 4 });
  check_int "gap flagged" 1 (Obs.Monitor.violation_count m);
  (* And the snapshot must never go backwards. *)
  emit ev (Obs.Events.Snapshot_advance { actor = "r0#p0"; part = 0; version = 3 });
  check_int "backwards flagged" 2 (Obs.Monitor.violation_count m)

let test_monitor_snapshot_load_legalizes_jump () =
  let _e, ev, m = make_monitor () in
  emit ev (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 1 });
  emit ev (Obs.Events.Snapshot_advance { actor = "r0#p0"; part = 0; version = 1 });
  (* A state transfer rebases the store: the jump to v=10 is legal, and
     only versions above it need installs from here on. *)
  emit ev (Obs.Events.Snapshot_load { actor = "r0#p0"; part = 0; version = 10 });
  emit ev (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 11 });
  emit ev (Obs.Events.Snapshot_advance { actor = "r0#p0"; part = 0; version = 11 });
  check_int "clean" 0 (Obs.Monitor.violation_count m)

let test_monitor_durability_ack_then_abort () =
  let _e, ev, m = make_monitor () in
  emit ev (Obs.Events.Durable_ack
       { actor = "cert0"; part = 0; origin = "r0"; req_id = 7; version = 3 });
  emit ev (Obs.Events.Verdict
       { actor = "cert1"; part = 0; origin = "r0"; req_id = 7; committed = false; version = 0 });
  check_bool "durability" true (monitor_names m = [ "durability" ])

let test_monitor_durability_recovery_reappend () =
  let _e, ev, m = make_monitor () in
  emit ev (Obs.Events.Log_append
       { actor = "cert0"; part = 0; version = 1; origin = "a"; req_id = 1; cross = false });
  emit ev (Obs.Events.Log_append
       { actor = "cert0"; part = 0; version = 2; origin = "r0"; req_id = 7; cross = false });
  emit ev (Obs.Events.Durable_ack
       { actor = "cert0"; part = 0; origin = "r0"; req_id = 7; version = 2 });
  (* Crash: the monitor's per-actor log view resets, recovery redelivers
     from slot 1 — same entries, same versions: clean. *)
  emit ev (Obs.Events.Node_crash { actor = "cert0" });
  emit ev (Obs.Events.Log_append
       { actor = "cert0"; part = 0; version = 1; origin = "a"; req_id = 1; cross = false });
  emit ev (Obs.Events.Log_append
       { actor = "cert0"; part = 0; version = 2; origin = "r0"; req_id = 7; cross = false });
  check_int "faithful recovery clean" 0 (Obs.Monitor.violation_count m);
  (* A second recovery that hands the acked commit's version to some other
     transaction has lost it: flagged. *)
  emit ev (Obs.Events.Node_crash { actor = "cert0" });
  emit ev (Obs.Events.Log_append
       { actor = "cert0"; part = 0; version = 1; origin = "a"; req_id = 1; cross = false });
  emit ev (Obs.Events.Log_append
       { actor = "cert0"; part = 0; version = 2; origin = "r0"; req_id = 8; cross = false });
  check_bool "lost acked commit flagged" true
    (List.mem "durability" (monitor_names m))

let test_monitor_cross_atomicity () =
  let _e, ev, m = make_monitor () in
  emit ev (Obs.Events.Prepared { actor = "cert0"; part = 0; gtx = "g1"; vote = false });
  emit ev (Obs.Events.Decision { actor = "cert3"; part = 1; gtx = "g1"; committed = true });
  check_bool "commit over abort vote" true
    (List.mem "cross-atomicity" (monitor_names m));
  let _e, ev, m = make_monitor () in
  emit ev (Obs.Events.Decision { actor = "cert0"; part = 0; gtx = "g2"; committed = true });
  emit ev (Obs.Events.Decision { actor = "cert3"; part = 1; gtx = "g2"; committed = false });
  check_bool "split decision" true
    (List.mem "cross-atomicity" (monitor_names m))

let test_monitor_gc_floor () =
  let _e, ev, m = make_monitor () in
  emit ev (Obs.Events.Request_admitted
       { actor = "cert0"; part = 0; origin = "r2"; req_id = 5; replica_version = 3 });
  emit ev (Obs.Events.Gc_floor { actor = "cert0"; part = 0; floor = 5 });
  check_bool "floor over live snapshot" true
    (List.mem "gc-floor" (monitor_names m));
  let _e, ev, m = make_monitor () in
  emit ev (Obs.Events.Gc_floor { actor = "cert0"; part = 0; floor = 5 });
  emit ev (Obs.Events.Gc_floor { actor = "cert0"; part = 0; floor = 4 });
  check_bool "floor went backwards" true
    (List.mem "gc-floor" (monitor_names m))

(* A deposed certifier leader emits Actor_reset and abandons its admitted
   requests; their snapshots must not pin the floor it later truncates to
   as a follower. *)
let test_monitor_gc_floor_after_reset () =
  let admit_then_truncate ~reset =
    let _e, ev, m = make_monitor () in
    emit ev (Obs.Events.Request_admitted
         { actor = "cert1"; part = 0; origin = "replica2"; req_id = 9; replica_version = 5 });
    if reset then emit ev (Obs.Events.Actor_reset { actor = "cert1" });
    emit ev (Obs.Events.Gc_floor { actor = "cert1"; part = 0; floor = 10 });
    Obs.Monitor.violation_count m
  in
  check_int "reset drops the abandoned admission" 0 (admit_then_truncate ~reset:true);
  check_int "without the reset the admission still pins" 1
    (admit_then_truncate ~reset:false)

let test_monitor_progress () =
  let _e, ev, m = make_monitor ~progress_bound:(Time.sec 5) () in
  emit ev (Obs.Events.Tx_submitted { actor = "r0#p0"; tx = 1 });
  emit ev (Obs.Events.Tx_submitted { actor = "r0#p0"; tx = 2 });
  emit ev (Obs.Events.Tx_resolved { actor = "r0#p0"; tx = 1; committed = true });
  Obs.Monitor.finalize m ~now:(Time.sec 30);
  (* tx 1 resolved; tx 2 is stuck past the bound. *)
  check_int "one overdue" 1 (Obs.Monitor.violation_count m);
  check_bool "progress" true (monitor_names m = [ "progress" ]);
  (* An actor reset (proxy pause cancels its clients) clears obligations. *)
  let _e, ev, m = make_monitor ~progress_bound:(Time.sec 5) () in
  emit ev (Obs.Events.Tx_submitted { actor = "r0#p0"; tx = 1 });
  emit ev (Obs.Events.Actor_reset { actor = "r0#p0" });
  Obs.Monitor.finalize m ~now:(Time.sec 30);
  check_int "reset clears pending" 0 (Obs.Monitor.violation_count m)

(* Each remaining check, with its exact message: the monitor's tables are
   host structures, and a rewrite of them must keep every text. *)
let details m =
  List.map
    (fun (v : Obs.Monitor.violation) -> (v.monitor, v.detail))
    (Obs.Monitor.violations m)

let check_details what expected m =
  Alcotest.(check (list (pair string string))) what expected (details m)

let append ev ~actor ~part ~version ~origin ~req_id =
  emit ev (Obs.Events.Log_append { actor; part; version; origin; req_id; cross = false })

let ack ev ~part ~origin ~req_id ~version =
  emit ev (Obs.Events.Durable_ack { actor = "cert0"; part; origin; req_id; version })

let test_monitor_append_out_of_order () =
  let _e, ev, m = make_monitor () in
  append ev ~actor:"cert0" ~part:0 ~version:1 ~origin:"r0" ~req_id:1;
  append ev ~actor:"cert0" ~part:0 ~version:3 ~origin:"r0" ~req_id:2;
  check_details "gap in the appended versions"
    [ ("serial-order", "cert0 appended v=3 after v=1 (certified order broken)") ]
    m

let test_monitor_append_twice () =
  let _e, ev, m = make_monitor () in
  append ev ~actor:"cert1" ~part:1 ~version:1 ~origin:"r0" ~req_id:4;
  (* Another certifier appending the same transaction is its own log. *)
  append ev ~actor:"cert0" ~part:0 ~version:1 ~origin:"r0" ~req_id:4;
  append ev ~actor:"cert1" ~part:1 ~version:2 ~origin:"r0" ~req_id:4;
  check_details "one transaction at two versions"
    [ ("serial-order", "cert1 appended (r0,4) twice: v=1 and v=2") ]
    m

let test_monitor_acked_twice () =
  let _e, ev, m = make_monitor () in
  ack ev ~part:1 ~origin:"r0" ~req_id:7 ~version:3;
  (* The same transaction id in another partition is another commit. *)
  ack ev ~part:0 ~origin:"r0" ~req_id:7 ~version:5;
  ack ev ~part:1 ~origin:"r0" ~req_id:7 ~version:3;
  check_int "a repeated ack at the same version is clean" 0
    (Obs.Monitor.violation_count m);
  ack ev ~part:1 ~origin:"r0" ~req_id:7 ~version:4;
  check_details "one commit acked at two versions"
    [ ("durability", "commit (r0,7) p1 acked at v=4 was previously acked at v=3") ]
    m

let test_monitor_version_acked_for_two () =
  let _e, ev, m = make_monitor () in
  ack ev ~part:0 ~origin:"r0" ~req_id:7 ~version:3;
  ack ev ~part:1 ~origin:"r1" ~req_id:8 ~version:3;
  check_int "one version per partition" 0 (Obs.Monitor.violation_count m);
  ack ev ~part:0 ~origin:"r1" ~req_id:8 ~version:3;
  check_details "one version acked for two commits"
    [ ("durability", "p0 v=3 acked for (r1,8) but already acked for (r0,7)") ]
    m

let test_monitor_acked_version_taken () =
  let _e, ev, m = make_monitor () in
  ack ev ~part:0 ~origin:"r0" ~req_id:7 ~version:1;
  append ev ~actor:"cert2" ~part:1 ~version:1 ~origin:"r1" ~req_id:8;
  check_int "another partition's v=1 is clean" 0 (Obs.Monitor.violation_count m);
  append ev ~actor:"cert0" ~part:0 ~version:1 ~origin:"r1" ~req_id:8;
  check_details "an acked version appended for another transaction"
    [ ("durability", "p0 v=1 belongs to acked commit (r0,7) but cert0 appended (r1,8)") ]
    m

let test_monitor_snapshot_backwards () =
  let _e, ev, m = make_monitor () in
  emit ev (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 1 });
  emit ev (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 2 });
  emit ev (Obs.Events.Snapshot_advance { actor = "r0#p0"; part = 0; version = 2 });
  emit ev (Obs.Events.Snapshot_advance { actor = "r0#p0"; part = 0; version = 1 });
  check_details "visibility moved back"
    [ ("serial-order", "r0#p0 visible snapshot went backwards: v=1 after v=2") ]
    m

(* Words a monitor allocates per event in steady state, over the event mix
   of committed transactions: admission, a verdict, a durable ack and one
   append per certifier, an install and a snapshot advance per replica.
   The events are built before the count starts. *)
let monitor_words_per_event () =
  let certs = [| "p0.cert0"; "p0.cert1"; "p0.cert2" |] in
  let stores = Array.init 8 (fun i -> Printf.sprintf "replica%d#p0" i) in
  let commit v =
    let origin = stores.(v mod 8) and req_id = (1_000_000 * (v mod 8)) + v in
    [ Obs.Events.Request_admitted
        { actor = certs.(0); part = 0; origin; req_id; replica_version = v - 1 } ]
    @ Array.to_list
        (Array.map
           (fun actor ->
             Obs.Events.Log_append { actor; part = 0; version = v; origin; req_id; cross = false })
           certs)
    @ [ Obs.Events.Verdict
          { actor = certs.(0); part = 0; origin; req_id; committed = true; version = v };
        Obs.Events.Durable_ack { actor = certs.(0); part = 0; origin; req_id; version = v } ]
    @ List.concat_map
        (fun actor ->
          [ Obs.Events.Ws_install { actor; part = 0; version = v };
            Obs.Events.Snapshot_advance { actor; part = 0; version = v } ])
        (Array.to_list stores)
  in
  let warm = 2_000 and measured = 20_000 in
  let events v0 n = Array.of_list (List.concat (List.init n (fun i -> commit (v0 + i)))) in
  let first = events 1 warm and second = events (warm + 1) measured in
  let _e, ev, m = make_monitor () in
  Array.iter (emit ev) first;
  let before = Gc.minor_words () in
  Array.iter (emit ev) second;
  let words = Gc.minor_words () -. before in
  check_int "clean" 0 (Obs.Monitor.violation_count m);
  words /. float_of_int (Array.length second)

(* Actors and origins are interned, the tables keyed by packed ints, the
   acked versions an array and each store's installs a bit ring: an event
   allocates 0.9 words here, 12.1 when the tables were keyed by strings and
   tuples. *)
let test_monitor_event_alloc () =
  let words = monitor_words_per_event () in
  if words > 3. then Alcotest.failf "%.1f words per event (bound 3)" words

let test_monitor_registry_gauges () =
  let e = Engine.create () in
  let events = Obs.Events.create e in
  let reg = Obs.Registry.create () in
  let m = Obs.Monitor.attach ~metrics:reg events in
  emit events (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 1 });
  emit events (Obs.Events.Ws_install { actor = "r0#p0"; part = 0; version = 1 });
  ignore m;
  (match Obs.Registry.find reg "monitor.violations" with
  | Some (Obs.Registry.Gauge v) -> check_int "violations gauge" 1 (int_of_float v)
  | _ -> Alcotest.fail "monitor.violations gauge missing");
  match Obs.Registry.find reg "monitor.events" with
  | Some (Obs.Registry.Gauge v) -> check_int "events gauge" 2 (int_of_float v)
  | _ -> Alcotest.fail "monitor.events gauge missing"

let suites =
  [
    ( "obs.registry",
      [
        Alcotest.test_case "counter snapshot and reset isolation" `Quick
          test_registry_counter_snapshot_reset;
        Alcotest.test_case "duplicate name raises" `Quick test_registry_duplicate_raises;
        Alcotest.test_case "gauges and on_reset hooks" `Quick
          test_registry_gauge_and_on_reset;
        Alcotest.test_case "summary and histogram snapshots" `Quick
          test_registry_summary_and_histogram;
      ] );
    ( "obs.trace",
      [
        Alcotest.test_case "span ordering and nesting on the sim clock" `Quick
          test_trace_span_ordering;
        Alcotest.test_case "ring wraparound keeps exact aggregates" `Quick
          test_trace_ring_wraparound;
        Alcotest.test_case "disabled tracer is inert" `Quick test_trace_disabled_inert;
        Alcotest.test_case "reset keeps ids ascending" `Quick
          test_trace_reset_keeps_ids_ascending;
        Alcotest.test_case "chrome trace JSON golden shape" `Quick
          test_trace_chrome_json_golden;
      ] );
    ( "obs.integration",
      [
        Alcotest.test_case "cluster registry namespace and reset" `Quick
          test_cluster_registry_namespace;
        Alcotest.test_case "experiment per-stage latency (Figure 7 gap)" `Slow
          test_experiment_stage_latency;
        Alcotest.test_case "backfill spans share the refresh trace id" `Quick
          test_backfill_trace_ids;
        Alcotest.test_case "chaos: trace ids survive retries and faults" `Slow
          test_chaos_trace_ids_survive_faults;
      ] );
    ( "obs.monitor",
      [
        Alcotest.test_case "clean stream stays clean" `Quick
          test_monitor_clean_stream;
        Alcotest.test_case "serial-order: double install" `Quick
          test_monitor_serial_order_double_install;
        Alcotest.test_case "serial-order: advance over gap" `Quick
          test_monitor_serial_order_gap;
        Alcotest.test_case "serial-order: snapshot load legalizes jump" `Quick
          test_monitor_snapshot_load_legalizes_jump;
        Alcotest.test_case "durability: acked then aborted" `Quick
          test_monitor_durability_ack_then_abort;
        Alcotest.test_case "durability: recovery re-append" `Quick
          test_monitor_durability_recovery_reappend;
        Alcotest.test_case "cross-atomicity: vote/decision conflicts" `Quick
          test_monitor_cross_atomicity;
        Alcotest.test_case "gc-floor: live snapshot and monotonicity" `Quick
          test_monitor_gc_floor;
        Alcotest.test_case "gc-floor: leadership loss drops admissions" `Quick
          test_monitor_gc_floor_after_reset;
        Alcotest.test_case "progress: overdue and reset" `Quick
          test_monitor_progress;
        Alcotest.test_case "registry gauges exported" `Quick
          test_monitor_registry_gauges;
        Alcotest.test_case "steady-state event allocation" `Quick test_monitor_event_alloc;
        Alcotest.test_case "serial-order: append out of order" `Quick
          test_monitor_append_out_of_order;
        Alcotest.test_case "serial-order: one transaction appended twice" `Quick
          test_monitor_append_twice;
        Alcotest.test_case "durability: one commit acked twice" `Quick
          test_monitor_acked_twice;
        Alcotest.test_case "durability: one version acked for two" `Quick
          test_monitor_version_acked_for_two;
        Alcotest.test_case "durability: acked version appended by another" `Quick
          test_monitor_acked_version_taken;
        Alcotest.test_case "serial-order: snapshot went backwards" `Quick
          test_monitor_snapshot_backwards;
      ] );
  ]

(* One repetition of one workload, run in its own process: set up the
   cluster, warm up, measure one window, check the protocol, report.

   Every rep attaches the five online monitors and ends with the
   consistency and log-invariant checks. An untraced rep reports the
   end-to-end numbers and the host cost of the window. The traced rep also
   records spans (ring sized so nothing is dropped), times the client's
   proxy calls, counts remote writesets shipped in commit replies through a
   pass-through network tap, and replays its inputs through the layer
   functions; it reports the per-layer metrics. None of that touches the
   simulation, so its sim results must equal the untraced ones. *)

open Sim
module C = Tashkent.Cluster
module P = Tashkent.Proxy
module R = Tashkent.Replica

let wall = Unix.gettimeofday

(* Host time is measured against [reference], a fixed allocation-free loop
   over a 256 KB off-heap buffer: other tenants of a shared host slow it
   and the simulator alike, so a cost relative to it holds steady where
   wall time swings by 30%. The rep times the reference before each of the
   window's [chunks] equal slices of sim time. Every rep of a seed does
   identical work slice by slice, so the parent can also take each slice at
   its best rep. *)
let chunks = 40

let reference_buf =
  let a = Bigarray.Array1.create Bigarray.int Bigarray.c_layout 32768 in
  Bigarray.Array1.fill a 1;
  a

(* Branchy, data-dependent loads and stores: close to the simulator's own
   instruction mix, so that it slows down when the simulator does. *)
let reference () =
  let a = reference_buf in
  let t0 = wall () in
  let h = ref 1 in
  for k = 1 to 20_000 do
    let j = (!h lsr 7) land 32767 in
    if !h land 1 = 0 then a.{j} <- a.{j} + k else h := !h + a.{j};
    h := (!h lxor (k * 0x9E3779B9)) * 0x85EBCA6B
  done;
  ignore (Sys.opaque_identity !h);
  wall () -. t0

let layer ?base name unit value =
  let base = match base with Some b -> [ ("base", Json.String b) ] | None -> [] in
  (name, Json.Obj ([ ("value", Json.Float value); ("unit", Json.String unit) ] @ base))

let ratio name ~base value = layer ~base name "ratio" value
let floats a = Json.List (Array.to_list (Array.map (fun x -> Json.Float x) a))
let div a b = if b = 0. then 0. else a /. b
let sum f xs = List.fold_left (fun acc x -> acc +. f x) 0. xs
let mean f xs = div (sum f xs) (float_of_int (List.length xs))

let trace_stages =
  [
    ("proxy.txn_commit", "txn.commit");
    ("proxy.certify", "certify");
    ("proxy.durability", "durability");
    ("proxy.apply", "apply");
    ("proxy.apply_wait", "apply.wait");
    ("proxy.apply_exec", "apply.exec");
    ("proxy.backfill", "backfill");
    ("certifier.cert_batch", "cert.batch");
    ("certifier.cert_durability", "cert.durability");
    ("certifier.wal_fsync", "wal.fsync");
  ]

(* The share of txn.commit span time that no other span of the same trace
   id covers: the part of the commit path the program's spans leave
   unexplained. *)
let commit_unattributed_share events =
  let children = Hashtbl.create 4096 in
  let commits = ref [] in
  List.iter
    (fun (ev : Obs.Trace.event) ->
      let iv = (Time.to_us ev.started, Time.to_us ev.finished) in
      if ev.id <> 0 then
        if ev.stage = "txn.commit" then commits := (ev.id, iv) :: !commits
        else Hashtbl.add children ev.id iv)
    events;
  let total = ref 0 and uncovered = ref 0 in
  List.iter
    (fun (id, (a, b)) ->
      let clipped =
        List.filter_map
          (fun (s, e) ->
            let s = max s a and e = min e b in
            if e > s then Some (s, e) else None)
          (Hashtbl.find_all children id)
        |> List.sort compare
      in
      let covered, _ =
        List.fold_left
          (fun (covered, reach) (s, e) ->
            let s = max s reach in
            if e > s then (covered + (e - s), e) else (covered, reach))
          (0, a) clipped
      in
      total := !total + (b - a);
      uncovered := !uncovered + (b - a - covered))
    !commits;
  div (float_of_int !uncovered) (float_of_int !total)

let run (s : Scenario.t) ~seed ~traced ~trace_capacity =
  let t_setup = wall () in
  let spec = s.profile () in
  let rows = spec.initial_rows ~n_replicas:Scenario.n_replicas in
  let engine = Engine.create () in
  let trace =
    if traced then Obs.Trace.create ~capacity:trace_capacity engine
    else Obs.Trace.disabled ()
  in
  let events = Obs.Events.create engine in
  let cluster = C.create ~engine ~trace ~events (Scenario.cluster_config s spec ~seed) in
  let metrics = C.metrics cluster in
  let monitor = Obs.Monitor.attach ~metrics events in
  C.load_all cluster rows;
  C.settle cluster;
  let setup_s = wall () -. t_setup in
  let client = Client.create engine ~detail:traced in
  let rng = Rng.create (seed + 1) in
  let keys = Array.of_list (List.map fst rows) in
  List.iteri
    (fun replica_ix replica ->
      let replica_rng = Rng.split rng in
      for c = 0 to spec.clients_per_replica - 1 do
        Client.spawn client ~replica ~replica_ix ~client:c ~rng:(Rng.split replica_rng) ~spec
      done;
      if s.probe then
        Client.spawn ~probe:true client ~replica ~replica_ix ~client:spec.clients_per_replica
          ~rng:(Rng.split replica_rng) ~spec:(Scenario.probe_spec spec keys))
    (C.replicas cluster);
  let shipped = ref 0 in
  if traced then
    Net.Network.set_tap (C.network cluster)
      (Some
         (fun ~src:_ ~dst:_ msg ->
           (match msg with
           | Tashkent.Types.Cert_reply r -> shipped := !shipped + List.length r.remotes
           | _ -> ());
           Net.Network.Pass));
  Engine.run ~until:(Time.add (Engine.now engine) s.warmup) engine;
  (* The measured window. *)
  C.reset_stats cluster;
  shipped := 0;
  client.recording <- true;
  let replicas = C.replicas cluster in
  let proxies = List.map R.proxy replicas in
  let lead =
    match C.leader cluster with Some l -> l | None -> failwith "no certifier leader"
  in
  let cert_busy () =
    let st = Tashkent.Certifier.stats lead and now = Time.to_sec (Engine.now engine) in
    (st.cpu_utilization *. now, st.disk_utilization *. now)
  in
  let cpu_busy () = List.map (fun r -> Time.to_sec (Resource.busy_time (R.cpu r))) replicas in
  let pruned () =
    sum (fun r -> float_of_int (Mvcc.Store.pruned (Mvcc.Db.store (R.db r)))) replicas
  in
  let cert_busy0 = cert_busy () and cpu_busy0 = cpu_busy () and pruned0 = pruned () in
  let messages0 = Net.Network.messages_sent (C.network cluster) in
  let monitor_events0 = Obs.Monitor.events_seen monitor in
  let events0 = Engine.events_processed engine in
  let majors0 = (Gc.quick_stat ()).major_collections in
  let words0 = Replay.alloc_words () in
  let start = Engine.now engine in
  let ref_s = Array.make chunks 0. and chunk_s = Array.make chunks 0. in
  for i = 0 to chunks - 1 do
    ref_s.(i) <- reference ();
    let w0 = wall () in
    Engine.run ~until:(Time.add start (Time.div (Time.mul s.window (i + 1)) chunks)) engine;
    chunk_s.(i) <- wall () -. w0
  done;
  let words = Replay.alloc_words () -. words0 in
  let gc = Gc.quick_stat () in
  let window_s = Time.to_sec (Time.diff (Engine.now engine) start) in
  let n_events = Engine.events_processed engine - events0 in
  client.recording <- false;
  Obs.Monitor.finalize monitor ~now:(Engine.now engine);
  let problems =
    List.filter_map Fun.id
      [
        (match Obs.Monitor.violations monitor with
        | [] -> None
        | v :: _ ->
            Some
              (Format.asprintf "%d monitor violations, first: %a"
                 (Obs.Monitor.violation_count monitor)
                 Obs.Monitor.pp_violation v));
        (match C.check_consistency cluster with
        | Ok () -> None
        | Error e -> Some ("consistency: " ^ e));
        (match C.check_log_invariants cluster with
        | Ok () -> None
        | Error e -> Some ("log invariants: " ^ e));
        (if Obs.Trace.dropped trace > 0 then
           Some (Printf.sprintf "trace dropped %d spans" (Obs.Trace.dropped trace))
         else None);
      ]
  in
  let committed = float_of_int client.committed in
  let per_commit x = div x committed in
  let u = client.update_ms and ro = client.ro_ms in
  let sim =
    [
      ("goodput_tps", Json.Float (div committed window_s));
      ("update_p50_ms", Json.Float (Client.Samples.percentile u 0.50));
      ("update_p99_ms", Json.Float (Client.Samples.percentile u 0.99));
      ("ro_p50_ms", Json.Float (Client.Samples.percentile ro 0.50));
      ("ro_p99_ms", Json.Float (Client.Samples.percentile ro 0.99));
      ("update_samples", Json.Int (Client.Samples.count u));
      ("ro_samples", Json.Int (Client.Samples.count ro));
      ("committed", Json.Int client.committed);
      ("attempts", Json.Int client.attempts);
      ("aborted", Json.Int client.aborted);
      ("failed", Json.Int client.failed);
      ("events", Json.Int n_events);
    ]
  in
  let layers () =
    let stats = List.map P.stats proxies in
    let reg name =
      match Obs.Registry.find metrics name with
      | Some (Obs.Registry.Counter c) -> float_of_int c
      | Some (Obs.Registry.Gauge g) -> g
      | _ -> 0.
    in
    let proxy_sum suffix = sum (fun p -> reg ("proxy." ^ P.addr p ^ "." ^ suffix)) proxies in
    let lstats = Tashkent.Certifier.stats lead in
    let lcounter name = reg ("certifier." ^ Tashkent.Certifier.id lead ^ "." ^ name) in
    let cpu1, disk1 = cert_busy () and cpu0, disk0 = cert_busy0 in
    let requests = float_of_int lstats.requests in
    let aborts =
      sum (fun (st : P.stats) -> float_of_int (st.cert_aborts + st.local_aborts)) stats
    in
    let abort_share cause =
      ratio ("proxy.abort_share." ^ cause) ~base:"proxy aborts"
        (div (proxy_sum ("abort." ^ cause)) aborts)
    in
    let stage_metrics =
      List.concat_map
        (fun (name, stage) ->
          let st = Obs.Trace.stage_stats trace stage in
          let get f = match st with Some st -> f st /. 1000. | None -> 0. in
          [
            layer (name ^ ".mean_ms") "ms" (get (fun st -> st.Obs.Trace.mean_us));
            layer (name ^ ".p99_ms") "ms" (get (fun st -> st.Obs.Trace.p99_us));
          ])
        trace_stages
    in
    let client_calls =
      List.concat_map
        (fun (name, call) ->
          [
            layer ("client." ^ name ^ ".mean_ms") "ms" (Client.call_mean client call);
            layer ("client." ^ name ^ ".p99_ms") "ms" (Client.call_p99 client call);
          ])
        [
          ("exec", Client.Exec);
          ("read", Client.Read);
          ("write", Client.Write);
          ("commit", Client.Commit);
          ("backoff", Client.Backoff);
        ]
    in
    let replay =
      Replay.run
        ~writesets:(Array.of_list (List.rev client.writesets))
        ~reads:(Array.of_list (List.rev client.reads))
        ~rows
      |> List.concat_map (fun (name, ns, _iqr, words) ->
             [ layer (name ^ "_ns") "ns" ns; layer (name ^ "_alloc_words") "words" words ])
    in
    client_calls
    @ [
        ratio "client.budget_gap_share" ~base:"summed response time of committed transactions"
          (Client.budget_gap_share client);
        ratio "client.abort_rate" ~base:"transaction attempts"
          (div (float_of_int client.aborted) (float_of_int client.attempts));
        layer "client.update_samples" "count" (float_of_int (Client.Samples.count u));
        layer "client.ro_samples" "count" (float_of_int (Client.Samples.count ro));
      ]
    @ stage_metrics
    @ [
        ratio "proxy.commit_unattributed_share" ~base:"summed txn.commit span time"
          (commit_unattributed_share (Obs.Trace.events trace));
        layer "certifier.ws_per_fsync" "ws/fsync" lstats.mean_group_size;
        layer "paxos.entries_per_accept" "entries/accept" lstats.mean_accept_batch;
        ratio "certifier.cpu_util" ~base:"window time, leader CPU"
          (div (cpu1 -. cpu0) window_s);
        ratio "certifier.disk_util" ~base:"window time, leader disk"
          (div (disk1 -. disk0) window_s);
        ratio "certifier.conflicts_per_request" ~base:"certification requests"
          (div (lcounter "cert.conflicts") requests);
        layer "certifier.delta_fastpath_per_request" "1/request"
          (div (lcounter "cert.delta_fastpath") requests);
        ratio "certifier.artificial_conflicts_per_remote_ws"
          ~base:"remote writesets shipped in commit replies"
          (div (float_of_int lstats.artificial_conflicts) (float_of_int !shipped));
        layer "proxy.artificial_serializations_per_commit" "1/commit"
          (per_commit (proxy_sum "artificial_serializations"));
        layer "proxy.remote_ws_per_apply_batch" "ws/batch"
          (div (proxy_sum "remote_ws_applied") (proxy_sum "apply_batches"));
        layer "db.ws_per_fsync" "ws/fsync"
          (mean (fun r -> Storage.Wal.mean_group_size (Mvcc.Db.wal (R.db r))) replicas);
        abort_share "cert_ww";
        abort_share "local_ww";
        abort_share "local_deadlock";
        abort_share "local_preempted";
        ratio "replica.cpu_util" ~base:"window time, per replica CPU"
          (div
             (mean Fun.id (List.map2 ( -. ) (cpu_busy ()) cpu_busy0))
             window_s);
        ratio "replica.log_disk_util" ~base:"window time, per replica log disk"
          (mean (fun r -> Storage.Disk.utilization (R.log_disk r)) replicas);
        layer "apply.parallelism" "workers" (mean P.apply_parallelism proxies);
        layer "apply.stalls_per_commit" "1/commit" (per_commit (proxy_sum "apply_stalls"));
        layer "store.versions_end" "versions"
          (mean (fun r -> float_of_int (Mvcc.Store.version_records (Mvcc.Db.store (R.db r)))) replicas);
        layer "store.pruned_per_commit" "versions/commit" (per_commit (pruned () -. pruned0));
        layer "cert_log.live_bytes_end" "bytes"
          (float_of_int (Tashkent.Cert_log.bytes_live (Tashkent.Certifier.log lead)));
        layer "net.messages_per_commit" "msgs/commit"
          (per_commit
             (float_of_int (Net.Network.messages_sent (C.network cluster) - messages0)));
        layer "monitor.events_per_commit" "events/commit"
          (per_commit (float_of_int (Obs.Monitor.events_seen monitor - monitor_events0)));
        layer "engine.events_per_commit" "events/commit" (per_commit (float_of_int n_events));
        layer "gc.major_per_kcommit" "1/kcommit"
          (per_commit (1000. *. float_of_int (gc.major_collections - majors0)));
      ]
    @ replay
  in
  Json.Obj
    ([
       ("setup_s", Json.Float setup_s);
       ("ref_s", floats ref_s);
       ("chunk_s", floats chunk_s);
       ("alloc_words", Json.Float words);
       ("top_heap_words", Json.Int gc.top_heap_words);
       ("problems", Json.List (List.map (fun p -> Json.String p) problems));
     ]
    @ sim
    @ if traced then [ ("layers", Json.Obj (layers ())) ] else [])

open Sim

(* Sustained-load soak: hours of simulated Zipfian delta traffic with the
   GC watermark active, sampling the growth-sensitive gauges every window.
   The point is the long-run *shape*: with the cluster floor advancing,
   store version counts and the live certified log must plateau instead of
   growing with wall-clock, and latency percentiles must stay flat — the
   regression this harness pins is exactly the unbounded-growth bug the
   watermark fixes (run with [gc_interval = None] to see the baseline
   climb). Optional periodic chaos keeps crashing the certifier leader and
   a replica throughout, with the replica outage longer than the
   certifier's watermark TTL so the floor passes the dead replica and its
   recovery must heal via snapshot transfer. *)

type config = {
  cluster : Tashkent.Cluster.config;
      (* n_partitions > 1 spreads the Zipfian clients' hot keys across
         every group and the periodic chaos' certifier crashes over the
         groups *)
  duration : Time.t;
  window : Time.t;
  chaos : bool;
  chaos_period : Time.t;
  skew : float;
  deltas : bool;
}

(* Leading windows excluded from the boundedness and latency assertions. *)
let warmup_windows = 1

(* Progress-monitor deadline, counted from submission or the last fault
   heal. The online protocol monitors are always attached: they check
   every event through the whole soak — hours of simulated time, every
   decision point. *)
let progress_bound = Time.sec 10

let default_config () =
  {
    cluster =
      Tashkent.Cluster.config ~gc_interval:(Some (Time.sec 5))
        ~max_snapshot_age:(Some (Time.sec 30)) ~seed:2006
        Tashkent.Types.Tashkent_mw;
    duration = Time.sec 600;
    window = Time.sec 30;
    chaos = true;
    chaos_period = Time.sec 120;
    skew = 0.99;
    deltas = true;
  }

type window_sample = {
  at : Time.t;  (* offset of the window's end from run start *)
  goodput : float;
  p95_ms : float;
  p99_ms : float;
  store_versions : int;  (* max version-chain records across up replicas *)
  cert_entries : int;  (* live slots in the leader's certified log *)
  cert_bytes : int;  (* bytes held by those live slots *)
  gc_floor : int;  (* the leader's truncation floor *)
}

type split = {
  early_versions : int;
  late_versions : int;
  early_bytes : int;
  late_bytes : int;
  early_p99_ms : float;
  late_p99_ms : float;
}

type result = {
  run : Scenario.outcome;
  windows : window_sample list;  (* oldest first, warmup included *)
  split : split;
  commits : int;
  store_pruned : int;
  cert_pruned : int;
  snapshot_installs : int;
  floor_heals : int;
  stale_expired : int;
}

(* Periodic chaos: alternate a certifier-leader crash (5 s outage) with a
   replica crash whose 30 s outage exceeds the certifier watermark TTL —
   the floor passes the dead replica, so its recovery exercises the
   pruned-prefix snapshot transfer. Everything recovers at least 40 s
   before the run ends so the final checkpoint sees a whole cluster. *)
let soak_plan ~duration ~period ~n_replicas ~n_partitions =
  let dur = Time.to_sec duration and per = Time.to_sec period in
  let victim = n_replicas - 1 in
  let rec go k acc =
    let t = float_of_int k *. per in
    if t +. 40. > dur then List.rev acc
    else
      let events =
        if k mod 2 = 1 || n_replicas < 2 then
          (* round-robin the certifier crash over the groups so every
             partition's ring fails over during a long soak *)
          let g = k / 2 mod n_partitions in
          [
            (Time.of_sec t, Fault.Crash_group_leader g);
            (Time.of_sec (t +. 5.), Fault.Recover_group_crashed g);
          ]
        else
          [
            (Time.of_sec t, Fault.Crash_replica victim);
            (Time.of_sec (t +. 30.), Fault.Recover_replica victim);
          ]
      in
      go (k + 1) (List.rev_append events acc)
  in
  go 1 []

let median = function
  | [] -> 0.
  | xs ->
      let sorted = List.sort compare xs in
      List.nth sorted (List.length sorted / 2)

(* Boundedness compares the post-warmup early half of the windows against
   the late half: maxima for the growth gauges, medians for p99 (a chaos
   window legitimately spikes it). *)
let split_of measured =
  let n = List.length measured in
  let early = List.filteri (fun i _ -> i < n / 2) measured in
  let late = List.filteri (fun i _ -> i >= n / 2) measured in
  let maxi f ws = List.fold_left (fun acc w -> max acc (f w)) 0 ws in
  let p99 ws = median (List.map (fun w -> w.p99_ms) ws) in
  {
    early_versions = maxi (fun w -> w.store_versions) early;
    late_versions = maxi (fun w -> w.store_versions) late;
    early_bytes = maxi (fun w -> w.cert_bytes) early;
    late_bytes = maxi (fun w -> w.cert_bytes) late;
    early_p99_ms = p99 early;
    late_p99_ms = p99 late;
  }

let run ?(config = default_config ()) () =
  let c = config.cluster in
  let spec = Workload.Hotkey.profile ~skew:config.skew ~deltas:config.deltas () in
  let sc =
    Scenario.start (Scenario.config ~monitors:true ~progress_bound c spec)
  in
  let collector = sc.collector in
  Workload.Driver.Collector.enable collector;
  let plan =
    if config.chaos then
      soak_plan ~duration:config.duration ~period:config.chaos_period
        ~n_replicas:c.n_replicas ~n_partitions:c.n_partitions
    else []
  in
  let replica_outages =
    List.exists (function _, Fault.Crash_replica _ -> true | _ -> false) plan
  in
  let commits = ref 0 in
  (* Leader gauges carry across an election gap, per certifier group: a
     window sampled while a group has no leader reuses that group's
     previous log shape instead of reporting a bogus zero. Live entries
     and bytes sum over groups (total retained state); the floor is the
     minimum across groups (the laggiest truncation). *)
  let groups = List.map fst (Tashkent.Cluster.certifier_groups sc.cluster) in
  let last_log = Hashtbl.create 8 in
  let sample_leader () =
    List.fold_left
      (fun (entries, bytes, floor) part ->
        let e, b, f =
          match Tashkent.Cluster.group_leader sc.cluster ~part with
          | None ->
              Option.value (Hashtbl.find_opt last_log part) ~default:(0, 0, 0)
          | Some lead ->
              let log = Tashkent.Certifier.log lead in
              let s =
                ( Tashkent.Cert_log.entries log,
                  Tashkent.Cert_log.bytes_live log,
                  Tashkent.Cert_log.floor log )
              in
              Hashtbl.replace last_log part s;
              s
        in
        (entries + e, bytes + b, min floor f))
      (0, 0, max_int) groups
  in
  let store_versions_max () =
    List.fold_left
      (fun acc db -> max acc (Mvcc.Store.version_records (Mvcc.Db.store db)))
      0 (Scenario.dbs ~up:true sc)
  in
  let n_windows =
    max 1 (int_of_float (Time.to_sec config.duration /. Time.to_sec config.window))
  in
  let windows = ref [] in
  let sample at =
    let cert_entries, cert_bytes, gc_floor = sample_leader () in
    commits := !commits + Workload.Driver.Collector.committed collector;
    windows :=
      {
        at;
        goodput = Workload.Driver.Collector.goodput collector ~window:config.window;
        p95_ms = Workload.Driver.Collector.p95_response_ms collector;
        p99_ms = Workload.Driver.Collector.p99_response_ms collector;
        store_versions = store_versions_max ();
        cert_entries;
        cert_bytes;
        gc_floor;
      }
      :: !windows;
    Workload.Driver.Collector.reset collector;
    []
  in
  (* A sample at every window's end, then the end-to-end invariant
     checkpoint once outstanding faults have drained. *)
  let run =
    Scenario.run_plan sc ~plan
      ~duration:(Time.mul config.window n_windows)
      ~stops:(List.init n_windows (fun k -> Time.mul config.window (k + 1)))
      ~at_stop:sample ~drain_limit:60
      ~final:(fun () -> Scenario.invariant_violations sc)
  in
  let violations = ref [] in
  let violate fmt = Printf.ksprintf (fun s -> violations := s :: !violations) fmt in
  let dbs = Scenario.dbs sc and proxies = Scenario.proxies sc in
  let store_pruned = Scenario.sum (fun db -> Mvcc.Store.pruned (Mvcc.Db.store db)) dbs in
  let cert_pruned =
    Scenario.sum
      (fun lead -> Tashkent.Cert_log.pruned (Tashkent.Certifier.log lead))
      (Tashkent.Cluster.leaders sc.cluster)
  in
  let snapshot_installs = Scenario.sum (fun p -> Tashkent.Proxy.catch_ups p Snapshot) proxies in
  let floor_heals = Scenario.sum (fun p -> Tashkent.Proxy.catch_ups p Floor) proxies in
  let stale_expired = Scenario.sum Mvcc.Db.stale_snapshots_expired dbs in
  let all = List.rev !windows in
  let measured = List.filteri (fun i _ -> i >= warmup_windows) all in
  (if c.replica.gc_interval <> None then begin
     if store_pruned = 0 then
       violate "store GC never pruned a version (store_pruned = 0)";
     if cert_pruned = 0 then
       violate "certified log was never truncated (cert_pruned = 0)"
   end);
  if replica_outages && snapshot_installs = 0 then
    violate
      "no snapshot transfer happened despite replica outages longer than \
       the watermark TTL";
  (* A plateau passes with room to spare; linear growth (the
     pre-watermark behaviour) makes the late-half max ~2x the early-half
     max however long the run is, so the envelope must sit strictly below
     2x — 1.5x plus an absolute slack for small fluctuating gauges. *)
  let split = split_of measured in
  if List.length measured >= 2 then begin
    if split.late_versions > (3 * split.early_versions / 2) + 512 then
      violate "store versions grew without bound: early max %d, late max %d"
        split.early_versions split.late_versions;
    if split.late_bytes > (3 * split.early_bytes / 2) + 65_536 then
      violate "certified log bytes grew without bound: early max %d, late max %d"
        split.early_bytes split.late_bytes;
    if split.late_p99_ms > (3. *. split.early_p99_ms) +. 5. then
      violate "p99 latency drifted: early median %.2f ms, late median %.2f ms"
        split.early_p99_ms split.late_p99_ms
  end;
  {
    run = { run with violations = run.violations @ List.rev !violations };
    windows = all;
    split;
    commits = !commits;
    store_pruned;
    cert_pruned;
    snapshot_installs;
    floor_heals;
    stale_expired;
  }

let pp_result fmt r =
  Format.fprintf fmt "@[<v>";
  Format.fprintf fmt
    "%-8s %10s %9s %9s %9s %11s %11s %9s@," "t" "goodput" "p95ms" "p99ms"
    "versions" "log entries" "log bytes" "floor";
  List.iter
    (fun w ->
      Format.fprintf fmt "%-8s %10.1f %9.2f %9.2f %9d %11d %11d %9d@,"
        (Time.to_string w.at) w.goodput w.p95_ms w.p99_ms w.store_versions
        w.cert_entries w.cert_bytes w.gc_floor)
    r.windows;
  Format.fprintf fmt "commits            %d@," r.commits;
  Format.fprintf fmt "store pruned       %d@," r.store_pruned;
  Format.fprintf fmt "cert-log pruned    %d@," r.cert_pruned;
  Format.fprintf fmt "snapshot installs  %d@," r.snapshot_installs;
  Format.fprintf fmt "floor heals        %d@," r.floor_heals;
  Format.fprintf fmt "stale expired      %d@," r.stale_expired;
  (match r.run.fault with
  | None -> ()
  | Some f ->
      Format.fprintf fmt "faults             %d crashes, %d recoveries@,"
        f.Fault.crashes f.Fault.recoveries);
  Format.fprintf fmt "violations         %d" (List.length r.run.violations);
  List.iter (fun v -> Format.fprintf fmt "@,  %s" v) r.run.violations;
  Format.fprintf fmt "@,monitor events     %d" r.run.monitor_events;
  Format.fprintf fmt "@,monitor violations %d"
    (List.length r.run.monitor_violations);
  List.iter (fun v -> Format.fprintf fmt "@,  %s" v) r.run.monitor_violations;
  Format.fprintf fmt "@]"

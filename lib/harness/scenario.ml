open Sim

type config = {
  cluster : Tashkent.Cluster.config;
  spec : Workload.Spec.t;
  trace : bool;
  monitors : bool;
  progress_bound : Time.t option;
}

let config ?(trace = false) ?(monitors = false) ?progress_bound cluster spec =
  { cluster; spec; trace; monitors; progress_bound }

type t = {
  engine : Engine.t;
  cluster : Tashkent.Cluster.t;
  trace : Obs.Trace.t;
  monitor : Obs.Monitor.t;
  collector : Workload.Driver.Collector.t;
}

let start (config : config) =
  let c = config.cluster and spec = config.spec in
  let engine = Engine.create () in
  let trace =
    if config.trace then Obs.Trace.create engine else Obs.Trace.disabled ()
  in
  let events =
    if config.monitors then Obs.Events.create engine else Obs.Events.disabled ()
  in
  let cluster = Tashkent.Cluster.create ~engine ~trace ~events c in
  let monitor =
    Obs.Monitor.attach ?progress_bound:config.progress_bound
      ~metrics:(Tashkent.Cluster.metrics cluster) events
  in
  Tashkent.Cluster.load_all cluster
    (spec.Workload.Spec.initial_rows ~n_replicas:c.n_replicas);
  Tashkent.Cluster.settle cluster;
  let collector = Workload.Driver.Collector.create () in
  let rng = Rng.create (c.seed + 1) in
  List.iteri
    (fun replica_ix replica ->
      Workload.Driver.spawn_replica_clients engine ~replica ~spec
        ~rng:(Rng.split rng) ~collector ~replica_ix ~n_replicas:c.n_replicas)
    (Tashkent.Cluster.replicas cluster);
  { engine; cluster; trace; monitor; collector }

let storage_profile (spec : Workload.Spec.t) replica =
  {
    replica with
    Tashkent.Replica.page_read_miss = spec.page_read_miss;
    page_writeback_per_op = spec.page_writeback_per_op;
    bg_page_writes_per_sec = spec.bg_page_writes_per_sec;
    db_size_bytes = spec.db_size_bytes;
  }

let run_for t span = Engine.run ~until:(Time.add (Engine.now t.engine) span) t.engine

let hosted ?(up = false) ?part t of_part =
  List.concat_map
    (fun r ->
      if up && not (Tashkent.Replica.is_up r) then []
      else
        List.filter_map
          (fun p -> if part = None || part = Some p then of_part r ~part:p else None)
          (Tashkent.Replica.partitions r))
    (Tashkent.Cluster.replicas t.cluster)

let proxies ?up ?part t = hosted ?up ?part t Tashkent.Replica.proxy_of
let dbs ?up ?part t = hosted ?up ?part t Tashkent.Replica.db_of
let sum f xs = List.fold_left (fun acc x -> acc + f x) 0 xs

let invariant_violations t =
  List.filter_map
    (fun (name, check) ->
      match check t.cluster with
      | Ok () -> None
      | Error msg -> Some (name ^ ": " ^ msg))
    [
      ("log invariants", Tashkent.Cluster.check_log_invariants);
      ("consistency", Tashkent.Cluster.check_consistency);
      ("cross atomicity", fun c -> Tashkent.Cluster.check_cross_atomicity c);
    ]

let wait_for t ~step ~limit ready =
  let rec go limit =
    if (not (ready ())) && limit > 0 then begin
      run_for t step;
      go (limit - 1)
    end
  in
  go limit

let monitor_violations t =
  Obs.Monitor.finalize t.monitor ~now:(Engine.now t.engine);
  List.map
    (Format.asprintf "%a" Obs.Monitor.pp_violation)
    (Obs.Monitor.violations t.monitor)

type outcome = {
  fault : Fault.stats option;
  checks : int;
  violations : string list;
  monitor_violations : string list;
  monitor_events : int;
}

let run_plan t ~plan ~duration ~stops ~at_stop ~drain_limit ~final =
  let injector = if plan = [] then None else Some (Fault.inject t.cluster plan) in
  Option.iter
    (fun i -> Fault.register_metrics i (Tashkent.Cluster.metrics t.cluster))
    injector;
  let started = Engine.now t.engine in
  let run_until offset =
    let due = Time.add started offset and now = Engine.now t.engine in
    if Time.(due > now) then run_for t (Time.diff due now)
  in
  let stops = List.sort_uniq Time.compare stops in
  let found = List.concat_map (fun s -> run_until s; at_stop s) stops in
  run_until duration;
  Option.iter
    (fun i ->
      wait_for t ~step:(Time.sec 1) ~limit:drain_limit (fun () -> Fault.quiescent i))
    injector;
  let violations = found @ final () in
  {
    fault = Option.map Fault.stats injector;
    checks = List.length stops + 1;
    violations;
    monitor_violations = monitor_violations t;
    monitor_events = Obs.Monitor.events_seen t.monitor;
  }

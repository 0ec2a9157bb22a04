open Sim

type workload_kind = All_updates | Tpc_b | Tpc_w | Hotkey | Part_local

let workload_name = function
  | All_updates -> "allupdates"
  | Tpc_b -> "tpc-b"
  | Tpc_w -> "tpc-w"
  | Hotkey -> "hotkey"
  | Part_local -> "partlocal"

type system =
  | Standalone
  | Replicated of Tashkent.Types.mode
  | Replicated_nocert of Tashkent.Types.mode

let system_name = function
  | Standalone -> "standalone"
  | Replicated mode -> Tashkent.Types.mode_name mode
  | Replicated_nocert mode -> Tashkent.Types.mode_name mode ^ "-nocert"

type config = {
  system : system;
  cluster : Tashkent.Cluster.config;
      (* its mode is replaced by the system's; see [scenario] for what
         else a run derives *)
  cross_ratio : float;
      (* fraction of Part_local transactions spanning two partitions *)
  clients_per_replica : int option;
      (* None = the workload profile's default population *)
  part_exec_cpu : Time.t option;
      (* Part_local only: per-transaction replica execution CPU (None =
         the profile's PostgreSQL-calibrated default) *)
  workload : workload_kind;
  deltas : bool;
      (* ship commutative Add ops where the workload supports them
         (Hotkey's hot-row bump, TPC-B's balance updates) *)
  hot_skew : float; (* Zipf θ for the Hotkey workload *)
  warmup : Time.t;
  measure : Time.t;
  trace : bool;
  monitors : bool;
      (* attach the online protocol monitors (Obs.Monitor) for the whole
         run, including warmup; off by default for performance baselines *)
}

let default =
  {
    system = Replicated Tashkent.Types.Tashkent_mw;
    cluster = Tashkent.Cluster.config ~seed:20060418 Tashkent.Types.Tashkent_mw;
    cross_ratio = 0.;
    clients_per_replica = None;
    part_exec_cpu = None;
    workload = All_updates;
    deltas = false;
    hot_skew = 0.99;
    warmup = Time.sec 5;
    measure = Time.sec 20;
    trace = false;
    monitors = false;
  }

let spec_of cfg =
  let clients = cfg.clients_per_replica in
  match cfg.workload with
  | All_updates -> Workload.Allupdates.profile ?clients_per_replica:clients ()
  | Tpc_b -> Workload.Tpcb.profile ?clients_per_replica:clients ~deltas:cfg.deltas ()
  | Tpc_w -> Workload.Tpcw.profile ?clients_per_replica:clients ()
  | Hotkey ->
      Workload.Hotkey.profile ?clients_per_replica:clients ~skew:cfg.hot_skew
        ~deltas:cfg.deltas ()
  | Part_local ->
      Workload.Partlocal.profile ?clients_per_replica:clients
        ?exec_cpu:cfg.part_exec_cpu
        ~modulo_hosting:(cfg.cluster.hosting = Tashkent.Cluster.Host_modulo)
        ~partitions:cfg.cluster.n_partitions ~cross_ratio:cfg.cross_ratio ()

type result = {
  throughput : float;
  goodput : float;
  resp_ms : float;
  p99_ms : float;
  ro_resp_ms : float;
  commits : int;
  aborts : int;
  abort_rate_measured : float;
  cross_commits : int; (* multi-partition commits (0 when n_partitions = 1) *)
  cross_aborts : int;
  cert_ws_per_fsync : float;
  cert_accept_broadcasts : int;
  cert_mean_accept_batch : float;
  db_ws_per_fsync : float;
  artificial_conflict_pct : float;
  cert_cpu_util : float;
  cert_disk_util : float;
  replica_cpu_util : float;
  replica_disk_util : float;
  apply_parallelism : float;
  apply_stalls : int;
  stage_latency : (string * Obs.Trace.stage_stats) list;
  monitor_violations : string list;
  monitor_events : int;
}

let replicated cfg =
  match cfg.system with
  | Standalone -> invalid_arg "Experiment.scenario: Standalone has no cluster"
  | Replicated mode -> (mode, true)
  | Replicated_nocert mode -> (mode, false)

let scenario cfg =
  let mode, durable_cert = replicated cfg in
  let spec = spec_of cfg in
  let c = cfg.cluster in
  let replica =
    {
      (Scenario.storage_profile spec c.replica) with
      Tashkent.Replica.mode;
      (* performance runs do not take periodic dumps; recovery experiments
         configure them explicitly *)
      mw_recovery = Tashkent.Replica.Dump_based { interval = Time.sec 1_000_000 };
    }
  in
  let cluster =
    {
      c with
      Tashkent.Cluster.mode;
      n_certifiers = (if durable_cert then c.n_certifiers else 1);
      certifier = { c.certifier with durable = durable_cert };
      replica;
    }
  in
  Scenario.config ~trace:cfg.trace ~monitors:cfg.monitors cluster spec

let mean f = function
  | [] -> 0.
  | xs -> List.fold_left (fun a x -> a +. f x) 0. xs /. float_of_int (List.length xs)

(* A per-group mean over every group, weighted by each group's count (one
   group reads its own mean unchanged). *)
let weighted_mean f weight = function
  | [ s ] -> f s
  | ss ->
      let w = Scenario.sum weight ss in
      if w = 0 then 0.
      else
        List.fold_left (fun a s -> a +. (f s *. float_of_int (weight s))) 0. ss
        /. float_of_int w

let measure cfg (sc : Scenario.t) =
  let engine = sc.engine and cluster = sc.cluster and collector = sc.collector in
  (* Warm up, then measure. *)
  Scenario.run_for sc cfg.warmup;
  Workload.Driver.Collector.enable collector;
  Tashkent.Cluster.reset_stats cluster;
  let measure_start = Engine.now engine in
  Scenario.run_for sc cfg.measure;
  let window = Time.diff (Engine.now engine) measure_start in
  (* Every group's leader: with partitioned certification the load and the
     certified stream split across groups, and that split is the
     measurement. *)
  let leaders =
    match List.map Tashkent.Certifier.stats (Tashkent.Cluster.leaders cluster) with
    | [] -> failwith "experiment: certifier leader lost during measurement"
    | ls -> ls
  in
  let replicas = Tashkent.Cluster.replicas cluster in
  let proxies = Scenario.proxies sc in
  let proxy_sum f = Scenario.sum (fun p -> f (Tashkent.Proxy.stats p)) proxies in
  let session_sum f =
    Scenario.sum
      (fun r -> f (Tashkent.Session.stats (Tashkent.Replica.session r)))
      replicas
  in
  let commits = Workload.Driver.Collector.committed collector in
  let aborts = Workload.Driver.Collector.aborted collector in
  let remote_shipped = proxy_sum (fun s -> s.remote_ws_applied) in
  let artificial =
    Scenario.sum (fun (s : Tashkent.Certifier.stats) -> s.artificial_conflicts) leaders
  in
  {
    throughput = Workload.Driver.Collector.throughput_all collector ~window;
    goodput = Workload.Driver.Collector.goodput collector ~window;
    resp_ms = Workload.Driver.Collector.mean_response_ms collector;
    p99_ms = Workload.Driver.Collector.p99_response_ms collector;
    ro_resp_ms = Workload.Driver.Collector.mean_ro_response_ms collector;
    commits;
    aborts;
    abort_rate_measured =
      (if commits + aborts = 0 then 0.
       else float_of_int aborts /. float_of_int (commits + aborts));
    cross_commits =
      session_sum (fun (s : Tashkent.Session.stats) -> s.cross_commits);
    cross_aborts =
      session_sum (fun (s : Tashkent.Session.stats) -> s.cross_aborts);
    cert_ws_per_fsync =
      weighted_mean
        (fun (s : Tashkent.Certifier.stats) -> s.mean_group_size)
        (fun s -> s.log_fsyncs) leaders;
    cert_accept_broadcasts =
      Scenario.sum (fun (s : Tashkent.Certifier.stats) -> s.accept_broadcasts) leaders;
    cert_mean_accept_batch =
      weighted_mean
        (fun (s : Tashkent.Certifier.stats) -> s.mean_accept_batch)
        (fun s -> s.accept_broadcasts) leaders;
    db_ws_per_fsync =
      mean (fun db -> Storage.Wal.mean_group_size (Mvcc.Db.wal db)) (Scenario.dbs sc);
    artificial_conflict_pct =
      (if remote_shipped = 0 then 0.
       else float_of_int artificial /. float_of_int remote_shipped);
    cert_cpu_util =
      mean (fun (s : Tashkent.Certifier.stats) -> s.cpu_utilization) leaders;
    cert_disk_util =
      mean (fun (s : Tashkent.Certifier.stats) -> s.disk_utilization) leaders;
    replica_cpu_util =
      mean (fun r -> Resource.utilization (Tashkent.Replica.cpu r)) replicas;
    replica_disk_util =
      mean (fun r -> Storage.Disk.utilization (Tashkent.Replica.log_disk r)) replicas;
    apply_parallelism = mean Tashkent.Proxy.apply_parallelism proxies;
    apply_stalls = proxy_sum (fun s -> s.apply_stalls);
    stage_latency = Obs.Trace.all_stage_stats sc.trace;
    monitor_violations = Scenario.monitor_violations sc;
    monitor_events = Obs.Monitor.events_seen sc.monitor;
  }

let run_standalone cfg =
  let spec = spec_of cfg in
  let engine = Engine.create () in
  let rng = Rng.create cfg.cluster.seed in
  let cpu = Resource.create engine ~name:"standalone.cpu" ~capacity:1 () in
  let hdd = Storage.Disk.create engine ~rng:(Rng.split rng) ~name:"standalone.disk" () in
  let log_disk, data_disk =
    match cfg.cluster.replica.io with
    | Tashkent.Replica.Shared_io -> (hdd, hdd)
    | Tashkent.Replica.Dedicated_io ->
        (hdd, Storage.Disk.create_ram engine ~rng:(Rng.split rng) ())
  in
  let db_config =
    {
      Mvcc.Db.default_config with
      gc_interval = cfg.cluster.replica.gc_interval;
      page_read_miss = spec.Workload.Spec.page_read_miss;
      page_writeback_per_op = spec.Workload.Spec.page_writeback_per_op;
      background_page_writes_per_sec = spec.Workload.Spec.bg_page_writes_per_sec;
    }
  in
  let db =
    Mvcc.Db.create engine ~rng:(Rng.split rng) ~log_disk ~data_disk
      ~config:db_config ()
  in
  Mvcc.Db.load db (spec.Workload.Spec.initial_rows ~n_replicas:1);
  let collector = Workload.Driver.Collector.create () in
  Workload.Driver.spawn_standalone_clients engine ~db ~cpu ~spec ~rng:(Rng.split rng) ~collector;
  Engine.run ~until:(Time.add (Engine.now engine) cfg.warmup) engine;
  Workload.Driver.Collector.enable collector;
  let measure_start = Engine.now engine in
  Engine.run ~until:(Time.add measure_start cfg.measure) engine;
  let window = Time.diff (Engine.now engine) measure_start in
  let commits = Workload.Driver.Collector.committed collector in
  let aborts = Workload.Driver.Collector.aborted collector in
  {
    throughput = Workload.Driver.Collector.throughput_all collector ~window;
    goodput = Workload.Driver.Collector.goodput collector ~window;
    resp_ms = Workload.Driver.Collector.mean_response_ms collector;
    p99_ms = Workload.Driver.Collector.p99_response_ms collector;
    ro_resp_ms = Workload.Driver.Collector.mean_ro_response_ms collector;
    commits;
    aborts;
    abort_rate_measured =
      (if commits + aborts = 0 then 0.
       else float_of_int aborts /. float_of_int (commits + aborts));
    cross_commits = 0;
    cross_aborts = 0;
    cert_ws_per_fsync = 0.;
    cert_accept_broadcasts = 0;
    cert_mean_accept_batch = 0.;
    db_ws_per_fsync = Storage.Wal.mean_group_size (Mvcc.Db.wal db);
    artificial_conflict_pct = 0.;
    cert_cpu_util = 0.;
    cert_disk_util = 0.;
    replica_cpu_util = Resource.utilization cpu;
    replica_disk_util = Storage.Disk.utilization hdd;
    apply_parallelism = 1.0;
    apply_stalls = 0;
    stage_latency = [];
    monitor_violations = [];
    monitor_events = 0;
  }

let run cfg =
  match cfg.system with
  | Standalone -> run_standalone cfg
  | Replicated _ | Replicated_nocert _ -> measure cfg (Scenario.start (scenario cfg))

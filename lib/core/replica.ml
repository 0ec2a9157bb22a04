open Sim

type io_layout = Shared_io | Dedicated_io

type mw_recovery =
  | Dump_based of { interval : Time.t }
  | Integrity_kept of { wal_sync_interval : Time.t }

type config = {
  mode : Types.mode;
  io : io_layout;
  mw_recovery : mw_recovery;
  eager_precert : bool;
  exec_cpu : Time.t;
  apply_cpu_per_ws : Time.t;
  page_read_miss : float;
  page_writeback_per_op : float;
  bg_page_writes_per_sec : float;
  staleness_bound : Time.t option;
  group_remote_batches : bool;
  apply_workers : int;
  db_size_bytes : int;
  gc_interval : Time.t option;
  max_snapshot_age : Time.t option;
}

(* Dump and restore throughput, bytes/s (paper §9.6: ~3 MB/s dumping,
   ~5 MB/s restoring). *)
let dump_bandwidth = 3_000_000.
let restore_bandwidth = 5_000_000.

let default_config mode =
  {
    mode;
    io = Shared_io;
    mw_recovery = Dump_based { interval = Time.sec 600 };
    eager_precert = true;
    exec_cpu = Time.of_ms 1.5;
    apply_cpu_per_ws = Time.us 65;
    page_read_miss = 0.;
    page_writeback_per_op = 0.;
    bg_page_writes_per_sec = 0.;
    staleness_bound = Some (Time.sec 1);
    group_remote_batches = true;
    apply_workers = 1;
    db_size_bytes = 50_000_000;
    gc_interval = Some (Time.sec 30);
    max_snapshot_age = None;
  }

type recovery_report = {
  took : Time.t;
  restore_took : Time.t;
  replay_took : Time.t;
  restored_version : int;
  writesets_replayed : int;
  final_version : int;
}

(* One hosted partition: its own database (partition-private version
   space), its own proxy (own endpoint, own certifier group), its own
   dump store. Devices and CPU are shared — it is all one machine. *)
type part = {
  part_id : int;
  database : Mvcc.Db.t;
  part_proxy : Proxy.t;
  dumps : Mvcc.Store.t Storage.Dump_store.t;
}

type t = {
  engine : Engine.t;
  rng : Rng.t;
  events : Obs.Events.t;
  label : string;
  cfg : config;
  n_partitions : int;
  partitioner : Partitioner.t;
  cpu_resource : Resource.t;
  log_device : Storage.Disk.t;
  data_device : Storage.Disk.t;
  parts : part list; (* hosted partitions, ascending *)
  the_session : Session.t;
  mutable dump_in_progress : bool;
  mutable dump_count : int;
  mutable up : bool;
  mutable clients : Engine.fiber list;
  mutable respawn_clients : unit -> unit;
}

let name t = t.label
let first_part t = List.hd t.parts
let proxy t = (first_part t).part_proxy
let db t = (first_part t).database
let session t = t.the_session
let partitions t = List.map (fun p -> p.part_id) t.parts
let hosts t ~part = List.exists (fun p -> p.part_id = part) t.parts

let proxy_of t ~part =
  List.find_map
    (fun p -> if p.part_id = part then Some p.part_proxy else None)
    t.parts

let db_of t ~part =
  List.find_map
    (fun p -> if p.part_id = part then Some p.database else None)
    t.parts

let cpu t = t.cpu_resource
let log_disk t = t.log_device
let data_disk t = t.data_device
let is_up t = t.up
let config t = t.cfg

(* Partial replication: each hosted partition loads only its own slice of
   the initial rows; rows of partitions this replica does not subscribe to
   are never stored here. With one partition this is the legacy full load. *)
let load t rows =
  List.iter
    (fun p ->
      let slice =
        List.filter
          (fun (key, _) -> Partitioner.of_key t.partitioner key = p.part_id)
          rows
      in
      Mvcc.Db.load p.database slice)
    t.parts

let use_cpu t span = Resource.use t.cpu_resource span
let register_client t fiber = t.clients <- fiber :: t.clients
let set_respawn_clients t f = t.respawn_clients <- f
let dumps_taken t = t.dump_count

let durability_of cfg =
  match (cfg.mode, cfg.mw_recovery) with
  | Types.Base, _ | Types.Tashkent_api, _ -> Mvcc.Db.Synchronous
  | Types.Tashkent_mw, Dump_based _ -> Mvcc.Db.Asynchronous
  | Types.Tashkent_mw, Integrity_kept { wal_sync_interval } ->
      Mvcc.Db.Periodic wal_sync_interval

(* Periodic full database copy for Tashkent-MW case-1 recovery (§7.1). The
   copy streams through the data device at the configured pace, competing
   with normal traffic, and takes a CPU slice — the paper measured ~13%
   throughput degradation during the 230 s dump. A multi-partition replica
   dumps every hosted partition in one pass (it is one machine copying its
   whole database); each partition's copy enters that partition's store. *)
let spawn_dumper t interval =
  ignore
    (Engine.spawn t.engine (fun () ->
         let rec loop () =
           Engine.sleep t.engine interval;
           if t.up then begin
             t.dump_in_progress <- true;
             let chunk = 1_000_000 in
             let chunks = max 1 (t.cfg.db_size_bytes / chunk) in
             let per_chunk = Time.of_sec (float_of_int chunk /. dump_bandwidth) in
             for _ = 1 to chunks do
               if t.up then begin
                 let started = Engine.now t.engine in
                 Storage.Disk.write t.data_device ~bytes:chunk;
                 Resource.use t.cpu_resource (Time.scale per_chunk 0.13);
                 let elapsed = Time.diff (Engine.now t.engine) started in
                 if Time.(elapsed < per_chunk) then
                   Engine.sleep t.engine (Time.sub per_chunk elapsed)
               end
             done;
             if t.up then begin
               let bytes = t.cfg.db_size_bytes / List.length t.parts in
               List.iter
                 (fun p ->
                   let version, copy = Mvcc.Db.dump p.database in
                   Storage.Dump_store.put p.dumps ~version ~bytes copy)
                 t.parts;
               t.dump_count <- t.dump_count + 1;
               t.dump_in_progress <- false
             end
           end;
           loop ()
         in
         loop ()))

(* Endpoint / metric naming: a single-partition replica keeps the legacy
   names ([replica0], [replica0.db], ...) so seeds and dashboards are
   unchanged; a hosted partition of a multi-partition replica is
   [replica0#p2]. *)
let part_label ~label ~n_partitions part =
  if n_partitions = 1 then label else Printf.sprintf "%s#p%d" label part

let create (env : Env.t) ~name:label ~n_partitions ~groups ~config:cfg () =
  if groups = [] then invalid_arg "Replica.create: no certifier groups";
  let groups =
    List.sort (fun (a, _, _) (b, _, _) -> compare a b) groups
  in
  let engine = env.Env.engine in
  (* One private stream per replica, drawn from the environment's root in
     construction order — the same discipline Cluster used to apply
     externally, so seeds reproduce the same runs. Partition databases
     split off this stream in ascending partition order, after the
     devices, so a 1-partition replica consumes the stream exactly as the
     pre-partitioning code did. *)
  let rng = Env.split_rng env in
  let cpu_resource = Resource.create engine ~name:(label ^ ".cpu") ~capacity:1 () in
  let hdd =
    Storage.Disk.create engine ~rng:(Rng.split rng) ~name:(label ^ ".disk") ()
  in
  let log_device, data_device =
    match cfg.io with
    | Shared_io -> (hdd, hdd)
    | Dedicated_io ->
        (hdd, Storage.Disk.create_ram engine ~rng:(Rng.split rng) ~name:(label ^ ".ram") ())
  in
  let db_config =
    {
      Mvcc.Db.durability = durability_of cfg;
      page_read_miss = cfg.page_read_miss;
      page_writeback_per_op = cfg.page_writeback_per_op;
      background_page_writes_per_sec = cfg.bg_page_writes_per_sec;
      remote_priority = cfg.eager_precert;
      gc_interval = cfg.gc_interval;
      max_snapshot_age = cfg.max_snapshot_age;
    }
  in
  let proxy_config =
    {
      Proxy.mode = cfg.mode;
      apply_cpu_per_ws = cfg.apply_cpu_per_ws;
      staleness_bound = cfg.staleness_bound;
      group_remote_batches = cfg.group_remote_batches;
      apply_workers = cfg.apply_workers;
    }
  in
  let parts =
    List.map
      (fun (part_id, certifiers, req_id_base) ->
        let plabel = part_label ~label ~n_partitions part_id in
        let database =
          Mvcc.Db.create engine ~rng:(Rng.split rng) ~log_disk:log_device
            ~data_disk:data_device ~config:db_config
            ~name:(plabel ^ ".db") ()
        in
        let part_proxy =
          Proxy.create env ~addr:plabel ~part:part_id ~db:database
            ~cpu:cpu_resource ~certifiers ~req_id_base ~config:proxy_config ()
        in
        { part_id; database; part_proxy; dumps = Storage.Dump_store.create () })
      groups
  in
  let the_session =
    Session.create engine ~addr:label ~parts:n_partitions
      ~proxies:(List.map (fun p -> (p.part_id, p.part_proxy)) parts)
  in
  let t =
    {
      engine;
      rng;
      events = Env.events env;
      label;
      cfg;
      n_partitions;
      partitioner = Partitioner.create ~parts:n_partitions;
      cpu_resource;
      log_device;
      data_device;
      parts;
      the_session;
      dump_in_progress = false;
      dump_count = 0;
      up = true;
      clients = [];
      respawn_clients = (fun () -> ());
    }
  in
  (match (cfg.mode, cfg.mw_recovery) with
  | Types.Tashkent_mw, Dump_based { interval } -> spawn_dumper t interval
  | _ -> ());
  (* The proxies registered their own counters above; here we add views of
     the replica-owned devices and the per-partition databases, and make a
     registry reset restart their windows too (mirroring what
     Cluster.reset_stats used to spell out per module). *)
  let reg = env.Env.metrics in
  let g name read = Obs.Registry.gauge reg ("replica." ^ label ^ "." ^ name) read in
  List.iter
    (fun p ->
      let plabel = part_label ~label ~n_partitions p.part_id in
      let gp name read =
        Obs.Registry.gauge reg ("replica." ^ plabel ^ "." ^ name) read
      in
      gp "db.ws_per_fsync" (fun () ->
          Storage.Wal.mean_group_size (Mvcc.Db.wal p.database));
      (* GC-watermark health: live row-version count (must stay bounded
         under sustained load when vacuuming is on), cumulative versions
         pruned, and stale snapshots expired by the max_snapshot_age
         escape hatch. *)
      gp "store.versions" (fun () ->
          float_of_int (Mvcc.Store.version_records (Mvcc.Db.store p.database)));
      gp "store.pruned" (fun () ->
          float_of_int (Mvcc.Store.pruned (Mvcc.Db.store p.database)));
      gp "db.stale_snapshots_expired" (fun () ->
          float_of_int (Mvcc.Db.stale_snapshots_expired p.database));
      gp "db.cluster_gc_floor" (fun () ->
          float_of_int (Mvcc.Db.cluster_gc_floor p.database)))
    parts;
  g "log_disk.fsyncs" (fun () -> float_of_int (Storage.Disk.fsyncs t.log_device));
  g "log_disk.utilization" (fun () -> Storage.Disk.utilization t.log_device);
  g "cpu.utilization" (fun () -> Resource.utilization t.cpu_resource);
  g "dumps_taken" (fun () -> float_of_int t.dump_count);
  Obs.Registry.on_reset reg (fun () ->
      List.iter (fun p -> Mvcc.Db.reset_stats p.database) t.parts;
      Storage.Disk.reset_stats t.log_device;
      if not (t.data_device == t.log_device) then
        Storage.Disk.reset_stats t.data_device);
  t

(* ------------------------------------------------------------------ *)
(* Crash and recovery *)

let part_actor t p = part_label ~label:t.label ~n_partitions:t.n_partitions p.part_id

let crash t =
  t.up <- false;
  (* Each hosted partition proxy is its own protocol actor: its store view
     and any client work die here; recovery re-seeds the view with the
     Snapshot_load below. *)
  List.iter
    (fun p ->
      Obs.Events.emit t.events (Obs.Events.Node_crash { actor = part_actor t p }))
    t.parts;
  List.iter (fun fiber -> Engine.cancel t.engine fiber) t.clients;
  t.clients <- [];
  (* Cross-partition commits in flight through the session become orphans
     of the pre-crash proxies; fail them instead of letting them touch the
     recovered state. The certifier groups still settle their outcome. *)
  Session.abort_inflight t.the_session;
  List.iter
    (fun p ->
      Proxy.pause p.part_proxy;
      Proxy.disconnect p.part_proxy)
    t.parts;
  (* A dump that was still being written is simply lost; only complete
     copies ever enter the store (which is why two are kept, 7.1). *)
  t.dump_in_progress <- false;
  List.iter (fun p -> Mvcc.Db.crash p.database) t.parts

let stream_through_disk t ~bytes ~bandwidth =
  let chunk = 1_000_000 in
  let chunks = max 1 (bytes / chunk) in
  let per_chunk = Time.of_sec (float_of_int chunk /. bandwidth) in
  for _ = 1 to chunks do
    let started = Engine.now t.engine in
    Storage.Disk.read t.data_device ~bytes:chunk;
    let elapsed = Time.diff (Engine.now t.engine) started in
    if Time.(elapsed < per_chunk) then Engine.sleep t.engine (Time.sub per_chunk elapsed)
  done

let recover t =
  let started = Engine.now t.engine in
  let restored_version =
    match (t.cfg.mode, t.cfg.mw_recovery) with
    | Types.Tashkent_mw, Dump_based _ ->
        (* §7.1 case 1: restart every hosted partition from its newest
           intact dump (the dumper writes them all in one pass, so they
           are from the same wall-clock copy). *)
        List.fold_left
          (fun acc p ->
            match Storage.Dump_store.latest p.dumps with
            | Some (version, bytes, copy) ->
                stream_through_disk t ~bytes ~bandwidth:restore_bandwidth;
                Mvcc.Db.restore_from_dump p.database ~version copy;
                if p.part_id = (first_part t).part_id then version else acc
            | None ->
                (* Never dumped: rebuild from scratch (version 0 + full
                   replay). *)
                acc)
          0 t.parts
    | Types.Tashkent_mw, Integrity_kept _ | Types.Base, _ | Types.Tashkent_api, _ ->
        (* §7.2 / §7.1 case 2: the database's own redo. The paper measures
           this at a few seconds for TPC-W. *)
        let version =
          List.fold_left
            (fun acc p ->
              let v = Mvcc.Db.recover p.database in
              if p.part_id = (first_part t).part_id then v else acc)
            0 t.parts
        in
        Engine.sleep t.engine (Rng.time_uniform t.rng ~lo:(Time.sec 2) ~hi:(Time.sec 4));
        version
  in
  t.up <- true;
  List.iter
    (fun p ->
      Proxy.reconnect p.part_proxy;
      Proxy.resume p.part_proxy;
      Obs.Events.emit t.events
        (Obs.Events.Node_recover { actor = part_actor t p });
      (* The restored store (dump or redo) is the new baseline; everything
         the replica missed arrives as installs above it via refresh. *)
      Obs.Events.emit t.events
        (Obs.Events.Snapshot_load
           {
             actor = part_actor t p;
             part = p.part_id;
             version = Mvcc.Db.current_version p.database;
           }))
    t.parts;
  let restore_done = Engine.now t.engine in
  (* Fetch and apply everything missed while down (proxy_log replay),
     partition by partition — each proxy refreshes from its own group. *)
  let applied () =
    List.fold_left
      (fun acc p -> acc + (Proxy.stats p.part_proxy).remote_ws_applied)
      0 t.parts
  in
  let before = applied () in
  List.iter (fun p -> Proxy.refresh p.part_proxy) t.parts;
  let replayed = applied () - before in
  t.respawn_clients ();
  {
    took = Time.diff (Engine.now t.engine) started;
    restore_took = Time.diff restore_done started;
    replay_took = Time.diff (Engine.now t.engine) restore_done;
    restored_version;
    writesets_replayed = replayed;
    final_version = Proxy.replica_version (proxy t);
  }

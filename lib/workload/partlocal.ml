open Sim

let rows_per_bucket = 64

let key ~replica_ix ~client ~row =
  Mvcc.Key.make ~table:"pl" ~row:(Printf.sprintf "%d.%d.%d" replica_ix client row)

(* The first [rows_per_bucket] rows of the (replica, client) keyspace that
   the cluster partitioner maps onto [part]. The scan order (row 0, 1,
   2, ...) is fixed, so the pools — and therefore the workload — are a
   pure function of (partitions, replica, client). *)
let bucket pt ~replica_ix ~client ~part =
  let rec scan row acc n =
    if n = rows_per_bucket then Array.of_list (List.rev acc)
    else
      let k = key ~replica_ix ~client ~row in
      if Tashkent.Partitioner.of_key pt k = part then
        scan (row + 1) (k :: acc) (n + 1)
      else scan (row + 1) acc n
  in
  scan 0 [] 0

let profile ?(clients_per_replica = 10) ?(exec_cpu = Time.of_ms 1.65)
    ?(modulo_hosting = false) ~partitions ?(cross_ratio = 0.) () =
  if partitions < 1 then invalid_arg "Partlocal.profile: partitions < 1";
  if cross_ratio < 0. || cross_ratio > 1. then
    invalid_arg "Partlocal.profile: cross_ratio outside [0, 1]";
  if modulo_hosting && cross_ratio > 0. then
    invalid_arg
      "Partlocal.profile: cross_ratio must be 0 under modulo hosting (a \
       replica hosting one partition cannot span two)";
  let pt = Tashkent.Partitioner.create ~parts:partitions in
  (* Pools are filled as they are first used, and belong to the domain
     that filled them, like every key they hold. *)
  let caches = Spec.keys_per_cluster (fun ~n_replicas:_ -> Hashtbl.create 64) in
  let pool ~n_replicas ~replica_ix ~client ~part =
    let cache = caches ~n_replicas in
    match Hashtbl.find_opt cache (replica_ix, client, part) with
    | Some p -> p
    | None ->
        let p = bucket pt ~replica_ix ~client ~part in
        Hashtbl.add cache (replica_ix, client, part) p;
        p
  in
  {
    Spec.name =
      Printf.sprintf "partlocal.p%d.x%d" partitions
        (int_of_float ((cross_ratio *. 100.) +. 0.5));
    clients_per_replica;
    skew = 0.;
    think_time = Time.zero;
    exec_cpu = (fun _ -> exec_cpu);
    page_read_miss = 0.;
    page_writeback_per_op = 0.;
    bg_page_writes_per_sec = 12.;
    db_size_bytes = 30_000_000;
    initial_rows =
      (fun ~n_replicas ->
        List.concat
          (List.init n_replicas (fun replica_ix ->
               List.concat
                 (List.init clients_per_replica (fun client ->
                      List.concat
                        (List.init partitions (fun part ->
                             Array.to_list (pool ~n_replicas ~replica_ix ~client ~part)
                             |> List.map (fun k -> (k, Mvcc.Value.int 0)))))))));
    new_tx =
      (fun ~rng ~client ~replica_ix ~n_replicas ->
        (* Under modulo hosting the replica subscribes to exactly one
           partition, so every transaction's home is pinned to it (matching
           Cluster.Host_modulo's replica_ix mod n_partitions). *)
        let home =
          if modulo_hosting then replica_ix mod partitions
          else Rng.int rng partitions
        in
        let cross =
          (not modulo_hosting) && partitions > 1 && Rng.chance rng cross_ratio
        in
        let home_pool = pool ~n_replicas ~replica_ix ~client ~part:home in
        let row1 = Rng.int rng rows_per_bucket in
        let k1 = home_pool.(row1) in
        let k2 =
          if cross then
            let other = (home + 1 + Rng.int rng (partitions - 1)) mod partitions in
            (pool ~n_replicas ~replica_ix ~client ~part:other).(Rng.int rng rows_per_bucket)
          else
            home_pool.((row1 + 1 + Rng.int rng (rows_per_bucket - 1))
                       mod rows_per_bucket)
        in
        let value = Rng.int rng 1_000_000 in
        {
          Spec.kind = Spec.Update;
          run =
            (fun ctx ->
              ctx.Spec.write k1 (Mvcc.Writeset.Update (Mvcc.Value.int value));
              ctx.Spec.write k2 (Mvcc.Writeset.Update (Mvcc.Value.int (value + 1))));
        });
  }

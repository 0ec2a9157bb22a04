open Sim

let rows_per_client = 64

let key ~replica_ix ~client ~row =
  Mvcc.Key.make ~table:"au" ~row:(Printf.sprintf "%d.%d.%d" replica_ix client row)

let profile ?(clients_per_replica = 10) () =
  (* Row [row] of a client at
     [((replica_ix * clients_per_replica) + client) * rows_per_client + row]. *)
  let keys =
    Spec.keys_per_cluster (fun ~n_replicas ->
        Array.init (n_replicas * clients_per_replica * rows_per_client) (fun i ->
            let c = i / rows_per_client in
            key ~replica_ix:(c / clients_per_replica) ~client:(c mod clients_per_replica)
              ~row:(i mod rows_per_client)))
  in
  {
    Spec.name = "allupdates";
    clients_per_replica;
    skew = 0.;
    think_time = Time.zero;
    exec_cpu = (fun _ -> Time.of_ms 1.65);
    page_read_miss = 0.;
    page_writeback_per_op = 0.;
    bg_page_writes_per_sec = 12.;
    db_size_bytes = 30_000_000;
    initial_rows =
      (fun ~n_replicas ->
        Array.to_list (Array.map (fun key -> (key, Mvcc.Value.int 0)) (keys ~n_replicas)));
    new_tx =
      (fun ~rng ~client ~replica_ix ~n_replicas ->
        let row1 = Rng.int rng rows_per_client in
        let row2 = (row1 + 1 + Rng.int rng (rows_per_client - 1)) mod rows_per_client in
        let value = Rng.int rng 1_000_000 in
        let keys = keys ~n_replicas in
        let first = ((replica_ix * clients_per_replica) + client) * rows_per_client in
        {
          Spec.kind = Spec.Update;
          run =
            (fun ctx ->
              ctx.Spec.write keys.(first + row1)
                (Mvcc.Writeset.Update (Mvcc.Value.int value));
              ctx.Spec.write keys.(first + row2)
                (Mvcc.Writeset.Update (Mvcc.Value.int (value + 1))));
        });
  }

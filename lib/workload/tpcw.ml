open Sim

let update_fraction = 0.20
let bestseller_count = 50
let bestseller_bias = 0.10

let item_key i = Mvcc.Key.make ~table:"item" ~row:(Printf.sprintf "%06d" i)
let cart_key ~replica_ix ~client = Mvcc.Key.make ~table:"cart" ~row:(Printf.sprintf "%d.%d" replica_ix client)

let order_key ~replica_ix ~client n =
  Mvcc.Key.make ~table:"order" ~row:(Printf.sprintf "%d.%d.%d" replica_ix client n)

let order_payload = String.make 180 'o'
let cart_payload = String.make 80 'c'

let profile ?(clients_per_replica = 5) ?(items = 10_000) () =
  let order_counters = Hashtbl.create 64 in
  let next_order ~replica_ix ~client =
    let key = (replica_ix, client) in
    let n = Option.value ~default:0 (Hashtbl.find_opt order_counters key) in
    Hashtbl.replace order_counters key (n + 1);
    n
  in
  (* Items by number, carts by [replica_ix * clients_per_replica + client]. *)
  let keys =
    Spec.keys_per_cluster (fun ~n_replicas ->
        ( Array.init items item_key,
          Array.init (n_replicas * clients_per_replica) (fun i ->
              cart_key ~replica_ix:(i / clients_per_replica) ~client:(i mod clients_per_replica))
        ))
  in
  let pick_item rng =
    if Rng.chance rng bestseller_bias then Rng.int rng bestseller_count
    else Rng.int rng items
  in
  {
    Spec.name = "tpcw";
    clients_per_replica;
    skew = 0.;
    think_time = Time.of_ms 100.;
    exec_cpu =
      (fun rng ->
        (* browsing-dominated CPU demand: 25–75 ms *)
        Rng.time_uniform rng ~lo:(Time.of_ms 25.) ~hi:(Time.of_ms 75.));
    page_read_miss = 0.3;
    page_writeback_per_op = 2.0;
    bg_page_writes_per_sec = 0.;
    db_size_bytes = 700_000_000;
    initial_rows =
      (fun ~n_replicas ->
        let item_keys, _ = keys ~n_replicas in
        List.init items (fun i -> (item_keys.(i), Mvcc.Value.int 500)));
    new_tx =
      (fun ~rng ~client ~replica_ix ~n_replicas ->
        let item_keys, cart_keys = keys ~n_replicas in
        let item_key i = item_keys.(i) in
        if not (Rng.chance rng update_fraction) then
          (* Browsing: read a handful of items. *)
          let n_reads = Rng.int_in_range rng ~lo:3 ~hi:8 in
          let targets = List.init n_reads (fun _ -> pick_item rng) in
          {
            Spec.kind = Spec.Read_only;
            run = (fun ctx -> List.iter (fun i -> ignore (ctx.Spec.read (item_key i))) targets);
          }
        else if Rng.chance rng 0.5 then
          (* Shopping-cart update: private row, a couple of item reads. *)
          let reads = List.init 3 (fun _ -> pick_item rng) in
          {
            Spec.kind = Spec.Update;
            run =
              (fun ctx ->
                List.iter (fun i -> ignore (ctx.Spec.read (item_key i))) reads;
                ctx.Spec.write
                  cart_keys.((replica_ix * clients_per_replica) + client)
                  (Mvcc.Writeset.Update (Mvcc.Value.text cart_payload)));
          }
        else begin
          (* Buy confirm: order insert + stock decrement of 1–4 items. *)
          let n_items = Rng.int_in_range rng ~lo:1 ~hi:4 in
          let targets = List.init n_items (fun _ -> pick_item rng) in
          let order = next_order ~replica_ix ~client in
          {
            Spec.kind = Spec.Update;
            run =
              (fun ctx ->
                List.iter
                  (fun i ->
                    let stock =
                      match ctx.Spec.read (item_key i) with
                      | Some v -> Mvcc.Value.as_int v
                      | None -> 0
                    in
                    ctx.Spec.write (item_key i)
                      (Mvcc.Writeset.Update (Mvcc.Value.int (stock - 1))))
                  targets;
                ctx.Spec.write
                  (order_key ~replica_ix ~client order)
                  (Mvcc.Writeset.Insert (Mvcc.Value.text order_payload)));
          }
        end);
  }

open Sim

(* Zipfian hot-key increment workload: the contended regime the delta
   certification fast path targets. Every transaction bumps one globally
   shared counter row drawn from a Zipf(θ) popularity distribution over a
   small hot set, plus one private row (so writesets are never empty of
   per-client state and apply work stays realistic). In [deltas] mode the
   hot bump ships as a commutative [Writeset.Add]; in blind mode it is the
   classic read-modify-write final image, which makes every pair of
   concurrent transactions on the same hot row a certification conflict. *)

let hot_key row = Mvcc.Key.make ~table:"hot" ~row:(string_of_int row)

let private_key ~replica_ix ~client row =
  Mvcc.Key.make ~table:"hk" ~row:(Printf.sprintf "%d.%d.%d" replica_ix client row)

let private_rows_per_client = 16
let hot_keys_default = 64

(* Zipf sampler over ranks 0..n-1 with exponent theta: precompute the
   cumulative distribution once, then invert a uniform draw by binary
   search. Rank i has weight 1/(i+1)^theta. *)
let zipf_cdf ~n ~theta =
  let weights = Array.init n (fun i -> 1. /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0. weights in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for i = 0 to n - 1 do
    acc := !acc +. (weights.(i) /. total);
    cdf.(i) <- !acc
  done;
  (* Guard against floating-point shortfall at the top. *)
  cdf.(n - 1) <- 1.;
  cdf

let zipf_sample (cdf : float array) u =
  let n = Array.length cdf in
  let rec search lo hi =
    if lo >= hi then lo
    else
      let mid = (lo + hi) / 2 in
      if cdf.(mid) < u then search (mid + 1) hi else search lo mid
  in
  search 0 (n - 1)

let profile ?(clients_per_replica = 10) ?(hot_keys = hot_keys_default)
    ?(skew = 0.99) ?(deltas = true) () =
  if hot_keys < 1 then invalid_arg "Hotkey.profile: hot_keys must be >= 1";
  if skew < 0. then invalid_arg "Hotkey.profile: skew must be >= 0";
  let cdf = zipf_cdf ~n:hot_keys ~theta:skew in
  (* Hot rows by rank; private row [row] of a client at
     [((replica_ix * clients_per_replica) + client) * private_rows_per_client + row]. *)
  let keys =
    Spec.keys_per_cluster (fun ~n_replicas ->
        ( Array.init hot_keys hot_key,
          Array.init (n_replicas * clients_per_replica * private_rows_per_client) (fun i ->
              let c = i / private_rows_per_client in
              private_key ~replica_ix:(c / clients_per_replica)
                ~client:(c mod clients_per_replica) (i mod private_rows_per_client)) ))
  in
  {
    Spec.name = (if deltas then "hotkey" else "hotkey-blind");
    clients_per_replica;
    skew;
    think_time = Time.zero;
    exec_cpu = (fun _ -> Time.of_ms 1.5);
    page_read_miss = 0.;
    page_writeback_per_op = 0.;
    bg_page_writes_per_sec = 0.;
    db_size_bytes = 30_000_000;
    initial_rows =
      (fun ~n_replicas ->
        let hot_keys, private_keys = keys ~n_replicas in
        let rows keys = Array.to_list (Array.map (fun key -> (key, Mvcc.Value.int 0)) keys) in
        rows hot_keys @ rows private_keys);
    new_tx =
      (fun ~rng ~client ~replica_ix ~n_replicas ->
        let hot_keys, private_keys = keys ~n_replicas in
        let hot = hot_keys.(zipf_sample cdf (Rng.float rng)) in
        let bump = 1 + Rng.int rng 100 in
        let priv =
          private_keys.((((replica_ix * clients_per_replica) + client) * private_rows_per_client)
                        + Rng.int rng private_rows_per_client)
        in
        let priv_value = Rng.int rng 1_000_000 in
        {
          Spec.kind = Spec.Update;
          run =
            (fun ctx ->
              (if deltas then ctx.Spec.write hot (Mvcc.Writeset.Add bump)
               else
                 let current =
                   match ctx.Spec.read hot with
                   | Some v -> Mvcc.Value.as_int v
                   | None -> 0
                 in
                 ctx.Spec.write hot
                   (Mvcc.Writeset.Update (Mvcc.Value.int (current + bump))));
              ctx.Spec.write priv
                (Mvcc.Writeset.Update (Mvcc.Value.int priv_value)));
        });
  }

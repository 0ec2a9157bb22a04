type txctx = {
  read : Mvcc.Key.t -> Mvcc.Value.t option;
  write : Mvcc.Key.t -> Mvcc.Writeset.op -> unit;
  client_rng : Sim.Rng.t;
}

exception Tx_failed

type kind = Read_only | Update

type tx_body = { kind : kind; run : txctx -> unit }

type t = {
  name : string;
  clients_per_replica : int;
  skew : float;
  think_time : Sim.Time.t;
  exec_cpu : Sim.Rng.t -> Sim.Time.t;
  page_read_miss : float;
  page_writeback_per_op : float;
  bg_page_writes_per_sec : float;
  db_size_bytes : int;
  initial_rows : n_replicas:int -> (Mvcc.Key.t * Mvcc.Value.t) list;
  new_tx :
    rng:Sim.Rng.t -> client:int -> replica_ix:int -> n_replicas:int -> tx_body;
}

let keys_per_cluster build =
  let cache = ref None in
  fun ~n_replicas ->
    let self = Domain.self () in
    match !cache with
    | Some (domain, n, keys) when domain = self && n = n_replicas -> keys
    | _ ->
        let keys = build ~n_replicas in
        cache := Some (self, n_replicas, keys);
        keys

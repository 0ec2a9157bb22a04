(** Workload descriptions, decoupled from what executes them (a replicated
    proxy or a standalone database). *)

(** The operations a transaction body may perform. [abort_requested] lets a
    body roll itself back (unused by the paper's benchmarks but part of a
    complete client API). *)
type txctx = {
  read : Mvcc.Key.t -> Mvcc.Value.t option;
  write : Mvcc.Key.t -> Mvcc.Writeset.op -> unit;
      (** raises {!Tx_failed} when the executor reports an abort *)
  client_rng : Sim.Rng.t;
}

exception Tx_failed

type kind = Read_only | Update

type tx_body = { kind : kind; run : txctx -> unit }

type t = {
  name : string;
  clients_per_replica : int;
  skew : float;
      (** Zipfian exponent θ of the workload's key-popularity distribution;
          0.0 for the uniform-access profiles. Purely descriptive for the
          harness — the profile's [new_tx] already bakes the skew in. *)
  think_time : Sim.Time.t;
  exec_cpu : Sim.Rng.t -> Sim.Time.t;
      (** CPU service demand of one transaction, drawn per transaction *)
  page_read_miss : float;
  page_writeback_per_op : float;
  bg_page_writes_per_sec : float;
  db_size_bytes : int;
  initial_rows : n_replicas:int -> (Mvcc.Key.t * Mvcc.Value.t) list;
  new_tx :
    rng:Sim.Rng.t -> client:int -> replica_ix:int -> n_replicas:int -> tx_body;
}

val keys_per_cluster : (n_replicas:int -> 'a) -> n_replicas:int -> 'a
(** Memoise a profile's fixed-row keys, so that a transaction looks its
    rows up instead of formatting and interning their names. The keys are
    built again only for another replica count or in another domain: a
    {!Mvcc.Key.t} belongs to the domain that made it. *)

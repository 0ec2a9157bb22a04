(** AllUpdates restructured for partitioned certification: every
    transaction writes two rows, and each client owns a private pool of
    64 rows {e per key partition} (pools are carved out of
    the client's keyspace with the same FNV partitioner the cluster
    routes by, so a pool's rows certify entirely within one certifier
    group).

    Per transaction, a uniformly random {e home} partition is drawn; with
    probability [cross_ratio] the second row comes from a different
    partition — a cross-partition transaction that must commit atomically
    across two certifier groups — otherwise both rows are home-local and
    the transaction certifies with zero cross-group coordination. Like
    AllUpdates, clients never write each other's rows, so measured abort
    rates isolate the protocol (and, at [cross_ratio > 0], the
    cross-partition pin) rather than data contention.

    [cross_ratio = 0.] (the default) is the pure partition-local scaling
    workload: certified goodput should scale near-linearly with the
    number of certifier groups. *)

val profile :
  ?clients_per_replica:int ->
  ?exec_cpu:Sim.Time.t ->
  ?modulo_hosting:bool ->
  partitions:int ->
  ?cross_ratio:float ->
  unit ->
  Spec.t
(** [exec_cpu] is the per-transaction replica execution cost (default
    1.65 ms, the PostgreSQL calibration); the partition-scaling benchmark
    lowers it so the components partitioning actually shards — the
    certifier and the apply stream — sit on the critical path.

    [modulo_hosting] (default false) pins every transaction's home to
    partition [replica_ix mod partitions] and disables cross-partition
    draws, matching {!Tashkent.Cluster.Host_modulo} where each replica
    subscribes to exactly one partition.

    @raise Invalid_argument if [partitions < 1], [cross_ratio] is outside
    [[0, 1]], or [modulo_hosting] is combined with [cross_ratio > 0].
    [partitions] must equal the cluster's [n_partitions], or routing and
    pooling disagree. *)

(** Per-replica partition router: every workload client's way into the
    replica.

    A session sits between the workload driver and a replica's proxies —
    one {!Proxy} per partition the replica hosts (partial replication).
    Reads and writes are routed to the owning partition through the
    cluster's shared {!Partitioner}. A sub-transaction is opened on the
    first access to each partition; in a 1-partition cluster the one
    sub-transaction is opened eagerly at {!begin_tx}, so its snapshot is
    taken before the client executes, as with a plain proxy client.

    Commit dispatches on how many partitions accumulated writes:

    - none — read-only; every sub-transaction releases its snapshot and
      the commit succeeds locally;
    - one — {!Proxy.commit} through that partition's certifier group: a
      one-fragment certification request, with zero cross-partition
      coordination;
    - several — a cross-partition transaction: the session mints a
      {!Types.gtx_id}, builds one {!Types.xfragment} per updating
      partition, and drives every fragment's [Proxy.commit ~cross]
      concurrently, each sending the same request (every fragment, one
      transaction id) to its own partition's group. The involved
      certifier groups settle the outcome with the coordinator-less
      prepare/vote/decide protocol (see {!Certifier}); the fragments
      commit atomically — all or none. *)

type t

val create :
  Sim.Engine.t -> addr:string -> parts:int -> proxies:(int * Proxy.t) list -> t
(** [parts] is the cluster-wide partition count (it seeds the
    {!Partitioner}, which must agree across every replica and workload);
    [proxies] maps each {e hosted} partition to its proxy — a subset of
    [0..parts-1] under partial replication. [addr] names the session in
    fiber labels and {!Types.gtx_id} origins, so it must be unique per
    replica.

    @raise Invalid_argument if [proxies] is empty. *)

val addr : t -> string

val partitions : t -> int list
(** Hosted partitions, ascending. *)

(** {1 Client interface} *)

type tx

val begin_tx : t -> tx

val read : t -> tx -> Mvcc.Key.t -> Mvcc.Value.t option
(** Routed to the owning partition's sub-transaction (opened on first
    use, or at {!begin_tx} with one partition).

    @raise Invalid_argument if the key's partition is not hosted here. *)

val write :
  t -> tx -> Mvcc.Key.t -> Mvcc.Writeset.op -> (unit, Proxy.failure) result

val abort : t -> tx -> unit

val commit : t -> tx -> (unit, Proxy.failure) result
(** Blocking. See the module description for the three commit shapes.
    A cross-partition result is atomic: [Ok] means every fragment
    committed; [Error (Cert_abort _)] means none did. [Error (Local_abort _)]
    can also mean the replica failed mid-flight (crash/pause) — the
    certified outcome is then whatever the certifier groups decided, and
    recovery replay installs it. *)

(** {1 Fault hooks} *)

val abort_inflight : t -> unit
(** Called by the replica's crash path: transactions begun before this
    call fail their commit with [Local_abort Preempted] instead of
    touching the rebuilt proxies. *)

(** {1 Statistics} *)

type stats = {
  read_only_commits : int;
  local_commits : int;  (** single-partition update commits *)
  cross_commits : int;  (** cross-partition transactions committed (counted
                            once, not per fragment) *)
  cross_aborts : int;   (** cross-partition transactions that failed *)
}

val stats : t -> stats

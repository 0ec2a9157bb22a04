(** A multi-Paxos node: proposer, acceptor and learner combined.

    The paper (§7.3) replicates the certifier over a small set of nodes
    with an elected leader: the leader certifies, sends the new state (log
    records) to all certifiers, everyone writes it to disk, and once a
    majority has acknowledged, the records are committed. This module is
    that replication layer, generic in the value type.

    Integration contract: the owner gives the node a [send] function and
    feeds every incoming wire message to {!handle}. Acceptor state
    (promises and accepted slot values) is persisted in a {!Storage.Wal}
    whose disk is the node's log device, so a leader proposing many values
    concurrently groups their disk writes into few fsyncs — the behaviour
    the whole paper hinges on. Values committed by the group are delivered
    to [on_deliver] exactly once per node, in slot order.

    Leadership: heartbeat timeouts trigger an election (Prepare/Promise
    with accepted-value recovery, then re-proposal under the new ballot).
    A node that crashes loses its un-synced WAL tail and rejoins via state
    transfer from the current leader. *)

type 'v entry_value = 'v Wal_record.entry_value = Noop | Value of 'v

type 'v slot_value = { slot : int; ballot : Ballot.t; value : 'v entry_value }

(** The wire protocol, exposed concretely so tests can inject crafted
    messages (e.g. duplicate [Accept_ok]s) through {!handle}. *)
type 'v message =
  | Prepare of { ballot : Ballot.t; from : string; commit_index : int }
  | Promise of {
      ballot : Ballot.t;
      from : string;
      accepted : 'v slot_value list;
      commit_index : int;
    }
  | Prepare_reject of { from : string; higher : Ballot.t }
  | Accept of { ballot : Ballot.t; from : string; entries : 'v slot_value list }
  | Accept_ok of { ballot : Ballot.t; from : string; slots : int list }
  | Accept_reject of { from : string; higher : Ballot.t }
  | Commit of { from : string; entries : (int * 'v entry_value) list; commit_index : int }
  | Heartbeat of { ballot : Ballot.t; from : string; commit_index : int }
  | Ask_transfer of { from : string; applied : int }

val message_bytes : ('v -> int) -> 'v message -> int
(** Wire size estimate, given a value sizer. *)

type 'v t

val election_timeout_hi : Sim.Time.t
(** Upper bound of a follower's randomised election timeout (160 ms; the
    lower bound is 80 ms and a leader heartbeats every 20 ms). *)

val create :
  Sim.Engine.t ->
  rng:Sim.Rng.t ->
  id:string ->
  peers:string list ->
  disk:Storage.Disk.t ->
  send:(dst:string -> 'v message -> unit) ->
  on_deliver:(int -> 'v -> unit) ->
  unit ->
  'v t
(** [peers] excludes [id]. The node starts as a follower; the node with the
    lowest id typically wins the first election. Spawns its timer fibers
    immediately. *)

val id : 'v t -> string
val handle : 'v t -> 'v message -> unit
(** Feed an incoming message. Cheap; heavy work (disk writes) runs in
    internal fibers. *)

(** {1 Proposing} *)

val is_leader : 'v t -> bool
val leader_hint : 'v t -> string option

val leader_ready : 'v t -> bool
(** True once this node is leader {e and} has delivered every entry it
    inherited (re-proposed) from previous leaderships. A state machine
    layered on the log must not answer reads against it (e.g. certify)
    before this point: the log may still be missing majority-accepted
    entries from the previous term. Always false on non-leaders. *)

val propose : 'v t -> 'v -> bool
(** Submit a value for replication. Returns false (value dropped) if this
    node is not currently leader — the caller should retry via
    {!leader_hint}. Delivery to [on_deliver] across the group signals
    success. *)

val propose_batch : 'v t -> 'v list -> bool
(** Submit several values at once: contiguous slots, ONE multi-entry
    Accept broadcast, and one WAL batch-append (hence at most one fsync)
    per acceptor for the whole batch. [propose_batch t []] is a no-op that
    reports leadership. *)

(** {1 Introspection} *)

val commit_index : 'v t -> int
val pending_ack_slots : 'v t -> int
(** The uncommitted slots for which this node, as leader, holds at least
    one Accept_ok. 0 when not leader. An idle group's leader holds none. *)

val current_ballot : 'v t -> Ballot.t
val wal : 'v t -> 'v Wal_record.t Storage.Wal.t

val accept_broadcasts : 'v t -> int
(** Accept broadcasts sent while leader — each covers a whole batch. *)

val mean_accept_batch : 'v t -> float
(** Mean entries per Accept broadcast (> 1 under load once the certifier
    batches). *)

val reset_batch_stats : 'v t -> unit

val abdicate : 'v t -> backoff:Sim.Time.t -> unit
(** Degraded-disk failover: if this node is leader, step down to follower
    without learning a new ballot and defer this node's own next election
    attempt by [backoff], so a healthy peer (whose randomised timeout is at
    most [election_timeout_hi]) wins the next election. No-op on
    non-leaders. *)

(** {1 Crash and recovery} *)

type wal_fault =
  | Torn_tail
      (** the first un-synced record was mid-write at power-off and
          survives as a partial record *)
  | Corrupt_tail
      (** the newest durable record's payload no longer matches its
          checksum *)

val crash : ?wal_fault:wal_fault -> 'v t -> unit
(** Lose volatile state and the un-synced WAL tail; the node stops
    reacting to messages and timers until {!recover}. [wal_fault] leaves
    the log with a torn or corrupt tail for the recovery scan to find. *)

val recover : 'v t -> unit
(** Checksum-scan the WAL ({!Storage.Wal.recover}), rebuild
    promises/accepted values from the verified prefix, resume as a
    follower, and catch up via state transfer. Safe against torn/corrupt
    tails: a record that failed the scan was never acked to a peer (its
    Promise/Accept_ok is only sent after the sync returns), except that
    promises are double-written so even corruption of the newest durable
    record cannot make this acceptor un-promise. *)

val is_up : 'v t -> bool

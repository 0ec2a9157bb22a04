(** Deterministic fault injection for the replicated certifier.

    A fault {e plan} is a list of timed actions — partitions, message-loss
    bursts, latency spikes, and crash/recover of certifier Paxos nodes or
    whole replicas — applied to a running {!Tashkent.Cluster} by an
    injector fiber. Plans are either scripted (regression scenarios) or
    drawn from a seeded RNG ({!random_plan}), so every chaos run replays
    bit-identically from its seed.

    The fault model extends the paper's §7: certifier nodes fail by
    crash-stop and rejoin via Paxos state transfer (a minority may be down
    at any moment); replicas fail independently and recover via dump
    restore or redo plus writeset replay (§7.1 cases 1 and 2); the network
    may partition, lose, or delay messages but does not corrupt them — the
    {e storage} layer, however, may: disks stall ({!Disk_stall}) or run
    uniformly slow ({!Disk_degrade}), and a crash can leave the WAL with a
    partially-written final record ({!Torn_crash}) or one whose checksum no
    longer verifies ({!Corrupt_tail}). Recovery runs a checksum scan
    ({!Storage.Wal.recover}) that truncates at the first torn/corrupt
    record; this is safe because every durability ack follows the sync
    (write-ahead discipline), so a truncated record was never acked. A
    certifier leader whose WAL flush is still in flight after 250 ms
    abdicates so a healthy-disk acceptor can lead
    ({!Tashkent.Certifier.disk_failovers}). *)

(** A node of the cluster, by role and index (as in
    {!Tashkent.Cluster.create}: certifiers [cert0..], replicas
    [replica0..]). *)
type node = Cert of int | Rep of int

(** Protocol-message classes a targeted tap rule ({!Delay_msg},
    {!Drop_msg}, {!Crash_on_msg}) can match at the network layer. *)
type msg_class =
  | M_cert_request  (** proxy → certifier certification, any fragment count *)
  | M_cert_reply  (** certifier → proxy verdict (the durable ack) *)
  | M_fetch_reply  (** certifier → proxy refresh/backfill answer *)
  | M_xvote  (** leader → leader cross-partition vote gossip *)
  | M_paxos_prepare
  | M_paxos_accept
  | M_paxos_accept_ok  (** the acceptor ack that completes a majority *)
  | M_paxos_commit
  | M_paxos_heartbeat

val msg_class_name : msg_class -> string

type action =
  | Partition of node list * node list
      (** Cut every link between the two groups (both directions). *)
  | Heal of node list * node list
      (** Undo exactly the cross-group cuts of a matching {!Partition}. *)
  | Heal_all
      (** Heal every outstanding partition, restore spiked links, and
          clear any drop rate. *)
  | Drop_burst of { rate : float; duration : Sim.Time.t }
      (** Uniform message loss on all links for [duration]. *)
  | Latency_spike of {
      a : node;
      b : node;
      extra : Sim.Time.t;
      duration : Sim.Time.t;
    }  (** Extra one-way latency on the [a]–[b] link for [duration]. *)
  | Crash_certifier of int
  | Recover_certifier of int
  | Crash_group_leader of int
      (** Crash whichever certifier currently leads the given partition's
          group (no-op during its election); group 0 is the only group of
          a 1-partition cluster. *)
  | Recover_group_crashed of int
      (** Recover that group's most recent leader victim: of a
          {!Crash_group_leader}, or for group 0 also of a leader-targeted
          {!Torn_crash} or {!Corrupt_tail}. *)
  | Crash_replica of int
  | Recover_replica of int
  | Disk_stall of { cert : int option; extra : Sim.Time.t; duration : Sim.Time.t }
      (** Every op on the target certifier's log disk takes [extra] longer
          for [duration]. [cert = None] targets whoever leads at fire time
          (no-op during an election). A stall above the certifier's fsync
          deadline triggers degraded-disk failover. *)
  | Disk_degrade of { cert : int option; factor : float; duration : Sim.Time.t }
      (** Multiply the target disk's op latencies by [factor] for
          [duration]. *)
  | Torn_crash of { cert : int option }
      (** Crash the target certifier mid-write: its WAL keeps a
          partially-written final record for the recovery scan to truncate.
          With [cert = None] the victim is group 0's leader and goes onto
          its {!Recover_group_crashed} stack, like [Crash_group_leader 0]. *)
  | Corrupt_tail of { cert : int option }
      (** Crash the target certifier and corrupt the newest durable WAL
          record, so its checksum fails at recovery. Victim handling as in
          {!Torn_crash}. *)
  | Delay_msg of {
      cls : msg_class;
      src : node option;  (** [None] matches any sender *)
      dst : node option;  (** [None] matches any receiver *)
      nth : int;  (** 1-based: fire on the nth matching send after arming *)
      extra : Sim.Time.t;
    }
      (** Arm a tap that delays exactly the [nth] message matching
          [(cls, src, dst)] by [extra] — e.g. the decisive Paxos
          accept-ack. Per-link FIFO still applies, so later messages on
          the same link queue behind it (a stalled TCP connection). *)
  | Drop_msg of { cls : msg_class; src : node option; dst : node option; nth : int }
      (** Arm a tap that drops exactly the [nth] matching message — e.g.
          the Nth cross-partition vote. *)
  | Crash_on_msg of {
      cls : msg_class;
      src : node option;
      dst : node option;
      nth : int;
      victim : node;
    }
      (** Crash [victim] at the instant the [nth] matching message is
          sent (the message itself still flows) — e.g. a certifier
          between appending an entry and announcing it. Pair with a
          recover action; an unfired rule is disarmed by {!Heal_all}. *)

val pp_action : Format.formatter -> action -> unit

type plan = (Sim.Time.t * action) list
(** Times are offsets from injection start; the injector sorts them. *)

type stats = {
  actions_applied : int;
  partitions_cut : int;  (** individual directed-pair cuts *)
  heals : int;
  drop_bursts : int;
  latency_spikes : int;
  crashes : int;
  recoveries : int;
  disk_stalls : int;
  disk_degrades : int;
  torn_crashes : int;  (** crashes that left a torn WAL tail *)
  corrupt_tails : int;  (** crashes that corrupted the durable WAL tail *)
  msg_taps_armed : int;  (** targeted tap rules armed *)
  msg_taps_fired : int;  (** targeted tap rules whose nth match arrived *)
}

type t

val inject : Tashkent.Cluster.t -> plan -> t
(** Spawn the injector fiber; returns immediately. Timed reverts
    (drop-burst and latency-spike expiry, blocking replica recovery) run
    in their own fibers, so actions never delay each other. *)

val stats : t -> stats
(** Cumulative over the injector's lifetime (fault accounting is never
    windowed). *)

val register_metrics : t -> Obs.Registry.t -> unit
(** Export the injector's counters as [fault.*] gauges in [reg] (gauges, so
    a registry reset does not erase fault history mid-plan). *)

val quiescent : t -> bool
(** True once every scheduled action has been applied, every timed fault
    has expired, no partition, spike or armed tap rule remains
    outstanding, and every node this injector crashed has been recovered —
    i.e. it is sound to assert cluster invariants. The injector reports
    each transition of this predicate into the cluster's protocol-event
    stream as [Fault_health], which is what restarts the progress
    monitor's clock after the last heal. *)

val random_plan :
  seed:int ->
  duration:Sim.Time.t ->
  n_certifiers:int ->
  n_replicas:int ->
  ?n_partitions:int ->
  ?disk_faults:bool ->
  unit ->
  plan
(** A reproducible plan over [duration]: a certifier-leader crash with
    later recovery, a replica–certifier partition window, a replica crash
    with recovery, a drop burst and a latency spike — jittered by [seed],
    never crashing a certifier majority (one certifier down at a time),
    with every fault healed by [0.85 * duration] (a final {!Heal_all}
    backstop).

    With [disk_faults] (default false) the plan additionally stalls the
    leader's log disk by 600 ms per op (above the certifier's 250 ms fsync
    deadline, so the leader abdicates), degrades a random certifier's disk,
    torn-crashes the leader, and corrupt-tail-crashes a random certifier,
    each recovered before the backstop. Plans with
    [disk_faults = false] are bit-identical to pre-storage-fault plans for
    the same seed.

    With [n_partitions > 1] the plan additionally crash-stops a non-zero
    group's leader mid-run (recovered before the backstop), exercising
    cross-partition decisions across a failover; its draws come after
    every other draw, so 1-partition plans are unchanged for the same
    seed. *)

(** Typed protocol-event stream.

    Components emit one event at each protocol decision point — a certifier
    fixes a verdict, a Paxos entry is delivered and appended, a writeset is
    installed, the visible snapshot advances, a durable ack leaves, a
    cross-partition Prepared/Xvote/Decision is processed. The stream sits
    beside the latency spans in {!Trace}: spans measure {e how long} a stage
    took, events record {e what the protocol decided}, so online monitors
    ({!Monitor}) can check safety invariants per event, during the run,
    instead of only at post-hoc checkpoints.

    The disabled stream ({!disabled}) makes every [emit] a single branch, so
    performance runs pay nothing. Handlers run synchronously inside [emit]
    and must not touch the simulation (no fiber spawns, no random draws):
    an enabled stream is observationally invisible to the simulated system,
    which keeps every fixed seed bit-identical with monitors on or off.

    Identity conventions: [actor] is the emitting component's address
    (certifier id such as ["p0.cert1"], or a partition proxy address such as
    ["replica2#p1"]); [part] is the certifier-group index (0 when
    unpartitioned); [origin]/[req_id] match the certification log entry
    fields; [gtx] is the printed global transaction id. *)

type event =
  | Request_admitted of {
      actor : string;
      part : int;
      origin : string;
      req_id : int;
      replica_version : int;
    }
      (** A leader accepted a certification request into its pipeline; the
          snapshot at [replica_version] is live until the verdict. *)
  | Verdict of {
      actor : string;
      part : int;
      origin : string;
      req_id : int;
      committed : bool;
      version : int;
    }  (** The certifier's reply left: commit at [version], or abort. *)
  | Durable_ack of {
      actor : string;
      part : int;
      origin : string;
      req_id : int;
      version : int;
    }
      (** A {e commit} reply left after the entry was durably replicated —
          the commit-before-ack point the durability monitor pins. *)
  | Log_append of {
      actor : string;
      part : int;
      version : int;
      origin : string;
      req_id : int;
      cross : bool;
    }
      (** [actor] appended the delivered entry to its certification log
          ([cross] marks a cross-partition fragment). *)
  | Gc_floor of { actor : string; part : int; floor : int }
      (** [actor] truncated its log below [floor]. *)
  | Prepared of { actor : string; part : int; gtx : string; vote : bool }
      (** A Prepared record was delivered and [actor] fixed its group's
          vote for [gtx]. *)
  | Xvote of {
      actor : string;
      part : int;
      from_part : int;
      gtx : string;
      vote : bool;
    }  (** [actor] received partition [from_part]'s vote for [gtx]. *)
  | Decision of { actor : string; part : int; gtx : string; committed : bool }
      (** A cross-partition decision was delivered — the fragment's
          witness-stamped log entry (commit) or an abort record:
          [actor]'s group applies it. *)
  | Ws_install of { actor : string; part : int; version : int }
      (** A replica installed the writeset of [version] into its store. *)
  | Snapshot_advance of { actor : string; part : int; version : int }
      (** The replica's visible snapshot version advanced to [version]. *)
  | Snapshot_load of { actor : string; part : int; version : int }
      (** The replica adopted a whole snapshot at [version] (dump restore,
          below-floor snapshot transfer): a legal version jump. *)
  | Tx_submitted of { actor : string; tx : int }
      (** Proxy [actor] accepted update transaction [tx] (a per-proxy
          sequence number) for certification. *)
  | Tx_resolved of { actor : string; tx : int; committed : bool }
      (** Transaction [tx] came back to the client: committed or aborted. *)
  | Node_crash of { actor : string }
      (** [actor] (certifier, or each partition proxy of a crashing
          replica) lost its volatile state. *)
  | Node_recover of { actor : string }
  | Actor_reset of { actor : string }
      (** [actor] abandoned its in-flight work without crashing (proxy
          pause/disconnect: client fibers are cancelled). *)
  | Fault_health of { healthy : bool }
      (** The fault injector's quiescence changed: [healthy = true] means
          every injected fault has been reverted. *)

type handler = Sim.Time.t -> event -> unit

type t

val create : Sim.Engine.t -> t
(** A live stream stamping events with the engine clock. *)

val disabled : unit -> t
(** A no-op stream: [emit] is one branch, nothing is recorded. *)

val enabled : t -> bool

val subscribe : t -> handler -> unit
(** Append a handler; handlers run synchronously inside {!emit}, in
    subscription order, and must not touch the simulation. *)

val emit : t -> event -> unit
val emitted : t -> int

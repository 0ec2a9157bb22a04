(** Simulated switched LAN.

    Nodes register under string addresses and receive messages through a
    mailbox. Delivery on each directed link is FIFO (as over a TCP
    connection): a message never overtakes an earlier one on the same link,
    even when random latencies would allow it. Links can be partitioned and
    lossy for fault-tolerance experiments. *)

type 'a t

type config = {
  latency_lo : Sim.Time.t;  (** one-way latency lower bound *)
  latency_hi : Sim.Time.t;  (** one-way latency upper bound *)
  bandwidth_bytes_per_sec : float;  (** per-message transfer rate *)
}

val default_lan : config
(** 1 Gb/s switched Ethernet: 40–80 µs one way. *)

val create : Sim.Engine.t -> rng:Sim.Rng.t -> ?config:config -> unit -> 'a t
val engine : 'a t -> Sim.Engine.t

val register : 'a t -> string -> 'a Sim.Mailbox.t
(** Create an endpoint. @raise Invalid_argument if the address is taken. *)

val unregister : 'a t -> string -> unit
(** Remove an endpoint; in-flight messages to it are dropped on arrival.
    Used to model a crashed node. Also forgets the FIFO delivery floors of
    every link touching the address, so a restarted node starts with fresh
    link state. Re-registering yields a fresh mailbox. *)

val reattach : 'a t -> string -> 'a Sim.Mailbox.t -> unit
(** Re-register an existing mailbox under an address (a restarted node
    re-announcing its endpoint). @raise Invalid_argument if taken. *)

val send : 'a t -> src:string -> dst:string -> ?size:int -> 'a -> unit
(** Fire-and-forget. [size] in bytes adds transfer time (default 256). If
    [dst] is unknown or unreachable the message is silently dropped. *)

val partition : 'a t -> string -> string -> unit
(** Cut both directions between two addresses. *)

val heal : 'a t -> string -> string -> unit

val set_drop_rate : 'a t -> float -> unit
(** Uniform message loss probability applied to every link (burst faults). *)

val drop_rate : 'a t -> float

val slow_link : 'a t -> string -> string -> extra:Sim.Time.t -> unit
(** Add [extra] one-way latency to both directions of a link (congestion /
    WAN-hiccup modelling). Replaces any previous spike on the link. *)

val restore_link : 'a t -> string -> string -> unit

type verdict = Pass | Drop | Delay of Sim.Time.t
(** Per-message ruling from a {!set_tap} callback. *)

val set_tap : 'a t -> (src:string -> dst:string -> 'a -> verdict) option -> unit
(** Install (or clear, with [None]) a message tap consulted on every
    {!send} before the latency draw, so a [Pass] verdict leaves delivery
    bit-identical to an untapped network. [Drop] discards the message (it
    counts as dropped); [Delay extra] adds [extra] to the one-way latency —
    later traffic on the same directed link still queues FIFO behind the
    delayed message, as over a stalled TCP connection. Targeted fault
    injection (delay the decisive Paxos ack, drop the Nth cross-partition
    vote) hangs off this hook. *)

val messages_sent : 'a t -> int
val messages_delivered : 'a t -> int
val messages_dropped : 'a t -> int

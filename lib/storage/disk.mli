(** Disk device model.

    A single-channel FIFO device: one operation at a time, in request order
    — this is exactly what makes a "shared IO channel" (paper §9.2) hurt:
    page reads and log fsyncs queue behind each other. Three operation kinds
    are distinguished so benchmarks can report their mix:

    - [fsync]: synchronous log flush. Cost = a random latency drawn from the
      configured range (the paper measured 6–12 ms, ~8 ms typical) plus the
      transfer time of the bytes being flushed.
    - [read]/[write]: data-page IO. Cost = positioning latency + transfer.

    A [ram] disk (paper: database in ramdisk) has microsecond costs, used to
    model a dedicated logging channel by moving page IO off the real disk.

    {b Fault injection.} The device carries injectable fault state, mutated
    by the fault injector ([Fault]) and consulted on every operation:
    - a {e stall} adds a fixed extra channel occupancy to every op (a
      firmware hiccup / write-cache flush storm: fsyncs take hundreds of
      milliseconds instead of ~8 ms);
    - a {e degrade factor} multiplies the drawn latency (a sick disk that is
      uniformly slow, not stuck);
    - a {e transient write-error rate} makes ops occasionally burn a full
      extra op-time on a failed attempt before the retry succeeds (absorbed
      inside the device — the caller only observes added latency).

    Fault counters ([fsync_stalls], [io_errors]) are cumulative and are not
    cleared by {!reset_stats}, so chaos harnesses can read totals after the
    measurement window was re-baselined. *)

type t

type config = {
  fsync_lo : Sim.Time.t;
  fsync_hi : Sim.Time.t;
  position_lo : Sim.Time.t;  (** seek+rotate for a page IO *)
  position_hi : Sim.Time.t;
  bandwidth_bytes_per_sec : float;
}

val create : Sim.Engine.t -> rng:Sim.Rng.t -> ?config:config -> ?name:string -> unit -> t
(** The default [config] is the paper's 120 GB 7200 rpm drive: fsync
    6–12 ms, page IO 4–9 ms, ~55 MB/s sequential. *)

val create_ram : Sim.Engine.t -> rng:Sim.Rng.t -> ?name:string -> unit -> t

val name : t -> string
val is_ram : t -> bool

(** {1 Blocking operations (fiber context)} *)

val fsync : t -> bytes:int -> unit
val read : t -> bytes:int -> unit
val write : t -> bytes:int -> unit

(** {1 Fault injection} *)

val set_stall : t -> extra:Sim.Time.t -> unit
(** Every subsequent op holds the channel for an additional [extra] on top
    of its drawn latency, until {!clear_stall}. *)

val clear_stall : t -> unit
val stalled : t -> bool
val stall_extra : t -> Sim.Time.t option

val set_degrade : t -> factor:float -> unit
(** Multiply every subsequent op's drawn latency by [factor] (clamped to
    ≥ 1.0), until {!clear_degrade}. *)

val clear_degrade : t -> unit
val degrade_factor : t -> float

val set_write_error_rate : t -> float -> unit
(** Probability (clamped to [0,1]) that an op first burns a full extra
    op-time on a failed attempt before succeeding. *)

val fsync_stalls : t -> int
(** Cumulative count of fsyncs served while a stall was active. *)

val io_errors : t -> int
(** Cumulative count of transient op errors injected. *)

(** {1 Statistics} *)

val fsyncs : t -> int
val reads : t -> int
val writes : t -> int
val bytes_synced : t -> int
val utilization : t -> float
val queue_length : t -> int

val reset_stats : t -> unit
(** Clear the operation counters (e.g. after warm-up); utilisation keeps
    integrating from creation, and the fault counters stay cumulative. *)

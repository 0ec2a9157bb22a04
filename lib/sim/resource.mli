(** FIFO resource with a fixed number of servers.

    Models CPUs, disk channels and other contended devices. Requests are
    served strictly in arrival order. Utilisation is tracked as the
    time-integral of busy servers. *)

type t

val create : Engine.t -> ?name:string -> capacity:int -> unit -> t
val name : t -> string
val capacity : t -> int

val acquire : t -> unit
(** Block until a server is free, then hold it. *)

val release : t -> unit
(** @raise Invalid_argument if nothing is held. *)

val use : t -> Time.t -> unit
(** [use t d] acquires a server, holds it for [d] of simulated time, and
    releases it: the basic "occupy this device for a service time" step. *)

val with_held : t -> (unit -> 'a) -> 'a
(** Acquire, run the thunk (which may itself block), release — even if the
    thunk raises. *)

val queue_length : t -> int

val utilization : t -> float
(** Mean fraction of servers busy from creation until now. *)

val busy_time : t -> Time.t
(** Total busy server-time accumulated so far. *)

(** Simulated time.

    A single type represents both instants (time since the start of the
    simulation) and durations. The unit is the microsecond, carried in a
    native [int]; on 64-bit platforms this covers ~292k years of simulated
    time, far beyond any experiment. The type is private: only this module
    makes a [t], but [(t :> int)] reads the microseconds for free, which
    the event loop uses since the build does not inline across modules. *)

type t = private int

val zero : t
val is_zero : t -> bool

(** {1 Construction} *)

val of_us : int -> t
val of_ms : float -> t
val of_sec : float -> t
val us : int -> t
val ms : int -> t
val sec : int -> t

(** {1 Deconstruction} *)

val to_us : t -> int
val to_ms : t -> float
val to_sec : t -> float

(** {1 Arithmetic} *)

val add : t -> t -> t
val sub : t -> t -> t

val diff : t -> t -> t
(** [diff later earlier] is [later - earlier]. *)

val scale : t -> float -> t
val mul : t -> int -> t
val div : t -> int -> t

val ratio : t -> t -> float
(** [ratio a b] is [a /. b] as a float; [b] must be non-zero. *)

(** {1 Comparison} *)

val compare : t -> t -> int
val equal : t -> t -> bool
val ( < ) : t -> t -> bool
val ( <= ) : t -> t -> bool
val ( > ) : t -> t -> bool
val ( >= ) : t -> t -> bool
val min : t -> t -> t
val max : t -> t -> t

val pp : Format.formatter -> t -> unit
(** Human-readable rendering with an adaptive unit (µs, ms, s). *)

val to_string : t -> string

(** Deterministic pseudo-random number generator (splitmix64).

    Each simulation component draws from its own generator so that runs are
    reproducible regardless of event interleaving, and so that adding a new
    random consumer does not perturb the streams of existing ones. *)

type t

val create : int -> t
(** [create seed] builds a generator from a 63-bit seed. *)

val split : t -> t
(** Derive an independent generator; deterministic given the parent state. *)

val copy : t -> t

(** {1 Draws} *)

val int : t -> int -> int
(** [int t bound] draws uniformly from [0, bound); [bound] must be > 0. *)

val int_in_range : t -> lo:int -> hi:int -> int
(** Inclusive range. *)

val float : t -> float
(** Uniform in [0, 1). *)

val uniform : t -> lo:float -> hi:float -> float
val bool : t -> bool

val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val exponential : t -> mean:float -> float
(** Exponentially distributed positive float with the given mean. *)

val pick : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. *)

val shuffle : t -> 'a array -> unit

val time_uniform : t -> lo:Time.t -> hi:Time.t -> Time.t
(** Uniform duration in the inclusive range. *)

val time_exponential : t -> mean:Time.t -> Time.t

(** The paper's AllUpdates micro-benchmark (§9.1): clients issue
    back-to-back short update transactions that never conflict (each client
    writes rows in its own private partition of 64 rows). Average writeset ≈ 54 bytes. The
    worst case for a replicated system: every transaction needs
    certification and every remote writeset must be applied everywhere. *)

val profile : ?clients_per_replica:int -> unit -> Spec.t

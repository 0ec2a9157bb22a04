(** Zipfian hot-key increment workload — the contended-hot-row regime
    where blind-write certification collapses and the commutative delta
    fast path is supposed to win.

    Each transaction increments one row of a globally shared hot set of
    64 rows (rank drawn from a Zipf distribution with exponent [skew]; θ = 0.99 is
    the YCSB-standard default) and updates one private per-client row.
    With [deltas] (the default) the hot increment is a
    {!Mvcc.Writeset.Add}, so concurrent transactions on the same hot row
    commute through certification and parallel apply; with
    [deltas:false] it is a read-modify-write blind write, the baseline
    whose same-row overlaps all abort (first-updater-wins). *)

val profile :
  ?clients_per_replica:int ->
  ?skew:float ->
  ?deltas:bool ->
  unit ->
  Spec.t

(** TPC-B (§9.3): bank debit/credit transactions — read and update an
    account, update its teller and branch, insert a history row. Average
    writeset ≈ 158 bytes. Branch rows are hot, so real write–write
    conflicts (and, in Tashkent-API, artificial conflicts between remote
    writesets) occur.

    Scale: [branches_per_replica] branches per replica (the TPC-B scaling
    rule sizes branches to the offered load), 10 tellers and [accounts_per_branch] accounts per branch. A configurable fraction
    of transactions touches a random non-home branch (the spec says 15%).

    With [deltas] (default off), the account/teller/branch balance bumps
    are shipped as commutative {!Mvcc.Writeset.Add} ops instead of
    read-then-blind-write final images, so concurrent updates of the same
    hot branch row pass the certifier's delta fast path instead of
    aborting; the history insert stays a blind write. *)

val profile :
  ?clients_per_replica:int ->
  ?branches_per_replica:int ->
  ?accounts_per_branch:int ->
  ?remote_branch_fraction:float ->
  ?deltas:bool ->
  unit ->
  Spec.t

(** TPC-W shopping mix (§9.4): an online bookstore at 20% updates.
    Transactions are CPU-heavy (the paper's bottleneck for this benchmark)
    and the database is large, so with a shared IO channel the data-page
    reads and write-backs congest the same disk as the commit log. Average
    update writeset ≈ 275 bytes.

    Browsing interactions are read-only (searches, product detail);
    updates are cart modifications and buy-confirmations that decrement the
    stock of a few items — occasionally best-sellers, giving a low real
    conflict rate. *)

val profile : ?clients_per_replica:int -> ?items:int -> unit -> Spec.t

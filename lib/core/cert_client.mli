(** Proxy-side client for the certifier group: leader discovery, retries
    with timeouts and capped exponential backoff (surviving certifier
    crashes, partitions and elections), and routing of replies back to
    waiting fibers by request id. *)

type t

val create :
  Sim.Engine.t ->
  net:Types.message Net.Network.t ->
  my_addr:string ->
  certifiers:string list ->
  ?timeout:Sim.Time.t ->
  ?backoff_base:Sim.Time.t ->
  ?backoff_cap:Sim.Time.t ->
  ?rng:Sim.Rng.t ->
  req_id_base:int ->
  unit ->
  t
(** [req_id_base] makes request ids globally unique across replicas (ids
    are [req_id_base + n]). Retry pacing: attempt [n] backs off
    [min (backoff_cap, backoff_base * 2^n)] scaled by a jitter factor in
    [0.5, 1.5) drawn from [rng] (deterministically derived from
    [req_id_base] when omitted). Does not register any endpoint: the owner
    must route {!Types.Cert_reply}, {!Types.Cert_redirect} and
    {!Types.Fetch_reply} messages arriving at [my_addr] to {!handle}. *)

val certify :
  t ->
  ?trace_id:int ->
  ?gtx:Types.gtx_id ->
  replica_version:int ->
  oldest_snapshot:int ->
  Types.xfragment list ->
  Types.cert_reply
(** Certify one transaction at this client's certifier group: the one
    {!Types.cert_request}, carrying [fragments] — exactly one for a
    single-partition commit, or EVERY fragment of a cross-partition
    transaction (the receiving group re-gossips them so any surviving
    leader can finish the commit). [gtx] names a cross-partition
    transaction; without it the request is its own transaction,
    [(my_addr, req_id)], minted here with the request id.
    [replica_version] is in this group's version space, and
    [oldest_snapshot] is the replica's GC-watermark report (oldest
    snapshot any of its live transactions still reads), piggybacked on
    the request. The reply's [commit_version] and [remotes] are for this
    group's partition only.

    Blocking: sends the request to the presumed leader and keeps retrying
    (same request id and transaction id, so retries are idempotent — the
    certifier answers a decided transaction from its outcome table)
    across redirects, timeouts and certifier failovers until a reply
    arrives. Redirect hints naming an unknown certifier fall back to
    round-robin; repeated timeouts or redirect bounces back off
    exponentially (with jitter) up to [backoff_cap], so a fully
    partitioned client probes the group at a decaying rate instead of
    spinning at a fixed interval. *)

val fetch :
  t ->
  replica:string ->
  from_version:int ->
  oldest_snapshot:int ->
  Types.fetch_reply option
(** Blocking: used by the bounded-staleness refresher and recovery replay.
    [oldest_snapshot] piggybacks the watermark report as in {!certify}.
    A reply whose [fetch_snapshot] is present means the asked-for prefix
    was truncated and carries a full state transfer instead.
    Each attempt carries a fresh request id, so a stale reply to an
    abandoned (timed-out or superseded) fetch is discarded instead of
    filling a newer fetch's waiter; concurrent fetches are routed
    independently. Retries a bounded number of times across redirects and
    timeouts, rotating targets; [None] when every attempt timed out. *)

val handle : t -> Types.message -> unit

(** {1 Fault/robustness counters} *)

val requests_sent : t -> int

val retries : t -> int
(** Certify attempts beyond the first (redirects + timeouts). *)

val failovers : t -> int
(** Timeouts that rotated the target certifier (certify and fetch). *)

val refetches : t -> int
(** Fetch attempts beyond the first. *)

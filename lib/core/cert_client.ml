open Sim

type outcome =
  | Reply of Types.cert_reply
  | Fetched of Types.fetch_reply
  | Redirect of string option
  | Timed_out

type t = {
  engine : Engine.t;
  net : Types.message Net.Network.t;
  my_addr : string;
  certifiers : string array;
  mutable target : int; (* index into certifiers *)
  timeout : Time.t;
  backoff_base : Time.t;
  backoff_cap : Time.t;
  rng : Rng.t;
  pending : (int, outcome Ivar.t) Hashtbl.t;
  mutable next_req : int;
  sent : Stats.Counter.t;
  retry_count : Stats.Counter.t;
  failover_count : Stats.Counter.t;
  refetch_count : Stats.Counter.t;
}

let create engine ~net ~my_addr ~certifiers ?(timeout = Time.of_ms 500.)
    ?(backoff_base = Time.of_ms 25.) ?(backoff_cap = Time.sec 2) ?rng ~req_id_base () =
  if certifiers = [] then invalid_arg "Cert_client.create: no certifiers";
  let rng =
    match rng with
    | Some rng -> rng
    | None ->
        (* Deterministic per-client stream: the jitter draws must not depend
           on event interleaving, and req_id_base is unique per replica. *)
        Rng.create (0x7a5 lxor (req_id_base + Hashtbl.hash my_addr))
  in
  {
    engine;
    net;
    my_addr;
    certifiers = Array.of_list certifiers;
    target = 0;
    timeout;
    backoff_base;
    backoff_cap;
    rng;
    pending = Hashtbl.create 16;
    next_req = req_id_base;
    sent = Stats.Counter.create ();
    retry_count = Stats.Counter.create ();
    failover_count = Stats.Counter.create ();
    refetch_count = Stats.Counter.create ();
  }

let send t ~dst msg =
  Net.Network.send t.net ~src:t.my_addr ~dst ~size:(Types.message_bytes msg) msg

let round_robin t = t.target <- (t.target + 1) mod Array.length t.certifiers

(* Follow a redirect hint when it names a known certifier; an unknown hint
   (a node we were not configured with, or a stale name) falls back to
   round-robin instead of silently keeping the dead target. Returns whether
   the hint was followed. *)
let rotate_target t hint =
  match hint with
  | Some leader ->
      let found = ref false in
      Array.iteri
        (fun i c ->
          if String.equal c leader then begin
            found := true;
            t.target <- i
          end)
        t.certifiers;
      if not !found then round_robin t;
      !found
  | None ->
      round_robin t;
      false

(* Capped exponential backoff with jitter: attempt [n] (0-based) waits
   min(cap, base * 2^n) scaled by a uniform factor in [0.5, 1.5). *)
let backoff_delay t n =
  let exp = min n 16 in
  let raw = Time.mul t.backoff_base (1 lsl exp) in
  let capped = Time.min t.backoff_cap raw in
  Time.scale capped (Rng.uniform t.rng ~lo:0.5 ~hi:1.5)

(* One blocking certification: same request id across attempts
   (idempotent retries), redirect following, capped backoff, late-reply
   waiters. A request with no [gtx] is its own transaction,
   [(my_addr, req_id)]. *)
let certify t ?(trace_id = 0) ?gtx ~replica_version ~oldest_snapshot fragments =
  t.next_req <- t.next_req + 1;
  let req_id = t.next_req in
  let gtx = match gtx with Some g -> g | None -> Types.single_gtx ~origin:t.my_addr ~req_id in
  let request =
    Types.Cert_request
      { req_id; trace_id; replica = t.my_addr; replica_version; oldest_snapshot; gtx; fragments }
  in
  let rec attempt n =
    if n > 0 then Stats.Counter.incr t.retry_count;
    let ivar = Ivar.create t.engine () in
    Hashtbl.replace t.pending req_id ivar;
    Stats.Counter.incr t.sent;
    send t ~dst:t.certifiers.(t.target) request;
    Engine.schedule_after t.engine t.timeout (fun () ->
        ignore (Ivar.try_fill ivar Timed_out));
    match Ivar.read ivar with
    | Reply reply ->
        Hashtbl.remove t.pending req_id;
        reply
    | Fetched _ ->
        (* Cannot happen: fetch ids are distinct requests. Treat as noise. *)
        attempt n
    | Redirect hint ->
        let known = rotate_target t hint in
        (* A redirect to the actual leader deserves an immediate retry; but
           if redirects keep bouncing us around (stale hints, an election in
           progress) fall back to backoff instead of a millisecond-interval
           hot loop against nodes that cannot answer. *)
        let delay = if known && n < 3 then Time.of_ms 1. else backoff_delay t n in
        Engine.sleep t.engine delay;
        attempt (n + 1)
    | Timed_out ->
        Stats.Counter.incr t.failover_count;
        round_robin t;
        (* Backoff sleeps are long; keep a waiter registered so a late reply
           from a slow (or just-healed) leader still lands — the request id
           is stable, so it remains valid across attempts. *)
        let late = Ivar.create t.engine () in
        Hashtbl.replace t.pending req_id late;
        Engine.sleep t.engine (backoff_delay t n);
        (match Ivar.peek late with
        | Some (Reply reply) ->
            Hashtbl.remove t.pending req_id;
            reply
        | Some (Redirect hint) ->
            ignore (rotate_target t hint);
            attempt (n + 1)
        | Some (Fetched _) | Some Timed_out | None -> attempt (n + 1))
  in
  attempt 0

let fetch_attempts = 3

let fetch t ~replica ~from_version ~oldest_snapshot =
  (* Unlike certify, each attempt uses a fresh request id: a fetch is a
     read-only snapshot request, so a late reply to an abandoned attempt
     must be discarded rather than fill a newer fetch's waiter. *)
  let rec attempt n =
    if n > 0 then Stats.Counter.incr t.refetch_count;
    t.next_req <- t.next_req + 1;
    let req_id = t.next_req in
    let ivar = Ivar.create t.engine () in
    Hashtbl.replace t.pending req_id ivar;
    Stats.Counter.incr t.sent;
    send t
      ~dst:t.certifiers.(t.target)
      (Types.Fetch_request
         {
           fetch_req_id = req_id;
           fetch_replica = replica;
           from_version;
           fetch_oldest_snapshot = oldest_snapshot;
         });
    Engine.schedule_after t.engine t.timeout (fun () ->
        ignore (Ivar.try_fill ivar Timed_out));
    let outcome = Ivar.read ivar in
    Hashtbl.remove t.pending req_id;
    match outcome with
    | Fetched reply -> Some reply
    | Reply _ -> None
    | Redirect hint ->
        ignore (rotate_target t hint);
        if n + 1 < fetch_attempts then begin
          Engine.sleep t.engine (Time.of_ms 1.);
          attempt (n + 1)
        end
        else None
    | Timed_out ->
        Stats.Counter.incr t.failover_count;
        round_robin t;
        if n + 1 < fetch_attempts then attempt (n + 1) else None
  in
  attempt 0

let handle t msg =
  match msg with
  | Types.Cert_reply reply -> (
      match Hashtbl.find_opt t.pending reply.req_id with
      | Some ivar -> ignore (Ivar.try_fill ivar (Reply reply))
      | None -> ())
  | Types.Cert_redirect { req_id; leader } -> (
      match Hashtbl.find_opt t.pending req_id with
      | Some ivar -> ignore (Ivar.try_fill ivar (Redirect leader))
      | None -> ())
  | Types.Fetch_reply reply -> (
      match Hashtbl.find_opt t.pending reply.fetch_req_id with
      | Some ivar -> ignore (Ivar.try_fill ivar (Fetched reply))
      | None -> ())
  | Types.Cert_request _ | Types.Xvote _ | Types.Fetch_request _ | Types.Paxos _ ->
      ()

let requests_sent t = Stats.Counter.value t.sent
let retries t = Stats.Counter.value t.retry_count
let failovers t = Stats.Counter.value t.failover_count
let refetches t = Stats.Counter.value t.refetch_count

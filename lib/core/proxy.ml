open Sim

type config = {
  mode : Types.mode;
  apply_cpu_per_ws : Time.t;
  staleness_bound : Time.t option;
  group_remote_batches : bool;
  apply_workers : int;  (* > 1 selects the [Parallel] ordering policy *)
}

(* Apply CPU per row operation, on top of [apply_cpu_per_ws]. *)
let apply_cpu_per_op = Time.us 35

type tx = { db_tx : Mvcc.Db.tx; start_version : int; trace_id : int }

type failure = Cert_abort of Types.abort_cause | Local_abort of Mvcc.Db.abort_reason

let pp_failure fmt = function
  | Cert_abort Types.Ww_conflict -> Format.pp_print_string fmt "certification conflict"
  | Cert_abort Types.Forced -> Format.pp_print_string fmt "forced abort"
  | Local_abort r -> Format.fprintf fmt "local abort: %a" Mvcc.Db.pp_abort_reason r

type work =
  | Commit_reply of {
      reply : Types.cert_reply;
      w_tx : tx;
      done_ : (unit, failure) result Ivar.t;
    }
  | Refresh_batch of {
      remotes : Types.remote_ws list;
      trace_id : int;
      done_ : unit Ivar.t;
    }

type catch_up = Floor | Bridge | Snapshot

type stats = {
  commits : int;
  cert_aborts : int;
  local_aborts : int;
  read_only_commits : int;
  remote_ws_applied : int;
  apply_batches : int;
  artificial_serializations : int;
  refreshes : int;
  local_cert_promotions : int;
  preempted_commits : int;
  apply_stalls : int;
}

type t = {
  engine : Engine.t;
  cfg : config;
  address : string;
  part : int;
  net : Types.message Net.Network.t;
  mailbox : Types.message Mailbox.t;
  database : Mvcc.Db.t;
  cpu : Resource.t;
  client : Cert_client.t;
  work : work Mailbox.t;
  policy : Apply_pool.policy;
  pool : Apply_pool.t;
  mutable rv : int;
  mutable inflight : int;
  mutable last_activity : Time.t;
  mutable paused : bool;
  mutable incarnation : int;
      (* Bumped by every {!pause}. A commit captures it before blocking on
         certification and re-checks it when the reply arrives: a reply
         addressed to a dead incarnation must not touch the revived state —
         the crash discarded its db transaction, and installing the reply's
         remotes window would stamp [rv] past versions the new incarnation
         never fetched, silently losing the prefix (refresh fetches from
         [rv]). Entry-level [paused] checks cannot catch this case: by the
         time the stale reply lands, the replica has already resumed. *)
  mutable applier : Engine.fiber option;
  mutable refresher : Engine.fiber option;
  (* Opt-in durability oracle for chaos harnesses: every commit acked
     durable to this proxy, recorded at reply arrival and NEVER cleared by
     pause/crash paths — so a harness can assert that each acked commit is
     still present in the certified log after recovery. *)
  mutable journaling : bool;
  mutable journal : (Types.gtx_id * int) list;
      (* (transaction, commit version in this partition), newest first *)
  mutable submit_seq : int;
      (* client-transaction ids for the protocol-event stream: trace ids
         are only fresh when tracing is on, so the progress monitor gets
         its own counter *)
  trace : Obs.Trace.t;
  events : Obs.Events.t;
  c_commits : Stats.Counter.t;
  c_cert_aborts : Stats.Counter.t;
  c_local_aborts : Stats.Counter.t;
  c_ro_commits : Stats.Counter.t;
  c_applied : Stats.Counter.t;
  c_batches : Stats.Counter.t;
  c_artificial : Stats.Counter.t;
  c_refreshes : Stats.Counter.t;
  c_promotions : Stats.Counter.t;
  c_preempted : Stats.Counter.t;
  c_invariant : Stats.Counter.t;
  (* Per-reason abort breakdown ([proxy.<addr>.abort.*]): the coarse
     cert/local split above stays for the stats record; these let the
     registry snapshot answer *why* transactions aborted. *)
  c_ab_cert_ww : Stats.Counter.t;
  c_ab_cert_forced : Stats.Counter.t;
  c_ab_local_ww : Stats.Counter.t;
  c_ab_local_deadlock : Stats.Counter.t;
  c_ab_local_preempted : Stats.Counter.t;
  c_catch_up : catch_up -> Stats.Counter.t;
}

let addr t = t.address
let mode t = t.cfg.mode
let replica_version t = t.rv

let db t = t.database
let client t = t.client
let enable_commit_journal t = t.journaling <- true
let journaled_commits t = List.rev t.journal
let tx_writeset w_tx = Mvcc.Db.writeset w_tx.db_tx
let tx_start_version w_tx = w_tx.start_version

(* ------------------------------------------------------------------ *)
(* Protocol-event emission (Obs.Monitor food).

   [Ws_install] is only emitted for writesets that actually extend the
   store: a version at or below the current one is an idempotent backfill
   (a certifier failover re-answered a request whose writeset already
   arrived through the remote stream), not a second install — the
   serial-order monitor must not see it twice. The fresh/backfill test is
   taken before the apply call, mirroring the branch the database itself
   takes at install time. *)

let emit_install t ~version =
  Obs.Events.emit t.events
    (Obs.Events.Ws_install { actor = t.address; part = t.part; version })

let emit_advance t =
  if Obs.Events.enabled t.events then
    Obs.Events.emit t.events
      (Obs.Events.Snapshot_advance
         {
           actor = t.address;
           part = t.part;
           version = Mvcc.Db.current_version t.database;
         })

(* Run the install [f] of the certified [batch], then report the versions
   that extended the store. Under the publish barrier the store may not
   show them yet: the advance reports whatever is visible now (monotone
   either way). *)
let installing t batch f =
  let fresh =
    if Obs.Events.enabled t.events then
      let current = Mvcc.Db.current_version t.database in
      List.filter (fun (version, _) -> version > current) batch
    else []
  in
  f ();
  if fresh <> [] then begin
    List.iter (fun (version, _) -> emit_install t ~version) fresh;
    emit_advance t
  end

(* ------------------------------------------------------------------ *)
(* The apply engine: every certified writeset reaches the database as an
   Apply_pool item, in version order, under the mode's ordering policy. *)

let in_order t = match t.policy with Apply_pool.Parallel _ -> false | Serial | Commit_n -> true

(* Install certified writesets, retrying through local deadlocks: doom the
   local cycle members (soft recovery, §8.1) and re-apply under the same
   order. A certified writeset can only fail through a deadlock; anything
   else is a model invariant violation. *)
let rec install_certified t ~batch ~prev ~order =
  match Mvcc.Db.apply_certified t.database ~batch ~prev ~order ~in_order:(in_order t) with
  | Ok () -> ()
  | Error (Mvcc.Db.Deadlock cycle) ->
      List.iter (fun txid -> Mvcc.Db.doom t.database txid) cycle;
      install_certified t ~batch ~prev ~order
  | Error reason ->
      Stats.Counter.incr t.c_invariant;
      failwith
        (Format.asprintf "proxy %s: certified writeset failed: %a" t.address
           Mvcc.Db.pp_abort_reason reason)

(* A full state transfer (the asked-for log prefix was truncated) is applied
   as one blind writeset at the snapshot's version: folded images for every
   key the pruned history wrote, deletions included, so it rides the apply
   engine in version order ahead of the accompanying remotes. *)
let snapshot_remote (snap : Types.snapshot) : Types.remote_ws =
  let ws =
    Mvcc.Writeset.of_list
      (List.map
         (fun (key, value) ->
           match value with
           | Some v -> (key, Mvcc.Writeset.Update v)
           | None -> (key, Mvcc.Writeset.Delete))
         snap.rows)
  in
  { Types.version = snap.snap_version; ws; conflict_with = None }

let charge_apply_cpu t batch =
  let cost =
    List.fold_left
      (fun acc (_, ws) ->
        Time.add acc
          (Time.add t.cfg.apply_cpu_per_ws
             (Time.mul apply_cpu_per_op (Mvcc.Writeset.cardinal ws))))
      Time.zero batch
  in
  if not (Time.is_zero cost) then Resource.use t.cpu cost

(* Hand the pool one item installing [batch] (ascending versions) under the
   next announce order. Its chain predecessor is what this replica had
   dispatched before it — [rv] is only advanced here — clamped below the
   batch for a reply that trails the stream. *)
let dispatch t ?trace_id ?on_published ~batch exec =
  let prev = min t.rv (fst (List.hd batch) - 1) in
  let order = Mvcc.Db.next_order t.database in
  List.iter (fun (v, _) -> t.rv <- max t.rv v) batch;
  let h =
    Apply_pool.submit t.pool ~batch ?trace_id ?on_published
      ~exec:(fun () -> exec ~prev ~order)
      ()
  in
  if Apply_pool.has_deps h then Stats.Counter.incr t.c_artificial

(* Remote writesets as one apply transaction (the T1_2_3 grouping of §3):
   the rows land at their own versions, then every one that extended the
   store is reported. *)
let exec_remotes t ?trace_id batch ~prev ~order =
  let sp = Obs.Trace.span t.trace ?id:trace_id ~stage:"apply" ~actor:t.address () in
  charge_apply_cpu t batch;
  installing t batch (fun () -> install_certified t ~batch ~prev ~order);
  Obs.Trace.finish t.trace sp;
  Stats.Counter.add t.c_applied (List.length batch);
  Stats.Counter.incr t.c_batches

(* Dispatch every remote above [rv]. [Serial] groups them into one item
   (with [group_remote_batches]; without it, the paper's naive strawman:
   one transaction, and one fsync, per writeset); [Commit_n] groups only a
   fetched batch, submitting a reply's remotes one by one so they can
   commit concurrently; [Parallel] always goes one by one. [on_done] runs
   once the last item is published (at once when none is fresh). *)
let dispatch_remotes t ~fetched ?trace_id remotes ~on_done =
  let fresh =
    List.filter_map
      (fun (r : Types.remote_ws) -> if r.version > t.rv then Some (r.version, r.ws) else None)
      remotes
  in
  let grouped =
    t.cfg.group_remote_batches
    &&
    match t.policy with
    | Apply_pool.Serial -> true
    | Commit_n -> fetched
    | Parallel _ -> false
  in
  let rec go = function
    | [] -> on_done ()
    | [ batch ] -> dispatch t ?trace_id ~batch ~on_published:on_done (exec_remotes t ?trace_id batch)
    | batch :: rest ->
        dispatch t ?trace_id ~batch (exec_remotes t ?trace_id batch);
        go rest
  in
  go (if grouped && fresh <> [] then [ fresh ] else List.map (fun r -> [ r ]) fresh)

(* The replica's own certified commit. The durability stage is where Base
   pays its serialized commit fsync and MW commits in memory — the gap the
   paper's Figure 7 turns on. *)
let exec_commit t w_tx ~version ~prev ~order =
  let sp = Obs.Trace.span t.trace ~id:w_tx.trace_id ~stage:"durability" ~actor:t.address () in
  let ws = Mvcc.Db.writeset w_tx.db_tx in
  installing t [ (version, ws) ] (fun () ->
      match Mvcc.Db.commit_certified w_tx.db_tx ~version ~prev ~order ~in_order:(in_order t) with
      | Ok () -> ()
      | Error _doomed ->
          (* The certifier committed this transaction, but it was doomed
             locally while its commit reply was delayed (a remote writeset
             preempted its locks — a soundness shortcut that assumes the
             local transaction will fail certification, which this one did
             not; the window only opens when certification outlasts the
             remote stream, i.e. under certifier failover). The global
             decision is authoritative: install the buffered writeset as if
             it arrived remotely, under the order it already holds — the
             store slots it at [version], beneath any later committed
             overwrites. *)
          Stats.Counter.incr t.c_preempted;
          install_certified t ~batch:[ (version, ws) ] ~prev ~order);
  Obs.Trace.finish t.trace sp;
  Stats.Counter.incr t.c_commits

(* ------------------------------------------------------------------ *)
(* Catching up *)

(* Repeat [step] until [caught_up] or a pause, counting episodes. *)
let catch_up t cause ~caught_up step =
  if (not t.paused) && not (caught_up ()) then begin
    Stats.Counter.incr (t.c_catch_up cause);
    let rec loop () =
      if (not t.paused) && not (caught_up ()) then begin
        step ();
        loop ()
      end
    in
    loop ()
  end

let fetch t =
  Cert_client.fetch t.client ~replica:t.address ~from_version:t.rv
    ~oldest_snapshot:(Mvcc.Db.oldest_active_snapshot t.database)

(* Turn a fetch reply into an applicable remote batch: absorb the
   certifier's floor, and when the asked-for prefix had been truncated,
   lead with the snapshot transfer. Shared by the idle [refresh] and the
   commit-path [ensure_bridge] heal. *)
let remotes_of_fetch t (fetch : Types.fetch_reply) =
  Mvcc.Db.set_cluster_gc_floor t.database fetch.fetch_gc_floor;
  match fetch.fetch_snapshot with
  | Some snap when snap.snap_version > t.rv ->
      Stats.Counter.incr (t.c_catch_up Snapshot);
      (* A state transfer is a legal version jump: tell the serial-order
         monitor the prefix below it is settled. The snapshot itself still
         rides the apply path as a writeset at [snap_version], hence the
         [- 1] — that install is the one version above the rebased floor. *)
      Obs.Events.emit t.events
        (Obs.Events.Snapshot_load
           { actor = t.address; part = t.part; version = snap.snap_version - 1 });
      snapshot_remote snap :: fetch.fetch_remotes
  | Some _ | None -> fetch.fetch_remotes

(* A commit reply is only sound if it is self-contained: its composed
   remotes must bridge every version between this replica's applied prefix
   and the commit version, because installing the commit advances [rv]
   over that whole range. One schedule breaks the bridge: the certifier
   re-answers a retried request from its outcome table, but the log
   entries between the replica's version and the decided version were
   truncated while the replica was partitioned (its watermark report went
   stale and the GC floor passed it), so the composed remotes silently
   come up short. Installing anyway would advance [rv] over a hole no later
   refresh can fill ([fetch] only asks from [rv] up) — permanent silent
   divergence. Heal before installing: fetch from [rv], which answers a
   truncated prefix with a snapshot transfer — exactly the missing state. *)
let bridged t (reply : Types.cert_reply) =
  reply.commit_version <= t.rv + 1
  || List.length
       (List.filter
          (fun (r : Types.remote_ws) ->
            r.version > t.rv && r.version < reply.commit_version)
          reply.remotes)
     = reply.commit_version - t.rv - 1

let ensure_bridge t reply =
  catch_up t Bridge
    ~caught_up:(fun () -> bridged t reply)
    (fun () ->
      match fetch t with
      | Some f -> dispatch_remotes t ~fetched:true (remotes_of_fetch t f) ~on_done:ignore
      | None -> Engine.sleep t.engine (Time.of_ms 5.))

(* ------------------------------------------------------------------ *)
(* The applier fiber: consumes certifier replies in version order and
   dispatches them, so items reach the pool in version order. *)

let spawn_applier t =
  let fiber =
    Engine.spawn t.engine (fun () ->
        let rec loop () =
          (match Mailbox.recv t.work with
          | Commit_reply { reply; w_tx; done_ } ->
              ensure_bridge t reply;
              let trace_id = w_tx.trace_id in
              dispatch_remotes t ~fetched:false ~trace_id reply.remotes ~on_done:ignore;
              let version = reply.commit_version in
              dispatch t ~trace_id
                ~batch:[ (version, Mvcc.Db.writeset w_tx.db_tx) ]
                ~on_published:(fun () -> Ivar.fill done_ (Ok ()))
                (exec_commit t w_tx ~version)
          | Refresh_batch { remotes; trace_id; done_ } ->
              dispatch_remotes t ~fetched:true ~trace_id remotes
                ~on_done:(fun () -> Ivar.fill done_ ());
              Stats.Counter.incr t.c_refreshes);
          loop ()
        in
        loop ())
  in
  t.applier <- Some fiber

(* ------------------------------------------------------------------ *)
(* Client interface *)

(* The certification window starts at the snapshot the transaction reads,
   not at [rv]: [rv] counts remote writesets as soon as they are dispatched,
   and while one is still being installed a start version taken from [rv]
   would let certification skip a writeset this transaction never saw. *)
let begin_tx t =
  let db_tx = Mvcc.Db.begin_tx t.database in
  {
    db_tx;
    start_version = Mvcc.Db.snapshot_version db_tx;
    trace_id = Obs.Trace.fresh_id t.trace;
  }
let read t w_tx key = ignore t; Mvcc.Db.read w_tx.db_tx key

let record_local_abort t (reason : Mvcc.Db.abort_reason) =
  Stats.Counter.incr t.c_local_aborts;
  Stats.Counter.incr
    (match reason with
    | Mvcc.Db.Ww_conflict _ -> t.c_ab_local_ww
    | Mvcc.Db.Deadlock _ -> t.c_ab_local_deadlock
    | Mvcc.Db.Preempted -> t.c_ab_local_preempted)

let record_cert_abort t (cause : Types.abort_cause) =
  Stats.Counter.incr t.c_cert_aborts;
  Stats.Counter.incr
    (match cause with
    | Types.Ww_conflict -> t.c_ab_cert_ww
    | Types.Forced -> t.c_ab_cert_forced)

let write t w_tx key op =
  match Mvcc.Db.write w_tx.db_tx key op with
  | Ok () -> Ok ()
  | Error reason ->
      record_local_abort t reason;
      Error (Local_abort reason)

let abort _t w_tx = Mvcc.Db.abort w_tx.db_tx

(* ------------------------------------------------------------------ *)
(* Bounded staleness (§6.2) *)

let refresh t =
  if (not t.paused) && t.inflight = 0 && Mailbox.is_empty t.work then begin
    let trace_id = Obs.Trace.fresh_id t.trace in
    let sp = Obs.Trace.span t.trace ~id:trace_id ~stage:"backfill" ~actor:t.address () in
    (match fetch t with
    | Some f when t.inflight = 0 ->
        let remotes = remotes_of_fetch t f in
        let done_ = Ivar.create t.engine () in
        Mailbox.send t.work (Refresh_batch { remotes; trace_id; done_ });
        Ivar.read done_
    | Some _ | None -> ());
    Obs.Trace.finish t.trace sp
  end

(* A certification abort with the certifier's floor above our applied
   version means this replica's snapshot has fallen below the truncation
   floor: every request it sends from here on aborts as snapshot-too-old.
   The idle refresher cannot break the loop — the abort storm keeps
   [inflight] up and resets [last_activity] on every attempt — so the
   abort path heals eagerly: wait for the commit pipeline to drain, then
   refresh (which installs a snapshot transfer when the missing prefix was
   pruned). An unreachable certifier group is paced by the fetch's own
   timeouts rather than a hot loop here. *)
let heal_below_floor t ~floor =
  catch_up t Floor
    ~caught_up:(fun () -> t.rv >= floor)
    (fun () ->
      refresh t;
      if t.rv < floor then Engine.sleep t.engine (Time.of_ms 5.))

(* Local certification (6.2): this transaction held write locks on all its
   keys since it wrote them, and the first-updater check passed against
   everything announced locally — so the writeset is already known
   conflict-free up to [db_version], and the effective start version can be
   raised, shrinking the certifier's intersection window. *)
let promote t ~(db_version : int) start =
  if db_version > start then begin
    Stats.Counter.incr t.c_promotions;
    db_version
  end
  else start

(* The certified-commit pipeline. [cross] names a cross-partition
   transaction and all its fragments: the session has already split the
   writeset, so [w_tx]'s own writeset IS this proxy's fragment (reads and
   writes were routed here by key), and the pipeline is the ordinary one —
   only the certifier groups' settlement (prepare/vote/decide instead of a
   single certify) and the reply's decision-time version differ. *)
let certified_commit t w_tx ws ~cross =
  match Mvcc.Db.is_doomed w_tx.db_tx with
  | Some reason ->
      Mvcc.Db.abort w_tx.db_tx;
      record_local_abort t reason;
      Error (Local_abort reason)
  | None when t.paused ->
      Mvcc.Db.abort w_tx.db_tx;
      record_local_abort t Mvcc.Db.Preempted;
      Error (Local_abort Mvcc.Db.Preempted)
  | None ->
      t.inflight <- t.inflight + 1;
      t.last_activity <- Engine.now t.engine;
      let incarnation = t.incarnation in
      t.submit_seq <- t.submit_seq + 1;
      let txid = t.submit_seq in
      Obs.Events.emit t.events (Obs.Events.Tx_submitted { actor = t.address; tx = txid });
      let sp_txn =
        Obs.Trace.span t.trace ~id:w_tx.trace_id ~stage:"txn.commit" ~actor:t.address ()
      in
      (* The paper (5.2.1): the version submitted to the certifier is the
         current version of the database — i.e. what has actually been
         announced, not the versions merely in flight — so that
         back-certification covers every writeset this replica has not yet
         committed. *)
      let db_version = Mvcc.Db.current_version t.database in
      let sp_cert =
        Obs.Trace.span t.trace ~id:w_tx.trace_id ~stage:"certify" ~actor:t.address ()
      in
      (* Local certification promotion applies to OUR fragment only: the
         sibling fragments' start versions live in other partitions'
         version spaces and are promoted by their own proxies. *)
      let own =
        {
          Types.xf_part = t.part;
          xf_origin = t.address;
          xf_start_version = promote t ~db_version w_tx.start_version;
          xf_ws = ws;
        }
      in
      let gtx, fragments =
        match cross with
        | None -> (None, [ own ])
        | Some (gtx, fragments) ->
            ( Some gtx,
              List.map
                (fun (f : Types.xfragment) -> if String.equal f.xf_origin t.address then own else f)
                fragments )
      in
      (* The watermark report is computed while this transaction is still
         registered in [db.active], so the reported oldest snapshot is <=
         start_version — the certifier's floor can never climb past the
         window this reply composes against. *)
      let reply =
        Cert_client.certify t.client ~trace_id:w_tx.trace_id ?gtx ~replica_version:db_version
          ~oldest_snapshot:(Mvcc.Db.oldest_active_snapshot t.database)
          fragments
      in
      Obs.Trace.finish t.trace sp_cert;
      if t.incarnation <> incarnation then begin
        (* The replica crashed while this commit was parked in certification
           and the reply outlived the outage: a client-side retry, or a
           cross-partition session helper fiber, which is not registered
           with the replica and so resumes after recovery. The reply belongs
           to the dead incarnation: its db transaction is gone and [rv] was
           rebased by {!resume}, so installing its remotes window would
           advance [rv] past the unfetched prefix — silent data loss. Drop
           it and report preemption; a committed decision still arrives
           through refresh like any other remote. *)
        Obs.Trace.finish t.trace sp_txn;
        Obs.Events.emit t.events
          (Obs.Events.Tx_resolved { actor = t.address; tx = txid; committed = false });
        record_local_abort t Mvcc.Db.Preempted;
        Error (Local_abort Mvcc.Db.Preempted)
      end
      else begin
        Mvcc.Db.set_cluster_gc_floor t.database reply.gc_floor;
        t.last_activity <- Engine.now t.engine;
        let result =
          match reply.decision with
          | Types.Abort cause ->
              Mvcc.Db.abort w_tx.db_tx;
              record_cert_abort t cause;
              Error (Cert_abort cause)
          | Types.Commit ->
              if t.journaling then begin
                let gtx =
                  match gtx with
                  | Some g -> g
                  | None -> Types.single_gtx ~origin:t.address ~req_id:reply.req_id
                in
                t.journal <- (gtx, reply.commit_version) :: t.journal
              end;
              let done_ = Ivar.create t.engine () in
              Mailbox.send t.work (Commit_reply { reply; w_tx; done_ });
              Ivar.read done_
        in
        Obs.Trace.finish t.trace sp_txn;
        t.inflight <- t.inflight - 1;
        Obs.Events.emit t.events
          (Obs.Events.Tx_resolved
             { actor = t.address; tx = txid; committed = Result.is_ok result });
        (match result with
        | Error (Cert_abort _) when reply.gc_floor > t.rv ->
            heal_below_floor t ~floor:reply.gc_floor
        | Ok _ | Error _ -> ());
        result
      end

let commit ?cross t w_tx =
  let ws = Mvcc.Db.writeset w_tx.db_tx in
  if Mvcc.Writeset.is_empty ws then begin
    Mvcc.Db.commit_readonly w_tx.db_tx;
    Stats.Counter.incr t.c_ro_commits;
    Ok ()
  end
  else certified_commit t w_tx ws ~cross

let spawn_refresher t bound =
  let fiber =
    Engine.spawn t.engine (fun () ->
        let rec loop () =
          Engine.sleep t.engine bound;
          if
            (not t.paused)
            && Time.(Time.diff (Engine.now t.engine) t.last_activity >= bound)
          then refresh t;
          loop ()
        in
        loop ())
  in
  t.refresher <- Some fiber

(* ------------------------------------------------------------------ *)
(* Lifecycle *)

let create (env : Env.t) ~addr:address ?(part = 0) ~db:database ~cpu ~certifiers
    ~req_id_base ~config:cfg () =
  let engine = env.Env.engine and net = env.Env.net in
  let metrics = env.Env.metrics and trace = env.Env.trace in
  let events = env.Env.events in
  if cfg.apply_workers < 1 then
    invalid_arg "Proxy.create: apply_workers must be >= 1";
  let policy =
    if cfg.apply_workers > 1 then Apply_pool.Parallel cfg.apply_workers
    else
      match cfg.mode with
      | Types.Base | Types.Tashkent_mw -> Apply_pool.Serial
      | Types.Tashkent_api -> Apply_pool.Commit_n
  in
  let counter name = Obs.Registry.counter metrics ("proxy." ^ address ^ "." ^ name) in
  let mailbox = Net.Network.register net address in
  let client =
    Cert_client.create engine ~net ~my_addr:address ~certifiers ~req_id_base ()
  in
  (* Cumulative robustness counters of the certifier client, exported as
     gauges: chaos accounting reads them over the whole run, so they are
     deliberately not windowed by [Registry.reset]. *)
  List.iter
    (fun (name, read) ->
      Obs.Registry.gauge metrics
        ("cert_client." ^ address ^ "." ^ name)
        (fun () -> float_of_int (read client)))
    [
      ("requests_sent", Cert_client.requests_sent);
      ("retries", Cert_client.retries);
      ("failovers", Cert_client.failovers);
      ("refetches", Cert_client.refetches);
    ];
  let t =
    {
      engine;
      cfg;
      address;
      part;
      net;
      mailbox;
      database;
      cpu;
      client;
      work = Mailbox.create engine ~name:(address ^ ".work") ();
      policy;
      pool = Apply_pool.create engine ~name:address ~policy ~metrics ~trace ();
      rv = 0;
      inflight = 0;
      last_activity = Engine.now engine;
      paused = false;
      incarnation = 0;
      applier = None;
      refresher = None;
      journaling = false;
      journal = [];
      submit_seq = 0;
      trace;
      events;
      c_commits = counter "commits";
      c_cert_aborts = counter "cert_aborts";
      c_local_aborts = counter "local_aborts";
      c_ro_commits = counter "read_only_commits";
      c_applied = counter "remote_ws_applied";
      c_batches = counter "apply_batches";
      c_artificial = counter "artificial_serializations";
      c_refreshes = counter "refreshes";
      c_promotions = counter "local_cert_promotions";
      c_preempted = counter "preempted_commits";
      c_invariant = counter "invariant_violations";
      c_ab_cert_ww = counter "abort.cert_ww";
      c_ab_cert_forced = counter "abort.cert_forced";
      c_ab_local_ww = counter "abort.local_ww";
      c_ab_local_deadlock = counter "abort.local_deadlock";
      c_ab_local_preempted = counter "abort.local_preempted";
      c_catch_up =
        (let floor = counter "catch_up.floor" and bridge = counter "catch_up.bridge" in
         let snapshot = counter "catch_up.snapshot" in
         function Floor -> floor | Bridge -> bridge | Snapshot -> snapshot);
    }
  in
  (* Reply dispatcher: long-lived, routes certifier messages to waiters. *)
  ignore
    (Engine.spawn engine (fun () ->
         let rec loop () =
           Cert_client.handle client (Mailbox.recv mailbox);
           loop ()
         in
         loop ()));
  spawn_applier t;
  (match cfg.staleness_bound with Some bound -> spawn_refresher t bound | None -> ());
  t

let pause t =
  t.paused <- true;
  t.incarnation <- t.incarnation + 1;
  (* Client fibers are cancelled by the host replica: their submitted
     transactions will never resolve, which the progress monitor must not
     count against the run. *)
  Obs.Events.emit t.events (Obs.Events.Actor_reset { actor = t.address });
  (* The replica cancels its client fibers before pausing; any of them that
     died between the inflight increment and decrement in [commit] will
     never decrement, which would disable [refresh] forever after resume. *)
  t.inflight <- 0;
  (match t.applier with Some f -> Engine.cancel t.engine f | None -> ());
  (match t.refresher with Some f -> Engine.cancel t.engine f | None -> ());
  t.applier <- None;
  t.refresher <- None;
  Mailbox.clear t.work;
  Apply_pool.pause t.pool

let disconnect t =
  (* The host replica crashed: its address must vanish from the network so
     in-flight replies are dropped (instead of queueing across the outage)
     and the per-link FIFO floors involving it are purged. The mailbox
     object survives — the dispatcher stays parked on it — and is handed
     back to the network by {!reconnect}. *)
  Net.Network.unregister t.net t.address;
  Mailbox.clear t.mailbox

let reconnect t = Net.Network.reattach t.net t.address t.mailbox

let resume t =
  t.paused <- false;
  t.rv <- Mvcc.Db.current_version t.database;
  t.last_activity <- Engine.now t.engine;
  Apply_pool.resume t.pool;
  spawn_applier t;
  (match t.cfg.staleness_bound with Some bound -> spawn_refresher t bound | None -> ())

(* ------------------------------------------------------------------ *)
(* Statistics *)

let stats t =
  {
    commits = Stats.Counter.value t.c_commits;
    cert_aborts = Stats.Counter.value t.c_cert_aborts;
    local_aborts = Stats.Counter.value t.c_local_aborts;
    read_only_commits = Stats.Counter.value t.c_ro_commits;
    remote_ws_applied = Stats.Counter.value t.c_applied;
    apply_batches = Stats.Counter.value t.c_batches;
    artificial_serializations = Stats.Counter.value t.c_artificial;
    refreshes = Stats.Counter.value t.c_refreshes;
    local_cert_promotions = Stats.Counter.value t.c_promotions;
    preempted_commits = Stats.Counter.value t.c_preempted;
    apply_stalls = Apply_pool.stalls t.pool;
  }

let apply_parallelism t = Apply_pool.parallelism t.pool
let catch_ups t cause = Stats.Counter.value (t.c_catch_up cause)

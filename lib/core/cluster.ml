open Sim

(* Which partitions each replica subscribes to (partial replication). *)
type hosting = Host_all | Host_modulo

type config = {
  mode : Types.mode;
  n_replicas : int;
  n_certifiers : int;
  n_partitions : int;
  hosting : hosting;
  certifier : Certifier.config;
  replica : Replica.config;
  seed : int;
}

let default_config mode =
  {
    mode;
    n_replicas = 3;
    n_certifiers = 3;
    n_partitions = 1;
    hosting = Host_all;
    certifier = Certifier.default_config;
    replica = Replica.default_config mode;
    seed = 42;
  }

let config ?n_replicas ?n_certifiers ?n_partitions ?hosting ?apply_workers
    ?gc_interval ?max_snapshot_age ?certifier ?replica ?seed mode =
  let base = default_config mode in
  let replica =
    match replica with Some r -> r | None -> base.replica
  in
  let replica =
    match apply_workers with
    | Some w -> { replica with Replica.apply_workers = w }
    | None -> replica
  in
  let replica =
    match gc_interval with
    | Some g -> { replica with Replica.gc_interval = g }
    | None -> replica
  in
  let replica =
    match max_snapshot_age with
    | Some a -> { replica with Replica.max_snapshot_age = a }
    | None -> replica
  in
  {
    mode;
    n_replicas = Option.value ~default:base.n_replicas n_replicas;
    n_certifiers = Option.value ~default:base.n_certifiers n_certifiers;
    n_partitions = Option.value ~default:base.n_partitions n_partitions;
    hosting = Option.value ~default:base.hosting hosting;
    certifier = Option.value ~default:base.certifier certifier;
    replica;
    seed = Option.value ~default:base.seed seed;
  }

(* Reject impossible configurations with one message naming every problem,
   instead of letting them surface as a hang or an assert deep inside the
   simulation. *)
let validate cfg =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  if cfg.n_replicas < 1 then add "n_replicas must be >= 1 (got %d)" cfg.n_replicas;
  if cfg.n_certifiers < 1 then add "n_certifiers must be >= 1 (got %d)" cfg.n_certifiers
  else if cfg.n_certifiers mod 2 = 0 then
    add "n_certifiers must be odd for majority quorums (got %d)" cfg.n_certifiers;
  if cfg.n_partitions < 1 then
    add "n_partitions must be >= 1 (got %d)" cfg.n_partitions;
  (match cfg.hosting with
  | Host_modulo when cfg.n_replicas < cfg.n_partitions ->
      add
        "Host_modulo needs n_replicas >= n_partitions so every partition has a \
         replica (got %d < %d)"
        cfg.n_replicas cfg.n_partitions
  | Host_modulo | Host_all -> ());
  if cfg.replica.Replica.apply_workers < 1 then
    add "replica.apply_workers must be >= 1 (got %d)" cfg.replica.Replica.apply_workers;
  let non_negative name time =
    if Time.(time < Time.zero) then add "%s must be non-negative (got %s)" name (Time.to_string time)
  in
  non_negative "replica.exec_cpu" cfg.replica.Replica.exec_cpu;
  non_negative "replica.apply_cpu_per_ws" cfg.replica.Replica.apply_cpu_per_ws;
  (match cfg.replica.Replica.staleness_bound with
  | Some bound -> non_negative "replica.staleness_bound" bound
  | None -> ());
  (match cfg.replica.Replica.gc_interval with
  | Some interval -> non_negative "replica.gc_interval" interval
  | None -> ());
  (match cfg.replica.Replica.max_snapshot_age with
  | Some age -> non_negative "replica.max_snapshot_age" age
  | None -> ());
  non_negative "certifier.certify_cpu" cfg.certifier.Certifier.certify_cpu;
  non_negative "certifier.watermark_ttl" cfg.certifier.Certifier.watermark_ttl;
  match List.rev !problems with
  | [] -> ()
  | ps -> invalid_arg ("Cluster.create: " ^ String.concat "; " ps)

(* The rows loaded at version 0, shared by every certifier of the cluster.
   Their key index is built on first lookup: only log truncation of a delta
   reads it, so most runs never pay for it. *)
type initial = {
  mutable rows : (Mvcc.Key.t * Mvcc.Value.t) list;
  mutable index : Mvcc.Value.t Mvcc.Key.Tbl.t option;
}

let initial_value initial key =
  let index =
    match initial.index with
    | Some index -> index
    | None ->
        let index = Mvcc.Key.Tbl.create (List.length initial.rows) in
        List.iter (fun (key, value) -> Mvcc.Key.Tbl.replace index key value) initial.rows;
        initial.index <- Some index;
        index
  in
  Mvcc.Key.Tbl.find_opt index key

type t = {
  the_env : Env.t;
  cfg : config;
  groups : (int * Certifier.t list) list; (* partition -> its group, ascending *)
  replica_nodes : Replica.t list;
  key_partitioner : Partitioner.t;
  initial : initial;
}

(* A 1-partition cluster keeps the historical names (cert0, replica0) so
   seeds, metric dashboards and fault plans stay valid; a partitioned one
   prefixes certifiers with their group. *)
let certifier_name ~n_partitions g i =
  if n_partitions = 1 then Printf.sprintf "cert%d" i
  else Printf.sprintf "p%d.cert%d" g i

let replica_name i = Printf.sprintf "replica%d" i

let hosted_partitions cfg i =
  match cfg.hosting with
  | Host_all -> List.init cfg.n_partitions Fun.id
  | Host_modulo -> [ i mod cfg.n_partitions ]

let create ?engine ?metrics ?trace ?events cfg =
  validate cfg;
  (* The environment replays the historical stream discipline: root rng
     from the seed, network on its first split, then one split per
     component in construction order (group 0's certifiers, group 1's,
     ..., then replicas). With one partition this is exactly the legacy
     order. *)
  let env = Env.create ?engine ?metrics ?trace ?events ~seed:cfg.seed () in
  let group_ids =
    List.init cfg.n_partitions (fun g ->
        (g, List.init cfg.n_certifiers (certifier_name ~n_partitions:cfg.n_partitions g)))
  in
  let directory = if cfg.n_partitions = 1 then [] else group_ids in
  let initial = { rows = []; index = None } in
  let groups =
    List.map
      (fun (g, ids) ->
        ( g,
          List.map
            (fun id ->
              Certifier.create env ~id
                ~peers:(List.filter (fun p -> p <> id) ids)
                ~partition:g ~directory ~initial:(initial_value initial)
                ~config:cfg.certifier ())
            ids ))
      group_ids
  in
  let replica_nodes =
    List.init cfg.n_replicas (fun i ->
        let parts = hosted_partitions cfg i in
        let rgroups =
          List.map
            (fun p ->
              ( p,
                List.assoc p group_ids,
                (* Globally unique per (replica, partition); reduces to the
                   historical (i+1) * 100_000_000 when n_partitions = 1. *)
                ((i * cfg.n_partitions) + p + 1) * 100_000_000 ))
            parts
        in
        Replica.create env ~name:(replica_name i)
          ~n_partitions:cfg.n_partitions ~groups:rgroups
          ~config:{ cfg.replica with mode = cfg.mode }
          ())
  in
  {
    the_env = env;
    cfg;
    groups;
    replica_nodes;
    key_partitioner = Partitioner.create ~parts:cfg.n_partitions;
    initial;
  }

let env t = t.the_env
let engine t = t.the_env.Env.engine
let network t = t.the_env.Env.net
let configuration t = t.cfg
let metrics t = t.the_env.Env.metrics
let trace t = t.the_env.Env.trace
let events t = t.the_env.Env.events
let replicas t = t.replica_nodes
let replica t i = List.nth t.replica_nodes i
let partitioner t = t.key_partitioner
let certifier_groups t = t.groups
let certifiers t = List.concat_map snd t.groups
let certifier_ids t = List.map Certifier.id (certifiers t)

let group t ~part =
  match List.assoc_opt part t.groups with
  | Some nodes -> nodes
  | None -> invalid_arg (Printf.sprintf "Cluster.group: no partition %d" part)

let group_leader t ~part =
  List.find_opt
    (fun c -> Certifier.is_up c && Certifier.is_leader c)
    (group t ~part)

let leaders t =
  List.filter_map (fun (g, _) -> group_leader t ~part:g) t.groups

let leader t = group_leader t ~part:0

let settle t =
  let engine = engine t in
  let deadline = Time.add (Engine.now engine) (Time.sec 10) in
  let all_led () = List.length (leaders t) = List.length t.groups in
  let rec wait () =
    if (not (all_led ())) && Time.(Engine.now engine < deadline) then begin
      Engine.run ~until:(Time.add (Engine.now engine) (Time.of_ms 50.)) engine;
      wait ()
    end
  in
  wait ();
  if not (all_led ()) then
    failwith "Cluster.settle: some certifier group elected no leader"

let load_all t rows =
  t.initial.rows <- rows;
  t.initial.index <- None;
  List.iter (fun r -> Replica.load r rows) t.replica_nodes

(* The per-partition slice of the initial rows — what a hosting replica
   actually loaded. *)
let initial_slice t ~part =
  List.filter
    (fun (key, _) -> Partitioner.of_key t.key_partitioner key = part)
    t.initial.rows

let check_consistency_group t ~part cert =
  let problems = ref [] in
  let clog = Certifier.log cert in
  let lfloor = Cert_log.floor clog in
  let slice = initial_slice t ~part in
  (* Once the log is truncated the reference can only be rebuilt from
     the floor upwards: initial rows, then the folded base state as a
     wedge at the floor, then the live entries. *)
  let base_ws =
    lazy
      (Mvcc.Writeset.of_list
         (List.map
            (fun (key, value) ->
              match value with
              | Some v -> (key, Mvcc.Writeset.Update v)
              | None -> (key, Mvcc.Writeset.Delete))
            (Cert_log.base_rows clog)))
  in
  List.iter
    (fun r ->
      match Replica.db_of r ~part with
      | None -> () (* not subscribed to this partition *)
      | Some db when Replica.is_up r ->
          let store = Mvcc.Db.store db in
          let v = Mvcc.Store.current_version store in
          if v > Cert_log.version clog then
            problems :=
              Printf.sprintf "%s/p%d at version %d beyond certifier log %d"
                (Replica.name r) part v (Cert_log.version clog)
              :: !problems
          else if v < lfloor then
            (* The history this replica is at was pruned; it is about to
               heal through a snapshot transfer and cannot be verified
               against the log. Nothing to check yet. *)
            ()
          else begin
            (* Rebuild the reference state for version v and compare every
               key ever touched. *)
            let reference = Mvcc.Store.create () in
            List.iter
              (fun (key, value) -> Mvcc.Store.preload reference key value)
              slice;
            if lfloor > 0 then
              Mvcc.Store.install reference ~version:lfloor (Lazy.force base_ws);
            List.iter
              (fun (entry : Types.entry) ->
                Mvcc.Store.install reference ~version:entry.version entry.ws)
              (Cert_log.entries_between clog ~lo:lfloor ~hi:v);
            Mvcc.Store.force_version reference v;
            let check key =
              let expected = Mvcc.Store.read_latest reference key in
              let actual = Mvcc.Store.read store ~at:v key in
              let same =
                match (expected, actual) with
                | None, None -> true
                | Some a, Some b -> Mvcc.Value.equal a b
                | None, Some _ | Some _, None -> false
              in
              if not same then
                problems :=
                  Printf.sprintf
                    "%s/p%d: key %s diverges at version %d (expected %s, actual %s)"
                    (Replica.name r) part (Mvcc.Key.to_string key) v
                    (match expected with
                    | Some x -> Format.asprintf "%a" Mvcc.Value.pp x
                    | None -> "<none>")
                    (match actual with
                    | Some x -> Format.asprintf "%a" Mvcc.Value.pp x
                    | None -> "<none>")
                  :: !problems
            in
            List.iter (fun (key, _) -> check key) slice;
            List.iter
              (fun (entry : Types.entry) ->
                List.iter check (Mvcc.Writeset.keys entry.ws))
              (Cert_log.entries_between clog ~lo:0 ~hi:v)
          end
      | Some _ -> ())
    t.replica_nodes;
  !problems

let check_consistency t =
  let problems =
    List.concat_map
      (fun (part, _) ->
        match group_leader t ~part with
        | None -> [ Printf.sprintf "p%d: no certifier leader to check against" part ]
        | Some cert -> check_consistency_group t ~part cert)
      t.groups
  in
  if problems = [] then Ok () else Error (String.concat "; " problems)

(* Structural invariants on one group's certification log, checked against
   its current leader: version contiguity, at-most-once certification per
   (origin, req_id), no acknowledged commit missing from the log, and
   prefix agreement among up certifiers. Complements [check_consistency]
   (which checks replica *data* against the log) and is what the chaos
   harness asserts after every heal. *)
let check_log_invariants_group t ~part lead =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let llog = Certifier.log lead in
  let lv = Cert_log.version llog in
  let lfloor = Cert_log.floor llog in
  let entries = Cert_log.entries_between llog ~lo:0 ~hi:lv in
  (* 1. Versions are contiguous from the truncation floor: a gap means
     a decided entry was dropped somewhere between Paxos delivery and
     the log (truncation only ever removes a prefix, so the live window
     must still be dense). *)
  ignore
    (List.fold_left
       (fun expect (e : Types.entry) ->
         if e.version <> expect then
           add "p%d leader log gap: expected version %d, found %d" part expect
             e.version;
         e.version + 1)
       (lfloor + 1) entries);
  (* 2. Each transaction ({!Types.entry_id}) appears at most once: a
     duplicate means a retried request was certified twice (e.g. by a
     leader that exposed state before finishing recovery). Cross-partition
     fragments take part here too, under their session's transaction id. *)
  let seen = Hashtbl.create 1024 in
  let by_version = Hashtbl.create 1024 in
  List.iter
    (fun (e : Types.entry) ->
      let id = Types.entry_id e in
      let key = (id.gtx_origin, id.gtx_seq) in
      Hashtbl.replace by_version e.version (e.origin, e.req_id);
      (match Hashtbl.find_opt seen key with
      | Some v ->
          add "p%d duplicate certification: %s at versions %d and %d" part
            (Format.asprintf "%a" Types.pp_gtx id)
            v e.version
      | None -> ());
      Hashtbl.replace seen key e.version)
    entries;
  (* 3. No lost certified writeset: every commit a replica acknowledged
     to its clients must be backed by a log entry with that origin —
     live, or accounted for by the truncation ledger.
     (Assumes proxy stats have not been reset since the run began.) *)
  let per_origin = Hashtbl.create 8 in
  List.iter
    (fun (e : Types.entry) ->
      Hashtbl.replace per_origin e.origin
        (1 + Option.value ~default:0 (Hashtbl.find_opt per_origin e.origin)))
    entries;
  List.iter
    (fun r ->
      match Replica.proxy_of r ~part with
      | Some proxy when Replica.is_up r ->
          let origin = Proxy.addr proxy in
          let commits = (Proxy.stats proxy).commits in
          let backed =
            Option.value ~default:0 (Hashtbl.find_opt per_origin origin)
            + Cert_log.truncated_for_origin llog origin
          in
          if commits > backed then
            add "%s acknowledged %d commits but the p%d log backs only %d (lost writeset)"
              origin commits part backed
      | Some _ | None -> ())
    t.replica_nodes;
  (* 4. Prefix agreement: every up certifier's log must match the
     leader's on the versions both hold — Paxos must never let two
     certifiers decide different entries for the same slot. *)
  List.iter
    (fun c ->
      if Certifier.is_up c && not (String.equal (Certifier.id c) (Certifier.id lead))
      then
        let clog = Certifier.log c in
        let cv = min (Cert_log.version clog) lv in
        List.iter
          (fun (e : Types.entry) ->
            match Hashtbl.find_opt by_version e.version with
            | Some (origin, req_id)
              when String.equal origin e.origin && req_id = e.req_id ->
                ()
            | Some _ ->
                add "%s log diverges from leader at version %d" (Certifier.id c)
                  e.version
            | None -> ())
          (Cert_log.entries_between clog ~lo:0 ~hi:cv))
    (group t ~part);
  List.rev !problems

let check_log_invariants t =
  let problems =
    List.concat_map
      (fun (part, _) ->
        match group_leader t ~part with
        | None -> [ Printf.sprintf "p%d: no certifier leader to check against" part ]
        | Some lead -> check_log_invariants_group t ~part lead)
      t.groups
  in
  if problems = [] then Ok () else Error (String.concat "; " problems)

(* Cross-partition atomicity: every fragment a group committed with an
   {!Types.xatom} witness must have committed siblings — no sibling group
   may record the same transaction as aborted or unknown. Checked from the
   never-pruned outcome tables, so log truncation cannot hide a violation;
   a sibling group with no up member is skipped (nothing to ask).

   Each group delivers its own decision independently, so a scan can
   catch a transaction milliseconds after one group's log committed it
   and before the sibling group's decision delivered. A non-empty
   first scan therefore runs the simulation for [settle] and keeps only
   the problems that are still there — in-flight exchanges resolve, a
   genuinely lost outcome (or a commit/abort split) does not. *)
let cross_atomicity_problems t =
  let problems = ref [] in
  let witness part =
    match group_leader t ~part with
    | Some c -> Some c
    | None -> List.find_opt Certifier.is_up (group t ~part)
  in
  List.iter
    (fun (part, _) ->
      match witness part with
      | None -> ()
      | Some c ->
          let clog = Certifier.log c in
          List.iter
            (fun (e : Types.entry) ->
              match e.xa with
              | None -> ()
              | Some { gtx; parts } ->
                  List.iter
                    (fun sibling ->
                      if sibling <> part then
                        match witness sibling with
                        | None -> ()
                        | Some w -> (
                            match Certifier.outcome w gtx with
                            | Some (Some _) -> ()
                            | Some None ->
                                problems := (gtx, part, sibling, `Aborted) :: !problems
                            | None ->
                                problems := (gtx, part, sibling, `Unknown) :: !problems))
                    parts)
            (Cert_log.entries_between clog ~lo:0 ~hi:(Cert_log.version clog)))
    t.groups;
  List.rev !problems

let check_cross_atomicity ?(settle = Time.sec 1) t =
  let problems =
    match cross_atomicity_problems t with
    | [] -> []
    | first ->
        let engine = engine t in
        Engine.run ~until:(Time.add (Engine.now engine) settle) engine;
        let second = cross_atomicity_problems t in
        List.filter (fun p -> List.mem p second) first
  in
  let describe (gtx, part, sibling, kind) =
    let gname = Format.asprintf "%a" Types.pp_gtx gtx in
    match kind with
    | `Aborted ->
        Printf.sprintf "%s committed in p%d but aborted in p%d (atomicity broken)"
          gname part sibling
    | `Unknown ->
        Printf.sprintf "%s committed in p%d but unknown in p%d [%s]" gname part
          sibling
          (String.concat " "
             (List.map (fun c -> Certifier.x_debug c ~gtx) (group t ~part:sibling)))
  in
  match problems with
  | [] -> Ok ()
  | ps -> Error (String.concat "; " (List.map describe ps))

let all_proxies t =
  List.concat_map
    (fun r ->
      List.filter_map (fun part -> Replica.proxy_of r ~part) (Replica.partitions r))
    t.replica_nodes

let total_commits t =
  List.fold_left (fun acc p -> acc + (Proxy.stats p).commits) 0 (all_proxies t)

(* One registry reset restarts everyone's window (counters zeroed, each
   component's on_reset hook re-baselines its own cumulative state), and the
   trace ring starts fresh; the per-module reset_stats calls this used to
   spell out are now the components' own registry hooks. *)
let reset_stats t =
  Obs.Registry.reset t.the_env.Env.metrics;
  Obs.Trace.reset t.the_env.Env.trace

open Sim

(* Chaos harness: TPC-B on a replicated cluster under a fault plan, with
   the GSI safety invariants asserted after every heal/recovery point and
   at the end of the run. This is the regression net for the failover
   paths of §7: a run passes only if the cluster keeps certifying through
   leader crashes and partitions without duplicating, losing or reordering
   any certified writeset. *)

type plan_kind =
  | Scripted
  | Scripted_disk
  | Random of int
  | Explicit of Fault.plan
      (* a fully spelled-out plan — shrunk explore repros, targeted
         message-tap schedules *)

type config = {
  cluster : Tashkent.Cluster.config;
      (* n_partitions > 1 drives the partition-aware workload and adds
         the cross-partition atomicity invariant to every checkpoint *)
  duration : Time.t;
  plan : plan_kind;
  collect_trace : bool;
  disk_faults : bool;
  deltas : bool; (* TPC-B balance updates as commutative Add ops *)
}

(* How long a submitted transaction may stay unresolved (counted from the
   last fault heal) before the progress monitor flags it. The online
   protocol monitors (Obs.Monitor) are always attached and check every
   event as it is emitted. *)
let progress_bound = Time.sec 5

let default_config () =
  {
    (* GC every 5 s, so log truncation and store pruning are both
       exercised within a short chaos run *)
    cluster =
      Tashkent.Cluster.config ~gc_interval:(Some (Time.sec 5)) ~seed:1966
        Tashkent.Types.Tashkent_mw;
    duration = Time.sec 20;
    plan = Scripted;
    collect_trace = false;
    disk_faults = false;
    deltas = false;
  }

type result = {
  run : Scenario.outcome;
  commits : int;
  cert_aborts : int;
  local_aborts : int;
  cross_commits : int;
      (* multi-partition transactions committed atomically (Session stats;
         0 when n_partitions = 1) *)
  cross_aborts : int;
  cert_requests : int;
  cert_retries : int;
  cert_failovers : int;
  refetches : int;
  bridge_heals : int;
      (* commit replies whose remotes failed to bridge the replica's
         applied prefix and forced a pre-install fetch, summed over
         proxies — the stale-re-answer schedules regression-pin this *)
  trace : Obs.Trace.t;
  durable_acked : int;
  torn_discarded : int;
  corrupt_discarded : int;
  disk_failovers : int;
}

(* The acceptance scenario: a certifier-leader crash with later recovery,
   a replica partitioned away from the whole certifier group and healed,
   and a message-loss burst — each followed by an invariant checkpoint. *)
let scripted_plan ~n_certifiers =
  let certs = List.init n_certifiers (fun i -> Fault.Cert i) in
  [
    (Time.sec 2, Fault.Crash_group_leader 0);
    (Time.sec 5, Fault.Recover_group_crashed 0);
    (Time.sec 8, Fault.Partition ([ Fault.Rep 0 ], certs));
    (Time.sec 10, Fault.Heal ([ Fault.Rep 0 ], certs));
    (Time.sec 12, Fault.Drop_burst { rate = 0.1; duration = Time.sec 1 });
    (Time.of_sec 14.5, Fault.Heal_all);
  ]

(* The storage-fault acceptance scenario: a leader fsync stall long enough
   to trip the disk watchdog (degraded-disk failover), a torn-tail leader
   crash whose recovery scan must truncate the unacked record, and a
   corrupt-tail crash of a fixed certifier — each recovered, each followed
   by a checkpoint that now includes the durability invariant. *)
let scripted_disk_plan () =
  [
    ( Time.sec 2,
      Fault.Disk_stall
        { cert = None; extra = Time.of_ms 600.; duration = Time.sec 2 } );
    (Time.sec 6, Fault.Torn_crash { cert = None });
    (Time.sec 8, Fault.Recover_group_crashed 0);
    (Time.sec 11, Fault.Corrupt_tail { cert = Some 0 });
    (Time.sec 13, Fault.Recover_certifier 0);
    (Time.of_sec 15.5, Fault.Heal_all);
  ]

(* The partitioned acceptance scenario: crash a non-zero certifier
   group's leader while cross-partition transactions are in flight (its
   peers must re-derive the group's votes and decisions from the
   delivered log), recover it, then do the same to group 0, with a
   message-loss burst layered on top. One group is down at a time, so
   every group keeps a Paxos majority throughout. *)
let scripted_partition_plan () =
  [
    (Time.sec 2, Fault.Crash_group_leader 1);
    (Time.sec 5, Fault.Recover_group_crashed 1);
    (Time.sec 8, Fault.Crash_group_leader 0);
    (Time.sec 10, Fault.Recover_group_crashed 0);
    (Time.sec 12, Fault.Drop_burst { rate = 0.1; duration = Time.sec 1 });
    (Time.of_sec 14.5, Fault.Heal_all);
  ]

(* Offsets at which the plan has just healed or recovered something —
   each becomes an invariant checkpoint (after a grace period for retries
   in flight and elections to finish). One at or past the end of the run
   is left to the final check. *)
let checkpoints_of ~duration plan =
  List.filter_map
    (fun (time, action) ->
      match action with
      | Fault.Heal _ | Fault.Heal_all | Fault.Recover_certifier _
      | Fault.Recover_group_crashed _
      | Fault.Recover_replica _ ->
          let at = Time.add time (Time.sec 2) in
          if Time.(at < duration) then Some at else None
      | Fault.Partition _ | Fault.Drop_burst _ | Fault.Latency_spike _
      | Fault.Crash_certifier _ | Fault.Crash_group_leader _
      | Fault.Crash_replica _
      | Fault.Disk_stall _ | Fault.Disk_degrade _ | Fault.Torn_crash _
      | Fault.Corrupt_tail _ | Fault.Delay_msg _ | Fault.Drop_msg _
      | Fault.Crash_on_msg _ ->
          None)
    plan

(* A checkpoint is only meaningful once every certifier group has a
   leader and each group's rebuilt log has caught back up with every up
   replica hosting its partition (a freshly elected leader can briefly
   trail while state transfer / redelivery completes). *)
let wait_checkable (sc : Scenario.t) =
  let parts = List.map fst (Tashkent.Cluster.certifier_groups sc.cluster) in
  (* Highest commit version of this partition acked durable to any of its
     proxies: a freshly elected group leader must have re-delivered at
     least this far before the durability invariant is meaningful. *)
  let max_acked part =
    List.fold_left
      (fun acc proxy ->
        List.fold_left (fun acc (_, v) -> max acc v) acc (Tashkent.Proxy.journaled_commits proxy))
      0
      (Scenario.proxies ~part sc)
  in
  let group_ready part =
    match Tashkent.Cluster.group_leader sc.cluster ~part with
    | None -> false
    | Some lead ->
        let lv = Tashkent.Certifier.system_version lead in
        lv >= max_acked part
        && List.for_all
             (fun db -> Mvcc.Store.current_version (Mvcc.Db.store db) <= lv)
             (Scenario.dbs ~up:true ~part sc)
  in
  (* at most 10 s *)
  Scenario.wait_for sc ~step:(Time.of_ms 100.) ~limit:100 (fun () ->
      List.for_all group_ready parts)

(* The durability invariant (§4/§7 write-ahead discipline, end to end):
   every commit acked durable to some proxy before a crash — single- or
   cross-partition — must still be recorded at its acked version in the
   current leader's outcome table (never pruned, rebuilt by redelivery)
   after recovery, and, unless the slot was truncated behind the GC
   watermark, the certified log entry at that version must be the same
   transaction. Torn/corrupt-tail truncation may only ever discard
   records that were never acked. *)
let durability_violations (sc : Scenario.t) =
  List.concat_map
    (fun (part, _members) ->
      match Tashkent.Cluster.group_leader sc.cluster ~part with
      | None -> []
      | Some lead ->
          let log = Tashkent.Certifier.log lead in
          let top = Tashkent.Cert_log.version log in
          let floor = Tashkent.Cert_log.floor log in
          List.concat_map
            (fun proxy ->
              List.filter_map
                (fun (gtx, version) ->
                  let problem =
                    match Tashkent.Certifier.outcome lead gtx with
                    | Some (Some v) when v = version ->
                        if version < 1 || version > top then Some "beyond the log of"
                        else if
                          version > floor
                          && not
                               (Tashkent.Types.gtx_equal gtx
                                  (Tashkent.Types.entry_id (Tashkent.Cert_log.get log version)))
                        then Some "another transaction's log slot at"
                        else None
                    | None -> Some "unknown to"
                    | Some None -> Some "recorded aborted by"
                    | Some (Some v) -> Some (Printf.sprintf "recorded at version %d by" v)
                  in
                  Option.map
                    (fun what ->
                      Printf.sprintf
                        "durability: commit %s acked to %s at version %d is %s \
                         p%d's certifier after recovery"
                        (Format.asprintf "%a" Tashkent.Types.pp_gtx gtx)
                        (Tashkent.Proxy.addr proxy) version what part)
                    problem)
                (Tashkent.Proxy.journaled_commits proxy))
            (Scenario.proxies ~part sc))
    (Tashkent.Cluster.certifier_groups sc.cluster)

let check (sc : Scenario.t) =
  wait_checkable sc;
  let stamp msg =
    Printf.sprintf "t=%s: %s" (Time.to_string (Engine.now sc.engine)) msg
  in
  List.map stamp (Scenario.invariant_violations sc @ durability_violations sc)

let run ?(config = default_config ()) () =
  let n_partitions = config.cluster.n_partitions in
  let spec =
    (* Partitioned runs drive the partition-aware profile (a third of
       the transactions span two certifier groups), so the
       chaos plan exercises the cross-partition commit protocol;
       single-partition runs keep the seed TPC-B workload bit-for-bit. *)
    if n_partitions > 1 then
      Workload.Partlocal.profile ~partitions:n_partitions ~cross_ratio:0.33 ()
    else Workload.Tpcb.profile ~deltas:config.deltas ()
  in
  let sc =
    Scenario.start
      (Scenario.config ~trace:config.collect_trace ~monitors:true
         ~progress_bound config.cluster spec)
  in
  let proxies = Scenario.proxies sc in
  List.iter Tashkent.Proxy.enable_commit_journal proxies;
  let plan =
    match config.plan with
    | Scripted when n_partitions > 1 -> scripted_partition_plan ()
    | Scripted -> scripted_plan ~n_certifiers:config.cluster.n_certifiers
    | Scripted_disk -> scripted_disk_plan ()
    | Random seed ->
        Fault.random_plan ~seed ~duration:config.duration
          ~n_certifiers:config.cluster.n_certifiers
          ~n_replicas:config.cluster.n_replicas ~n_partitions
          ~disk_faults:config.disk_faults ()
    | Explicit plan -> plan
  in
  (* A checkpoint after every heal, then a final end-to-end one once the
     injector is fully quiescent. *)
  let run =
    Scenario.run_plan sc ~plan ~duration:config.duration
      ~stops:(checkpoints_of ~duration:config.duration plan)
      ~at_stop:(fun _ -> check sc)
      ~drain_limit:30
      ~final:(fun () -> check sc)
  in
  let over_proxies f = Scenario.sum f proxies in
  let sum f = over_proxies (fun p -> f (Tashkent.Proxy.client p)) in
  let proxy_sum f = over_proxies (fun p -> f (Tashkent.Proxy.stats p)) in
  let session_sum f =
    Scenario.sum
      (fun r -> f (Tashkent.Session.stats (Tashkent.Replica.session r)))
      (Tashkent.Cluster.replicas sc.cluster)
  in
  let cert_sum f =
    Scenario.sum
      (fun c -> f (Tashkent.Certifier.stats c))
      (Tashkent.Cluster.certifiers sc.cluster)
  in
  {
    run;
    commits = proxy_sum (fun (s : Tashkent.Proxy.stats) -> s.commits);
    cert_aborts = proxy_sum (fun (s : Tashkent.Proxy.stats) -> s.cert_aborts);
    local_aborts = proxy_sum (fun (s : Tashkent.Proxy.stats) -> s.local_aborts);
    cross_commits =
      session_sum (fun (s : Tashkent.Session.stats) -> s.cross_commits);
    cross_aborts =
      session_sum (fun (s : Tashkent.Session.stats) -> s.cross_aborts);
    cert_requests = sum Tashkent.Cert_client.requests_sent;
    cert_retries = sum Tashkent.Cert_client.retries;
    cert_failovers = sum Tashkent.Cert_client.failovers;
    refetches = sum Tashkent.Cert_client.refetches;
    bridge_heals = over_proxies (fun p -> Tashkent.Proxy.catch_ups p Bridge);
    trace = sc.trace;
    durable_acked =
      over_proxies (fun p -> List.length (Tashkent.Proxy.journaled_commits p));
    torn_discarded =
      cert_sum (fun (s : Tashkent.Certifier.stats) -> s.wal_torn_discarded);
    corrupt_discarded =
      cert_sum (fun (s : Tashkent.Certifier.stats) -> s.wal_corrupt_discarded);
    disk_failovers =
      cert_sum (fun (s : Tashkent.Certifier.stats) -> s.disk_failovers);
  }

let pp_faults fmt = function
  | None -> Format.fprintf fmt "faults: none"
  | Some (f : Fault.stats) ->
      Format.fprintf fmt
        "faults: %d crashes, %d recoveries, %d cuts, %d heals, %d bursts, %d \
         spikes@,disk faults: %d stalls, %d degrades, %d torn, %d corrupt"
        f.crashes f.recoveries f.partitions_cut f.heals f.drop_bursts
        f.latency_spikes f.disk_stalls f.disk_degrades f.torn_crashes
        f.corrupt_tails

let pp_result fmt r =
  let pp_list fmt vs = List.iter (fun v -> Format.fprintf fmt "@,  %s" v) vs in
  Format.fprintf fmt
    "@[<v>commits              %d@,cert aborts          %d@,local aborts         %d@,\
     cross commits        %d@,cross aborts         %d@,\
     cert requests        %d@,cert retries         %d@,cert failovers       %d@,\
     re-fetches           %d@,%a@,durable acked        %d@,torn discarded       %d@,\
     corrupt discarded    %d@,disk failovers       %d@,\
     invariant checks     %d@,violations           %d%a@,\
     monitor events       %d@,monitor violations   %d%a@,\
     bridge heals         %d@]"
    r.commits r.cert_aborts r.local_aborts r.cross_commits r.cross_aborts
    r.cert_requests r.cert_retries r.cert_failovers r.refetches pp_faults
    r.run.fault r.durable_acked r.torn_discarded r.corrupt_discarded
    r.disk_failovers r.run.checks
    (List.length r.run.violations)
    pp_list r.run.violations r.run.monitor_events
    (List.length r.run.monitor_violations)
    pp_list r.run.monitor_violations r.bridge_heals

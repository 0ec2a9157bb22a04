open Sim

type node = Cert of int | Rep of int

let pp_node fmt = function
  | Cert i -> Format.fprintf fmt "cert%d" i
  | Rep i -> Format.fprintf fmt "replica%d" i

(* Disk-fault targets: a certifier by index, or whoever leads at fire time. *)
let pp_cert_target fmt = function
  | None -> Format.pp_print_string fmt "leader"
  | Some i -> Format.fprintf fmt "cert%d" i

(* Message classes a tap rule can match — the protocol messages whose
   precise reordering has historically hidden bugs. *)
type msg_class =
  | M_cert_request
  | M_cert_reply
  | M_fetch_reply
  | M_xvote
  | M_paxos_prepare
  | M_paxos_accept
  | M_paxos_accept_ok
  | M_paxos_commit
  | M_paxos_heartbeat

let msg_class_name = function
  | M_cert_request -> "cert-request"
  | M_cert_reply -> "cert-reply"
  | M_fetch_reply -> "fetch-reply"
  | M_xvote -> "xvote"
  | M_paxos_prepare -> "paxos-prepare"
  | M_paxos_accept -> "paxos-accept"
  | M_paxos_accept_ok -> "paxos-accept-ok"
  | M_paxos_commit -> "paxos-commit"
  | M_paxos_heartbeat -> "paxos-heartbeat"

let pp_msg_class fmt c = Format.pp_print_string fmt (msg_class_name c)

let msg_class_matches cls (msg : Tashkent.Types.message) =
  match (cls, msg) with
  | M_cert_request, Tashkent.Types.Cert_request _
  | M_cert_reply, Tashkent.Types.Cert_reply _
  | M_fetch_reply, Tashkent.Types.Fetch_reply _
  | M_xvote, Tashkent.Types.Xvote _
  | M_paxos_prepare, Tashkent.Types.Paxos (Paxos.Node.Prepare _)
  | M_paxos_accept, Tashkent.Types.Paxos (Paxos.Node.Accept _)
  | M_paxos_accept_ok, Tashkent.Types.Paxos (Paxos.Node.Accept_ok _)
  | M_paxos_commit, Tashkent.Types.Paxos (Paxos.Node.Commit _)
  | M_paxos_heartbeat, Tashkent.Types.Paxos (Paxos.Node.Heartbeat _) ->
      true
  | _ -> false

type action =
  | Partition of node list * node list
  | Heal of node list * node list
  | Heal_all
  | Drop_burst of { rate : float; duration : Time.t }
  | Latency_spike of { a : node; b : node; extra : Time.t; duration : Time.t }
  | Crash_certifier of int
  | Recover_certifier of int
  | Crash_group_leader of int
  | Recover_group_crashed of int
  | Crash_replica of int
  | Recover_replica of int
  | Disk_stall of { cert : int option; extra : Time.t; duration : Time.t }
  | Disk_degrade of { cert : int option; factor : float; duration : Time.t }
  | Torn_crash of { cert : int option }
  | Corrupt_tail of { cert : int option }
  | Delay_msg of {
      cls : msg_class;
      src : node option;
      dst : node option;
      nth : int;
      extra : Time.t;
    }
  | Drop_msg of { cls : msg_class; src : node option; dst : node option; nth : int }
  | Crash_on_msg of {
      cls : msg_class;
      src : node option;
      dst : node option;
      nth : int;
      victim : node;
    }

let pp_endpoint fmt = function
  | None -> Format.pp_print_string fmt "*"
  | Some n -> pp_node fmt n

(* A literal space, not [pp_print_space]: the break hint turns into a
   newline outside an enclosing box, and action lines are repro artifacts
   that must stay one line wherever they are printed. *)
let pp_nodes fmt nodes =
  Format.pp_print_list
    ~pp_sep:(fun fmt () -> Format.pp_print_char fmt ' ')
    pp_node fmt nodes

let pp_action fmt = function
  | Partition (g1, g2) ->
      Format.fprintf fmt "partition {%a} | {%a}" pp_nodes g1 pp_nodes g2
  | Heal (g1, g2) -> Format.fprintf fmt "heal {%a} | {%a}" pp_nodes g1 pp_nodes g2
  | Heal_all -> Format.pp_print_string fmt "heal-all"
  | Drop_burst { rate; duration } ->
      Format.fprintf fmt "drop-burst %.2f for %a" rate Time.pp duration
  | Latency_spike { a; b; extra; duration } ->
      Format.fprintf fmt "latency-spike %a-%a +%a for %a" pp_node a pp_node b Time.pp
        extra Time.pp duration
  | Crash_certifier i -> Format.fprintf fmt "crash cert%d" i
  | Recover_certifier i -> Format.fprintf fmt "recover cert%d" i
  | Crash_group_leader g -> Format.fprintf fmt "crash p%d leader" g
  | Recover_group_crashed g -> Format.fprintf fmt "recover crashed p%d leader" g
  | Crash_replica i -> Format.fprintf fmt "crash replica%d" i
  | Recover_replica i -> Format.fprintf fmt "recover replica%d" i
  | Disk_stall { cert; extra; duration } ->
      Format.fprintf fmt "disk-stall %a +%a for %a" pp_cert_target cert Time.pp extra
        Time.pp duration
  | Disk_degrade { cert; factor; duration } ->
      Format.fprintf fmt "disk-degrade %a x%.1f for %a" pp_cert_target cert factor
        Time.pp duration
  | Torn_crash { cert } -> Format.fprintf fmt "torn-crash %a" pp_cert_target cert
  | Corrupt_tail { cert } -> Format.fprintf fmt "corrupt-tail %a" pp_cert_target cert
  | Delay_msg { cls; src; dst; nth; extra } ->
      Format.fprintf fmt "delay-msg %a#%d %a->%a +%a" pp_msg_class cls nth
        pp_endpoint src pp_endpoint dst Time.pp extra
  | Drop_msg { cls; src; dst; nth } ->
      Format.fprintf fmt "drop-msg %a#%d %a->%a" pp_msg_class cls nth pp_endpoint
        src pp_endpoint dst
  | Crash_on_msg { cls; src; dst; nth; victim } ->
      Format.fprintf fmt "crash-on-msg %a#%d %a->%a kill %a" pp_msg_class cls nth
        pp_endpoint src pp_endpoint dst pp_node victim

type plan = (Time.t * action) list

type stats = {
  actions_applied : int;
  partitions_cut : int;
  heals : int;
  drop_bursts : int;
  latency_spikes : int;
  crashes : int;
  recoveries : int;
  disk_stalls : int;
  disk_degrades : int;
  torn_crashes : int;
  corrupt_tails : int;
  msg_taps_armed : int;
  msg_taps_fired : int;
}

(* An armed message-tap rule: counts matching sends down from [nth] and
   fires its effect exactly once on the [nth]-th match. *)
type tap_effect = Tap_drop | Tap_delay of Time.t | Tap_crash of node

type tap_rule = {
  rule_cls : msg_class;
  rule_src : string option;
  rule_dst : string option;
  mutable rule_nth : int;
  rule_eff : tap_effect;
}

type t = {
  engine : Engine.t;
  cluster : Tashkent.Cluster.t;
  net : Tashkent.Types.message Net.Network.t;
  events : Obs.Events.t;
  (* Armed {!tap_rule}s; the injector owns the network's single message
     tap while this list is non-empty. *)
  mutable rules : tap_rule list;
  mutable last_healthy : bool;
  (* Undirected address pairs currently cut / spiked by this injector, so
     Heal / Heal_all can undo exactly what was done. *)
  mutable cut : (string * string) list;
  mutable spiked : (string * string) list;
  (* Leader victims (Crash_group_leader, leader-targeted Torn_crash and
     Corrupt_tail), newest first per group, for Recover_group_crashed. *)
  mutable crashed_group_leaders : (int * int) list; (* (group, flat index) *)
  mutable crashed_nodes : int; (* crashes minus recoveries, any kind *)
  (* Disks with an outstanding injected stall / degrade, so Heal_all can
     clear them and [quiescent] can insist they are gone. *)
  mutable stalled_disks : Storage.Disk.t list;
  mutable degraded_disks : Storage.Disk.t list;
  (* Actions scheduled but not yet finished (timed faults count until
     their revert fires). *)
  mutable outstanding : int;
  mutable applied : int;
  c_cuts : int ref;
  c_heals : int ref;
  c_bursts : int ref;
  c_spikes : int ref;
  c_crashes : int ref;
  c_recoveries : int ref;
  c_disk_stalls : int ref;
  c_disk_degrades : int ref;
  c_torn : int ref;
  c_corrupt : int ref;
  c_taps_armed : int ref;
  c_taps_fired : int ref;
}

let addr t = function
  | Cert i -> List.nth (Tashkent.Cluster.certifier_ids t.cluster) i
  | Rep i -> Tashkent.Replica.name (Tashkent.Cluster.replica t.cluster i)

let pair_eq (a, b) (c, d) =
  (String.equal a c && String.equal b d) || (String.equal a d && String.equal b c)

let cut_pair t a b =
  if not (List.exists (pair_eq (a, b)) t.cut) then begin
    Net.Network.partition t.net a b;
    t.cut <- (a, b) :: t.cut;
    incr t.c_cuts
  end

let heal_pair t a b =
  if List.exists (pair_eq (a, b)) t.cut then begin
    Net.Network.heal t.net a b;
    t.cut <- List.filter (fun p -> not (pair_eq (a, b) p)) t.cut;
    incr t.c_heals
  end

let cross t g1 g2 f =
  List.iter (fun a -> List.iter (fun b -> f (addr t a) (addr t b)) g2) g1

let certifier_at t i = List.nth (Tashkent.Cluster.certifiers t.cluster) i

(* Flat index (into the group-major certifier list) of a group's current
   leader. *)
let group_leader_index t g =
  match Tashkent.Cluster.group_leader t.cluster ~part:g with
  | None -> None
  | Some lead ->
      let id = Tashkent.Certifier.id lead in
      let rec find i = function
        | [] -> None
        | c :: rest ->
            if String.equal (Tashkent.Certifier.id c) id then Some i
            else find (i + 1) rest
      in
      find 0 (Tashkent.Cluster.certifiers t.cluster)

(* [None] targets whichever certifier leads group 0 when the action fires;
   skipped when an election is in progress. *)
let resolve_cert t = function Some i -> Some i | None -> group_leader_index t 0

let cert_disk t i = Tashkent.Certifier.disk (certifier_at t i)

(* The one crash path: count it, mark it crashed, crash it. Guarded on
   [is_up] because a plan edited by the explore shrinker, or one whose
   crash windows race, may crash a node that is already down; a double
   crash must be a no-op, not a crashed_nodes miscount. [wal_fault]
   leaves a certifier's WAL with a torn or corrupt tail. Returns whether
   the node went down. *)
let crash_node ?wal_fault t node =
  let up, crash =
    match node with
    | Cert i ->
        let c = certifier_at t i in
        (Tashkent.Certifier.is_up c, fun () -> Tashkent.Certifier.crash ?wal_fault c)
    | Rep i ->
        let r = Tashkent.Cluster.replica t.cluster i in
        (Tashkent.Replica.is_up r, fun () -> Tashkent.Replica.crash r)
  in
  if up then begin
    incr t.c_crashes;
    t.crashed_nodes <- t.crashed_nodes + 1;
    crash ()
  end;
  up

(* The one certifier recovery. Guarded so a recover whose paired crash
   no-oped (the victim was already down, or recovered by another action)
   cannot drive crashed_nodes negative and wedge [quiescent]. *)
let recover_certifier t i =
  let c = certifier_at t i in
  if not (Tashkent.Certifier.is_up c) then begin
    incr t.c_recoveries;
    t.crashed_nodes <- t.crashed_nodes - 1;
    Tashkent.Certifier.recover c
  end

(* Crash group [g]'s current leader (nothing during its election) and push
   it onto the group's victim stack for Recover_group_crashed. *)
let crash_group_leader ?wal_fault t g =
  match group_leader_index t g with
  | Some i when crash_node ?wal_fault t (Cert i) ->
      t.crashed_group_leaders <- (g, i) :: t.crashed_group_leaders;
      true
  | Some _ | None -> false

let recover_group_crashed t g =
  match List.assoc_opt g t.crashed_group_leaders with
  | None -> ()
  | Some i ->
      t.crashed_group_leaders <- List.remove_assoc g t.crashed_group_leaders;
      recover_certifier t i

(* A disk-fault crash: a leader-targeted one ([cert = None]) goes onto
   group 0's victim stack, like Crash_group_leader 0. *)
let crash_with_wal_fault t ~counter ~wal_fault cert =
  let crashed =
    match cert with
    | None -> crash_group_leader ~wal_fault t 0
    | Some i -> crash_node ~wal_fault t (Cert i)
  in
  if crashed then incr counter

let is_quiescent t =
  t.outstanding = 0 && t.cut = [] && t.spiked = []
  && t.crashed_group_leaders = [] && t.crashed_nodes = 0
  && t.stalled_disks = [] && t.degraded_disks = [] && t.rules = []
  && Net.Network.drop_rate t.net = 0.

(* Health transitions for the progress monitor: [healthy = true] marks the
   moment every injected fault has healed, restarting its clock. Emitted
   only on transitions, never per message. *)
let note_health t =
  let h = is_quiescent t in
  if h <> t.last_healthy then begin
    t.last_healthy <- h;
    Obs.Events.emit t.events (Obs.Events.Fault_health { healthy = h })
  end

(* ------------------------------------------------------------------ *)
(* Targeted message taps: precise, schedule-exploration faults. A rule
   counts sends matching its (class, src, dst) filter and fires exactly
   once on the nth match. The injector owns the network's single tap
   while any rule is armed; with no rules the tap is uninstalled, so an
   idle injector leaves [send] on its zero-cost path. *)

let tap_callback t ~src ~dst msg =
  let drop = ref false and delay = ref Time.zero in
  let crash_scheduled = ref false in
  List.iter
    (fun r ->
      let src_ok =
        match r.rule_src with None -> true | Some a -> String.equal a src
      in
      let dst_ok =
        match r.rule_dst with None -> true | Some a -> String.equal a dst
      in
      if src_ok && dst_ok && msg_class_matches r.rule_cls msg then begin
        r.rule_nth <- r.rule_nth - 1;
        if r.rule_nth = 0 then begin
          incr t.c_taps_fired;
          match r.rule_eff with
          | Tap_drop -> drop := true
          | Tap_delay extra -> delay := Time.add !delay extra
          | Tap_crash victim ->
              (* Crashing inside [send] would re-enter the network (a
                 crash purges the victim's links); defer to the next
                 engine step at the same sim time. *)
              crash_scheduled := true;
              Engine.schedule_after t.engine Time.zero (fun () ->
                  ignore
                    (Engine.spawn t.engine (fun () ->
                         ignore (crash_node t victim);
                         note_health t)))
        end
      end)
    t.rules;
  let live = List.filter (fun r -> r.rule_nth <> 0) t.rules in
  if List.length live <> List.length t.rules then begin
    t.rules <- live;
    if t.rules = [] then Net.Network.set_tap t.net None;
    (* A fired crash makes the cluster unhealthy in the very next step:
       announcing "healed" in between would only confuse the monitors. *)
    if not !crash_scheduled then note_health t
  end;
  if !drop then Net.Network.Drop
  else if Time.is_zero !delay then Net.Network.Pass
  else Net.Network.Delay !delay

let arm_rule t ~cls ~src ~dst ~nth eff =
  if nth < 1 then invalid_arg "Fault: tap rule nth must be >= 1";
  incr t.c_taps_armed;
  let resolve = Option.map (fun n -> addr t n) in
  let r =
    {
      rule_cls = cls;
      rule_src = resolve src;
      rule_dst = resolve dst;
      rule_nth = nth;
      rule_eff = eff;
    }
  in
  let install = t.rules = [] in
  t.rules <- t.rules @ [ r ];
  if install then
    Net.Network.set_tap t.net
      (Some (fun ~src ~dst msg -> tap_callback t ~src ~dst msg))

(* Apply one action. Runs inside its own fiber: timed faults sleep here
   until their revert, and replica recovery blocks on restore + replay. *)
let apply t action =
  (match action with
  | Partition (g1, g2) -> cross t g1 g2 (cut_pair t)
  | Heal (g1, g2) -> cross t g1 g2 (heal_pair t)
  | Heal_all ->
      List.iter (fun (a, b) -> Net.Network.heal t.net a b) t.cut;
      t.c_heals := !(t.c_heals) + List.length t.cut;
      t.cut <- [];
      List.iter (fun (a, b) -> Net.Network.restore_link t.net a b) t.spiked;
      t.spiked <- [];
      Net.Network.set_drop_rate t.net 0.;
      List.iter Storage.Disk.clear_stall t.stalled_disks;
      t.stalled_disks <- [];
      List.iter Storage.Disk.clear_degrade t.degraded_disks;
      t.degraded_disks <- [];
      (* Disarm tap rules that never reached their nth match, so a plan
         whose targeted message never flowed still converges. *)
      if t.rules <> [] then begin
        t.rules <- [];
        Net.Network.set_tap t.net None
      end
  | Drop_burst { rate; duration } ->
      incr t.c_bursts;
      Net.Network.set_drop_rate t.net rate;
      Engine.sleep t.engine duration;
      Net.Network.set_drop_rate t.net 0.
  | Latency_spike { a; b; extra; duration } ->
      incr t.c_spikes;
      let a = addr t a and b = addr t b in
      Net.Network.slow_link t.net a b ~extra;
      t.spiked <- (a, b) :: t.spiked;
      Engine.sleep t.engine duration;
      Net.Network.restore_link t.net a b;
      t.spiked <- List.filter (fun p -> not (pair_eq (a, b) p)) t.spiked
  | Crash_certifier i -> ignore (crash_node t (Cert i))
  | Recover_certifier i -> recover_certifier t i
  | Crash_group_leader g -> ignore (crash_group_leader t g)
  | Recover_group_crashed g -> recover_group_crashed t g
  | Crash_replica i -> ignore (crash_node t (Rep i))
  | Recover_replica i ->
      (* Guarded like the certifier pair: a recover of an up replica must
         be a no-op, not a crashed_nodes miscount or a network reattach
         error. *)
      let r = Tashkent.Cluster.replica t.cluster i in
      if not (Tashkent.Replica.is_up r) then begin
        incr t.c_recoveries;
        t.crashed_nodes <- t.crashed_nodes - 1;
        ignore (Tashkent.Replica.recover r)
      end
  | Disk_stall { cert; extra; duration } -> (
      match resolve_cert t cert with
      | None -> ()
      | Some i ->
          incr t.c_disk_stalls;
          let disk = cert_disk t i in
          Storage.Disk.set_stall disk ~extra;
          t.stalled_disks <- disk :: t.stalled_disks;
          Engine.sleep t.engine duration;
          Storage.Disk.clear_stall disk;
          t.stalled_disks <- List.filter (fun d -> d != disk) t.stalled_disks)
  | Disk_degrade { cert; factor; duration } -> (
      match resolve_cert t cert with
      | None -> ()
      | Some i ->
          incr t.c_disk_degrades;
          let disk = cert_disk t i in
          Storage.Disk.set_degrade disk ~factor;
          t.degraded_disks <- disk :: t.degraded_disks;
          Engine.sleep t.engine duration;
          Storage.Disk.clear_degrade disk;
          t.degraded_disks <- List.filter (fun d -> d != disk) t.degraded_disks)
  | Torn_crash { cert } ->
      crash_with_wal_fault t ~counter:t.c_torn ~wal_fault:Paxos.Node.Torn_tail cert
  | Corrupt_tail { cert } ->
      crash_with_wal_fault t ~counter:t.c_corrupt ~wal_fault:Paxos.Node.Corrupt_tail cert
  | Delay_msg { cls; src; dst; nth; extra } ->
      arm_rule t ~cls ~src ~dst ~nth (Tap_delay extra)
  | Drop_msg { cls; src; dst; nth } -> arm_rule t ~cls ~src ~dst ~nth Tap_drop
  | Crash_on_msg { cls; src; dst; nth; victim } ->
      arm_rule t ~cls ~src ~dst ~nth (Tap_crash victim));
  t.applied <- t.applied + 1;
  t.outstanding <- t.outstanding - 1;
  note_health t

let inject cluster plan =
  let engine = Tashkent.Cluster.engine cluster in
  let t =
    {
      engine;
      cluster;
      net = Tashkent.Cluster.network cluster;
      events = Tashkent.Cluster.events cluster;
      rules = [];
      last_healthy = true;
      cut = [];
      spiked = [];
      crashed_group_leaders = [];
      crashed_nodes = 0;
      stalled_disks = [];
      degraded_disks = [];
      outstanding = List.length plan;
      applied = 0;
      c_cuts = ref 0;
      c_heals = ref 0;
      c_bursts = ref 0;
      c_spikes = ref 0;
      c_crashes = ref 0;
      c_recoveries = ref 0;
      c_disk_stalls = ref 0;
      c_disk_degrades = ref 0;
      c_torn = ref 0;
      c_corrupt = ref 0;
      c_taps_armed = ref 0;
      c_taps_fired = ref 0;
    }
  in
  (* A non-empty plan makes the run unhealthy until everything heals. *)
  note_health t;
  let plan = List.sort (fun (a, _) (b, _) -> Time.compare a b) plan in
  let start = Engine.now engine in
  ignore
    (Engine.spawn engine (fun () ->
         List.iter
           (fun (offset, action) ->
             let due = Time.add start offset in
             let now = Engine.now engine in
             if Time.(due > now) then Engine.sleep engine (Time.diff due now);
             (* Each action gets its own fiber so a timed fault's revert
                sleep or a blocking replica recovery never delays the next
                scheduled action. *)
             ignore (Engine.spawn engine (fun () -> apply t action)))
           plan));
  t

let stats t =
  {
    actions_applied = t.applied;
    partitions_cut = !(t.c_cuts);
    heals = !(t.c_heals);
    drop_bursts = !(t.c_bursts);
    latency_spikes = !(t.c_spikes);
    crashes = !(t.c_crashes);
    recoveries = !(t.c_recoveries);
    disk_stalls = !(t.c_disk_stalls);
    disk_degrades = !(t.c_disk_degrades);
    torn_crashes = !(t.c_torn);
    corrupt_tails = !(t.c_corrupt);
    msg_taps_armed = !(t.c_taps_armed);
    msg_taps_fired = !(t.c_taps_fired);
  }

let register_metrics t reg =
  let g name read = Obs.Registry.gauge reg ("fault." ^ name) read in
  g "actions_applied" (fun () -> float_of_int t.applied);
  g "partitions_cut" (fun () -> float_of_int !(t.c_cuts));
  g "heals" (fun () -> float_of_int !(t.c_heals));
  g "drop_bursts" (fun () -> float_of_int !(t.c_bursts));
  g "latency_spikes" (fun () -> float_of_int !(t.c_spikes));
  g "crashes" (fun () -> float_of_int !(t.c_crashes));
  g "recoveries" (fun () -> float_of_int !(t.c_recoveries));
  g "disk_stalls" (fun () -> float_of_int !(t.c_disk_stalls));
  g "disk_degrades" (fun () -> float_of_int !(t.c_disk_degrades));
  g "torn_crashes" (fun () -> float_of_int !(t.c_torn));
  g "corrupt_tails" (fun () -> float_of_int !(t.c_corrupt));
  g "msg_taps_armed" (fun () -> float_of_int !(t.c_taps_armed));
  g "msg_taps_fired" (fun () -> float_of_int !(t.c_taps_fired));
  g "outstanding" (fun () -> float_of_int t.outstanding)

let quiescent = is_quiescent

(* ------------------------------------------------------------------ *)
(* Seeded random plans *)

let random_plan ~seed ~duration ~n_certifiers ~n_replicas
    ?(n_partitions = 1) ?(disk_faults = false) ?(fsync_stall = Time.of_ms 600.) () =
  let rng = Rng.create (0xFA17 lxor seed) in
  let frac lo hi =
    Rng.time_uniform rng ~lo:(Time.scale duration lo) ~hi:(Time.scale duration hi)
  in
  let plan = ref [] in
  let add time action = plan := (time, action) :: !plan in
  (* Certifier-leader crash, recovered well before the horizon. One
     certifier is down at a time: a minority for any group of >= 3, so the
     remaining nodes keep a quorum (and n_certifiers = 1 setups simply get
     an outage window). *)
  let t_crash = frac 0.12 0.22 in
  add t_crash (Crash_group_leader 0);
  add (Time.add t_crash (frac 0.08 0.15)) (Recover_group_crashed 0);
  (* A replica partitioned away from every certifier, then healed. *)
  if n_replicas > 0 && n_certifiers > 0 then begin
    let victim = Rep (Rng.int rng n_replicas) in
    let certs = List.init n_certifiers (fun i -> Cert i) in
    let t_cut = frac 0.3 0.4 in
    add t_cut (Partition ([ victim ], certs));
    add (Time.add t_cut (frac 0.08 0.15)) (Heal ([ victim ], certs))
  end;
  (* An independent replica crash + recovery. *)
  if n_replicas > 0 then begin
    let i = Rng.int rng n_replicas in
    let t_down = frac 0.45 0.55 in
    add t_down (Crash_replica i);
    add (Time.add t_down (frac 0.1 0.15)) (Recover_replica i)
  end;
  (* Message-loss burst and a latency spike on a random certifier link. *)
  add (frac 0.2 0.6)
    (Drop_burst
       { rate = Rng.uniform rng ~lo:0.05 ~hi:0.2; duration = frac 0.05 0.1 });
  if n_certifiers > 1 then begin
    let a = Rng.int rng n_certifiers in
    let b = (a + 1 + Rng.int rng (n_certifiers - 1)) mod n_certifiers in
    add (frac 0.2 0.6)
      (Latency_spike
         {
           a = Cert a;
           b = Cert b;
           extra = Rng.time_uniform rng ~lo:(Time.of_ms 1.) ~hi:(Time.of_ms 5.);
           duration = frac 0.05 0.1;
         })
  end;
  (* Storage faults, opt-in. The windows are drawn after every network
     fault above, so a plan with [disk_faults = false] is bit-identical to
     the pre-storage-fault plan for the same seed. They are placed to keep
     at most one certifier down at a time: the leader crash above recovers
     by 0.37, the torn victim by 0.58, the corrupt victim by 0.78 — all
     before the 0.85 Heal_all backstop. *)
  if disk_faults && n_certifiers > 0 then begin
    (* Sustained fsync stall on the leader's log device: long enough per op
       to trip the certifier's fsync-deadline watchdog and force an
       abdication to a healthy-disk acceptor. *)
    add (frac 0.24 0.3)
      (Disk_stall { cert = None; extra = fsync_stall; duration = frac 0.06 0.1 });
    (* A uniformly slow (but not stuck) disk on a random certifier. *)
    add (frac 0.3 0.45)
      (Disk_degrade
         {
           cert = Some (Rng.int rng n_certifiers);
           factor = Rng.uniform rng ~lo:2.0 ~hi:6.0;
           duration = frac 0.05 0.1;
         });
    (* Power-fail the leader mid-write: its WAL keeps a torn tail for the
       recovery scan to truncate. *)
    let t_torn = frac 0.4 0.46 in
    add t_torn (Torn_crash { cert = None });
    add (Time.add t_torn (frac 0.08 0.12)) (Recover_group_crashed 0);
    (* Media corruption of the newest durable record on a random
       certifier, discovered at recovery. *)
    let victim = Rng.int rng n_certifiers in
    let t_corrupt = frac 0.62 0.68 in
    add t_corrupt (Corrupt_tail { cert = Some victim });
    add (Time.add t_corrupt (frac 0.06 0.1)) (Recover_certifier victim)
  end;
  (* Partitioned certification, opt-in by n_partitions > 1: crash a
     non-zero group's leader in the middle of the run — cross-partition
     transactions prepared against it must still decide atomically through
     the surviving majority and the vote re-gossip sweep. The draws come
     after every legacy draw, so a 1-partition plan is bit-identical to
     the pre-partitioning plan for the same seed. *)
  if n_partitions > 1 then begin
    let g = 1 + Rng.int rng (n_partitions - 1) in
    let t_down = frac 0.35 0.45 in
    add t_down (Crash_group_leader g);
    add (Time.add t_down (frac 0.1 0.15)) (Recover_group_crashed g)
  end;
  (* Backstop: whatever is still broken heals before the measurement tail. *)
  add (Time.scale duration 0.85) Heal_all;
  List.rev !plan

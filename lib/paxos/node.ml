open Sim

type 'v entry_value = 'v Wal_record.entry_value = Noop | Value of 'v

type 'v slot_value = { slot : int; ballot : Ballot.t; value : 'v entry_value }

type 'v message =
  | Prepare of { ballot : Ballot.t; from : string; commit_index : int }
  | Promise of {
      ballot : Ballot.t;
      from : string;
      accepted : 'v slot_value list;
      commit_index : int;
    }
  | Prepare_reject of { from : string; higher : Ballot.t }
  | Accept of { ballot : Ballot.t; from : string; entries : 'v slot_value list }
  | Accept_ok of { ballot : Ballot.t; from : string; slots : int list }
  | Accept_reject of { from : string; higher : Ballot.t }
  | Commit of { from : string; entries : (int * 'v entry_value) list; commit_index : int }
  | Heartbeat of { ballot : Ballot.t; from : string; commit_index : int }
  | Ask_transfer of { from : string; applied : int }

let entry_value_bytes value_bytes = function Noop -> 4 | Value v -> 4 + value_bytes v

let message_bytes value_bytes = function
  | Prepare _ | Prepare_reject _ | Accept_reject _ | Heartbeat _ -> 32
  | Accept_ok { slots; _ } -> 32 + (8 * List.length slots)
  | Promise { accepted; _ } ->
      List.fold_left (fun a sv -> a + 24 + entry_value_bytes value_bytes sv.value) 32 accepted
  | Accept { entries; _ } ->
      List.fold_left (fun a sv -> a + 24 + entry_value_bytes value_bytes sv.value) 32 entries
  | Commit { entries; _ } ->
      List.fold_left (fun a (_, v) -> a + 12 + entry_value_bytes value_bytes v) 32 entries
  | Ask_transfer _ -> 16

(* Timer constants: a leader heartbeats every [heartbeat_interval]; a
   follower that hears nothing for a timeout drawn uniformly from
   [election_timeout_lo, election_timeout_hi] starts an election. *)
let heartbeat_interval = Time.of_ms 20.
let election_timeout_lo = Time.of_ms 80.
let election_timeout_hi = Time.of_ms 160.

(* The slots whose values were accepted above [above], in ascending slot
   order. Slots are numbered contiguously from 1, so [accepted] and
   [chosen] are {!Dense} arrays indexed by slot. *)
let values_above accepted ~above =
  let rec collect s acc =
    if s <= above || s <= 0 then acc
    else collect (s - 1) (if Dense.mem accepted s then Dense.get accepted s :: acc else acc)
  in
  collect (Dense.bound accepted - 1) []

type 'v role =
  | Follower
  | Candidate of { ballot : Ballot.t; mutable promises : (string * 'v slot_value list) list }
  | Leader of { ballot : Ballot.t; mutable next_slot : int; acks : int Version_window.t }
      (* [acks]: per uncommitted slot with an Accept_ok, the nodes that
         acked it as a bitmask (bit [i] is index [i] of [members]); a slot
         leaves it when it commits. *)

type 'v t = {
  engine : Engine.t;
  rng : Rng.t;
  node_id : string;
  peers : string list;
  members : Names.t;  (* this node, then [peers]: ack bit [i] is index [i] *)
  cluster_size : int;
  send : dst:string -> 'v message -> unit;
  on_deliver : int -> 'v -> unit;
  node_wal : 'v Wal_record.t Storage.Wal.t;
  value_bytes_hint : int; (* only for wal accounting of unknown values *)
  mutable up : bool;
  mutable promised : Ballot.t;
  accepted : 'v slot_value Dense.t;
  chosen : 'v entry_value Dense.t;
  mutable commit : int;
  mutable applied : int;
  mutable role : 'v role;
  (* Highest slot inherited from previous leaderships at election time; a
     new leader must not expose state (certify against its log) until these
     are delivered, or a retried request could be certified against a log
     missing an accepted-but-undelivered twin of itself. *)
  mutable recovery_floor : int;
  mutable leader_seen : string option;
  mutable election_deadline : Time.t;
  accept_broadcasts : Stats.Counter.t;
  accept_batch_sizes : Stats.Summary.t;
}

(* The filler of absent [accepted] cells; real slots start at 1. *)
let no_slot_value = { slot = 0; ballot = Ballot.initial; value = Noop }

let majority t = (t.cluster_size / 2) + 1
let id t = t.node_id
let is_up t = t.up
let commit_index t = t.commit

let pending_ack_slots t =
  match t.role with
  | Leader l -> Version_window.length l.acks
  | Follower | Candidate _ -> 0

let current_ballot t = t.promised
let wal t = t.node_wal

let is_leader t = match t.role with Leader _ -> true | Follower | Candidate _ -> false

let leader_ready t =
  match t.role with
  | Leader _ -> t.applied >= t.recovery_floor
  | Follower | Candidate _ -> false

let leader_hint t =
  match t.role with Leader _ -> Some t.node_id | Follower | Candidate _ -> t.leader_seen

let broadcast t msg = List.iter (fun peer -> t.send ~dst:peer msg) t.peers

let fresh_deadline t =
  Time.add (Engine.now t.engine)
    (Rng.time_uniform t.rng ~lo:election_timeout_lo ~hi:election_timeout_hi)

let record_bytes t r = Wal_record.bytes (fun _ -> t.value_bytes_hint) r

(* Promises are double-written: two consecutive copies of the record, one
   fsync for the pair. An acceptor that "un-promises" after a restart can
   let two leaders win the same ballot, so the newest promise must survive
   every single-record storage fault the recovery scan can hit: a torn
   final record was never acked (write-ahead: we only send the Promise
   after the sync returns), and corruption of the final durable record
   leaves the first copy of the pair intact. *)
let persist_promise t record =
  let bytes = record_bytes t record in
  ignore (Storage.Wal.append t.node_wal ~bytes record);
  ignore (Storage.Wal.append_and_sync t.node_wal ~bytes record)

let deliver_ready t =
  while Dense.mem t.chosen (t.applied + 1) do
    t.applied <- t.applied + 1;
    match Dense.get t.chosen t.applied with
    | Value v -> t.on_deliver t.applied v
    | Noop -> ()
  done

let learn t slot value =
  if not (Dense.mem t.chosen slot) then Dense.set t.chosen slot value

(* ------------------------------------------------------------------ *)
(* Leader side *)

let newly_chosen_entries t ~from_slot =
  let rec collect s acc =
    if s < from_slot then acc else collect (s - 1) ((s, Dense.get t.chosen s) :: acc)
  in
  collect t.commit []

let rec popcount x = if x = 0 then 0 else 1 + popcount (x land (x - 1))

(* The ack bit of node [from]; 0 for a node outside the group. *)
let ack_bit t from =
  let i = Names.find t.members from in
  if i < 0 then 0 else 1 lsl i

let advance_commit t =
  match t.role with
  | Leader l ->
      let start = t.commit + 1 in
      while
        popcount (Version_window.get l.acks (t.commit + 1)) >= majority t
        && Dense.mem t.accepted (t.commit + 1)
      do
        t.commit <- t.commit + 1;
        learn t t.commit (Dense.get t.accepted t.commit).value;
        Version_window.remove l.acks t.commit
      done;
      if t.commit >= start then begin
        deliver_ready t;
        let entries = newly_chosen_entries t ~from_slot:start in
        broadcast t (Commit { from = t.node_id; entries; commit_index = t.commit })
      end
  | Follower | Candidate _ -> ()

(* An ack for a slot already committed (a late or retransmitted
   Accept_ok) is ignored: recording it would re-create an entry that
   [advance_commit], which only removes the slot it commits, never drops
   again. A duplicate Accept_ok from the same node sets the same bit, so
   it never double-counts toward the majority. *)
let leader_ack t ballot slot ~from =
  match t.role with
  | Leader l when Ballot.equal l.ballot ballot && slot > t.commit ->
      let bit = ack_bit t from in
      if bit <> 0 then begin
        Version_window.replace l.acks slot (Version_window.get l.acks slot lor bit);
        advance_commit t
      end
  | Leader _ | Follower | Candidate _ -> ()

let accepted_records entries =
  List.map
    (fun sv -> Wal_record.Accepted { slot = sv.slot; ballot = sv.ballot; value = sv.value })
    entries

let send_accepts t ballot entries =
  (* Replicate then self-accept; the self-accept's fsync groups with any
     other in-flight proposal on this node's log disk. *)
  Stats.Counter.incr t.accept_broadcasts;
  Stats.Summary.observe t.accept_batch_sizes (float_of_int (List.length entries));
  broadcast t (Accept { ballot; from = t.node_id; entries });
  ignore
    (Engine.spawn t.engine (fun () ->
         List.iter (fun sv -> Dense.set t.accepted sv.slot sv) entries;
         ignore
           (Storage.Wal.append_batch t.node_wal ~bytes_of:(record_bytes t)
              (accepted_records entries));
         Storage.Wal.sync t.node_wal;
         if t.up then
           List.iter (fun sv -> leader_ack t ballot sv.slot ~from:t.node_id) entries))

let propose_batch t vs =
  match t.role with
  | Leader _ when vs = [] -> true
  | Leader l ->
      let entries =
        List.map
          (fun v ->
            let slot = l.next_slot in
            l.next_slot <- slot + 1;
            { slot; ballot = l.ballot; value = Value v })
          vs
      in
      send_accepts t l.ballot entries;
      true
  | Follower | Candidate _ -> false

let propose t v = propose_batch t [ v ]

let accept_broadcasts t = Stats.Counter.value t.accept_broadcasts
let mean_accept_batch t = Stats.Summary.mean t.accept_batch_sizes

let reset_batch_stats t =
  Stats.Counter.reset t.accept_broadcasts;
  Stats.Summary.reset t.accept_batch_sizes

let become_leader t ballot promises =
  (* Merge the highest-ballot accepted value per slot above our commit
     point, from our own table and every promise, into a window of slots
     [commit + 1 .. max_slot]. *)
  let own = values_above t.accepted ~above:t.commit in
  let top acc svs = List.fold_left (fun acc sv -> max acc sv.slot) acc svs in
  let max_slot =
    List.fold_left (fun acc (_, accepted) -> top acc accepted) (top t.commit own) promises
  in
  let best = Array.make (max_slot - t.commit) no_slot_value in
  let consider sv =
    if sv.slot > t.commit then begin
      let i = sv.slot - t.commit - 1 in
      let cur = best.(i) in
      if cur == no_slot_value || Ballot.(cur.ballot < sv.ballot) then best.(i) <- sv
    end
  in
  List.iter consider own;
  List.iter (fun (_, accepted) -> List.iter consider accepted) promises;
  let entries =
    List.init (max_slot - t.commit) (fun i ->
        let sv = best.(i) in
        if sv == no_slot_value then { slot = t.commit + 1 + i; ballot; value = Noop }
        else { sv with ballot })
  in
  t.role <- Leader { ballot; next_slot = max_slot + 1; acks = Version_window.create 0 };
  t.recovery_floor <- max_slot;
  t.leader_seen <- Some t.node_id;
  broadcast t (Heartbeat { ballot; from = t.node_id; commit_index = t.commit });
  if entries <> [] then send_accepts t ballot entries

let start_election t =
  let ballot = Ballot.next t.promised ~node:t.node_id in
  t.promised <- ballot;
  t.election_deadline <- fresh_deadline t;
  (* Only slots above the commit index can matter to [become_leader]. *)
  let own_accepted = values_above t.accepted ~above:t.commit in
  t.role <- Candidate { ballot; promises = [ (t.node_id, own_accepted) ] };
  ignore
    (Engine.spawn t.engine (fun () ->
         persist_promise t (Wal_record.Promised ballot);
         if t.up then begin
           match t.role with
           | Candidate c when Ballot.equal c.ballot ballot ->
               broadcast t (Prepare { ballot; from = t.node_id; commit_index = t.commit });
               if majority t = 1 then become_leader t ballot c.promises
           | _ -> ()
         end))

(* Degraded-disk failover: a leader whose log device has gone bad steps
   down voluntarily so a healthy-disk peer can lead. Unlike {!step_down} it
   does not learn a higher ballot — it just stops leading and defers its
   own next election by [backoff], giving the healthy peers (whose timeout
   is election_timeout_hi at most) first claim on the leadership. *)
let abdicate t ~backoff =
  match t.role with
  | Leader _ ->
      t.role <- Follower;
      t.leader_seen <- None;
      t.election_deadline <- Time.add (Engine.now t.engine) backoff
  | Follower | Candidate _ -> ()

let step_down t ~higher =
  if Ballot.(higher > t.promised) then t.promised <- higher;
  (match t.role with
  | Leader _ | Candidate _ ->
      t.role <- Follower;
      t.election_deadline <- fresh_deadline t
  | Follower -> ())

(* ------------------------------------------------------------------ *)
(* Acceptor / learner side *)

let handle_prepare t ~ballot ~from ~commit_index =
  if Ballot.(ballot > t.promised) then begin
    t.promised <- ballot;
    (match t.role with Leader _ | Candidate _ -> t.role <- Follower | Follower -> ());
    t.election_deadline <- fresh_deadline t;
    ignore
      (Engine.spawn t.engine (fun () ->
           persist_promise t (Wal_record.Promised ballot);
           if t.up then begin
             let accepted = values_above t.accepted ~above:commit_index in
             t.send ~dst:from
               (Promise { ballot; from = t.node_id; accepted; commit_index = t.commit })
           end))
  end
  else t.send ~dst:from (Prepare_reject { from = t.node_id; higher = t.promised })

let handle_promise t ~ballot ~from ~accepted =
  match t.role with
  | Candidate c when Ballot.equal c.ballot ballot ->
      if not (List.mem_assoc from c.promises) then
        c.promises <- (from, accepted) :: c.promises;
      if List.length c.promises >= majority t then become_leader t ballot c.promises
  | Candidate _ | Leader _ | Follower -> ()

let handle_accept t ~ballot ~from ~entries =
  if Ballot.(ballot >= t.promised) then begin
    t.promised <- ballot;
    (match t.role with
    | Leader l when not (Ballot.equal l.ballot ballot) -> t.role <- Follower
    | Candidate _ -> t.role <- Follower
    | Leader _ | Follower -> ());
    t.leader_seen <- Some from;
    t.election_deadline <- fresh_deadline t;
    ignore
      (Engine.spawn t.engine (fun () ->
           List.iter (fun sv -> Dense.set t.accepted sv.slot sv) entries;
           ignore
             (Storage.Wal.append_batch t.node_wal ~bytes_of:(record_bytes t)
                (accepted_records entries));
           Storage.Wal.sync t.node_wal;
           if t.up then
             t.send ~dst:from
               (Accept_ok
                  { ballot; from = t.node_id; slots = List.map (fun sv -> sv.slot) entries })))
  end
  else t.send ~dst:from (Accept_reject { from = t.node_id; higher = t.promised })

let request_transfer_if_behind t ~from ~commit_index =
  if commit_index > t.applied then
    t.send ~dst:from (Ask_transfer { from = t.node_id; applied = t.applied })

let handle_commit t ~from ~entries ~commit_index =
  List.iter (fun (slot, value) -> learn t slot value) entries;
  if commit_index > t.commit then t.commit <- commit_index;
  deliver_ready t;
  (* A gap means we missed earlier Commit messages: fetch them. *)
  if t.applied < t.commit && not (Dense.mem t.chosen (t.applied + 1)) then
    t.send ~dst:from (Ask_transfer { from = t.node_id; applied = t.applied })

let handle_ask_transfer t ~from ~applied =
  let entries =
    let rec collect s acc =
      if s > t.commit then List.rev acc
      else if Dense.mem t.chosen s then collect (s + 1) ((s, Dense.get t.chosen s) :: acc)
      else List.rev acc
    in
    collect (applied + 1) []
  in
  if entries <> [] then
    t.send ~dst:from (Commit { from = t.node_id; entries; commit_index = t.commit })

let handle t msg =
  if t.up then
    match msg with
    | Prepare { ballot; from; commit_index } -> handle_prepare t ~ballot ~from ~commit_index
    | Promise { ballot; from; accepted; commit_index = _ } ->
        handle_promise t ~ballot ~from ~accepted
    | Prepare_reject { higher; _ } -> step_down t ~higher
    | Accept { ballot; from; entries } -> handle_accept t ~ballot ~from ~entries
    | Accept_ok { ballot; from; slots } ->
        List.iter (fun slot -> leader_ack t ballot slot ~from) slots
    | Accept_reject { higher; _ } -> step_down t ~higher
    | Commit { from; entries; commit_index } -> handle_commit t ~from ~entries ~commit_index
    | Heartbeat { ballot; from; commit_index } ->
        if Ballot.(ballot >= t.promised) then begin
          t.promised <- ballot;
          (match t.role with
          | Leader l when not (Ballot.equal l.ballot ballot) -> t.role <- Follower
          | Candidate _ -> t.role <- Follower
          | Leader _ | Follower -> ());
          t.leader_seen <- Some from;
          t.election_deadline <- fresh_deadline t;
          request_transfer_if_behind t ~from ~commit_index
        end
    | Ask_transfer { from; applied } -> handle_ask_transfer t ~from ~applied

(* ------------------------------------------------------------------ *)
(* Timers, creation, crash/recovery *)

(* Accept retransmission. There is no ack-driven resend: an Accept
   broadcast (or every Accept_ok for it) lost to the network would wedge
   its slot forever — the commit index cannot pass an unchosen slot, and
   the leader keeps heartbeating, so no election ever rescues the group.
   When the commit index sits still across heartbeat intervals with
   proposals in flight, re-broadcast the oldest pending slots' Accepts:
   acceptors re-accept idempotently (equal ballot) and re-send their
   Accept_ok, and {!leader_ack} dedups per peer. Bounded to a window off
   the commit index — choosing those unblocks the next window. *)
let resend_window = 32

let resend_pending t ~ballot ~next_slot =
  let pending =
    let hi = min (next_slot - 1) (t.commit + resend_window) in
    let rec collect slot acc =
      if slot <= t.commit then acc
      else if Dense.mem t.accepted slot then
        collect (slot - 1) ({ (Dense.get t.accepted slot) with ballot } :: acc)
      else collect (slot - 1) acc
    in
    collect hi []
  in
  if pending <> [] then
    broadcast t (Accept { ballot; from = t.node_id; entries = pending })

let spawn_timers t =
  ignore
    (Engine.spawn t.engine (fun () ->
         (* Commit index at the previous tick: no movement across a full
            interval with slots in flight means their Accepts are lost. *)
         let last_commit = ref (-1) in
         let rec loop () =
           Engine.sleep t.engine heartbeat_interval;
           if t.up then begin
             (match t.role with
             | Leader l ->
                 broadcast t
                   (Heartbeat { ballot = l.ballot; from = t.node_id; commit_index = t.commit });
                 if t.commit = !last_commit && l.next_slot > t.commit + 1 then
                   resend_pending t ~ballot:l.ballot ~next_slot:l.next_slot;
                 (* A follower that learned the commit index without the
                    chosen values and then won an election never gets a
                    Commit to trigger the gap fetch in [handle_commit]:
                    ask the peers for the missing values instead. *)
                 if t.applied < t.commit && not (Dense.mem t.chosen (t.applied + 1))
                 then broadcast t (Ask_transfer { from = t.node_id; applied = t.applied })
             | Follower | Candidate _ ->
                 if Time.(Engine.now t.engine >= t.election_deadline) then start_election t);
             last_commit := t.commit
           end;
           loop ()
         in
         loop ()))

let create engine ~rng ~id:node_id ~peers ~disk ~send ~on_deliver () =
  if List.length peers >= Sys.int_size - 1 then
    invalid_arg "Paxos.Node.create: more peers than an ack bitmask holds";
  let t =
    {
      engine;
      rng;
      node_id;
      peers;
      members = Names.of_list (node_id :: peers);
      cluster_size = 1 + List.length peers;
      send;
      on_deliver;
      node_wal = Storage.Wal.create engine ~disk ~name:(node_id ^ ".wal") ();
      value_bytes_hint = 256;
      up = true;
      promised = Ballot.initial;
      accepted = Dense.create no_slot_value;
      chosen = Dense.create Noop;
      commit = 0;
      applied = 0;
      role = Follower;
      recovery_floor = 0;
      leader_seen = None;
      election_deadline = Time.zero;
      accept_broadcasts = Stats.Counter.create ();
      accept_batch_sizes = Stats.Summary.create ();
    }
  in
  t.election_deadline <- fresh_deadline t;
  spawn_timers t;
  t

type wal_fault = Torn_tail | Corrupt_tail

let crash ?wal_fault t =
  t.up <- false;
  (match wal_fault with
  | None -> ignore (Storage.Wal.crash t.node_wal)
  | Some Torn_tail -> ignore (Storage.Wal.crash ~torn:true t.node_wal)
  | Some Corrupt_tail ->
      ignore (Storage.Wal.crash t.node_wal);
      ignore (Storage.Wal.corrupt_tail t.node_wal));
  Dense.reset t.accepted;
  Dense.reset t.chosen;
  t.commit <- 0;
  t.applied <- 0;
  t.promised <- Ballot.initial;
  t.role <- Follower;
  t.recovery_floor <- 0;
  t.leader_seen <- None

let recover t =
  (* Checksum-scan the acceptor log: replay only the verified prefix. A
     torn record was never acked (write-ahead discipline: every Promise /
     Accept_ok is sent only after its sync returned), so truncating it
     cannot forget a promise or acceptance the group observed. *)
  let records, _scan = Storage.Wal.recover t.node_wal in
  List.iter
    (fun record ->
      match record with
      | Wal_record.Promised b -> if Ballot.(b > t.promised) then t.promised <- b
      | Wal_record.Accepted { slot; ballot; value } ->
          let held = Dense.mem t.accepted slot in
          if not (held && Ballot.((Dense.get t.accepted slot).ballot >= ballot)) then
            Dense.set t.accepted slot { slot; ballot; value })
    records;
  t.up <- true;
  t.role <- Follower;
  t.election_deadline <- fresh_deadline t;
  (* Catch up on the chosen log from whoever leads now. *)
  broadcast t (Ask_transfer { from = t.node_id; applied = 0 })

(* Tests for the Paxos-replicated log used by the certifier group. *)

open Sim

type cluster = {
  engine : Engine.t;
  net : string Paxos.Node.message Net.Network.t;
  nodes : (string * string Paxos.Node.t) list;
  delivered : (string, (int * string) list ref) Hashtbl.t;
}

let node_ids n = List.init n (fun i -> Printf.sprintf "c%d" i)

let make_cluster ?(n = 3) ?(seed = 1) () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let net = Net.Network.create engine ~rng:(Rng.split rng) () in
  let ids = node_ids n in
  let delivered = Hashtbl.create n in
  let nodes =
    List.map
      (fun id ->
        let mb = Net.Network.register net id in
        let disk = Storage.Disk.create engine ~rng:(Rng.split rng) ~name:(id ^ ".disk") () in
        let log = ref [] in
        Hashtbl.replace delivered id log;
        let send ~dst msg =
          Net.Network.send net ~src:id ~dst
            ~size:(Paxos.Node.message_bytes String.length msg)
            msg
        in
        let node =
          Paxos.Node.create engine ~rng:(Rng.split rng) ~id
            ~peers:(List.filter (fun p -> p <> id) ids)
            ~disk ~send
            ~on_deliver:(fun slot v -> log := (slot, v) :: !log)
            ()
        in
        ignore
          (Engine.spawn engine (fun () ->
               let rec loop () =
                 Paxos.Node.handle node (Mailbox.recv mb);
                 loop ()
               in
               loop ()));
        (id, node))
      ids
  in
  { engine; net; nodes; delivered }

let run_for c span = Engine.run ~until:(Time.add (Engine.now c.engine) span) c.engine

let leaders c =
  List.filter_map
    (fun (id, node) ->
      if Paxos.Node.is_up node && Paxos.Node.is_leader node then Some id else None)
    c.nodes

let the_leader c =
  match leaders c with
  | [ id ] -> (id, List.assoc id c.nodes)
  | [] -> Alcotest.fail "no leader elected"
  | _ -> Alcotest.fail "multiple leaders claim the same moment"

let log_of c id = List.rev !(Hashtbl.find c.delivered id)

let propose_ok c value =
  let _, leader = the_leader c in
  Alcotest.(check bool) ("propose " ^ value) true (Paxos.Node.propose leader value)

let test_leader_election () =
  let c = make_cluster () in
  run_for c (Time.sec 2);
  let ls = leaders c in
  Alcotest.(check int) "exactly one leader" 1 (List.length ls);
  (* all nodes agree on the hint *)
  List.iter
    (fun (_, node) ->
      Alcotest.(check (option string)) "hint" (Some (List.hd ls)) (Paxos.Node.leader_hint node))
    c.nodes

let test_replication_basic () =
  let c = make_cluster () in
  run_for c (Time.sec 2);
  propose_ok c "a";
  propose_ok c "b";
  propose_ok c "c";
  run_for c (Time.sec 2);
  List.iter
    (fun (id, _) ->
      Alcotest.(check (list (pair int string)))
        (id ^ " delivered all in order")
        [ (1, "a"); (2, "b"); (3, "c") ]
        (log_of c id))
    c.nodes

let test_propose_on_follower_rejected () =
  let c = make_cluster () in
  run_for c (Time.sec 2);
  let leader_id, _ = the_leader c in
  let follower =
    snd (List.find (fun (id, _) -> id <> leader_id) c.nodes)
  in
  Alcotest.(check bool) "follower refuses" false (Paxos.Node.propose follower "x")

let test_leader_crash_failover () =
  let c = make_cluster () in
  run_for c (Time.sec 2);
  propose_ok c "a";
  run_for c (Time.sec 1);
  let old_leader_id, old_leader = the_leader c in
  Paxos.Node.crash old_leader;
  run_for c (Time.sec 3);
  let new_leader_id, _ = the_leader c in
  Alcotest.(check bool) "different node leads" true (new_leader_id <> old_leader_id);
  propose_ok c "b";
  run_for c (Time.sec 1);
  List.iter
    (fun (id, node) ->
      if Paxos.Node.is_up node then
        Alcotest.(check (list (pair int string)))
          (id ^ " consistent after failover")
          [ (1, "a"); (2, "b") ]
          (List.filter (fun (_, v) -> v = "a" || v = "b") (log_of c id)))
    c.nodes

let test_crash_recover_catches_up () =
  let c = make_cluster () in
  run_for c (Time.sec 2);
  propose_ok c "a";
  run_for c (Time.sec 1);
  (* crash a follower, commit more, recover it *)
  let leader_id, _ = the_leader c in
  let fid, follower = List.find (fun (id, _) -> id <> leader_id) c.nodes in
  Paxos.Node.crash follower;
  propose_ok c "b";
  propose_ok c "c";
  run_for c (Time.sec 1);
  (* deliveries before the crash are forgotten with the volatile state *)
  (Hashtbl.find c.delivered fid) := [];
  Paxos.Node.recover follower;
  run_for c (Time.sec 3);
  Alcotest.(check (list (pair int string)))
    "recovered node replays the full chosen log"
    [ (1, "a"); (2, "b"); (3, "c") ]
    (log_of c fid)

let test_minority_partition_blocks_commit () =
  let c = make_cluster () in
  run_for c (Time.sec 2);
  let leader_id, leader = the_leader c in
  (* cut the leader off from both followers *)
  List.iter
    (fun (id, _) -> if id <> leader_id then Net.Network.partition c.net leader_id id)
    c.nodes;
  let before = Paxos.Node.commit_index leader in
  ignore (Paxos.Node.propose leader "lost?");
  run_for c (Time.sec 1);
  Alcotest.(check int) "isolated leader cannot commit" before
    (Paxos.Node.commit_index leader);
  (* the majority side elects its own leader and can make progress *)
  let majority_leaders = List.filter (fun id -> id <> leader_id) (leaders c) in
  Alcotest.(check bool) "majority elected a leader" true (majority_leaders <> []);
  (* heal: the old leader steps down and learns the new history *)
  List.iter
    (fun (id, _) -> if id <> leader_id then Net.Network.heal c.net leader_id id)
    c.nodes;
  let new_leader = snd (the_leader { c with nodes = List.filter (fun (id, _) -> id <> leader_id) c.nodes }) in
  ignore (Paxos.Node.propose new_leader "x");
  run_for c (Time.sec 3);
  Alcotest.(check int) "exactly one leader after heal" 1 (List.length (leaders c));
  let logs =
    List.map (fun (id, _) -> List.map snd (log_of c id)) c.nodes
  in
  List.iter
    (fun log -> Alcotest.(check bool) "x chosen everywhere" true (List.mem "x" log))
    logs

let test_single_node_cluster () =
  let c = make_cluster ~n:1 () in
  run_for c (Time.sec 1);
  propose_ok c "solo";
  run_for c (Time.sec 1);
  Alcotest.(check (list (pair int string))) "delivered" [ (1, "solo") ] (log_of c "c0")

let test_leader_disk_groups_fsyncs () =
  (* Many concurrent proposals at the same instant: the leader's WAL groups
     their accepted-records into very few fsyncs. *)
  let c = make_cluster () in
  run_for c (Time.sec 2);
  let _, leader = the_leader c in
  let wal = Paxos.Node.wal leader in
  Storage.Wal.reset_stats wal;
  for i = 1 to 30 do
    ignore (Paxos.Node.propose leader (Printf.sprintf "v%d" i))
  done;
  run_for c (Time.sec 2);
  Alcotest.(check int) "30 records" 30 (Storage.Wal.records_synced wal);
  Alcotest.(check bool) "few fsyncs" true (Storage.Wal.sync_count wal <= 3);
  Alcotest.(check bool) "mean group size >= 10" true (Storage.Wal.mean_group_size wal >= 10.)

let test_propose_batch_one_broadcast () =
  let c = make_cluster () in
  run_for c (Time.sec 2);
  let _, leader = the_leader c in
  let wal = Paxos.Node.wal leader in
  Storage.Wal.reset_stats wal;
  Paxos.Node.reset_batch_stats leader;
  Alcotest.(check bool) "batch accepted" true
    (Paxos.Node.propose_batch leader [ "a"; "b"; "c"; "d" ]);
  run_for c (Time.sec 1);
  Alcotest.(check int) "one Accept broadcast" 1 (Paxos.Node.accept_broadcasts leader);
  Alcotest.(check (float 0.01)) "four entries in it" 4.
    (Paxos.Node.mean_accept_batch leader);
  Alcotest.(check int) "one WAL batch append" 1 (Storage.Wal.batch_appends wal);
  Alcotest.(check int) "one fsync for the whole batch" 1 (Storage.Wal.sync_count wal);
  List.iter
    (fun (id, _) ->
      Alcotest.(check (list (pair int string)))
        (id ^ " delivered in order")
        [ (1, "a"); (2, "b"); (3, "c"); (4, "d") ]
        (log_of c id))
    c.nodes;
  (* the empty batch is a leadership probe, not a broadcast *)
  Alcotest.(check bool) "empty batch ok" true (Paxos.Node.propose_batch leader []);
  Alcotest.(check int) "no extra broadcast" 1 (Paxos.Node.accept_broadcasts leader)

let test_duplicate_accept_ok_not_double_counted () =
  let c = make_cluster ~n:5 () in
  run_for c (Time.sec 2);
  let leader_id, leader = the_leader c in
  (* Isolate the leader so no real acks arrive; majority is 3, and the
     self-ack provides 1. *)
  List.iter
    (fun (id, _) -> if id <> leader_id then Net.Network.partition c.net leader_id id)
    c.nodes;
  let slot = Paxos.Node.commit_index leader + 1 in
  let ballot = Paxos.Node.current_ballot leader in
  Alcotest.(check bool) "proposed" true (Paxos.Node.propose leader "v");
  (* Let the self-accept's fsync land, staying under any election timeout. *)
  run_for c (Time.of_ms 30.);
  Alcotest.(check int) "self-ack alone does not commit" 0
    (Paxos.Node.commit_index leader);
  let followers = List.filter (fun (id, _) -> id <> leader_id) c.nodes in
  let f1 = fst (List.nth followers 0) and f2 = fst (List.nth followers 1) in
  let fake from = Paxos.Node.Accept_ok { ballot; from; slots = [ slot ] } in
  Paxos.Node.handle leader (fake f1);
  Paxos.Node.handle leader (fake f1);
  Alcotest.(check int) "duplicate ack from one peer counts once" 0
    (Paxos.Node.commit_index leader);
  Paxos.Node.handle leader (fake f2);
  Alcotest.(check int) "a distinct third ack commits" slot
    (Paxos.Node.commit_index leader)

(* With three nodes the self-ack and the first follower's ack commit a
   slot; the second follower's Accept_ok always arrives late. It must not
   leave an ack table behind for the committed slot. *)
let test_late_acks_leave_no_tables () =
  let c = make_cluster () in
  run_for c (Time.sec 2);
  let start = Paxos.Node.commit_index (snd (the_leader c)) in
  for i = 1 to 200 do
    propose_ok c (string_of_int i);
    run_for c (Time.of_ms 2.)
  done;
  run_for c (Time.sec 1);
  let _, leader = the_leader c in
  Alcotest.(check int) "all 200 committed" (start + 200) (Paxos.Node.commit_index leader);
  List.iter
    (fun (id, node) ->
      Alcotest.(check int) (id ^ " holds no ack tables once idle") 0
        (Paxos.Node.pending_ack_slots node))
    c.nodes

let test_abdicate_moves_leadership () =
  let c = make_cluster () in
  run_for c (Time.sec 2);
  propose_ok c "a";
  run_for c (Time.sec 1);
  let old_id, old_leader = the_leader c in
  Paxos.Node.abdicate old_leader ~backoff:(Time.sec 10);
  Alcotest.(check bool) "stepped down at once" false
    (Paxos.Node.is_leader old_leader);
  run_for c (Time.sec 3);
  let new_id, _ = the_leader c in
  Alcotest.(check bool) "a different node leads" true (new_id <> old_id);
  propose_ok c "b";
  run_for c (Time.sec 1);
  List.iter
    (fun (id, _) ->
      Alcotest.(check (list (pair int string)))
        (id ^ " consistent after abdication")
        [ (1, "a"); (2, "b") ]
        (List.filter (fun (_, v) -> v = "a" || v = "b") (log_of c id)))
    c.nodes

let test_torn_accepted_never_replayed () =
  (* A record still being flushed when the node died was never acked to
     anyone, so the recovery scan must discard it rather than replay it.
     Single-node cluster: the torn copy is the only copy. *)
  let c = make_cluster ~n:1 () in
  run_for c (Time.sec 1);
  let _, node = the_leader c in
  Alcotest.(check bool) "proposed" true (Paxos.Node.propose node "doomed");
  (* run just long enough for the self-accept to append and start its
     fsync (>= 6 ms on the default disk), then crash mid-write *)
  run_for c (Time.of_ms 1.);
  Paxos.Node.crash ~wal_fault:Paxos.Node.Torn_tail node;
  (Hashtbl.find c.delivered "c0") := [];
  Paxos.Node.recover node;
  Alcotest.(check int) "torn record discarded by the scan" 1
    (Storage.Wal.torn_discarded (Paxos.Node.wal node));
  run_for c (Time.sec 2);
  Alcotest.(check (list (pair int string))) "never replayed" [] (log_of c "c0");
  propose_ok c "next";
  run_for c (Time.sec 1);
  Alcotest.(check (list (pair int string)))
    "slot reused cleanly" [ (1, "next") ] (log_of c "c0")

let test_corrupt_tail_cannot_unpromise () =
  (* After a quiet election the newest durable record is a promise.
     Corrupting it must not make the acceptor forget the ballot it
     promised: promises are double-written, so the checksum scan still
     replays the surviving copy. *)
  let c = make_cluster () in
  run_for c (Time.sec 2);
  let leader_id, _ = the_leader c in
  let fid, follower = List.find (fun (id, _) -> id <> leader_id) c.nodes in
  let ballot_before = Paxos.Node.current_ballot follower in
  Alcotest.(check bool) "a real promise was made" true
    Paxos.Ballot.(Paxos.Ballot.initial < ballot_before);
  Paxos.Node.crash ~wal_fault:Paxos.Node.Corrupt_tail follower;
  (Hashtbl.find c.delivered fid) := [];
  Paxos.Node.recover follower;
  Alcotest.(check int) "corrupt record discarded by the scan" 1
    (Storage.Wal.corrupt_discarded (Paxos.Node.wal follower));
  Alcotest.(check bool) "promise survives via its second copy" true
    Paxos.Ballot.(Paxos.Node.current_ballot follower >= ballot_before);
  run_for c (Time.sec 3);
  propose_ok c "a";
  run_for c (Time.sec 1);
  List.iter
    (fun (id, node) ->
      if Paxos.Node.is_up node then
        Alcotest.(check (list (pair int string)))
          (id ^ " consistent after corrupt-tail recovery")
          [ (1, "a") ]
          (List.filter (fun (_, v) -> v = "a") (log_of c id)))
    c.nodes

(* A follower that learned the commit index without the chosen values
   (their Commit lost, its gap fetch lost) wins the next election. Its
   Prepare only recovers slots above its commit index, and a leader never
   receives a Commit, so it must fetch the gap itself or stay unready. *)
let test_leader_fetches_commit_gap () =
  let c = make_cluster () in
  run_for c (Time.sec 2);
  let leader_id, leader = the_leader c in
  let others = List.filter (fun (id, _) -> id <> leader_id) c.nodes in
  let fid, follower = List.hd others and other_id = fst (List.nth others 1) in
  Net.Network.set_tap c.net
    (Some
       (fun ~src ~dst msg ->
         match msg with
         | Paxos.Node.Commit _ when dst = fid -> Net.Network.Drop
         | Paxos.Node.Ask_transfer _ when src = fid -> Net.Network.Drop
         | _ -> Net.Network.Pass));
  List.iter (propose_ok c) [ "a"; "b"; "c" ];
  run_for c (Time.sec 1);
  Paxos.Node.handle follower
    (Paxos.Node.Commit { from = leader_id; entries = []; commit_index = 3 });
  Alcotest.(check int) "follower knows the commit index" 3 (Paxos.Node.commit_index follower);
  Alcotest.(check (list (pair int string))) "but delivered nothing" [] (log_of c fid);
  (* The old leader dies; the other survivor's elections are dropped so the
     gapped follower wins. *)
  Paxos.Node.crash leader;
  Net.Network.set_tap c.net
    (Some
       (fun ~src ~dst:_ msg ->
         match msg with
         | Paxos.Node.Prepare _ when src = other_id -> Net.Network.Drop
         | _ -> Net.Network.Pass));
  run_for c (Time.sec 3);
  Alcotest.(check string) "the gapped follower leads" fid (fst (the_leader c));
  Alcotest.(check bool) "it delivered its inherited slots" true (Paxos.Node.leader_ready follower);
  Alcotest.(check (list (pair int string)))
    "gap filled in order" [ (1, "a"); (2, "b"); (3, "c") ] (log_of c fid)

(* Property: under random crash/recover churn of followers, delivered logs
   on live nodes are always prefix-consistent. *)
let prop_prefix_consistency =
  QCheck.Test.make ~name:"paxos logs are prefix consistent under churn" ~count:15
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let c = make_cluster ~seed () in
      let rng = Rng.create (seed + 77) in
      run_for c (Time.sec 2);
      let ok = ref true in
      for round = 1 to 6 do
        (match leaders c with
        | [ id ] ->
            let leader = List.assoc id c.nodes in
            for i = 1 to 3 do
              ignore (Paxos.Node.propose leader (Printf.sprintf "r%d-%d" round i))
            done
        | _ -> ());
        (* randomly crash or recover one node *)
        let victim_id, victim = List.nth c.nodes (Rng.int rng (List.length c.nodes)) in
        if Paxos.Node.is_up victim then begin
          if Rng.chance rng 0.4 then begin
            Paxos.Node.crash victim;
            (Hashtbl.find c.delivered victim_id) := []
          end
        end
        else Paxos.Node.recover victim;
        run_for c (Time.sec 2)
      done;
      (* recover everyone and settle *)
      List.iter
        (fun (_, node) -> if not (Paxos.Node.is_up node) then Paxos.Node.recover node)
        c.nodes;
      run_for c (Time.sec 5);
      let is_prefix a b =
        let rec loop = function
          | [], _ -> true
          | _, [] -> false
          | x :: xs, y :: ys -> x = y && loop (xs, ys)
        in
        loop (a, b)
      in
      let logs = List.map (fun (id, _) -> log_of c id) c.nodes in
      List.iter
        (fun a ->
          List.iter (fun b -> if not (is_prefix a b || is_prefix b a) then ok := false) logs)
        logs;
      !ok)

(* Model test of one acceptor/learner's slot log. A follower [c0] (peers
   [c1], [c2]) gets random Accept, Commit, Ask_transfer and Prepare
   messages from [c1] and crash/recover cycles; a reference built on
   [Hashtbl]s predicts every message it sends, every value it delivers and
   its commit index. Slots reach past the log's initial capacity, arrive
   out of order and with gaps. *)
type model_op =
  | M_accept of int * int  (* first slot, count *)
  | M_commit of int list * int  (* learned slots, commit index *)
  | M_ask of int  (* the asker's applied index *)
  | M_prepare of int  (* the candidate's commit index *)
  | M_crash

let pp_model_op = function
  | M_accept (s, n) -> Printf.sprintf "accept %d+%d" s n
  | M_commit (slots, ci) ->
      Printf.sprintf "commit [%s] ci=%d" (String.concat ";" (List.map string_of_int slots)) ci
  | M_ask a -> Printf.sprintf "ask %d" a
  | M_prepare ci -> Printf.sprintf "prepare ci=%d" ci
  | M_crash -> "crash"

let gen_model_op =
  let open QCheck.Gen in
  let slot = int_range 1 140 in
  frequency
    [
      (5, map2 (fun s n -> M_accept (s, n)) slot (int_range 1 4));
      (4, map2 (fun l ci -> M_commit (l, ci)) (list_size (int_range 0 5) slot) slot);
      (2, map (fun a -> M_ask a) (int_range 0 140));
      (1, map (fun ci -> M_prepare ci) (int_range 0 140));
      (1, return M_crash);
    ]

(* The value a slot is chosen with (every third slot a no-op) and the value
   an Accept of it carries under ballot round [r]. *)
let chosen_value s : string Paxos.Node.entry_value =
  if s mod 3 = 0 then Paxos.Node.Noop else Paxos.Node.Value (Printf.sprintf "c%d" s)

let accepted_value s r : string Paxos.Node.entry_value =
  if s mod 4 = 0 then Paxos.Node.Noop else Paxos.Node.Value (Printf.sprintf "a%d.%d" s r)

let run_slot_log_model ops =
  let engine = Engine.create () in
  let rng = Rng.create 5 in
  let disk = Storage.Disk.create_ram engine ~rng:(Rng.split rng) ~name:"c0.disk" () in
  let sent = ref [] and delivered = ref [] in
  let node =
    Paxos.Node.create engine ~rng:(Rng.split rng) ~id:"c0" ~peers:[ "c1"; "c2" ] ~disk
      ~send:(fun ~dst msg -> sent := (dst, msg) :: !sent)
      ~on_deliver:(fun slot v -> delivered := (slot, v) :: !delivered)
      ()
  in
  (* The reference. [wal] holds the durable records, oldest first. *)
  let acc : (int, string Paxos.Node.slot_value) Hashtbl.t = Hashtbl.create 16 in
  let chosen : (int, string Paxos.Node.entry_value) Hashtbl.t = Hashtbl.create 16 in
  let wal = ref [] and commit = ref 0 and applied = ref 0 and want_delivered = ref [] in
  let round = ref 1 in
  let ballot () = Paxos.Ballot.make ~round:!round ~node:"c1" in
  let deliver () =
    while Hashtbl.mem chosen (!applied + 1) do
      incr applied;
      match Hashtbl.find chosen !applied with
      | Paxos.Node.Value v -> want_delivered := (!applied, v) :: !want_delivered
      | Paxos.Node.Noop -> ()
    done
  in
  let step op =
    sent := [];
    (* Keep c1 the leader c0 hears from, so c0 never starts an election. *)
    Paxos.Node.handle node
      (Paxos.Node.Heartbeat { ballot = ballot (); from = "c1"; commit_index = 0 });
    let expected =
      match op with
      | M_accept (first, n) ->
          let entries =
            List.init n (fun i ->
                let slot = first + i in
                { Paxos.Node.slot; ballot = ballot (); value = accepted_value slot !round })
          in
          Paxos.Node.handle node (Paxos.Node.Accept { ballot = ballot (); from = "c1"; entries });
          List.iter
            (fun (sv : string Paxos.Node.slot_value) ->
              Hashtbl.replace acc sv.slot sv;
              wal := sv :: !wal)
            entries;
          [
            ( "c1",
              Paxos.Node.Accept_ok
                {
                  ballot = ballot ();
                  from = "c0";
                  slots = List.map (fun (sv : _ Paxos.Node.slot_value) -> sv.slot) entries;
                } );
          ]
      | M_commit (slots, ci) ->
          let entries = List.map (fun s -> (s, chosen_value s)) slots in
          Paxos.Node.handle node
            (Paxos.Node.Commit { from = "c1"; entries; commit_index = ci });
          List.iter
            (fun (s, v) -> if not (Hashtbl.mem chosen s) then Hashtbl.replace chosen s v)
            entries;
          if ci > !commit then commit := ci;
          deliver ();
          if !applied < !commit && not (Hashtbl.mem chosen (!applied + 1)) then
            [ ("c1", Paxos.Node.Ask_transfer { from = "c0"; applied = !applied }) ]
          else []
      | M_ask a ->
          Paxos.Node.handle node (Paxos.Node.Ask_transfer { from = "c1"; applied = a });
          let rec collect s acc =
            if s > !commit || not (Hashtbl.mem chosen s) then List.rev acc
            else collect (s + 1) ((s, Hashtbl.find chosen s) :: acc)
          in
          let entries = collect (a + 1) [] in
          if entries = [] then []
          else [ ("c1", Paxos.Node.Commit { from = "c0"; entries; commit_index = !commit }) ]
      | M_prepare ci ->
          incr round;
          Paxos.Node.handle node
            (Paxos.Node.Prepare { ballot = ballot (); from = "c1"; commit_index = ci });
          let accepted =
            Hashtbl.fold (fun s sv l -> if s > ci then sv :: l else l) acc []
            |> List.sort (fun (a : _ Paxos.Node.slot_value) b -> Int.compare a.slot b.slot)
          in
          [
            ( "c1",
              Paxos.Node.Promise
                { ballot = ballot (); from = "c0"; accepted; commit_index = !commit } );
          ]
      | M_crash ->
          Paxos.Node.crash node;
          Paxos.Node.recover node;
          (* Recovery replays the log, keeping the highest ballot per slot
             (the first record among equals). *)
          Hashtbl.reset acc;
          List.iter
            (fun (sv : string Paxos.Node.slot_value) ->
              match Hashtbl.find_opt acc sv.slot with
              | Some cur when Paxos.Ballot.(cur.ballot >= sv.ballot) -> ()
              | Some _ | None -> Hashtbl.replace acc sv.slot sv)
            (List.rev !wal);
          Hashtbl.reset chosen;
          commit := 0;
          applied := 0;
          [ "c1"; "c2" ]
          |> List.map (fun dst -> (dst, Paxos.Node.Ask_transfer { from = "c0"; applied = 0 }))
    in
    Engine.run ~until:(Time.add (Engine.now engine) (Time.of_ms 1.)) engine;
    let got = List.rev !sent in
    if got <> expected then
      QCheck.Test.fail_reportf "after %s: sent %d messages, not the %d expected" (pp_model_op op)
        (List.length got) (List.length expected);
    if Paxos.Node.commit_index node <> !commit then
      QCheck.Test.fail_reportf "after %s: commit index %d, expected %d" (pp_model_op op)
        (Paxos.Node.commit_index node) !commit;
    if !delivered <> !want_delivered then
      QCheck.Test.fail_reportf "after %s: delivered %d values, expected %d" (pp_model_op op)
        (List.length !delivered) (List.length !want_delivered)
  in
  List.iter step ops;
  true

let prop_slot_log_model =
  QCheck.Test.make ~name:"slot log agrees with a Hashtbl reference" ~count:200
    QCheck.(
      make
        ~print:(fun ops -> String.concat ", " (List.map pp_model_op ops))
        Gen.(list_size (int_range 1 40) gen_model_op))
    run_slot_log_model

(* Words allocated per slot by a leader in steady state: a batch of
   proposals, the self-accept, one follower's Accept_ok and the commit,
   with messages dropped at [send]. *)
let leader_words_per_slot () =
  let engine = Engine.create () in
  let rng = Rng.create 9 in
  let disk = Storage.Disk.create_ram engine ~rng:(Rng.split rng) ~name:"c0.disk" () in
  let node =
    Paxos.Node.create engine ~rng:(Rng.split rng) ~id:"c0" ~peers:[ "c1"; "c2" ] ~disk
      ~send:(fun ~dst:_ _ -> ())
      ~on_deliver:(fun _ _ -> ())
      ()
  in
  (* c0 times out, starts an election and wins it with c1's promise. *)
  Engine.run ~until:(Time.of_ms 200.) engine;
  let ballot = Paxos.Node.current_ballot node in
  Paxos.Node.handle node
    (Paxos.Node.Promise { ballot; from = "c1"; accepted = []; commit_index = 0 });
  Alcotest.(check bool) "c0 leads" true (Paxos.Node.is_leader node);
  let batch = 16 in
  let values = List.init batch (fun i -> string_of_int i) in
  let round () =
    let first = Paxos.Node.commit_index node + 1 in
    ignore (Paxos.Node.propose_batch node values);
    Engine.run ~until:(Time.add (Engine.now engine) (Time.of_ms 1.)) engine;
    Paxos.Node.handle node
      (Paxos.Node.Accept_ok { ballot; from = "c1"; slots = List.init batch (fun i -> first + i) })
  in
  for _ = 1 to 100 do
    round ()
  done;
  let rounds = 200 in
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    round ()
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check int) "every slot committed" (300 * batch) (Paxos.Node.commit_index node);
  words /. float_of_int (rounds * batch)

(* The slot log is arrays indexed by slot and the leader's acks a bitmask
   ring, so a slot allocates only its messages, records and list cells:
   70.4 words here, 135.1 when [accepted], [chosen] and the per-slot ack
   tables were hash tables. *)
let test_leader_slot_alloc () =
  let words = leader_words_per_slot () in
  if words > 80. then Alcotest.failf "%.1f words per slot (bound 80)" words

let suites =
  [
    ( "paxos.ballot",
      [
        Alcotest.test_case "ordering" `Quick (fun () ->
            let a = Paxos.Ballot.make ~round:1 ~node:"b" in
            let b = Paxos.Ballot.make ~round:1 ~node:"c" in
            let c' = Paxos.Ballot.make ~round:2 ~node:"a" in
            Alcotest.(check bool) "same round, node breaks tie" true Paxos.Ballot.(a < b);
            Alcotest.(check bool) "higher round wins" true Paxos.Ballot.(b < c');
            Alcotest.(check bool) "next is greater" true
              Paxos.Ballot.(a < Paxos.Ballot.next a ~node:"a");
            Alcotest.(check bool) "initial smallest" true Paxos.Ballot.(Paxos.Ballot.initial < a));
      ] );
    ( "paxos.node",
      [
        Alcotest.test_case "leader election" `Quick test_leader_election;
        Alcotest.test_case "replication in order" `Quick test_replication_basic;
        Alcotest.test_case "follower refuses proposals" `Quick
          test_propose_on_follower_rejected;
        Alcotest.test_case "leader crash failover" `Quick test_leader_crash_failover;
        Alcotest.test_case "crash/recover catches up" `Quick test_crash_recover_catches_up;
        Alcotest.test_case "minority partition blocks commit" `Quick
          test_minority_partition_blocks_commit;
        Alcotest.test_case "single-node cluster" `Quick test_single_node_cluster;
        Alcotest.test_case "leader disk groups fsyncs" `Quick test_leader_disk_groups_fsyncs;
        Alcotest.test_case "propose_batch: one broadcast, one fsync" `Quick
          test_propose_batch_one_broadcast;
        Alcotest.test_case "duplicate Accept_ok cannot reach majority" `Quick
          test_duplicate_accept_ok_not_double_counted;
        Alcotest.test_case "late Accept_ok leaves no ack table" `Quick
          test_late_acks_leave_no_tables;
        Alcotest.test_case "abdicate moves leadership" `Quick
          test_abdicate_moves_leadership;
        Alcotest.test_case "new leader fetches its commit gap" `Quick
          test_leader_fetches_commit_gap;
        Alcotest.test_case "steady-state slot allocation" `Quick test_leader_slot_alloc;
        Alcotest.test_case "torn Accepted never replayed" `Quick
          test_torn_accepted_never_replayed;
        Alcotest.test_case "corrupt tail cannot un-promise" `Quick
          test_corrupt_tail_cannot_unpromise;
      ]
      @ [
          QCheck_alcotest.to_alcotest prop_prefix_consistency;
          QCheck_alcotest.to_alcotest prop_slot_log_model;
        ] );
  ]

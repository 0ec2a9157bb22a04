(* Partitioned certification: the key partitioner, the per-replica
   session router, cross-partition atomic commit/abort, equivalence of a
   1-partition cluster with the legacy path, and partial replication
   (Host_modulo) consistency. *)

open Sim
open Tashkent

let k table row = Mvcc.Key.make ~table ~row
let vi n = Mvcc.Value.int n
let upd n = Mvcc.Writeset.Update (vi n)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Partitioner units *)

let test_partitioner_stable () =
  let p4 = Partitioner.create ~parts:4 in
  let key = k "item" "42" in
  check_int "same key, same partition" (Partitioner.of_key p4 key)
    (Partitioner.of_key p4 key);
  (* The map is a function of the key bytes only: a fresh partitioner
     agrees with the first. *)
  check_int "fresh partitioner agrees"
    (Partitioner.of_key p4 key)
    (Partitioner.of_key (Partitioner.create ~parts:4) key);
  let p1 = Partitioner.create ~parts:1 in
  check_int "one partition maps everything to 0" 0 (Partitioner.of_key p1 key);
  for i = 0 to 199 do
    let part = Partitioner.of_key p4 (k "item" (string_of_int i)) in
    check_bool "in range" true (part >= 0 && part < 4)
  done;
  (* All four partitions are actually populated by a small row range. *)
  let seen = Array.make 4 false in
  for i = 0 to 199 do
    seen.(Partitioner.of_key p4 (k "item" (string_of_int i))) <- true
  done;
  Array.iteri (fun i hit -> check_bool (Printf.sprintf "p%d hit" i) true hit) seen

let test_partitioner_split () =
  let p = Partitioner.create ~parts:3 in
  let ws =
    Mvcc.Writeset.of_list
      (List.init 30 (fun i -> (k "item" (string_of_int i), upd i)))
  in
  let frags = Partitioner.split p ws in
  (* Fragments are disjoint, partition-pure, and together carry every
     entry of the original writeset. *)
  let total = List.fold_left (fun acc (_, f) -> acc + Mvcc.Writeset.cardinal f) 0 frags in
  check_int "no entry lost or duplicated" (Mvcc.Writeset.cardinal ws) total;
  List.iter
    (fun (part, frag) ->
      Mvcc.Writeset.iter_keys frag (fun key ->
          check_int "entry routed to its own partition" part (Partitioner.of_key p key)))
    frags;
  (* parts = 1 splits to the identity. *)
  match Partitioner.split (Partitioner.create ~parts:1) ws with
  | [ (0, same) ] -> check_int "identity" (Mvcc.Writeset.cardinal ws) (Mvcc.Writeset.cardinal same)
  | _ -> Alcotest.fail "parts=1 must yield a single fragment for partition 0"

(* ------------------------------------------------------------------ *)
(* Cluster helpers *)

(* A row from [item] that lives in [part] under a [parts]-way split. *)
let key_in ~parts part =
  let p = Partitioner.create ~parts in
  let rec find i =
    if i > 10_000 then failwith "no row found for partition"
    else
      let key = k "item" (string_of_int i) in
      if Partitioner.of_key p key = part then key else find (i + 1)
  in
  find 0

(* Distinct rows of one partition. *)
let keys_in ~parts part n =
  let p = Partitioner.create ~parts in
  let rec collect i acc remaining =
    if remaining = 0 then List.rev acc
    else
      let key = k "item" (string_of_int i) in
      if Partitioner.of_key p key = part then collect (i + 1) (key :: acc) (remaining - 1)
      else collect (i + 1) acc remaining
  in
  collect 0 [] n

let quick_replica mode =
  {
    (Replica.default_config mode) with
    Replica.exec_cpu = Time.us 200;
    staleness_bound = Some (Time.of_ms 200.);
  }

let make_cluster ?(mode = Types.Tashkent_mw) ?(n_replicas = 2) ?(n_partitions = 2)
    ?(hosting = Cluster.Host_all) ?(seed = 7) () =
  let cfg =
    {
      Cluster.mode;
      n_replicas;
      n_certifiers = 3;
      n_partitions;
      hosting;
      certifier = Certifier.default_config;
      replica = quick_replica mode;
      seed;
    }
  in
  let c = Cluster.create cfg in
  let rows =
    List.init 64 (fun i -> (k "item" (string_of_int i), vi 0))
  in
  Cluster.load_all c rows;
  Cluster.settle c;
  c

let run_for c span =
  Engine.run ~until:(Time.add (Engine.now (Cluster.engine c)) span) (Cluster.engine c)

(* Run one transaction through replica [i]'s session; store the outcome. *)
let submit_session_tx c i ~writes outcome =
  let r = Cluster.replica c i in
  let s = Replica.session r in
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         let tx = Session.begin_tx s in
         Replica.use_cpu r (Replica.config r).Replica.exec_cpu;
         let rec go = function
           | [] -> outcome := Some (Session.commit s tx)
           | (key, v) :: rest -> (
               match Session.write s tx key (upd v) with
               | Error f ->
                   Session.abort s tx;
                   outcome := Some (Error f)
               | Ok () -> go rest)
         in
         go writes))

let expect_commit msg = function
  | Some (Ok ()) -> ()
  | Some (Error f) ->
      Alcotest.fail (Format.asprintf "%s: failed: %a" msg Proxy.pp_failure f)
  | None -> Alcotest.fail (msg ^ ": transaction never finished")

let expect_cert_abort msg = function
  | Some (Error (Proxy.Cert_abort _)) -> ()
  | Some (Ok ()) -> Alcotest.fail (msg ^ ": committed, expected a certification abort")
  | Some (Error f) ->
      Alcotest.fail (Format.asprintf "%s: wrong failure: %a" msg Proxy.pp_failure f)
  | None -> Alcotest.fail (msg ^ ": transaction never finished")

let check_all_invariants c =
  (match Cluster.check_consistency c with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("inconsistent: " ^ m));
  (match Cluster.check_log_invariants c with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("log invariants: " ^ m));
  match Cluster.check_cross_atomicity c with
  | Ok () -> ()
  | Error m -> Alcotest.fail ("cross atomicity: " ^ m)

let committed_value c i key =
  let r = Cluster.replica c i in
  let part = Partitioner.of_key (Cluster.partitioner c) key in
  match Replica.db_of r ~part with
  | None -> Alcotest.fail (Replica.name r ^ " does not host the key's partition")
  | Some db -> (
      match Mvcc.Db.read_committed db key with
      | Some v -> Mvcc.Value.as_int v
      | None -> -1)

(* ------------------------------------------------------------------ *)
(* Single-partition equivalence with the legacy path *)

let test_one_partition_matches_legacy () =
  (* The same seed must produce the same history whether transactions go
     through Session (partition-aware) or straight at the proxy (legacy):
     with one partition the session is a transparent shim. *)
  let history via =
    let c = make_cluster ~n_partitions:1 ~n_replicas:2 ~seed:11 () in
    let outcomes = List.init 8 (fun _ -> ref None) in
    List.iteri
      (fun n o ->
        let i = n mod 2 in
        let key = k "item" (string_of_int (n mod 4)) in
        match via with
        | `Session -> submit_session_tx c i ~writes:[ (key, 100 + n) ] o
        | `Proxy ->
            let r = Cluster.replica c i in
            let p = Replica.proxy r in
            ignore
              (Engine.spawn (Cluster.engine c) (fun () ->
                   let tx = Proxy.begin_tx p in
                   Replica.use_cpu r (Replica.config r).Replica.exec_cpu;
                   match Proxy.write p tx key (upd (100 + n)) with
                   | Error f ->
                       Proxy.abort p tx;
                       o := Some (Error f)
                   | Ok () -> o := Some (Proxy.commit p tx))))
      outcomes;
    run_for c (Time.sec 3);
    check_all_invariants c;
    let final = List.init 4 (fun n -> committed_value c 0 (k "item" (string_of_int n))) in
    let oks =
      List.length
        (List.filter (fun o -> match !o with Some (Ok ()) -> true | _ -> false) outcomes)
    in
    (oks, final, Cluster.total_commits c)
  in
  let s_oks, s_final, s_total = history `Session
  and p_oks, p_final, p_total = history `Proxy in
  check_int "same commit count" p_oks s_oks;
  check_int "same cluster total" p_total s_total;
  List.iteri
    (fun n (a, b) -> check_int (Printf.sprintf "same final value %d" n) a b)
    (List.combine p_final s_final)

(* With one partition the session opens its sub-transaction at begin_tx,
   so the snapshot predates whatever commits while the client executes —
   as it would for a client of the plain proxy. *)
let test_one_partition_snapshot_at_begin () =
  let c = make_cluster ~n_partitions:1 () in
  let engine = Cluster.engine c in
  let s = Replica.session (Cluster.replica c 0) in
  let key = k "item" "1" in
  let seen = ref None in
  ignore
    (Engine.spawn engine (fun () ->
         let tx = Session.begin_tx s in
         Engine.sleep engine (Time.sec 1);
         seen := Some (Session.read s tx key);
         Session.abort s tx));
  let o = ref None in
  submit_session_tx c 1 ~writes:[ (key, 5) ] o;
  run_for c (Time.sec 2);
  expect_commit "concurrent writer" !o;
  check_int "the write reached replica0" 5 (committed_value c 0 key);
  Alcotest.(check (option (option int)))
    "read from the begin_tx snapshot" (Some (Some 0))
    (Option.map (Option.map Mvcc.Value.as_int) !seen)

(* ------------------------------------------------------------------ *)
(* Cross-partition commit and abort *)

let test_cross_partition_commit () =
  let c = make_cluster () in
  let ka = key_in ~parts:2 0 and kb = key_in ~parts:2 1 in
  let o = ref None in
  submit_session_tx c 0 ~writes:[ (ka, 7); (kb, 8) ] o;
  run_for c (Time.sec 3);
  expect_commit "cross tx" !o;
  (* Both fragments installed, on every replica (staleness bound). *)
  List.iteri
    (fun i _ ->
      check_int (Printf.sprintf "replica%d p0 value" i) 7 (committed_value c i ka);
      check_int (Printf.sprintf "replica%d p1 value" i) 8 (committed_value c i kb))
    (Cluster.replicas c);
  (* Both groups hold a committed outcome witness and an xa-stamped entry. *)
  let stats =
    List.concat_map (fun (_, g) -> List.map Certifier.stats g) (Cluster.certifier_groups c)
  in
  check_bool "prepared records delivered" true
    (List.exists (fun (s : Certifier.stats) -> s.xprepares > 0) stats);
  check_bool "fragments committed" true
    (List.exists (fun (s : Certifier.stats) -> s.xcommits > 0) stats);
  let session_stats = Session.stats (Replica.session (Cluster.replica c 0)) in
  check_int "session counted one cross commit" 1 session_stats.Session.cross_commits;
  check_all_invariants c

(* Local-certification promotion in a cross-partition commit is per
   fragment: each proxy raises only its own fragment's start version (the
   siblings' live in other partitions' version spaces). Replica1 moves both
   partitions on while replica0's cross transaction is open, so each of
   replica0's proxies promotes exactly one fragment — its own. *)
let test_cross_commit_promotes_own_fragment () =
  let c = make_cluster () in
  let engine = Cluster.engine c in
  let ka = key_in ~parts:2 0 and kb = key_in ~parts:2 1 in
  let ka2 = List.nth (keys_in ~parts:2 0 2) 1 and kb2 = List.nth (keys_in ~parts:2 1 2) 1 in
  let r0 = Cluster.replica c 0 and r1 = Cluster.replica c 1 in
  let s0 = Replica.session r0 in
  let o = ref None in
  ignore
    (Engine.spawn engine (fun () ->
         let tx = Session.begin_tx s0 in
         ignore (Session.write s0 tx ka (upd 1));
         ignore (Session.write s0 tx kb (upd 2));
         Engine.sleep engine (Time.sec 1);
         o := Some (Session.commit s0 tx)));
  let oa = ref None and ob = ref None in
  submit_session_tx c 1 ~writes:[ (ka2, 3) ] oa;
  submit_session_tx c 1 ~writes:[ (kb2, 4) ] ob;
  run_for c (Time.sec 3);
  expect_commit "p0 local" !oa;
  expect_commit "p1 local" !ob;
  expect_commit "cross" !o;
  let promotions r part =
    match Replica.proxy_of r ~part with
    | Some p -> (Proxy.stats p).Proxy.local_cert_promotions
    | None -> Alcotest.fail "partition not hosted"
  in
  check_int "replica0/p0 promoted its own fragment" 1 (promotions r0 0);
  check_int "replica0/p1 promoted its own fragment" 1 (promotions r0 1);
  check_int "replica1/p0 promoted nothing" 0 (promotions r1 0);
  check_int "replica1/p1 promoted nothing" 0 (promotions r1 1);
  check_all_invariants c

let test_cross_partition_atomic_abort () =
  let c = make_cluster () in
  let ka = key_in ~parts:2 0 and kb = key_in ~parts:2 1 in
  (* First settle a committed value in both partitions. *)
  let o0 = ref None in
  submit_session_tx c 0 ~writes:[ (ka, 1); (kb, 1) ] o0;
  run_for c (Time.sec 2);
  expect_commit "setup tx" !o0;
  (* Two concurrent sessions race on partition 0's key while also writing
     partition 1: certification must abort one in BOTH partitions. *)
  let o1 = ref None and o2 = ref None in
  let kb2 = List.nth (keys_in ~parts:2 1 2) 1 in
  submit_session_tx c 0 ~writes:[ (ka, 10); (kb, 10) ] o1;
  submit_session_tx c 1 ~writes:[ (ka, 20); (kb2, 20) ] o2;
  run_for c (Time.sec 3);
  let outcomes = [ !o1; !o2 ] in
  let oks = List.filter (function Some (Ok ()) -> true | _ -> false) outcomes in
  let aborts =
    List.filter (function Some (Error (Proxy.Cert_abort _)) -> true | _ -> false) outcomes
  in
  check_int "exactly one winner" 1 (List.length oks);
  check_int "exactly one certification abort" 1 (List.length aborts);
  (* The loser's partition-1 fragment must NOT have committed: the value
     of its partition-1 key is whatever the winner (or setup) wrote. *)
  (if !o1 = None then Alcotest.fail "tx1 never finished");
  (match (!o1, !o2) with
  | Some (Ok ()), _ ->
      check_int "winner's p0 write" 10 (committed_value c 0 ka);
      check_int "winner's p1 write" 10 (committed_value c 0 kb);
      check_int "loser's p1 key untouched" 0 (committed_value c 0 kb2)
  | _, Some (Ok ()) ->
      check_int "winner's p0 write" 20 (committed_value c 0 ka);
      check_int "winner's p1 write" 20 (committed_value c 0 kb2);
      check_int "loser's p1 key untouched" 1 (committed_value c 0 kb)
  | _ -> Alcotest.fail "no transaction won the race");
  check_all_invariants c

let test_cross_partition_vs_local_conflict () =
  (* A cross-partition transaction racing a partition-local one on the
     same key: exactly one commits, and if the cross one loses, none of
     its fragments land. *)
  let c = make_cluster ~seed:13 () in
  let ka = key_in ~parts:2 0 and kb = key_in ~parts:2 1 in
  let ox = ref None and ol = ref None in
  submit_session_tx c 0 ~writes:[ (ka, 30); (kb, 30) ] ox;
  submit_session_tx c 1 ~writes:[ (ka, 40) ] ol;
  run_for c (Time.sec 3);
  let ok o = match !o with Some (Ok ()) -> true | _ -> false in
  check_int "exactly one winner" 1
    (List.length (List.filter Fun.id [ ok ox; ok ol ]));
  if ok ol then begin
    check_int "local winner's value" 40 (committed_value c 0 ka);
    check_int "cross loser left p1 untouched" 0 (committed_value c 0 kb)
  end
  else begin
    check_int "cross winner p0" 30 (committed_value c 0 ka);
    check_int "cross winner p1" 30 (committed_value c 0 kb)
  end;
  check_all_invariants c

(* A retried cross-partition request is answered from the outcome table
   and counted nowhere: drop the first commit reply of a two-partition
   transaction, so its proxy retries after the Decision, and each group
   still counts the commit exactly once. *)
let test_cross_retry_counted_once () =
  let c = make_cluster () in
  let ka = key_in ~parts:2 0 and kb = key_in ~parts:2 1 in
  let target =
    match Replica.proxy_of (Cluster.replica c 0) ~part:0 with
    | Some p -> Proxy.addr p
    | None -> Alcotest.fail "replica0 hosts partition 0"
  in
  let dropped = ref false in
  Net.Network.set_tap (Cluster.network c)
    (Some
       (fun ~src:_ ~dst msg ->
         match msg with
         | Types.Cert_reply { decision = Types.Commit; _ }
           when (not !dropped) && String.equal dst target ->
             dropped := true;
             Net.Network.Drop
         | _ -> Net.Network.Pass));
  let o = ref None in
  submit_session_tx c 0 ~writes:[ (ka, 7); (kb, 8) ] o;
  run_for c (Time.sec 4);
  expect_commit "cross tx" !o;
  check_bool "first commit reply dropped" true !dropped;
  let p0 = Option.get (Replica.proxy_of (Cluster.replica c 0) ~part:0) in
  check_bool "the proxy retried" true (Cert_client.retries (Proxy.client p0) > 0);
  List.iter
    (fun (part, group) ->
      check_int
        (Printf.sprintf "p%d counts the commit once" part)
        1
        (List.fold_left (fun acc cert -> acc + (Certifier.stats cert).commits) 0 group))
    (Cluster.certifier_groups c);
  check_all_invariants c

(* A fake proxy [addr] for partition [part]: a Cert_client at the group
   with its reply pump. *)
let fake_proxy c ~addr ~part =
  let engine = Cluster.engine c and net = Cluster.network c in
  let mb = Net.Network.register net addr in
  let client =
    Cert_client.create engine ~net ~my_addr:addr
      ~certifiers:(List.map Certifier.id (Cluster.group c ~part))
      ~req_id_base:0 ()
  in
  ignore
    (Engine.spawn engine (fun () ->
         let rec pump () =
           Cert_client.handle client (Mailbox.recv mb);
           pump ()
         in
         pump ()));
  client

let certify_in c client ?gtx fragments =
  let reply = ref None in
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         reply :=
           Some (Cert_client.certify client ?gtx ~replica_version:0 ~oldest_snapshot:0 fragments)));
  run_for c (Time.sec 2);
  match !reply with
  | Some { Types.decision = Types.Commit; commit_version; _ } -> commit_version
  | Some _ -> Alcotest.fail "expected a commit"
  | None -> Alcotest.fail "certify never returned"

(* One outcome table keyed by transaction id: a single-partition and a
   cross-partition transaction from the same replica with equal sequence
   numbers — whose log entries share (origin, req_id) — are both recorded
   and neither shadows the other, and a crash that loses every member's
   table rebuilds it by redelivery, so retries of both are answered with
   their original versions. *)
let test_outcome_table_ids_and_rebuild () =
  let c = make_cluster () in
  let p0 = fake_proxy c ~addr:"x#p0" ~part:0 and p1 = fake_proxy c ~addr:"x#p1" ~part:1 in
  let frag ~part ~origin key =
    {
      Types.xf_part = part;
      xf_origin = origin;
      xf_start_version = 0;
      xf_ws = Mvcc.Writeset.singleton key (upd part);
    }
  in
  let ka = key_in ~parts:2 0 and kb = key_in ~parts:2 1 in
  let ka2 = List.nth (keys_in ~parts:2 0 2) 1 in
  let single_frag = frag ~part:0 ~origin:"x#p0" ka in
  let single = { Types.gtx_origin = "x#p0"; gtx_seq = 1 } in
  let v_single = certify_in c p0 [ single_frag ] in
  let cross = { Types.gtx_origin = "x"; gtx_seq = 1 } in
  let fragments = [ frag ~part:0 ~origin:"x#p0" ka2; frag ~part:1 ~origin:"x#p1" kb ] in
  ignore
    (Engine.spawn (Cluster.engine c) (fun () ->
         ignore
           (Cert_client.certify p1 ~gtx:cross ~replica_version:0 ~oldest_snapshot:0 fragments)));
  let v_cross = certify_in c p0 ~gtx:cross fragments in
  check_bool "distinct versions" true (v_single <> v_cross);
  let leader () =
    match Cluster.group_leader c ~part:0 with
    | Some l -> l
    | None -> Alcotest.fail "no p0 leader"
  in
  let check_recorded what =
    let lead = leader () in
    Alcotest.(check (option (option int)))
      (what ^ ": single recorded") (Some (Some v_single)) (Certifier.outcome lead single);
    Alcotest.(check (option (option int)))
      (what ^ ": cross recorded") (Some (Some v_cross)) (Certifier.outcome lead cross);
    let log = Certifier.log lead in
    let entry_id_at v = Types.entry_id (Cert_log.get log v) in
    check_bool (what ^ ": single entry id") true (Types.gtx_equal single (entry_id_at v_single));
    check_bool (what ^ ": cross entry id") true (Types.gtx_equal cross (entry_id_at v_cross))
  in
  check_recorded "before the crash";
  (* Every member of group 0 loses its volatile table. *)
  let group0 = Cluster.group c ~part:0 in
  List.iter Certifier.crash group0;
  run_for c (Time.of_ms 200.);
  List.iter Certifier.recover group0;
  run_for c (Time.sec 2);
  check_recorded "after recovery";
  let top = Certifier.system_version (leader ()) in
  check_int "single retry answered with its version" v_single
    (certify_in c p0 ~gtx:single [ single_frag ]);
  check_int "cross retry answered with its version" v_cross (certify_in c p0 ~gtx:cross fragments);
  check_int "retries appended nothing" top (Certifier.system_version (leader ()));
  check_all_invariants c

(* ------------------------------------------------------------------ *)
(* One proposal per certify round *)

(* A quiet cluster commits one cross-partition transaction among
   single-partition ones: its Prepared records and commit decisions ride
   the certify rounds' batches, so every leader sends exactly one Accept
   per round. *)
let test_cross_records_ride_the_round () =
  let c = make_cluster () in
  Cluster.reset_stats c;
  let ka = keys_in ~parts:2 0 3 and kb = keys_in ~parts:2 1 3 in
  let singles = List.init 4 (fun _ -> ref None) and cross = ref None in
  submit_session_tx c 0 ~writes:[ (List.nth ka 0, 1) ] (List.nth singles 0);
  submit_session_tx c 1 ~writes:[ (List.nth kb 0, 1) ] (List.nth singles 1);
  submit_session_tx c 0 ~writes:[ (List.nth ka 1, 2); (List.nth kb 1, 2) ] cross;
  run_for c (Time.of_ms 5.);
  submit_session_tx c 1 ~writes:[ (List.nth ka 2, 3) ] (List.nth singles 2);
  submit_session_tx c 0 ~writes:[ (List.nth kb 2, 3) ] (List.nth singles 3);
  run_for c (Time.sec 3);
  List.iteri (fun i o -> expect_commit (Printf.sprintf "single %d" i) !o) singles;
  expect_commit "cross" !cross;
  List.iter
    (fun (part, _) ->
      match Cluster.group_leader c ~part with
      | None -> Alcotest.fail "no leader"
      | Some lead ->
          let s = Certifier.stats lead in
          check_int (Printf.sprintf "p%d committed its fragment" part) 1 s.xcommits;
          check_bool (Printf.sprintf "p%d ran rounds" part) true (s.cert_batches > 0);
          check_int
            (Printf.sprintf "p%d Accept broadcasts = certify rounds" part)
            s.cert_batches s.accept_broadcasts)
    (Cluster.certifier_groups c);
  check_all_invariants c

(* The last Paxos slot group [part] has committed, read from its leader's
   heartbeats. *)
let watch_commit_index c ~part =
  let members = List.map Certifier.id (Cluster.group c ~part) in
  let top = ref 0 in
  Net.Network.set_tap (Cluster.network c)
    (Some
       (fun ~src ~dst:_ msg ->
         (match msg with
         | Types.Paxos (Paxos.Node.Heartbeat { commit_index; _ }) when List.mem src members ->
             top := max !top commit_index
         | _ -> ());
         Net.Network.Pass));
  top

(* Make [record] the value chosen in the slot after [slot] at every member
   of group [part]: a forged Commit from its leader. *)
let inject_chosen c ~part ~slot record =
  let lead =
    match Cluster.group_leader c ~part with
    | Some l -> Certifier.id l
    | None -> Alcotest.fail "no leader"
  in
  let s = slot + 1 in
  List.iter
    (fun cert ->
      Net.Network.send (Cluster.network c) ~src:lead ~dst:(Certifier.id cert)
        (Types.Paxos
           (Paxos.Node.Commit
              { from = lead; entries = [ (s, Paxos.Node.Value record) ]; commit_index = s })))
    (Cluster.group c ~part)

let xa_entries cert =
  let log = Certifier.log cert in
  List.filter
    (fun (e : Types.entry) -> Option.is_some e.xa)
    (Cert_log.entries_between log ~lo:0 ~hi:(Cert_log.version log))

(* A commit decision proposed and then re-proposed — its leader crashes
   right after sending the Accept, and the next leader inherits it — and
   then a second copy chosen in a later slot: group 0 holds the fragment at
   exactly one version, and its log stays contiguous and atomic. *)
let test_duplicated_commit_decision_appends_once () =
  let c = make_cluster () in
  let engine = Cluster.engine c in
  let members = List.map Certifier.id (Cluster.group c ~part:0) in
  let crashed = ref None in
  Net.Network.set_tap (Cluster.network c)
    (Some
       (fun ~src ~dst:_ msg ->
         (match msg with
         | Types.Paxos (Paxos.Node.Accept { entries; _ })
           when !crashed = None && List.mem src members
                && List.exists
                     (fun (sv : Types.record Paxos.Node.slot_value) ->
                       match sv.value with
                       | Paxos.Node.Value (Types.Committed { xa = Some _; _ } | Types.Decision _)
                         ->
                           true
                       | _ -> false)
                     entries ->
             let lead = List.find (fun cert -> Certifier.id cert = src) (Cluster.group c ~part:0) in
             crashed := Some lead;
             Engine.schedule_after engine Time.zero (fun () -> Certifier.crash lead)
         | _ -> ());
         Net.Network.Pass));
  let ka = key_in ~parts:2 0 and kb = key_in ~parts:2 1 in
  let o = ref None in
  submit_session_tx c 0 ~writes:[ (ka, 7); (kb, 8) ] o;
  run_for c (Time.sec 1);
  (match !crashed with
  | Some lead -> Certifier.recover lead
  | None -> Alcotest.fail "the commit decision was never proposed");
  run_for c (Time.sec 3);
  expect_commit "cross tx" !o;
  let once what =
    List.iter
      (fun cert ->
        check_int
          (Printf.sprintf "%s: %s holds the fragment once" what (Certifier.id cert))
          1 (List.length (xa_entries cert)))
      (Cluster.group c ~part:0)
  in
  once "after the leader change";
  check_all_invariants c;
  let top = watch_commit_index c ~part:0 in
  run_for c (Time.of_ms 100.);
  let lead = Option.get (Cluster.group_leader c ~part:0) in
  let version = Certifier.system_version lead in
  inject_chosen c ~part:0 ~slot:!top (Types.Committed (List.hd (xa_entries lead)));
  run_for c (Time.of_ms 500.);
  once "after a second copy was chosen";
  check_int "no version consumed" version (Certifier.system_version lead);
  check_all_invariants c

(* Every append is versioned at proposal, so a partitioned group's log is
   never handed a version below its next one: if it is, the append
   raises, as in a single-partition run. *)
let test_backwards_version_raises () =
  let c = make_cluster () in
  let ka = key_in ~parts:2 0 and kb = key_in ~parts:2 1 in
  let o = ref None in
  submit_session_tx c 0 ~writes:[ (ka, 7); (kb, 8) ] o;
  run_for c (Time.sec 2);
  expect_commit "cross tx" !o;
  let top = watch_commit_index c ~part:0 in
  run_for c (Time.of_ms 100.);
  let lead = Option.get (Cluster.group_leader c ~part:0) in
  let stale = Cert_log.get (Certifier.log lead) 1 in
  inject_chosen c ~part:0 ~slot:!top (Types.Committed { stale with xa = None; req_id = 999 });
  match run_for c (Time.of_ms 100.) with
  | () -> Alcotest.fail "a version going backwards was appended"
  | exception Invalid_argument msg ->
      check_bool ("append refused: " ^ msg) true
        (String.starts_with ~prefix:"Cert_log.append" msg)

(* A leader folds the snapshot reports of the replicas that have reached
   it — a new leader, those that retried there first — so its GC floor
   can pass the reply window of a request still on its way. Such a
   request is refused like a too-old snapshot, not admitted under a floor
   that has passed it. *)
let test_request_below_floor_refused () =
  let c = make_cluster ~n_partitions:1 () in
  let a = fake_proxy c ~addr:"a#p0" ~part:0 and b = fake_proxy c ~addr:"b#p0" ~part:0 in
  let keys = keys_in ~parts:1 0 6 in
  let frag ~origin ~start key =
    {
      Types.xf_part = 0;
      xf_origin = origin;
      xf_start_version = start;
      xf_ws = Mvcc.Writeset.singleton key (upd 1);
    }
  in
  List.iteri
    (fun i key -> if i < 5 then ignore (certify_in c a [ frag ~origin:"a#p0" ~start:0 key ]))
    keys;
  let decide client ~rv fragment =
    let reply = ref None in
    ignore
      (Engine.spawn (Cluster.engine c) (fun () ->
           reply :=
             Some
               (Cert_client.certify client ~replica_version:rv ~oldest_snapshot:rv [ fragment ])));
    run_for c (Time.sec 1);
    match !reply with
    | Some r -> r.Types.decision
    | None -> Alcotest.fail "certify never returned"
  in
  (* [a] reads nothing older than version 5. Its request conflicts, so
     the round proposes nothing, but the floor folded from its report
     stands. *)
  check_bool "conflicting request aborted" true
    (decide a ~rv:5 (frag ~origin:"a#p0" ~start:0 (List.hd keys)) <> Types.Commit);
  check_bool "request below the floor refused" true
    (decide b ~rv:3 (frag ~origin:"b#p0" ~start:3 (List.nth keys 5)) <> Types.Commit);
  check_all_invariants c

(* tashAPInoCERT appends a single-partition commit as it certifies it,
   outside Paxos, while a cross-partition commit still goes through its
   group's ring: both kinds land on one contiguous log, and the run stays
   atomic and monitor-clean. *)
let test_nocert_cross_traffic () =
  let d = Harness.Experiment.default in
  let cfg =
    {
      d with
      Harness.Experiment.system = Harness.Experiment.Replicated_nocert Types.Tashkent_api;
      cluster = { d.cluster with n_replicas = 4; n_partitions = 2 };
      workload = Harness.Experiment.Part_local;
      cross_ratio = 0.1;
      warmup = Time.sec 1;
      measure = Time.sec 2;
      monitors = true;
    }
  in
  let sc = Harness.Scenario.start (Harness.Experiment.scenario cfg) in
  let r = Harness.Experiment.measure cfg sc in
  check_bool "cross-partition commits" true (r.cross_commits > 0);
  check_bool "single-partition commits" true (r.goodput > 0.);
  Alcotest.(check (list string)) "no monitor violation" [] r.monitor_violations;
  check_all_invariants sc.cluster

(* ------------------------------------------------------------------ *)
(* Crash-tolerance of the cross-partition protocol *)

let test_cross_atomicity_under_group_crash () =
  (* Sustained cross-partition traffic while one group's leader
     crash-stops and later recovers: every acknowledged cross commit must
     stay atomic, and the logs must heal to the usual invariants. *)
  let c = make_cluster ~seed:21 () in
  let engine = Cluster.engine c in
  let keys0 = keys_in ~parts:2 0 8 and keys1 = keys_in ~parts:2 1 8 in
  let outcomes = ref [] in
  let spawn_client i =
    let r = Cluster.replica c i in
    let s = Replica.session r in
    ignore
      (Engine.spawn engine (fun () ->
           for n = 0 to 39 do
             let o = ref None in
             outcomes := o :: !outcomes;
             let ka = List.nth keys0 ((n + i) mod 8)
             and kb = List.nth keys1 ((n + (3 * i)) mod 8) in
             let tx = Session.begin_tx s in
             Replica.use_cpu r (Replica.config r).Replica.exec_cpu;
             (match Session.write s tx ka (upd n) with
             | Error f -> Session.abort s tx; o := Some (Error f)
             | Ok () -> (
                 match Session.write s tx kb (upd n) with
                 | Error f -> Session.abort s tx; o := Some (Error f)
                 | Ok () -> o := Some (Session.commit s tx)));
             Engine.sleep engine (Time.of_ms 40.)
           done))
  in
  spawn_client 0;
  spawn_client 1;
  (* Crash group 1's leader mid-run; recover it two seconds later. *)
  Engine.schedule_after engine (Time.of_ms 500.) (fun () ->
      match Cluster.group_leader c ~part:1 with
      | Some cert -> Certifier.crash cert
      | None -> ());
  let crashed () =
    List.filter (fun cert -> not (Certifier.is_up cert)) (Cluster.group c ~part:1)
  in
  Engine.schedule_after engine (Time.sec 2) (fun () ->
      List.iter Certifier.recover (crashed ()));
  run_for c (Time.sec 8);
  (* Liveness: the surviving majority keeps certifying. *)
  let finished =
    List.length (List.filter (fun o -> !o <> None) !outcomes)
  in
  check_bool "most transactions finished" true (finished >= 60);
  let committed =
    List.length
      (List.filter (fun o -> match !o with Some (Ok ()) -> true | _ -> false) !outcomes)
  in
  check_bool "commits continued despite the crash" true (committed >= 20);
  check_all_invariants c

(* ------------------------------------------------------------------ *)
(* Partial replication *)

let test_host_modulo_partition_local () =
  (* Two partitions, two replicas, each hosting exactly one partition.
     Replica i only ever touches its own partition; every replica's data
     must match its group's log, and neither replica ever stores the
     other partition's rows. *)
  let c = make_cluster ~hosting:Cluster.Host_modulo ~seed:5 () in
  let outcomes = List.init 12 (fun _ -> ref None) in
  List.iteri
    (fun n o ->
      let i = n mod 2 in
      let key = List.nth (keys_in ~parts:2 i 6) (n / 2) in
      submit_session_tx c i ~writes:[ (key, 200 + n) ] o)
    outcomes;
  run_for c (Time.sec 3);
  List.iteri (fun n o -> expect_commit (Printf.sprintf "tx%d" n) !o) outcomes;
  (* Hosting is really partial. *)
  List.iteri
    (fun i r ->
      Alcotest.(check (list int))
        (Printf.sprintf "replica%d subscriptions" i)
        [ i mod 2 ] (Replica.partitions r))
    (Cluster.replicas c);
  check_all_invariants c

let suites =
  [
    ( "partition.unit",
      [
        Alcotest.test_case "partitioner stable map" `Quick test_partitioner_stable;
        Alcotest.test_case "writeset split" `Quick test_partitioner_split;
      ] );
    ( "partition.cluster",
      [
        Alcotest.test_case "1 partition matches legacy path" `Quick
          test_one_partition_matches_legacy;
        Alcotest.test_case "1 partition snapshots at begin" `Quick
          test_one_partition_snapshot_at_begin;
        Alcotest.test_case "cross-partition commit" `Quick test_cross_partition_commit;
        Alcotest.test_case "cross commit promotes its own fragment" `Quick
          test_cross_commit_promotes_own_fragment;
        Alcotest.test_case "cross-partition atomic abort" `Quick
          test_cross_partition_atomic_abort;
        Alcotest.test_case "cross vs local conflict" `Quick
          test_cross_partition_vs_local_conflict;
        Alcotest.test_case "cross retry counted once" `Quick test_cross_retry_counted_once;
        Alcotest.test_case "outcome table ids and rebuild" `Quick
          test_outcome_table_ids_and_rebuild;
        Alcotest.test_case "cross records ride the round" `Quick
          test_cross_records_ride_the_round;
        Alcotest.test_case "a duplicated commit decision appends once" `Quick
          test_duplicated_commit_decision_appends_once;
        Alcotest.test_case "partitioned log refuses a version going backwards" `Quick
          test_backwards_version_raises;
        Alcotest.test_case "request below the leader's floor refused" `Quick
          test_request_below_floor_refused;
        Alcotest.test_case "nocert certifier with cross traffic" `Quick
          test_nocert_cross_traffic;
        Alcotest.test_case "atomicity under group crash" `Quick
          test_cross_atomicity_under_group_crash;
        Alcotest.test_case "Host_modulo partial replication" `Quick
          test_host_modulo_partition_local;
      ] );
  ]

(* Tests of the batched certification pipeline: batch formation at the
   certify fiber, intra-batch conflict detection against the overlay, and
   retry idempotency across a leadership change. *)

open Sim
open Tashkent

let k row = Mvcc.Key.make ~table:"t" ~row
let upd n = Mvcc.Writeset.Update (Mvcc.Value.int n)
let ws1 row n = Mvcc.Writeset.singleton (k row) (upd n)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

type cluster = {
  engine : Engine.t;
  net : Types.message Net.Network.t;
  certs : (string * Certifier.t) list;
  metrics : Obs.Registry.t;
  client_mb : Types.message Mailbox.t;
}

(* A bare certifier group (no replicas/proxies) on a ZERO-JITTER network:
   equal-size messages sent at the same instant arrive at the same instant,
   so the pump drains all of them into the certify fiber's work queue
   before its zero-delay wakeup runs — the batch forms deterministically. *)
let make_certs ?(n = 3) ?(seed = 11) () =
  let engine = Engine.create () in
  let rng = Rng.create seed in
  let config =
    { Net.Network.default_lan with latency_lo = Time.us 50; latency_hi = Time.us 50 }
  in
  let net = Net.Network.create engine ~rng:(Rng.split rng) ~config () in
  let metrics = Obs.Registry.create () in
  let env = Env.make ~engine ~rng ~net ~metrics ~trace:(Obs.Trace.disabled ()) () in
  let ids = List.init n (fun i -> Printf.sprintf "c%d" i) in
  let certs =
    List.map
      (fun id ->
        (id, Certifier.create env ~id ~peers:(List.filter (fun p -> p <> id) ids) ()))
      ids
  in
  let client_mb = Net.Network.register net "client" in
  { engine; net; certs; metrics; client_mb }

let run_for c span = Engine.run ~until:(Time.add (Engine.now c.engine) span) c.engine

let the_leader c =
  match
    List.filter (fun (_, ct) -> Certifier.is_up ct && Certifier.is_leader ct) c.certs
  with
  | [ pair ] -> pair
  | [] -> Alcotest.fail "no certifier leader"
  | _ -> Alcotest.fail "multiple certifier leaders"

let request c ~dst ~req_id ~row ~value ~at_version =
  let msg =
    Types.Cert_request
      {
        req_id;
        trace_id = 0;
        replica = "client";
        replica_version = at_version;
        oldest_snapshot = at_version;
        gtx = Types.single_gtx ~origin:"client" ~req_id;
        fragments =
          [
            {
              xf_part = 0;
              xf_origin = "client";
              xf_start_version = at_version;
              xf_ws = ws1 row value;
            };
          ];
      }
  in
  Net.Network.send c.net ~src:"client" ~dst ~size:(Types.message_bytes msg) msg

let drain_replies c =
  let rec loop acc =
    match Mailbox.try_recv c.client_mb with
    | Some (Types.Cert_reply r) -> loop (r :: acc)
    | Some _ -> loop acc
    | None -> List.rev acc
  in
  loop []

(* k requests sent at the same instant form ONE certification batch: one
   multi-entry Accept broadcast, one WAL batch-append, and (absent other
   traffic) one fsync on the leader's log for the whole batch. *)
let test_one_broadcast_per_batch () =
  let c = make_certs () in
  run_for c (Time.sec 2);
  let leader_id, leader = the_leader c in
  Obs.Registry.reset c.metrics;
  let kreq = 8 in
  for i = 1 to kreq do
    request c ~dst:leader_id ~req_id:i ~row:(Printf.sprintf "a%d" i) ~value:i
      ~at_version:0
  done;
  run_for c (Time.sec 1);
  let replies = drain_replies c in
  check_int "every request answered" kreq (List.length replies);
  List.iter
    (fun (r : Types.cert_reply) ->
      check_bool "committed" true (r.decision = Types.Commit))
    replies;
  let versions = List.sort compare (List.map (fun (r : Types.cert_reply) -> r.commit_version) replies) in
  Alcotest.(check (list int)) "contiguous versions" (List.init kreq (fun i -> i + 1)) versions;
  let stats = Certifier.stats leader in
  check_int "one certification round" 1 stats.cert_batches;
  Alcotest.(check (float 0.01)) "whole batch in one round" (float_of_int kreq)
    stats.mean_cert_batch;
  check_int "one Accept broadcast" 1 stats.accept_broadcasts;
  Alcotest.(check (float 0.01)) "all entries in that broadcast" (float_of_int kreq)
    stats.mean_accept_batch;
  check_int "one fsync on the leader log" 1 stats.log_fsyncs;
  Alcotest.(check (float 0.01)) "writesets per fsync = batch" (float_of_int kreq)
    stats.mean_group_size

(* Two same-instant requests writing the same key: the first is accepted
   into the overlay, the second must abort against it (the log alone cannot
   see the conflict — the first entry is not delivered yet). *)
let test_intra_batch_conflict_aborts_later () =
  let c = make_certs () in
  run_for c (Time.sec 2);
  let leader_id, leader = the_leader c in
  Obs.Registry.reset c.metrics;
  request c ~dst:leader_id ~req_id:1 ~row:"x" ~value:1 ~at_version:0;
  request c ~dst:leader_id ~req_id:2 ~row:"x" ~value:2 ~at_version:0;
  request c ~dst:leader_id ~req_id:3 ~row:"y" ~value:3 ~at_version:0;
  run_for c (Time.sec 1);
  let replies = drain_replies c in
  check_int "every request answered" 3 (List.length replies);
  let by_id id = List.find (fun (r : Types.cert_reply) -> r.req_id = id) replies in
  check_bool "first writer commits" true ((by_id 1).decision = Types.Commit);
  check_bool "second writer aborts on the in-flight conflict" true
    ((by_id 2).decision = Types.Abort Types.Ww_conflict);
  check_bool "disjoint key commits" true ((by_id 3).decision = Types.Commit);
  let stats = Certifier.stats leader in
  check_int "one ww abort" 1 stats.aborts_ww;
  check_int "two commits" 2 stats.commits;
  check_int "log holds the two committed entries" 2 (Certifier.system_version leader)

(* A request committed under the old leader and retried at the new one
   must get the SAME version back, without growing the log: the decided
   map is rebuilt on every node by delivery. *)
let test_retry_after_leadership_change () =
  let c = make_certs ~n:3 () in
  run_for c (Time.sec 2);
  let leader_id, leader = the_leader c in
  request c ~dst:leader_id ~req_id:42 ~row:"x" ~value:1 ~at_version:0;
  run_for c (Time.sec 1);
  (match drain_replies c with
  | [ r ] ->
      check_bool "committed" true (r.decision = Types.Commit);
      check_int "version 1" 1 r.commit_version
  | rs -> Alcotest.fail (Printf.sprintf "expected one reply, got %d" (List.length rs)));
  Certifier.crash leader;
  run_for c (Time.sec 3);
  let new_leader_id, new_leader = the_leader c in
  check_bool "a different node leads" true (new_leader_id <> leader_id);
  check_int "delivered entry survives on the new leader" 1
    (Certifier.system_version new_leader);
  (* The proxy would retry with the identical request after the redirect. *)
  request c ~dst:new_leader_id ~req_id:42 ~row:"x" ~value:1 ~at_version:0;
  run_for c (Time.sec 1);
  (match drain_replies c with
  | [ r ] ->
      check_bool "retry commits" true (r.decision = Types.Commit);
      check_int "same version as the original decision" 1 r.commit_version
  | rs -> Alcotest.fail (Printf.sprintf "expected one reply, got %d" (List.length rs)));
  check_int "no duplicate log entry" 1 (Certifier.system_version new_leader)

let suites =
  [
    ( "core.batching",
      [
        Alcotest.test_case "one Accept broadcast per batch" `Quick
          test_one_broadcast_per_batch;
        Alcotest.test_case "intra-batch ww conflict aborts the later" `Quick
          test_intra_batch_conflict_aborts_later;
        Alcotest.test_case "retry after leadership change is idempotent" `Quick
          test_retry_after_leadership_change;
      ] );
  ]

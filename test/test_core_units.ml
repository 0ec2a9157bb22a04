(* Unit-level tests for the middleware pieces that the end-to-end suite
   exercises only indirectly: the certifier client's retry machinery, the
   certifier's idempotency and no-durability mode, and proxy statistics. *)

open Sim
open Tashkent

let k row = Mvcc.Key.make ~table:"t" ~row
let ws row n = Mvcc.Writeset.singleton (k row) (Mvcc.Writeset.Update (Mvcc.Value.int n))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let fragment ?(origin = "proxy") ?(start_version = 0) w =
  { Types.xf_part = 0; xf_origin = origin; xf_start_version = start_version; xf_ws = w }

(* A one-fragment certification request: its own transaction,
   [(replica, req_id)], unless [gtx] names another. *)
let request ?gtx ?(oldest_snapshot = 0) ~req_id ~replica ~start_version ~replica_version w =
  Types.Cert_request
    {
      req_id;
      trace_id = 0;
      replica;
      replica_version;
      oldest_snapshot;
      gtx = Option.value gtx ~default:(Types.single_gtx ~origin:replica ~req_id);
      fragments = [ fragment ~origin:replica ~start_version w ];
    }

let fast_net engine =
  Net.Network.create engine ~rng:(Rng.create 3)
    ~config:
      {
        Net.Network.latency_lo = Time.us 50;
        latency_hi = Time.us 50;
        bandwidth_bytes_per_sec = 1e9;
      }
    ()

(* A scriptable fake certifier endpoint. *)
let fake_certifier engine net name behaviour =
  let mb = Net.Network.register net name in
  ignore
    (Engine.spawn engine (fun () ->
         let rec loop () =
           (match Mailbox.recv mb with
           | Types.Cert_request req -> behaviour req
           | _ -> ());
           loop ()
         in
         loop ()))

let test_cert_client_happy_path () =
  let engine = Engine.create () in
  let net = fast_net engine in
  let _proxy_mb = Net.Network.register net "proxy" in
  let proxy_mb = _proxy_mb in
  fake_certifier engine net "c0" (fun req ->
      Net.Network.send net ~src:"c0" ~dst:req.Types.replica
        (Types.Cert_reply
           {
             req_id = req.req_id;
             decision = Types.Commit;
             commit_version = 7;
             gc_floor = 0;
             remotes = [];
           }));
  let client =
    Cert_client.create engine ~net ~my_addr:"proxy" ~certifiers:[ "c0" ] ~req_id_base:0 ()
  in
  ignore
    (Engine.spawn engine (fun () ->
         let rec pump () =
           Cert_client.handle client (Mailbox.recv proxy_mb);
           pump ()
         in
         pump ()));
  let got = ref 0 in
  ignore
    (Engine.spawn engine (fun () ->
         let reply =
           Cert_client.certify client ~replica_version:0 ~oldest_snapshot:0 [ fragment (ws "a" 1) ]
         in
         got := reply.commit_version));
  Engine.run ~until:(Time.sec 2) engine;
  check_int "commit version" 7 !got;
  check_int "one request" 1 (Cert_client.requests_sent client);
  check_int "no retries" 0 (Cert_client.retries client)

let test_cert_client_redirect () =
  let engine = Engine.create () in
  let net = fast_net engine in
  let proxy_mb = Net.Network.register net "proxy" in
  (* c0 redirects to c1; c1 answers *)
  fake_certifier engine net "c0" (fun req ->
      Net.Network.send net ~src:"c0" ~dst:req.Types.replica
        (Types.Cert_redirect { req_id = req.req_id; leader = Some "c1" }));
  fake_certifier engine net "c1" (fun req ->
      Net.Network.send net ~src:"c1" ~dst:req.Types.replica
        (Types.Cert_reply
           { req_id = req.req_id; decision = Types.Commit; commit_version = 9; gc_floor = 0; remotes = [] }));
  let client =
    Cert_client.create engine ~net ~my_addr:"proxy" ~certifiers:[ "c0"; "c1" ]
      ~req_id_base:0 ()
  in
  ignore
    (Engine.spawn engine (fun () ->
         let rec pump () =
           Cert_client.handle client (Mailbox.recv proxy_mb);
           pump ()
         in
         pump ()));
  let got = ref 0 in
  ignore
    (Engine.spawn engine (fun () ->
         got :=
           (Cert_client.certify client ~replica_version:0 ~oldest_snapshot:0 [ fragment (ws "a" 1) ])
             .commit_version));
  Engine.run ~until:(Time.sec 2) engine;
  check_int "answer came from the leader" 9 !got;
  check_int "one retry (the redirect)" 1 (Cert_client.retries client)

let test_cert_client_timeout_failover () =
  let engine = Engine.create () in
  let net = fast_net engine in
  let proxy_mb = Net.Network.register net "proxy" in
  (* c0 is dead (no endpoint); c1 answers. Same request id on retry. *)
  let seen_ids = ref [] in
  fake_certifier engine net "c1" (fun req ->
      seen_ids := req.Types.req_id :: !seen_ids;
      Net.Network.send net ~src:"c1" ~dst:req.Types.replica
        (Types.Cert_reply
           { req_id = req.req_id; decision = Types.Commit; commit_version = 3; gc_floor = 0; remotes = [] }));
  let client =
    Cert_client.create engine ~net ~my_addr:"proxy" ~certifiers:[ "c0"; "c1" ]
      ~timeout:(Time.of_ms 100.) ~req_id_base:500 ()
  in
  ignore
    (Engine.spawn engine (fun () ->
         let rec pump () =
           Cert_client.handle client (Mailbox.recv proxy_mb);
           pump ()
         in
         pump ()));
  let got = ref 0 in
  ignore
    (Engine.spawn engine (fun () ->
         got :=
           (Cert_client.certify client ~replica_version:0 ~oldest_snapshot:0 [ fragment (ws "a" 1) ])
             .commit_version));
  Engine.run ~until:(Time.sec 5) engine;
  check_int "eventually answered" 3 !got;
  check_bool "retried at least once" true (Cert_client.retries client >= 1);
  Alcotest.(check (list int)) "idempotent request id" [ 501 ] (List.sort_uniq compare !seen_ids)

(* ------------------------------------------------------------------ *)
(* Certifier unit behaviour through a real (1-node) instance *)

let one_node_certifier ?(config = Certifier.default_config)
    ?(metrics = Obs.Registry.create ()) engine net =
  let env =
    Env.make ~engine ~rng:(Rng.create 9) ~net ~metrics ~trace:(Obs.Trace.disabled ()) ()
  in
  Certifier.create env ~id:"cert0" ~peers:[] ~config ()

let certify_via engine net cert ~req_id ~start_version ~replica_version w =
  let reply = ref None in
  let mb = Net.Network.register net (Printf.sprintf "r%d" req_id) in
  ignore
    (Engine.spawn engine (fun () ->
         Net.Network.send net
           ~src:(Printf.sprintf "r%d" req_id)
           ~dst:(Certifier.id cert)
           (request ~req_id ~replica:(Printf.sprintf "r%d" req_id) ~start_version
              ~replica_version w);
         match Mailbox.recv mb with
         | Types.Cert_reply r -> reply := Some r
         | _ -> ()));
  reply

let test_certifier_commit_then_conflict () =
  let engine = Engine.create () in
  let net = fast_net engine in
  let cert = one_node_certifier engine net in
  Engine.run ~until:(Time.sec 2) engine;
  check_bool "single node leads" true (Certifier.is_leader cert);
  let r1 = certify_via engine net cert ~req_id:1 ~start_version:0 ~replica_version:0 (ws "a" 1) in
  Engine.run ~until:(Time.sec 3) engine;
  (match !r1 with
  | Some { decision = Types.Commit; commit_version = 1; _ } -> ()
  | _ -> Alcotest.fail "first writeset should commit at version 1");
  (* concurrent writeset on the same key (started before version 1) aborts *)
  let r2 = certify_via engine net cert ~req_id:2 ~start_version:0 ~replica_version:0 (ws "a" 2) in
  Engine.run ~until:(Time.sec 4) engine;
  (match !r2 with
  | Some { decision = Types.Abort Types.Ww_conflict; _ } -> ()
  | _ -> Alcotest.fail "conflicting concurrent writeset must abort");
  (* a later transaction that saw version 1 commits *)
  let r3 = certify_via engine net cert ~req_id:3 ~start_version:1 ~replica_version:1 (ws "a" 3) in
  Engine.run ~until:(Time.sec 5) engine;
  match !r3 with
  | Some { decision = Types.Commit; commit_version = 2; _ } -> ()
  | _ -> Alcotest.fail "non-concurrent writer must commit"

let test_certifier_retry_idempotent () =
  let engine = Engine.create () in
  let net = fast_net engine in
  let cert = one_node_certifier engine net in
  Engine.run ~until:(Time.sec 2) engine;
  let r1 = certify_via engine net cert ~req_id:42 ~start_version:0 ~replica_version:0 (ws "a" 1) in
  Engine.run ~until:(Time.sec 3) engine;
  (* the same req_id again: must NOT create a new version *)
  let mb = Net.Network.register net "r42b" in
  let second = ref None in
  ignore
    (Engine.spawn engine (fun () ->
         Net.Network.send net ~src:"r42b" ~dst:"cert0"
           (request ~gtx:{ gtx_origin = "r42"; gtx_seq = 42 } ~req_id:42 ~replica:"r42b"
              ~start_version:0 ~replica_version:0 (ws "a" 1));
         match Mailbox.recv mb with
         | Types.Cert_reply r -> second := Some r
         | _ -> ()));
  Engine.run ~until:(Time.sec 4) engine;
  (match (!r1, !second) with
  | Some a, Some b ->
      check_int "same version on retry" a.commit_version b.commit_version
  | _ -> Alcotest.fail "both replies expected");
  check_int "log has exactly one entry" 1 (Certifier.system_version cert)

let test_certifier_remotes_annotated () =
  (* Two sequential commits on the same key from r1; a later request from
     r2 receives both as remotes, the second annotated with the conflict. *)
  let engine = Engine.create () in
  let net = fast_net engine in
  let cert = one_node_certifier engine net in
  Engine.run ~until:(Time.sec 2) engine;
  ignore (certify_via engine net cert ~req_id:1 ~start_version:0 ~replica_version:0 (ws "x" 1));
  Engine.run ~until:(Time.sec 3) engine;
  ignore (certify_via engine net cert ~req_id:2 ~start_version:1 ~replica_version:1 (ws "x" 2));
  Engine.run ~until:(Time.sec 4) engine;
  let r3 = certify_via engine net cert ~req_id:3 ~start_version:2 ~replica_version:0 (ws "y" 1) in
  Engine.run ~until:(Time.sec 5) engine;
  match !r3 with
  | Some { decision = Types.Commit; remotes; _ } -> (
      match remotes with
      | [ a; b ] ->
          check_int "first remote is version 1" 1 a.Types.version;
          check_int "second remote is version 2" 2 b.Types.version;
          Alcotest.(check (option int)) "no conflict below v1" None a.conflict_with;
          Alcotest.(check (option int)) "v2 conflicts with v1" (Some 1) b.conflict_with
      | _ -> Alcotest.fail "expected two remotes")
  | _ -> Alcotest.fail "expected commit with remotes"

let test_certifier_nocert_mode_no_disk () =
  let engine = Engine.create () in
  let net = fast_net engine in
  let metrics = Obs.Registry.create () in
  let cert =
    one_node_certifier ~config:{ Certifier.default_config with durable = false } ~metrics
      engine net
  in
  Engine.run ~until:(Time.sec 2) engine;
  (* discard the election's promise fsync; certification must add none *)
  Obs.Registry.reset metrics;
  let replied_at = ref Time.zero in
  let mb = Net.Network.register net "rq" in
  ignore
    (Engine.spawn engine (fun () ->
         let sent = Engine.now engine in
         Net.Network.send net ~src:"rq" ~dst:"cert0"
           (request ~req_id:1 ~replica:"rq" ~start_version:0 ~replica_version:0 (ws "a" 1));
         (match Mailbox.recv mb with Types.Cert_reply _ -> () | _ -> ());
         replied_at := Time.diff (Engine.now engine) sent));
  Engine.run ~until:(Time.sec 3) engine;
  check_bool "no-durability reply is sub-millisecond" true
    Time.(!replied_at < Time.of_ms 1.);
  let stats = Certifier.stats cert in
  check_int "nothing written to the log disk" 0 stats.log_fsyncs;
  check_int "but certified and committed" 1 stats.commits

let test_certifier_forced_abort_counted () =
  let engine = Engine.create () in
  let net = fast_net engine in
  let cert =
    one_node_certifier
      ~config:{ Certifier.default_config with forced_abort_rate = 1.0 }
      engine net
  in
  Engine.run ~until:(Time.sec 2) engine;
  let r = certify_via engine net cert ~req_id:1 ~start_version:0 ~replica_version:0 (ws "a" 1) in
  Engine.run ~until:(Time.sec 3) engine;
  (match !r with
  | Some { decision = Types.Abort Types.Forced; _ } -> ()
  | _ -> Alcotest.fail "expected forced abort");
  check_int "forced abort counted" 1 (Certifier.stats cert).aborts_forced;
  check_int "log unchanged" 0 (Certifier.system_version cert)

(* One replica certifying sequentially, reporting its oldest active
   snapshot as it goes: the certifier's watermark must follow the reports
   and truncate the certified log behind them. *)
let test_certifier_watermark_truncates () =
  let engine = Engine.create () in
  let net = fast_net engine in
  let cert = one_node_certifier engine net in
  Engine.run ~until:(Time.sec 2) engine;
  let mb = Net.Network.register net "rA" in
  let floors = ref [] in
  ignore
    (Engine.spawn engine (fun () ->
         for i = 1 to 5 do
           Net.Network.send net ~src:"rA" ~dst:"cert0"
             (request ~req_id:i ~replica:"rA" ~start_version:(i - 1) ~replica_version:(i - 1)
                ~oldest_snapshot:(i - 1) (ws "a" i));
           match Mailbox.recv mb with
           | Types.Cert_reply r -> floors := r.gc_floor :: !floors
           | _ -> ()
         done));
  Engine.run ~until:(Time.sec 5) engine;
  let log = Certifier.log cert in
  check_int "five commits" 5 (Cert_log.version log);
  check_int "floor follows the reports" 4 (Cert_log.floor log);
  check_int "one live entry" 1 (Cert_log.entries log);
  check_int "prefix pruned" 4 (Cert_log.pruned log);
  check_bool "floor gossiped in commit replies" true
    (List.exists (fun f -> f > 0) !floors);
  (* the outcome table survives truncation: still the durability witness
     for every pruned slot *)
  for i = 1 to 5 do
    check_bool "decided survives truncation" true
      (Certifier.outcome cert { gtx_origin = "rA"; gtx_seq = i } = Some (Some i))
  done

(* A fetch whose start lies below the truncation floor is answered with a
   full snapshot transfer (base rows at the floor) plus the live entries
   above it — never by reading freed slots. *)
let test_certifier_fetch_below_floor_snapshot () =
  let engine = Engine.create () in
  let net = fast_net engine in
  let cert = one_node_certifier engine net in
  Engine.run ~until:(Time.sec 2) engine;
  let mb = Net.Network.register net "rA" in
  ignore
    (Engine.spawn engine (fun () ->
         for i = 1 to 5 do
           Net.Network.send net ~src:"rA" ~dst:"cert0"
             (request ~req_id:i ~replica:"rA" ~start_version:(i - 1) ~replica_version:(i - 1)
                ~oldest_snapshot:(i - 1)
                (ws (string_of_int i) i));
           match Mailbox.recv mb with Types.Cert_reply _ -> () | _ -> ()
         done));
  Engine.run ~until:(Time.sec 5) engine;
  check_int "floor advanced" 4 (Cert_log.floor (Certifier.log cert));
  let fetch ~from_version =
    let name = Printf.sprintf "stale%d" from_version in
    let fmb = Net.Network.register net name in
    let got = ref None in
    ignore
      (Engine.spawn engine (fun () ->
           Net.Network.send net ~src:name ~dst:"cert0"
             (Types.Fetch_request
                {
                  fetch_req_id = 100 + from_version;
                  fetch_replica = name;
                  from_version;
                  fetch_oldest_snapshot = from_version;
                });
           match Mailbox.recv fmb with
           | Types.Fetch_reply r -> got := Some r
           | _ -> ()));
    Engine.run ~until:(Time.add (Engine.now engine) (Time.sec 1)) engine;
    match !got with Some r -> r | None -> Alcotest.fail "no fetch reply"
  in
  let stale = fetch ~from_version:1 in
  (match stale.fetch_snapshot with
  | Some snap ->
      check_int "snapshot at the floor" 4 snap.snap_version;
      check_bool "snapshot covers a truncated write" true
        (List.exists
           (fun (key, v) ->
             Mvcc.Key.equal key (k "3") && v = Some (Mvcc.Value.int 3))
           snap.rows)
  | None -> Alcotest.fail "below-floor fetch must carry a snapshot");
  check_int "remotes resume above the floor" 1 (List.length stale.fetch_remotes);
  check_int "floor gossiped" 4 stale.fetch_gc_floor;
  (* a fetch at or above the floor needs no snapshot *)
  let fresh = fetch ~from_version:4 in
  check_bool "no snapshot above the floor" true (fresh.fetch_snapshot = None);
  check_int "just the missing entry" 1 (List.length fresh.fetch_remotes)

(* ------------------------------------------------------------------ *)
(* Property tests: locks single-holder invariant; store last-write-wins *)

let prop_locks_single_holder =
  QCheck.Test.make ~name:"locks: one holder per key, no lost grants" ~count:100
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let rng = Rng.create seed in
      let l = Mvcc.Locks.create () in
      let lk = Array.init 41 Mvcc.Locks.register in
      let holders : (string, int) Hashtbl.t = Hashtbl.create 8 in
      let keys = [| "a"; "b"; "c" |] in
      let active = ref [] in
      let ok = ref true in
      for txid = 1 to 40 do
        let key_name = Rng.pick rng keys in
        let key = k key_name in
        (match Mvcc.Locks.acquire l lk.(txid) key with
        | Mvcc.Locks.Granted ->
            (match Hashtbl.find_opt holders key_name with
            | Some other when other <> txid -> ok := false
            | _ -> ());
            Hashtbl.replace holders key_name txid;
            active := txid :: !active
        | Mvcc.Locks.Would_block holder ->
            if Hashtbl.find_opt holders key_name <> Some holder then ok := false
        | Mvcc.Locks.Deadlock _ -> ());
        (* randomly release someone *)
        if Rng.chance rng 0.4 && !active <> [] then begin
          let victim = Rng.pick rng (Array.of_list !active) in
          active := List.filter (fun t -> t <> victim) !active;
          let grants = Mvcc.Locks.release_all l lk.(victim) in
          Hashtbl.iter
            (fun key_name h -> if h = victim then Hashtbl.remove holders key_name)
            (Hashtbl.copy holders);
          List.iter
            (fun (gk, new_holder) -> Hashtbl.replace holders (gk : Mvcc.Key.t).row new_holder)
            grants
        end
      done;
      (* final check: recorded holders match the lock table *)
      Hashtbl.iter
        (fun key_name h ->
          if Mvcc.Locks.holder l (k key_name) <> Some h then ok := false)
        holders;
      !ok)

let prop_store_last_write_wins =
  QCheck.Test.make ~name:"store: read_latest equals the last committed write" ~count:100
    QCheck.(small_list (pair (int_range 0 5) small_int))
    (fun writes ->
      let s = Mvcc.Store.create () in
      let last : (int, int) Hashtbl.t = Hashtbl.create 8 in
      List.iteri
        (fun i (row, value) ->
          Mvcc.Store.install s ~version:(i + 1)
            (Mvcc.Writeset.singleton (k (string_of_int row))
               (Mvcc.Writeset.Update (Mvcc.Value.int value)));
          Hashtbl.replace last row value)
        writes;
      Hashtbl.fold
        (fun row value acc ->
          acc
          && Mvcc.Store.read_latest s (k (string_of_int row))
             = Some (Mvcc.Value.int value))
        last true)


(* ------------------------------------------------------------------ *)
(* Small vocabulary types *)

let test_types_message_bytes_monotone () =
  let small = ws "a" 1 in
  let big =
    Mvcc.Writeset.of_list
      (List.init 20 (fun i -> (k (string_of_int i), Mvcc.Writeset.Update (Mvcc.Value.int i))))
  in
  let req w = request ~req_id:1 ~replica:"r" ~start_version:0 ~replica_version:0 w in
  check_bool "bigger writeset, bigger message" true
    (Types.message_bytes (req big) > Types.message_bytes (req small));
  let reply remotes =
    Types.Cert_reply { req_id = 1; decision = Types.Commit; commit_version = 1; gc_floor = 0; remotes }
  in
  check_bool "remotes add bytes" true
    (Types.message_bytes (reply [ { Types.version = 1; ws = big; conflict_with = None } ])
     > Types.message_bytes (reply []));
  check_bool "redirects are small" true
    (Types.message_bytes (Types.Cert_redirect { req_id = 1; leader = None }) < 64)

(* Request sizes drive network timing, so every fixed-seed result depends
   on them: a one-fragment request is 52 bytes + the writeset, a
   multi-fragment one 64 bytes plus 20 + the writeset per fragment. *)
let test_types_request_sizes () =
  let fragments n =
    List.init n (fun part ->
        {
          Types.xf_part = part;
          xf_origin = Printf.sprintf "r#p%d" part;
          xf_start_version = 0;
          xf_ws =
            Mvcc.Writeset.of_list
              (List.init (part + 1) (fun i ->
                   (k (Printf.sprintf "%d.%d" part i), Mvcc.Writeset.Update (Mvcc.Value.int i))));
        })
  in
  let bytes fragments =
    Types.message_bytes
      (Types.Cert_request
         {
           req_id = 1;
           trace_id = 0;
           replica = "r#p0";
           replica_version = 0;
           oldest_snapshot = 0;
           gtx = { gtx_origin = "r"; gtx_seq = 1 };
           fragments;
         })
  in
  let ws_bytes (f : Types.xfragment) = Mvcc.Writeset.encoded_bytes f.xf_ws in
  (match fragments 1 with
  | [ f ] as one -> check_int "one fragment" (52 + ws_bytes f) (bytes one)
  | _ -> assert false);
  List.iter
    (fun n ->
      let fs = fragments n in
      check_int
        (Printf.sprintf "%d fragments" n)
        (List.fold_left (fun acc f -> acc + 20 + ws_bytes f) 64 fs)
        (bytes fs))
    [ 2; 3 ]

let test_types_pp () =
  let str pp v = Format.asprintf "%a" pp v in
  check_bool "modes named" true
    (str Types.pp_mode Types.Base = "base"
    && str Types.pp_mode Types.Tashkent_mw = "tashkent-mw"
    && str Types.pp_mode Types.Tashkent_api = "tashkent-api");
  check_bool "decisions named" true
    (str Types.pp_decision Types.Commit = "commit"
    && str Types.pp_decision (Types.Abort Types.Forced) = "abort(forced)")

let test_value_module () =
  check_int "as_int" 7 (Mvcc.Value.as_int (Mvcc.Value.int 7));
  Alcotest.(check string) "as_text of int" "7" (Mvcc.Value.as_text (Mvcc.Value.int 7));
  Alcotest.(check string) "as_text" "hi" (Mvcc.Value.as_text (Mvcc.Value.text "hi"));
  (match Mvcc.Value.as_int (Mvcc.Value.text "x") with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "as_int on text must raise");
  check_bool "equal" true (Mvcc.Value.equal (Mvcc.Value.int 1) (Mvcc.Value.int 1));
  check_bool "not equal across kinds" false
    (Mvcc.Value.equal (Mvcc.Value.int 1) (Mvcc.Value.text "1"));
  check_int "text bytes" 5 (Mvcc.Value.encoded_bytes (Mvcc.Value.text "hello"))

let test_key_module () =
  let a = Mvcc.Key.make ~table:"t" ~row:"1" in
  let b = Mvcc.Key.make ~table:"t" ~row:"2" in
  check_bool "ordering by row" true (Mvcc.Key.compare a b < 0);
  check_bool "table dominates" true
    (Mvcc.Key.compare (Mvcc.Key.make ~table:"a" ~row:"9") (Mvcc.Key.make ~table:"b" ~row:"0") < 0);
  Alcotest.(check string) "to_string" "t/1" (Mvcc.Key.to_string a);
  check_bool "hash equal keys" true
    (Mvcc.Key.hash a = Mvcc.Key.hash (Mvcc.Key.make ~table:"t" ~row:"1"))

let test_proxy_failure_pp () =
  let str f = Format.asprintf "%a" Proxy.pp_failure f in
  check_bool "cert conflict" true (str (Proxy.Cert_abort Types.Ww_conflict) <> "");
  check_bool "forced" true (str (Proxy.Cert_abort Types.Forced) <> "");
  check_bool "local" true (str (Proxy.Local_abort Mvcc.Db.Preempted) <> "")

let suites =
  [
    ( "core.cert_client",
      [
        Alcotest.test_case "happy path" `Quick test_cert_client_happy_path;
        Alcotest.test_case "redirect to leader" `Quick test_cert_client_redirect;
        Alcotest.test_case "timeout failover is idempotent" `Quick
          test_cert_client_timeout_failover;
      ] );
    ( "core.certifier_unit",
      [
        Alcotest.test_case "commit then conflict then success" `Quick
          test_certifier_commit_then_conflict;
        Alcotest.test_case "retry is idempotent" `Quick test_certifier_retry_idempotent;
        Alcotest.test_case "remotes carry conflict annotations" `Quick
          test_certifier_remotes_annotated;
        Alcotest.test_case "no-durability mode skips disk" `Quick
          test_certifier_nocert_mode_no_disk;
        Alcotest.test_case "forced aborts counted, not logged" `Quick
          test_certifier_forced_abort_counted;
        Alcotest.test_case "watermark truncates behind the reports" `Quick
          test_certifier_watermark_truncates;
        Alcotest.test_case "below-floor fetch gets a snapshot" `Quick
          test_certifier_fetch_below_floor_snapshot;
      ] );
    ( "core.vocabulary",
      [
        Alcotest.test_case "message bytes monotone" `Quick test_types_message_bytes_monotone;
        Alcotest.test_case "request sizes by fragment count" `Quick test_types_request_sizes;
        Alcotest.test_case "pretty printers" `Quick test_types_pp;
        Alcotest.test_case "value module" `Quick test_value_module;
        Alcotest.test_case "key module" `Quick test_key_module;
        Alcotest.test_case "proxy failure pp" `Quick test_proxy_failure_pp;
      ] );
    ( "core.properties",
      List.map QCheck_alcotest.to_alcotest
        [ prop_locks_single_holder; prop_store_last_write_wins ] );
  ]

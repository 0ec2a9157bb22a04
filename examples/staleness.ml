(* Generalized snapshot isolation in action (paper §2, §6.2).

   A replica that receives no update transactions serves slightly stale —
   but always consistent — snapshots, and never blocks readers. The
   bounded-staleness refresher caps how far behind it can fall.

   Run with: dune exec examples/staleness.exe *)

open Sim
open Tashkent

let key row = Mvcc.Key.make ~table:"kv" ~row

let () =
  let replica_cfg =
    {
      (Replica.default_config Types.Tashkent_mw) with
      Replica.staleness_bound = Some (Time.of_ms 800.);
    }
  in
  let cluster =
    Cluster.create (Cluster.config ~n_replicas:2 ~replica:replica_cfg Types.Tashkent_mw)
  in
  let engine = Cluster.engine cluster in
  Cluster.load_all cluster [ (key "ticker", Mvcc.Value.int 0) ];
  Cluster.settle cluster;

  let writer = Replica.proxy (Cluster.replica cluster 0) in
  let reader_replica = Cluster.replica cluster 1 in
  let reader = Replica.proxy reader_replica in

  (* Replica 0: bump the ticker every 100 ms. *)
  ignore
    (Engine.spawn engine (fun () ->
         for i = 1 to 100 do
           let tx = Proxy.begin_tx writer in
           ignore (Proxy.write writer tx (key "ticker") (Mvcc.Writeset.Update (Mvcc.Value.int i)));
           ignore (Proxy.commit writer tx);
           Engine.sleep engine (Time.of_ms 100.)
         done));

  (* Replica 1: pure reader. Its snapshots lag but are never inconsistent,
     and reads never block — the core GSI property. *)
  ignore
    (Engine.spawn engine (fun () ->
         for _ = 1 to 10 do
           Engine.sleep engine (Time.sec 1);
           let started = Engine.now engine in
           let tx = Proxy.begin_tx reader in
           let v =
             match Proxy.read reader tx (key "ticker") with
             | Some v -> Mvcc.Value.as_int v
             | None -> -1
           in
           (match Proxy.commit reader tx with Ok () -> () | Error _ -> assert false);
           let took = Time.diff (Engine.now engine) started in
           let writer_v = Proxy.replica_version writer in
           Printf.printf
             "[%5s] reader sees ticker=%3d (writer is at version %3d, lag %d) — read took %s\n"
             (Time.to_string (Engine.now engine))
             v writer_v (writer_v - v) (Time.to_string took)
         done));

  Engine.run ~until:(Time.sec 11) engine;
  print_newline ();
  Printf.printf "reader replica used %d staleness fetches; final version %d\n"
    (Proxy.stats reader).Proxy.refreshes
    (Mvcc.Db.current_version (Replica.db reader_replica));
  match Cluster.check_consistency cluster with
  | Ok () -> print_endline "every snapshot the reader saw was a real global snapshot"
  | Error msg -> Printf.printf "CONSISTENCY VIOLATION: %s\n" msg

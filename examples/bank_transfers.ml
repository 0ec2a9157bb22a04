(* Bank transfers under generalized snapshot isolation: concurrent clients
   on different replicas move money between shared accounts. Conflicting
   concurrent transfers are aborted by certification and retried; the total
   balance is conserved on every replica.

   Run with: dune exec examples/bank_transfers.exe *)

open Sim
open Tashkent

let n_accounts = 16
let initial_balance = 1_000
let account i = Mvcc.Key.make ~table:"account" ~row:(Printf.sprintf "%02d" i)

let () =
  let cluster =
    Cluster.create (Cluster.config ~n_replicas:3 Types.Tashkent_mw)
  in
  let engine = Cluster.engine cluster in
  Cluster.load_all cluster
    (List.init n_accounts (fun i -> (account i, Mvcc.Value.int initial_balance)));
  Cluster.settle cluster;

  let transfers = ref 0 and conflicts = ref 0 in

  (* One client per replica, each doing random transfers with retry. *)
  List.iteri
    (fun ix replica ->
      let proxy = Replica.proxy replica in
      let rng = Rng.create (100 + ix) in
      ignore
        (Engine.spawn engine (fun () ->
             for _ = 1 to 40 do
               let from_acct = Rng.int rng n_accounts in
               let to_acct = (from_acct + 1 + Rng.int rng (n_accounts - 1)) mod n_accounts in
               let amount = 1 + Rng.int rng 50 in
               (* retry loop: a certification abort means somebody else
                  concurrently touched one of our accounts *)
               let rec attempt tries =
                 if tries < 10 then begin
                   let tx = Proxy.begin_tx proxy in
                   let balance k =
                     match Proxy.read proxy tx k with
                     | Some v -> Mvcc.Value.as_int v
                     | None -> 0
                   in
                   let b_from = balance (account from_acct) in
                   let b_to = balance (account to_acct) in
                   if b_from < amount then Proxy.abort proxy tx
                   else
                     let ok =
                       Proxy.write proxy tx (account from_acct)
                         (Mvcc.Writeset.Update (Mvcc.Value.int (b_from - amount)))
                     in
                     match ok with
                     | Error _ ->
                         incr conflicts;
                         Engine.sleep engine (Time.of_ms 2.);
                         attempt (tries + 1)
                     | Ok () -> (
                         match
                           Proxy.write proxy tx (account to_acct)
                             (Mvcc.Writeset.Update (Mvcc.Value.int (b_to + amount)))
                         with
                         | Error _ ->
                             incr conflicts;
                             Engine.sleep engine (Time.of_ms 2.);
                             attempt (tries + 1)
                         | Ok () -> (
                             match Proxy.commit proxy tx with
                             | Ok () -> incr transfers
                             | Error (Proxy.Cert_abort _) | Error (Proxy.Local_abort _) ->
                                 incr conflicts;
                                 Engine.sleep engine (Time.of_ms 2.);
                                 attempt (tries + 1)))
                 end
               in
               attempt 0;
               Engine.sleep engine (Time.of_ms 10.)
             done)))
    (Cluster.replicas cluster);

  Engine.run ~until:(Time.sec 30) engine;

  Printf.printf "transfers committed: %d, conflicts retried: %d\n" !transfers !conflicts;
  (* Conservation: on every replica the money supply is unchanged. *)
  List.iter
    (fun r ->
      let total =
        List.fold_left
          (fun acc i ->
            match Mvcc.Db.read_committed (Replica.db r) (account i) with
            | Some v -> acc + Mvcc.Value.as_int v
            | None -> acc)
          0
          (List.init n_accounts Fun.id)
      in
      Printf.printf "%s: total balance = %d (expected %d) %s\n" (Replica.name r) total
        (n_accounts * initial_balance)
        (if total = n_accounts * initial_balance then "OK" else "BROKEN"))
    (Cluster.replicas cluster);
  match Cluster.check_consistency cluster with
  | Ok () -> print_endline "consistency check passed"
  | Error msg -> Printf.printf "CONSISTENCY VIOLATION: %s\n" msg

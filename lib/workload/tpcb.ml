open Sim

let tellers_per_branch = 10

let branch_key b = Mvcc.Key.make ~table:"branch" ~row:(string_of_int b)
let teller_key b t = Mvcc.Key.make ~table:"teller" ~row:(Printf.sprintf "%d.%d" b t)

let account_key b a =
  Mvcc.Key.make ~table:"account" ~row:(Printf.sprintf "%d.%06d" b a)

let history_key ~replica_ix ~client n =
  Mvcc.Key.make ~table:"history" ~row:(Printf.sprintf "%d.%d.%d" replica_ix client n)

let history_payload = String.make 64 'h'

type keys = { branches : Mvcc.Key.t array; tellers : Mvcc.Key.t array; accounts : Mvcc.Key.t array }

let profile ?(clients_per_replica = 10) ?(branches_per_replica = 10)
    ?(accounts_per_branch = 1_000) ?(remote_branch_fraction = 0.15)
    ?(deltas = false) () =
  (* Tellers and accounts are numbered branch-major: teller [t] of branch
     [b] is [tellers.(b * tellers_per_branch + t)]. *)
  let keys =
    Spec.keys_per_cluster (fun ~n_replicas ->
        let n_branches = n_replicas * branches_per_replica in
        let branches = Array.init n_branches branch_key in
        let tellers =
          Array.init (n_branches * tellers_per_branch) (fun i ->
              teller_key (i / tellers_per_branch) (i mod tellers_per_branch))
        in
        let accounts =
          Array.init (n_branches * accounts_per_branch) (fun i ->
              account_key (i / accounts_per_branch) (i mod accounts_per_branch))
        in
        { branches; tellers; accounts })
  in
  let history_counters = Hashtbl.create 64 in
  let next_history ~replica_ix ~client =
    let key = (replica_ix, client) in
    let n = Option.value ~default:0 (Hashtbl.find_opt history_counters key) in
    Hashtbl.replace history_counters key (n + 1);
    n
  in
  {
    Spec.name = "tpcb";
    clients_per_replica;
    skew = 0.;
    think_time = Time.zero;
    exec_cpu = (fun _ -> Time.of_ms 4.0);
    page_read_miss = 0.06;
    page_writeback_per_op = 0.05;
    bg_page_writes_per_sec = 0.;
    db_size_bytes = 100_000_000;
    initial_rows =
      (fun ~n_replicas ->
        let k = keys ~n_replicas in
        let rows keys value = Array.to_list (Array.map (fun key -> (key, value)) keys) in
        rows k.branches (Mvcc.Value.int 0)
        @ rows k.tellers (Mvcc.Value.int 0)
        @ rows k.accounts (Mvcc.Value.int 1_000));
    new_tx =
      (fun ~rng ~client ~replica_ix ~n_replicas ->
        (* Clients are spread over their replica's branches; a fraction of
           transactions hits a random branch anywhere in the system. *)
        let n_branches = n_replicas * branches_per_replica in
        let home = (replica_ix * branches_per_replica) + (client mod branches_per_replica) in
        let branch =
          if Rng.chance rng remote_branch_fraction then Rng.int rng n_branches else home
        in
        let teller = Rng.int rng tellers_per_branch in
        let account = Rng.int rng accounts_per_branch in
        let delta = Rng.int_in_range rng ~lo:(-99_999) ~hi:99_999 in
        let history = next_history ~replica_ix ~client in
        let k = keys ~n_replicas in
        {
          Spec.kind = Spec.Update;
          run =
            (fun ctx ->
              let bump key =
                if deltas then
                  (* Balance updates are pure increments: ship them as
                     commutative deltas so concurrent bumps of the same
                     branch/teller row certify without conflicting. *)
                  ctx.Spec.write key (Mvcc.Writeset.Add delta)
                else
                  let current =
                    match ctx.Spec.read key with
                    | Some v -> Mvcc.Value.as_int v
                    | None -> 0
                  in
                  ctx.Spec.write key
                    (Mvcc.Writeset.Update (Mvcc.Value.int (current + delta)))
              in
              bump k.accounts.((branch * accounts_per_branch) + account);
              bump k.tellers.((branch * tellers_per_branch) + teller);
              bump k.branches.(branch);
              ctx.Spec.write
                (history_key ~replica_ix ~client history)
                (Mvcc.Writeset.Insert (Mvcc.Value.text history_payload)));
        });
  }

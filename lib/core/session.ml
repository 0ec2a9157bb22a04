open Sim

(* One sub-transaction per partition the client transaction has touched.
   Opened lazily on the first read/write routed to that partition, so a
   transaction that stays inside one partition costs exactly one proxy
   transaction; with a single partition it is opened at [begin_tx]. *)
type sub = { part : int; proxy : Proxy.t; ptx : Proxy.tx }

type tx = {
  mutable subs : sub list; (* most-recently-opened first *)
  born_epoch : int;
}

type t = {
  engine : Engine.t;
  addr : string;
  partitioner : Partitioner.t;
  proxies : (int * Proxy.t) list; (* hosted partitions, ascending *)
  mutable next_gtx : int;
  mutable epoch : int; (* bumped by {!abort_inflight}: commits straddling
                          a bump fail instead of touching revived state *)
  mutable c_read_only : int;
  mutable c_local : int;
  mutable c_cross : int;
  mutable c_cross_aborts : int;
}

let create engine ~addr ~parts ~proxies =
  if proxies = [] then invalid_arg "Session.create: no proxies";
  let proxies = List.sort (fun (a, _) (b, _) -> compare a b) proxies in
  {
    engine;
    addr;
    partitioner = Partitioner.create ~parts;
    proxies;
    next_gtx = 0;
    epoch = 0;
    c_read_only = 0;
    c_local = 0;
    c_cross = 0;
    c_cross_aborts = 0;
  }

let addr t = t.addr
let partitions t = List.map fst t.proxies

let proxy_exn t part =
  match List.assoc_opt part t.proxies with
  | Some p -> p
  | None ->
      invalid_arg
        (Printf.sprintf "Session %s: partition %d not hosted here" t.addr part)

let open_sub tx part proxy =
  let s = { part; proxy; ptx = Proxy.begin_tx proxy } in
  tx.subs <- s :: tx.subs;
  s

(* With one partition every transaction touches it, so its snapshot is
   taken here, before the client executes — where a plain proxy client
   would take it. *)
let begin_tx t =
  let tx = { subs = []; born_epoch = t.epoch } in
  (if Partitioner.parts t.partitioner = 1 then
     match t.proxies with [ (part, proxy) ] -> ignore (open_sub tx part proxy) | _ -> ());
  tx

let sub_for t tx key =
  let part = Partitioner.of_key t.partitioner key in
  match List.find_opt (fun s -> s.part = part) tx.subs with
  | Some s -> s
  | None -> open_sub tx part (proxy_exn t part)

let read t tx key =
  let s = sub_for t tx key in
  Proxy.read s.proxy s.ptx key

let write t tx key op =
  let s = sub_for t tx key in
  Proxy.write s.proxy s.ptx key op

let abort t tx =
  ignore t;
  List.iter (fun s -> Proxy.abort s.proxy s.ptx) tx.subs;
  tx.subs <- []

let fresh_gtx t =
  t.next_gtx <- t.next_gtx + 1;
  { Types.gtx_origin = t.addr; gtx_seq = t.next_gtx }

(* Commit the fragments in parallel: each sub's commit blocks on
   its own partition's certifier group, and the groups settle the shared
   outcome among themselves (deterministic votes + independent decisions),
   so the fragment results agree — all [Ok] or all [Cert_abort] — unless a
   replica-side fault (pause/crash) failed one locally. *)
let commit_fragments t subs gtx =
  let fragments =
    List.map
      (fun s ->
        {
          Types.xf_part = s.part;
          xf_origin = Proxy.addr s.proxy;
          xf_start_version = Proxy.tx_start_version s.ptx;
          xf_ws = Proxy.tx_writeset s.ptx;
        })
      subs
    |> List.sort (fun a b -> compare a.Types.xf_part b.Types.xf_part)
  in
  let results =
    List.map
      (fun s ->
        let ivar = Ivar.create t.engine () in
        let _fib =
          Engine.spawn t.engine
            (fun () ->
              Ivar.fill ivar (Proxy.commit ~cross:(gtx, fragments) s.proxy s.ptx))
        in
        ivar)
      subs
    |> List.map (fun ivar -> Ivar.read ivar)
  in
  match
    List.find_opt (function Error _ -> true | Ok () -> false) results
  with
  | Some (Error e) ->
      t.c_cross_aborts <- t.c_cross_aborts + 1;
      Error e
  | _ ->
      t.c_cross <- t.c_cross + 1;
      Ok ()

let commit t tx =
  if tx.born_epoch <> t.epoch then begin
    (* The replica crashed under this transaction: its proxies were torn
       down and rebuilt, so the sub-transactions are orphans. Fail without
       touching them. *)
    tx.subs <- [];
    Error (Proxy.Local_abort Mvcc.Db.Preempted)
  end
  else begin
    let updating, read_only =
      List.partition
        (fun s -> not (Mvcc.Writeset.is_empty (Proxy.tx_writeset s.ptx)))
        tx.subs
    in
    (* Read-only sub-transactions release their snapshots immediately:
       they hold no locks and Proxy.commit on an empty writeset is the
       read-only fast path. *)
    List.iter (fun s -> ignore (Proxy.commit s.proxy s.ptx)) read_only;
    match updating with
    | [] ->
        t.c_read_only <- t.c_read_only + 1;
        Ok ()
    | [ s ] ->
        (* Single-partition update: a one-fragment request through that
           partition's certifier group, no cross-partition coordination. *)
        let r = Proxy.commit s.proxy s.ptx in
        (match r with Ok () -> t.c_local <- t.c_local + 1 | Error _ -> ());
        r
    | subs -> commit_fragments t subs (fresh_gtx t)
  end

let abort_inflight t = t.epoch <- t.epoch + 1

type stats = {
  read_only_commits : int;
  local_commits : int;
  cross_commits : int;
  cross_aborts : int;
}

let stats t =
  {
    read_only_commits = t.c_read_only;
    local_commits = t.c_local;
    cross_commits = t.c_cross;
    cross_aborts = t.c_cross_aborts;
  }

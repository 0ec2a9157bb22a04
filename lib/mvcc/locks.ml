type txid = int

type lock = { mutable owner : txid; mutable queue : txid list (* oldest first *) }

(* The absent slot of the lock table: never handed out, never mutated. *)
let free = { owner = -1; queue = [] }

type t = {
  locks : lock Key.Dense.t;  (* [free] where no one holds the key *)
  (* Keys each transaction was granted, newest first: a grant is one
     cons, and a release sorts them by [Key.compare] (see [held_by]). *)
  held : (txid, Key.t list) Hashtbl.t;
  (* wait-for edge: waiter -> (key it waits on). The holder is looked up
     through the lock so the edge stays correct as ownership changes. *)
  waits : (txid, Key.t) Hashtbl.t;
}

let create () = { locks = Key.Dense.create ~absent:free; held = Hashtbl.create 64; waits = Hashtbl.create 16 }

let holder t key =
  let l = Key.Dense.find t.locks key in
  if l == free then None else Some l.owner

type acquire_result = Granted | Would_block of txid | Deadlock of txid list

let note_held t txid key =
  let keys = Option.value ~default:[] (Hashtbl.find_opt t.held txid) in
  Hashtbl.replace t.held txid (key :: keys)

(* The distinct keys [txid] holds, ascending by [Key.compare]: ids never
   decide the order in which waiters are granted. *)
let held_by t txid =
  List.sort_uniq Key.compare (Option.value ~default:[] (Hashtbl.find_opt t.held txid))

let waiting_for t txid =
  match Hashtbl.find_opt t.waits txid with
  | None -> None
  | Some key -> holder t key

(* Walk holder-of(wait-of(...)) chains from [start]; a return to [me] is a
   cycle. Chains are short (bounded by active transactions). *)
let find_cycle t ~me ~start =
  let rec walk tx acc steps =
    if steps > 10_000 then None
    else if tx = me then Some (List.rev acc)
    else
      match waiting_for t tx with
      | None -> None
      | Some next -> walk next (next :: acc) (steps + 1)
  in
  walk start [ start ] 0

let acquire t txid key =
  let lock = Key.Dense.find t.locks key in
  if lock == free then begin
    Key.Dense.replace t.locks key { owner = txid; queue = [] };
    note_held t txid key;
    Granted
  end
  else if lock.owner = txid then Granted
  else
    match find_cycle t ~me:txid ~start:lock.owner with
    | Some cycle -> Deadlock (txid :: cycle)
    | None -> Would_block lock.owner

let enqueue t txid key =
  let lock = Key.Dense.find t.locks key in
  if lock == free then invalid_arg "Locks.enqueue: lock not held by anyone";
  lock.queue <- lock.queue @ [ txid ];
  Hashtbl.replace t.waits txid key

let cancel_wait t txid key =
  Hashtbl.remove t.waits txid;
  let lock = Key.Dense.find t.locks key in
  if lock != free then lock.queue <- List.filter (fun w -> w <> txid) lock.queue

let release_all t txid =
  let keys = held_by t txid in
  Hashtbl.remove t.held txid;
  List.fold_left
    (fun grants key ->
      let lock = Key.Dense.find t.locks key in
      if lock == free || lock.owner <> txid then grants
      else
        match lock.queue with
        | [] ->
            Key.Dense.remove t.locks key;
            grants
        | next :: rest ->
            lock.owner <- next;
            lock.queue <- rest;
            Hashtbl.remove t.waits next;
            note_held t next key;
            (key, next) :: grants)
    [] keys

let lock_count t = Key.Dense.length t.locks

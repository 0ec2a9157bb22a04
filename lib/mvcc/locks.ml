type txid = int

(* A transaction's lock state: the keys it was granted, newest first (a
   grant is one cons; a key granted twice since the last release appears
   twice), and the key it waits on. *)
type holder = { txid : txid; mutable granted : Key.t list; mutable awaits : Key.t option }

type lock = { mutable owner : holder; mutable queue : holder list (* oldest first *) }

let nobody = { txid = -1; granted = []; awaits = None }

(* The absent slot of the lock table: never handed out, never mutated. *)
let free = { owner = nobody; queue = [] }

type t = lock Key.Dense.t (* [free] where no one holds the key *)

let create () = Key.Dense.create ~absent:free
let register txid = { txid; granted = []; awaits = None }

let holder t key =
  let l = Key.Dense.find t key in
  if l == free then None else Some l.owner.txid

type acquire_result = Granted | Would_block of txid | Deadlock of txid list

(* The distinct keys [h] holds, ascending by [Key.compare]. *)
let held_by h = List.sort_uniq Key.compare h.granted

let waiting_for t h =
  match h.awaits with
  | None -> None
  | Some key ->
      let l = Key.Dense.find t key in
      if l == free then None else Some l.owner

(* Walk owner-of(awaited-key-of(...)) chains from [start]; a return to
   [me] is a cycle. Chains are short (bounded by active transactions). *)
let find_cycle t ~me ~start =
  let rec walk h acc steps =
    if steps > 10_000 then None
    else if h == me then Some (List.rev acc)
    else
      match waiting_for t h with
      | None -> None
      | Some next -> walk next (next.txid :: acc) (steps + 1)
  in
  walk start [ start.txid ] 0

let acquire t h key =
  let lock = Key.Dense.find t key in
  if lock == free then begin
    Key.Dense.replace t key { owner = h; queue = [] };
    h.granted <- key :: h.granted;
    Granted
  end
  else if lock.owner == h then Granted
  else
    match find_cycle t ~me:h ~start:lock.owner with
    | Some cycle -> Deadlock (h.txid :: cycle)
    | None -> Would_block lock.owner.txid

let enqueue t h key =
  let lock = Key.Dense.find t key in
  if lock == free then invalid_arg "Locks.enqueue: lock not held by anyone";
  lock.queue <- lock.queue @ [ h ];
  h.awaits <- Some key

let cancel_wait t h key =
  h.awaits <- None;
  let lock = Key.Dense.find t key in
  if lock != free then lock.queue <- List.filter (fun w -> w != h) lock.queue

let descending (a, _) (b, _) = Key.compare b a

(* Hand on each of [keys] that [h] still owns, collecting the grants.
   Each lock is handed on independently of the others, so the keys are
   visited as they are: a key met a second time is already free or
   handed on. *)
let rec hand_on t h grants = function
  | [] -> grants
  | key :: rest ->
      let lock = Key.Dense.find t key in
      if lock == free || lock.owner != h then hand_on t h grants rest
      else begin
        match lock.queue with
        | [] ->
            Key.Dense.remove t key;
            hand_on t h grants rest
        | next :: waiting ->
            lock.owner <- next;
            lock.queue <- waiting;
            next.awaits <- None;
            next.granted <- key :: next.granted;
            hand_on t h ((key, next.txid) :: grants) rest
      end

(* Only the grants are sorted: none or one in almost every release. *)
let release_all t h =
  let keys = h.granted in
  h.granted <- [];
  match hand_on t h [] keys with
  | ([] | [ _ ]) as grants -> grants
  | grants -> List.sort descending grants

let lock_count t = Key.Dense.length t

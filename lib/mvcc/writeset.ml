type op = Insert of Value.t | Update of Value.t | Delete | Add of int

type entry = { key : Key.t; op : op }

let op_is_delta = function Add _ -> true | _ -> false

(* Folding an [Add d] onto an earlier op on the same key. An earlier
   final-image op absorbs the delta and stays a final image (the pair no
   longer commutes with concurrent writers, which is exactly right: the
   transaction pinned a concrete value). Only pure delta chains stay
   deltas. A delta over a delete re-creates the row from a zero base. *)
let fold_delta earlier d =
  let base = function Value.Int n -> n | Value.Text _ -> 0 in
  match earlier with
  | Insert v -> Insert (Value.int (base v + d))
  | Update v -> Update (Value.int (base v + d))
  | Delete -> Update (Value.int d)
  | Add d0 -> Add (d0 + d)

(* Writesets are built incrementally while a transaction runs, then read
   many times on the certification and apply paths (every [iter_keys],
   [keys] and [entries] of every certification sits on top of this module).
   The write side is a plain prepend log — [add] is O(1) even when it
   supersedes an earlier op on the same key, because duplicates are kept
   and resolved at seal time; it keeps no key set, so a write costs one
   cons and one record. The read side is a [sealed] form computed on first
   use: a first-write-ordered array of final entries, so key iteration is
   allocation-free, plus the encoded size that every message and log record
   carrying the writeset charges. Nothing on those paths needs the keys in
   order, so the seal builds no sorted copy; [intersects] stamps one side's
   keys in the per-domain position table the seal dedupes with and probes
   the other side's. The one read the running transaction makes of its own
   buffer, {!find_op}, walks the log instead, so a buffer that is still
   growing is never sealed.

   The sealed form is memoised in a mutable field rather than a lazy value,
   so [add] allocates no closure. The memo is safe because a writeset is
   immutable once built (every [add] returns a fresh record with the memo
   unset, and the memo only caches a function of [rev_writes]) and the
   engine is single-threaded, so no two readers race to fill it. *)
type sealed = {
  ordered : entry array; (* first-write order, final op per key *)
  bytes : int; (* encoded size *)
}

type t = {
  rev_writes : entry list; (* newest first; may contain superseded ops *)
  mutable memo : sealed; (* [unsealed] until first read *)
}

(* Sentinel of an unfilled memo, told apart by physical equality. It is
   also the sealed form of the empty writeset. *)
let header_bytes = 8 (* version + count *)
let unsealed = { ordered = [||]; bytes = header_bytes }

let op_bytes = function
  | Insert v | Update v -> 1 + Value.encoded_bytes v
  | Delete -> 1
  | Add _ -> 1 + 8

(* Each key's position in the [ordered] array being sealed, by key id: one
   table per domain, shared by every seal and [intersects]. A user claims
   the stamps [base, base + n) for its [n] keys and stores [base +
   position], so every entry an earlier user left behind reads as unset
   without any clearing. *)
type positions = { slots : int Key.Dense.t; mutable next_base : int }

let positions =
  Domain.DLS.new_key (fun () -> { slots = Key.Dense.create ~absent:(-1); next_base = 0 })

let claim_stamps pos n =
  let base = pos.next_base in
  pos.next_base <- base + n;
  base

(* [l] into [a] from index [i] down, so a newest-first log lands oldest
   first. *)
let rec fill_reversed a i = function
  | [] -> ()
  | e :: rest ->
      Array.unsafe_set a i e;
      fill_reversed a (i - 1) rest

let seal rev_writes =
  match rev_writes with
  | [] -> unsealed
  | e0 :: _ ->
      (* The raw log, oldest first, then compacted in place: the first write
         of a key fixes its position. A later final-image op overwrites the
         op in place; a later delta folds onto whatever is already there.
         Slot [next] never runs ahead of the raw entry being read. *)
      let n = List.length rev_writes in
      let ordered = Array.make n e0 in
      fill_reversed ordered (n - 1) rev_writes;
      let pos = Domain.DLS.get positions in
      let base = claim_stamps pos n in
      let next = ref 0 in
      for r = 0 to n - 1 do
        let e = ordered.(r) in
        let stamp = Key.Dense.find pos.slots e.key in
        if stamp >= base then begin
          let i = stamp - base in
          ordered.(i) <-
            (match e.op with
            | Add d -> { key = e.key; op = fold_delta ordered.(i).op d }
            | _ -> e)
        end
        else begin
          let i = !next in
          incr next;
          Key.Dense.replace pos.slots e.key (base + i);
          ordered.(i) <- e
        end
      done;
      let ordered = if !next = n then ordered else Array.sub ordered 0 !next in
      let bytes =
        Array.fold_left
          (fun acc e -> acc + Key.encoded_bytes e.key + op_bytes e.op)
          header_bytes ordered
      in
      { ordered; bytes }

let is_empty t = match t.rev_writes with [] -> true | _ :: _ -> false

let sealed t =
  if t.memo != unsealed || is_empty t then t.memo
  else begin
    let s = seal t.rev_writes in
    t.memo <- s;
    s
  end

let empty = { rev_writes = []; memo = unsealed }

let add t key op = { rev_writes = { key; op } :: t.rev_writes; memo = unsealed }

let singleton key op = add empty key op
let of_list l = List.fold_left (fun t (key, op) -> add t key op) empty l
let entries t = Array.to_list (sealed t).ordered
let cardinal t = Array.length (sealed t).ordered

let keys t =
  Array.fold_right (fun e acc -> e.key :: acc) (sealed t).ordered []

let iter_keys t f = Array.iter (fun e -> f e.key) (sealed t).ordered

let iter_entries t f =
  Array.iter (fun e -> f e.key e.op) (sealed t).ordered

(* Newest first over the raw log, by key identity (keys are interned): the
   newest final image of [key] ends the walk, and the deltas above it fold
   onto it as the seal folds them — [fold_delta] of a sum equals the
   nested folds, and a delta run with nothing below stays a delta. *)
let rec find_raw key sum saw_delta = function
  | [] -> if saw_delta then Some (Add sum) else None
  | e :: rest when e.key != key -> find_raw key sum saw_delta rest
  | { op = Add d; _ } :: rest -> find_raw key (sum + d) true rest
  | { op; _ } :: _ -> Some (if saw_delta then fold_delta op sum else op)

let find_op t key = find_raw key 0 false t.rev_writes

let all_deltas t =
  Array.for_all (fun e -> op_is_delta e.op) (sealed t).ordered

let rec stamped_from slots base kb j =
  j < Array.length kb
  && (Key.Dense.find slots kb.(j).key >= base || stamped_from slots base kb (j + 1))

(* Stamp [a]'s keys, then probe [b]'s: O(|a| + |b|), allocation-free.
   Both sides are sealed first, since a seal claims stamps of its own. *)
let intersects a b =
  if is_empty a || is_empty b then false
  else begin
    let ka = (sealed a).ordered and kb = (sealed b).ordered in
    let pos = Domain.DLS.get positions in
    let base = claim_stamps pos (Array.length ka) in
    for i = 0 to Array.length ka - 1 do
      Key.Dense.replace pos.slots ka.(i).key (base + i)
    done;
    stamped_from pos.slots base kb 0
  end

(* The same raw log as folding [add] over [later]'s final entries: they
   go on top of [earlier]'s writes, oldest first, and the seal resolves
   shared keys exactly as it would have for the fold. *)
let union earlier later =
  if is_empty earlier then later
  else if is_empty later then earlier
  else
    let rev_writes =
      Array.fold_left (fun acc e -> e :: acc) earlier.rev_writes (sealed later).ordered
    in
    { rev_writes; memo = unsealed }

let encoded_bytes t = (sealed t).bytes

let pp_op fmt = function
  | Insert v -> Format.fprintf fmt "ins %a" Value.pp v
  | Update v -> Format.fprintf fmt "upd %a" Value.pp v
  | Delete -> Format.pp_print_string fmt "del"
  | Add d -> Format.fprintf fmt "add %+d" d

let pp fmt t =
  Format.fprintf fmt "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "; ")
       (fun fmt e -> Format.fprintf fmt "%a:%a" Key.pp e.key pp_op e.op))
    (entries t)

(* Version chains are newest-first lists of (commit_version, cell). A
   [Blind] cell is a final image ([None] marks a deletion tombstone); a
   [Delta] cell records a commutative increment against whatever the chain
   holds below it. Deltas are kept symbolic in the chain and folded at read
   time: an out-of-order [install_at] of a delta then needs no re-
   materialisation of its neighbours, so parallel apply reaches the same
   chain — and the same reads — whatever order the workers land in. GC and
   dump flatten delta runs back into blind images at the points where the
   chain below them is cut. *)

type cell = Blind of Value.t option | Delta of int

type chain = (int * cell) list

(* Rows by key id; an empty chain is an absent row. *)
type t = { rows : chain Key.Dense.t; mutable version : int; mutable pruned : int }

let create () = { rows = Key.Dense.create ~absent:[]; version = 0; pruned = 0 }
let current_version t = t.version
let pruned t = t.pruned

let cell_of_op = function
  | Writeset.Insert v | Writeset.Update v -> Blind (Some v)
  | Writeset.Delete -> Blind None
  | Writeset.Add d -> Delta d

(* Fold a chain suffix down to the value it denotes: accumulate deltas
   until the first blind image (a non-integer or missing base counts as
   zero once a delta has touched it). *)
let rec fold_value acc saw_delta = function
  | (_, Blind value) :: _ ->
      if saw_delta then
        let base = match value with Some (Value.Int n) -> n | _ -> 0 in
        Some (Value.int (acc + base))
      else value
  | (_, Delta d) :: rest -> fold_value (acc + d) true rest
  | [] -> if saw_delta then Some (Value.int acc) else None

(* Materialise a chain suffix into the single cell it denotes at a chain
   cut. This is the one place gc and dump flatten history, and it must
   agree with {!read} on every chain shape — in particular a [Blind None]
   tombstone with no deltas above stays a tombstone (the key remains
   deleted), and a delta run above a tombstone folds from the deletion
   (missing base = 0), exactly as {!fold_value} resolves a read. *)
let materialise suffix = Blind (fold_value 0 false suffix)

let read t ~at key =
  let rec visible = function
    | (v, _) :: rest when v > at -> visible rest
    | suffix -> fold_value 0 false suffix
  in
  visible (Key.Dense.find t.rows key)

let read_latest t key = read t ~at:max_int key

let latest_writer t key =
  match Key.Dense.find t.rows key with [] -> 0 | (v, _) :: _ -> v

let blind_write_after t key ~after =
  (* Newest first, so the walk ends at the first version at or below
     [after]: it costs the entries newer than [after], not the chain. *)
  let rec walk = function
    | (v, _) :: _ when v <= after -> None
    | (v, Blind _) :: _ -> Some v
    | (_, Delta _) :: rest -> walk rest
    | [] -> None
  in
  walk (Key.Dense.find t.rows key)

let install t ~version ws =
  if version <= t.version then
    invalid_arg
      (Printf.sprintf "Store.install: version %d not beyond current %d" version t.version);
  Writeset.iter_entries ws (fun key op ->
      Key.Dense.replace t.rows key ((version, cell_of_op op) :: Key.Dense.find t.rows key));
  t.version <- version

(* Slot each write into its key's chain at the right version position,
   without touching the store's visible version. Writes already overtaken
   by a newer committed version do not clobber it; an entry already at
   [version] wins (idempotent re-apply). This is the install half of every
   certified commit: rows land as apply items finish, visibility advances
   separately via {!force_version} once every lower version is in. Deltas
   stay symbolic, so the chain (and every read) is independent of the
   order in which concurrent delta installs arrive. *)
let install_at t ~version ws =
  Writeset.iter_entries ws (fun key op ->
      let cell = cell_of_op op in
      let chain = Key.Dense.find t.rows key in
      (* Chains are newest-first: insert in descending position. *)
      let rec ins = function
        | (v, _) :: _ as rest when v < version -> (version, cell) :: rest
        | (v, _) :: _ as rest when v = version -> rest
        | entry :: rest -> entry :: ins rest
        | [] -> [ (version, cell) ]
      in
      Key.Dense.replace t.rows key (ins chain))

let preload t key value = Key.Dense.replace t.rows key [ (0, Blind (Some value)) ]
let force_version t v = t.version <- v
let row_count t = Key.Dense.length t.rows

let version_records t =
  Key.Dense.fold (fun chain acc -> acc + List.length chain) t.rows 0

let copy t =
  let fresh = create () in
  fresh.version <- t.version;
  Key.Dense.iter
    (fun key chain ->
      match chain with
      | [] -> ()
      | (v, _) :: _ ->
          (* Flattening cuts the chain below the newest entry, so the head
             must be materialised ({!materialise} keeps a tombstone a
             tombstone and folds delta runs exactly like a read would). *)
          Key.Dense.replace fresh.rows key [ (v, materialise chain) ])
    t.rows;
  fresh

(* The one GC rule, for one chain: keep every version newer than
   [keep_after] plus the newest one at or below it (still visible to
   snapshots in (keep_after, now]). The kept boundary entry becomes the new
   bottom of the chain: materialise it so delta runs above keep their base —
   with the same tombstone-preserving fold as {!read}, so gc can never
   resurrect a deleted key. A row whose entire surviving history is a
   tombstone at or below the floor is dropped outright ([None]): every
   visible snapshot already reads it as absent. An already-flat chain comes
   back physically unchanged, and finding that allocates nothing: a row
   the vacuum visits again while its newest entries are above the floor
   costs a walk over them. *)
let gc_chain t ~(keep_after : int) chain =
  let rec at_or_below = function
    | (v, _) :: _ as suffix when v <= keep_after -> suffix
    | _ :: rest -> at_or_below rest
    | [] -> []
  in
  match at_or_below chain with
  | [] -> Some chain (* nothing at or below the floor *)
  | suffix when suffix == chain && Option.is_none (fold_value 0 false suffix) ->
      t.pruned <- t.pruned + List.length suffix;
      None
  | [ (_, Blind _) ] -> Some chain
  | (v, _) :: below as suffix ->
      t.pruned <- t.pruned + List.length below;
      let boundary = (v, materialise suffix) in
      (* The entries above the floor, then the materialised boundary. *)
      let rec rebuild = function
        | entries when entries == suffix -> [ boundary ]
        | entry :: rest -> entry :: rebuild rest
        | [] -> [ boundary ]
      in
      Some (rebuild chain)

(* An absent row ([[]]) stays absent; a dropped one becomes absent. *)
let gc_chain_or_drop t ~keep_after chain =
  match chain with
  | [] -> []
  | _ -> ( match gc_chain t ~keep_after chain with None -> [] | Some kept -> kept)

let gc_key t ~keep_after key =
  let chain = Key.Dense.find t.rows key in
  let kept = gc_chain_or_drop t ~keep_after chain in
  if kept != chain then Key.Dense.replace t.rows key kept

(* Rows are visited in key-id order; each row's collection is independent
   of the others, so the order shows nowhere. *)
let gc t ~keep_after = Key.Dense.map_inplace (gc_chain_or_drop t ~keep_after) t.rows

let newest_version t =
  Key.Dense.fold
    (fun chain acc -> match chain with (v, _) :: _ -> Int.max acc v | [] -> acc)
    t.rows t.version

let tombstones t =
  let found = ref [] in
  Key.Dense.iter
    (fun key chain ->
      match chain with (v, Blind None) :: _ -> found := (key, v) :: !found | _ -> ())
    t.rows;
  !found

let pp_chain fmt t key =
  match Key.Dense.find t.rows key with
  | [] -> Format.fprintf fmt "<no chain>"
  | chain ->
      List.iter
        (fun (v, cell) ->
          match cell with
          | Blind (Some value) -> Format.fprintf fmt "(%d,B%a)" v Value.pp value
          | Blind None -> Format.fprintf fmt "(%d,Bdel)" v
          | Delta d -> Format.fprintf fmt "(%d,D%+d)" v d)
        chain

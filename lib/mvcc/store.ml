(* A version chain is one block per version, newest first, each holding
   its commit version and a pointer to the version below it. An [Image] is
   a final image and a [Tomb] a deletion; a [Delta] records a commutative
   increment against whatever the chain holds below it. Deltas are kept
   symbolic in the chain and folded at read time: an out-of-order
   [install_at] of a delta then needs no re-materialisation of its
   neighbours, so parallel apply reaches the same chain — and the same
   reads — whatever order the workers land in. GC and dump flatten delta
   runs back into final images at the points where the chain below them is
   cut. Chains are immutable, so two stores may share their blocks. *)

type chain =
  | Nil
  | Image of { version : int; value : Value.t; below : chain }
  | Tomb of { version : int; below : chain }
  | Delta of { version : int; d : int; below : chain }

(* Rows by key id; [Nil] is an absent row. *)
type t = { rows : chain Key.Dense.t; mutable version : int; mutable pruned : int }

let create () = { rows = Key.Dense.create ~absent:Nil; version = 0; pruned = 0 }
let current_version t = t.version
let pruned t = t.pruned

let push version op below =
  match op with
  | Writeset.Insert value | Writeset.Update value -> Image { version; value; below }
  | Writeset.Delete -> Tomb { version; below }
  | Writeset.Add d -> Delta { version; d; below }

(* A copy of [chain]'s head block resting on [below] instead. *)
let with_below chain below =
  match chain with
  | Image r -> Image { r with below }
  | Tomb r -> Tomb { r with below }
  | Delta r -> Delta { r with below }
  | Nil -> below

let rec length acc = function
  | Nil -> acc
  | Image { below; _ } | Tomb { below; _ } | Delta { below; _ } -> length (acc + 1) below

(* Fold a chain suffix down to the value it denotes: accumulate deltas
   until the first final image (a non-integer or missing base counts as
   zero once a delta has touched it). *)
let rec fold_value acc saw_delta = function
  | Image { value; _ } ->
      if saw_delta then
        let base = match value with Value.Int n -> n | Value.Text _ -> 0 in
        Some (Value.int (acc + base))
      else Some value
  | Delta { d; below; _ } -> fold_value (acc + d) true below
  | Tomb _ | Nil -> if saw_delta then Some (Value.int acc) else None

(* Materialise a chain suffix into the single block it denotes at a chain
   cut, at [version] and resting on [below]. This is the one place gc and
   dump flatten history, and it must agree with {!read} on every chain
   shape — in particular a tombstone with no deltas above stays a
   tombstone (the key remains deleted), and a delta run above a tombstone
   folds from the deletion (missing base = 0), exactly as {!fold_value}
   resolves a read. *)
let materialise ~version suffix below =
  match suffix with
  | Image { value; _ } -> Image { version; value; below }
  | Tomb _ -> Tomb { version; below }
  | Delta _ | Nil -> (
      match fold_value 0 false suffix with
      | Some value -> Image { version; value; below }
      | None -> Tomb { version; below })

let rec visible at = function
  | (Image { version; below; _ } | Tomb { version; below } | Delta { version; below; _ })
    when version > at ->
      visible at below
  | suffix -> fold_value 0 false suffix

let read t ~at key = visible at (Key.Dense.find t.rows key)
let read_latest t key = read t ~at:max_int key

let latest_writer t key =
  match Key.Dense.find t.rows key with
  | Nil -> 0
  | Image { version; _ } | Tomb { version; _ } | Delta { version; _ } -> version

(* Newest first, so the walk ends at the first version at or below
   [after]: it costs the entries newer than [after], not the chain. *)
let rec blind_after after = function
  | (Image { version; _ } | Tomb { version; _ } | Delta { version; _ }) when version <= after ->
      None
  | Image { version; _ } | Tomb { version; _ } -> Some version
  | Delta { below; _ } -> blind_after after below
  | Nil -> None

let blind_write_after t key ~after = blind_after after (Key.Dense.find t.rows key)

let install t ~version ws =
  if version <= t.version then
    invalid_arg
      (Printf.sprintf "Store.install: version %d not beyond current %d" version t.version);
  Writeset.iter_entries ws (fun key op ->
      Key.Dense.replace t.rows key (push version op (Key.Dense.find t.rows key)));
  t.version <- version

(* Slot [op] into a newest-first chain at [version]. An entry already at
   [version] wins, and then the chain comes back physically unchanged;
   otherwise only the blocks above the new one are copied. *)
let rec insert version op chain =
  match chain with
  | (Image { version = v; _ } | Tomb { version = v; _ } | Delta { version = v; _ })
    when v < version ->
      push version op chain
  | (Image { version = v; _ } | Tomb { version = v; _ } | Delta { version = v; _ })
    when v = version ->
      chain
  | Image { below; _ } | Tomb { below; _ } | Delta { below; _ } ->
      let below' = insert version op below in
      if below' == below then chain else with_below chain below'
  | Nil -> push version op Nil

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
      let chain = Key.Dense.find t.rows key in
      let chain' = insert version op chain in
      if chain' != chain then Key.Dense.replace t.rows key chain')

let preload t key value = Key.Dense.replace t.rows key (Image { version = 0; value; below = Nil })
let force_version t v = t.version <- v
let row_count t = Key.Dense.length t.rows
let version_records t = Key.Dense.fold (fun chain acc -> length acc chain) t.rows 0

let copy t =
  let fresh = create () in
  fresh.version <- t.version;
  Key.Dense.iter
    (fun key chain ->
      match chain with
      | Nil -> ()
      | Image { below = Nil; _ } | Tomb { below = Nil; _ } ->
          (* Already flat; the block is immutable, so share it. *)
          Key.Dense.replace fresh.rows key chain
      | Image { version; _ } | Tomb { version; _ } | Delta { version; _ } ->
          (* Flattening cuts the chain below the newest entry, so the head
             must be materialised ({!materialise} keeps a tombstone a
             tombstone and folds delta runs exactly like a read would). *)
          Key.Dense.replace fresh.rows key (materialise ~version chain Nil))
    t.rows;
  fresh

let rec at_or_below keep_after = function
  | (Image { version; _ } | Tomb { version; _ } | Delta { version; _ }) as suffix
    when version <= keep_after ->
      suffix
  | Image { below; _ } | Tomb { below; _ } | Delta { below; _ } -> at_or_below keep_after below
  | Nil -> Nil

(* The blocks of [chain] above [suffix], copied onto [boundary]. *)
let rec rebuild suffix boundary chain =
  match chain with
  | Image { below; _ } | Tomb { below; _ } | Delta { below; _ } when chain != suffix ->
      with_below chain (rebuild suffix boundary below)
  | _ -> boundary

(* The one GC rule, for one chain: keep every version newer than
   [keep_after] plus the newest one at or below it (still visible to
   snapshots in (keep_after, now]). The kept boundary entry becomes the new
   bottom of the chain: materialise it so delta runs above keep their base —
   with the same tombstone-preserving fold as {!read}, so gc can never
   resurrect a deleted key. A row whose entire surviving history is a
   tombstone at or below the floor is dropped outright ([Nil]): every
   visible snapshot already reads it as absent. An absent row stays
   absent. An already-flat chain comes back physically unchanged, and
   finding that allocates nothing: a row the vacuum visits again while its
   newest entries are above the floor costs a walk over them. *)
let gc_chain t ~keep_after chain =
  match at_or_below keep_after chain with
  | Nil -> chain (* nothing at or below the floor *)
  | Tomb { below; _ } as suffix when suffix == chain ->
      t.pruned <- t.pruned + length 1 below;
      Nil
  | Image { below = Nil; _ } | Tomb { below = Nil; _ } -> chain
  | (Image { version; below; _ } | Tomb { version; below } | Delta { version; below; _ }) as
    suffix ->
      t.pruned <- t.pruned + length 0 below;
      rebuild suffix (materialise ~version suffix Nil) chain

let gc_key t ~keep_after key =
  let chain = Key.Dense.find t.rows key in
  let kept = gc_chain t ~keep_after chain in
  if kept != chain then Key.Dense.replace t.rows key kept

(* Rows are visited in key-id order; each row's collection is independent
   of the others, so the order shows nowhere. *)
let gc t ~keep_after = Key.Dense.map_inplace (gc_chain t ~keep_after) t.rows

let newest_version t =
  Key.Dense.fold
    (fun chain acc ->
      match chain with
      | Image { version; _ } | Tomb { version; _ } | Delta { version; _ } -> Int.max acc version
      | Nil -> acc)
    t.rows t.version

let tombstones t =
  let found = ref [] in
  Key.Dense.iter
    (fun key chain ->
      match chain with Tomb { version; _ } -> found := (key, version) :: !found | _ -> ())
    t.rows;
  !found

let chain t key = Key.Dense.find t.rows key

let pp_chain fmt t key =
  let rec pp = function
    | Nil -> ()
    | Image { version; value; below } ->
        Format.fprintf fmt "(%d,B%a)" version Value.pp value;
        pp below
    | Tomb { version; below } ->
        Format.fprintf fmt "(%d,Bdel)" version;
        pp below
    | Delta { version; d; below } ->
        Format.fprintf fmt "(%d,D%+d)" version d;
        pp below
  in
  match Key.Dense.find t.rows key with
  | Nil -> Format.fprintf fmt "<no chain>"
  | chain -> pp chain

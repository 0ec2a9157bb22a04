type t = { table : string; row : string; hash : int; id : int }

(* The cached hash must stay the [(table, row)] pair's: it fixes every
   [Key.Tbl]'s bucket and iteration order (the certifier's pins, the cert
   log's base keys), and so every fixed-seed result that iterates one. *)
let pair_hash ~table ~row = Hashtbl.hash (table, row)

let equal a b =
  a == b || (a.hash = b.hash && String.equal a.table b.table && String.equal a.row b.row)

let compare a b =
  if a == b then 0
  else
    match String.compare a.table b.table with
    | 0 -> String.compare a.row b.row
    | c -> c

let hash t = t.hash
let encoded_bytes t = String.length t.table + String.length t.row + 2
let pp fmt t = Format.fprintf fmt "%s/%s" t.table t.row
let to_string t = t.table ^ "/" ^ t.row

module Key_ops = struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end

module Tbl = Hashtbl.Make (Key_ops)

(* The interner: one per domain, so parallel domains ([explore --batch])
   never share or race on it. It maps each [(table, row)] to the one key
   that stands for it and numbers keys densely in the order they are first
   made. That order depends on everything the domain ran before, so an id
   names a row but must never decide an order. *)
module Interned = Hashtbl.Make (struct
  type nonrec t = t

  let equal a b = String.equal a.table b.table && String.equal a.row b.row
  let hash = hash
end)

type interner = { keys : t Interned.t; by_id : t Sim.Dense.t }

let no_key = { table = ""; row = ""; hash = 0; id = -1 }

let interner =
  Domain.DLS.new_key (fun () -> { keys = Interned.create 4096; by_id = Sim.Dense.create no_key })

let make ~table ~row =
  let it = Domain.DLS.get interner in
  let id = Sim.Dense.length it.by_id in
  let probe = { table; row; hash = pair_hash ~table ~row; id } in
  match Interned.find_opt it.keys probe with
  | Some key -> key
  | None ->
      Interned.add it.keys probe probe;
      Sim.Dense.set it.by_id id probe;
      probe

let of_id id = Sim.Dense.get (Domain.DLS.get interner).by_id id

module Dense = struct
  type key = t
  type 'a t = { absent : 'a; cells : 'a Sim.Dense.t }

  let create ~absent = { absent; cells = Sim.Dense.create absent }
  let find t (key : key) = Sim.Dense.get t.cells key.id
  let remove t (key : key) = Sim.Dense.remove t.cells key.id

  let replace t (key : key) v =
    if v == t.absent then Sim.Dense.remove t.cells key.id else Sim.Dense.set t.cells key.id v

  let length t = Sim.Dense.length t.cells
  let iter f t = Sim.Dense.iteri (fun id v -> f (of_id id) v) t.cells

  let fold f t acc =
    let acc = ref acc in
    Sim.Dense.iteri (fun _ v -> acc := f v !acc) t.cells;
    !acc

  let map_inplace f t =
    Sim.Dense.iteri
      (fun id v ->
        let v' = f v in
        if v' == t.absent then Sim.Dense.remove t.cells id
        else if v' != v then Sim.Dense.set t.cells id v')
      t.cells

  let reset t = Sim.Dense.reset t.cells
end

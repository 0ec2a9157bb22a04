type t = { table : string; row : string }

let make ~table ~row = { table; row }
let equal a b = String.equal a.table b.table && String.equal a.row b.row

let compare a b =
  match String.compare a.table b.table with
  | 0 -> String.compare a.row b.row
  | c -> c

(* The record has the block shape of the pair [(table, row)], so this is
   that pair's hash without allocating the pair. *)
let hash (t : t) = Hashtbl.hash t
let encoded_bytes t = String.length t.table + String.length t.row + 2
let pp fmt t = Format.fprintf fmt "%s/%s" t.table t.row
let to_string t = t.table ^ "/" ^ t.row

module Key_ops = struct
  type nonrec t = t

  let equal = equal
  let compare = compare
  let hash = hash
end

module Tbl = Hashtbl.Make (Key_ops)
module Set = Set.Make (Key_ops)

type t = { table : string; row : string; hash : int }

(* The cached hash must stay the [(table, row)] pair's: it fixes every
   [Key.Tbl]'s bucket and iteration order (store GC, tombstones, the cert
   log's writer index), and so every fixed-seed result that iterates one. *)
let make ~table ~row = { table; row; hash = Hashtbl.hash (table, row) }

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
  let compare = compare
  let hash = hash
end

module Tbl = Hashtbl.Make (Key_ops)
module Set = Set.Make (Key_ops)

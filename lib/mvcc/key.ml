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

(* A table indexed by a dense int, held in pages of [page_size] slots so
   that growing it never copies more than the small page directory, and
   no page is large enough to be allocated in the major heap. Unset slots
   hold [absent]; pages nobody wrote to are one shared page of [absent]. *)
module Paged = struct
  let page_bits = 8
  let page_size = 1 lsl page_bits
  let slot_mask = page_size - 1

  type 'a t = {
    absent : 'a;
    absent_page : 'a array;
    mutable pages : 'a array array;
    mutable length : int;  (* slots not physically [absent] *)
  }

  let create absent =
    let absent_page = Array.make page_size absent in
    { absent; absent_page; pages = [||]; length = 0 }

  let get t i =
    let p = i lsr page_bits in
    if p >= Array.length t.pages then t.absent
    else Array.unsafe_get (Array.unsafe_get t.pages p) (i land slot_mask)

  let page_for_write t p =
    let n = Array.length t.pages in
    if p >= n then begin
      let pages = Array.make (Int.max (p + 1) (2 * n)) t.absent_page in
      Array.blit t.pages 0 pages 0 n;
      t.pages <- pages
    end;
    let page = t.pages.(p) in
    if page != t.absent_page then page
    else begin
      let page = Array.make page_size t.absent in
      t.pages.(p) <- page;
      page
    end

  let set t i v =
    let p = i lsr page_bits and s = i land slot_mask in
    if v == t.absent && get t i == t.absent then ()
    else begin
      let page = page_for_write t p in
      let old = Array.unsafe_get page s in
      if old == t.absent then (if v != t.absent then t.length <- t.length + 1)
      else if v == t.absent then t.length <- t.length - 1;
      Array.unsafe_set page s v
    end

  let iteri f t =
    Array.iteri
      (fun p page ->
        if page != t.absent_page then
          Array.iteri
            (fun s v -> if v != t.absent then f ((p lsl page_bits) lor s) v)
            page)
      t.pages

  let map_inplace f t =
    Array.iter
      (fun page ->
        if page != t.absent_page then
          for s = 0 to page_size - 1 do
            let v = Array.unsafe_get page s in
            if v != t.absent then begin
              let v' = f v in
              if v' != v then begin
                if v' == t.absent then t.length <- t.length - 1;
                Array.unsafe_set page s v'
              end
            end
          done)
      t.pages

  let reset t =
    t.pages <- [||];
    t.length <- 0
end

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

type interner = { keys : t Interned.t; by_id : t Paged.t }

let no_key = { table = ""; row = ""; hash = 0; id = -1 }

let interner =
  Domain.DLS.new_key (fun () -> { keys = Interned.create 4096; by_id = Paged.create no_key })

let make ~table ~row =
  let it = Domain.DLS.get interner in
  let id = it.by_id.length in
  let probe = { table; row; hash = pair_hash ~table ~row; id } in
  match Interned.find_opt it.keys probe with
  | Some key -> key
  | None ->
      Interned.add it.keys probe probe;
      Paged.set it.by_id id probe;
      probe

let of_id id = Paged.get (Domain.DLS.get interner).by_id id

module Dense = struct
  type key = t
  type 'a t = 'a Paged.t

  let create ~absent = Paged.create absent
  let find t (key : key) = Paged.get t key.id
  let replace t (key : key) v = Paged.set t key.id v
  let remove t (key : key) = Paged.set t key.id t.Paged.absent
  let length t = t.Paged.length
  let iter f t = Paged.iteri (fun id v -> f (of_id id) v) t
  let fold f t acc =
    let acc = ref acc in
    Paged.iteri (fun _ v -> acc := f v !acc) t;
    !acc

  let map_inplace = Paged.map_inplace
  let reset = Paged.reset
end

(* Cell [i] is [pages.(i lsr page_bits).(i land slot_mask)], and its
   presence bit is bit [i land slot_mask] of [present.(i lsr page_bits)];
   a page never written is the shared empty array and empty bytes. Absent
   cells hold [fill] so no dropped value is retained. The bits sit with
   the pages rather than in one array over the whole directory, so a
   table that touches few pages of a wide index range (the lock table,
   indexed by key id) costs nothing for the rest. *)
type 'a t = {
  fill : 'a;
  mutable pages : 'a array array;
  mutable present : Bytes.t array;
  mutable length : int;
  mutable bound : int;
}

let page_bits = 8
let page_size = 1 lsl page_bits
let slot_mask = page_size - 1

let create fill = { fill; pages = [||]; present = [||]; length = 0; bound = 0 }
let length t = t.length
let bound t = t.bound

let[@inline] bit bits s = Char.code (Bytes.unsafe_get bits (s lsr 3)) land (1 lsl (s land 7)) <> 0

let[@inline] flip bits s =
  let b = Char.code (Bytes.unsafe_get bits (s lsr 3)) in
  Bytes.unsafe_set bits (s lsr 3) (Char.unsafe_chr (b lxor (1 lsl (s land 7))))

(* A negative [i] has a huge [i lsr page_bits], past every directory. *)
let[@inline] mem t i =
  let p = i lsr page_bits in
  p < Array.length t.present
  &&
  let bits = Array.unsafe_get t.present p in
  Bytes.length bits > 0 && bit bits (i land slot_mask)

let[@inline] get t i =
  let p = i lsr page_bits in
  if p >= Array.length t.pages then t.fill
  else
    let page = Array.unsafe_get t.pages p in
    if Array.length page = 0 then t.fill else Array.unsafe_get page (i land slot_mask)

let set t i v =
  if i < 0 then invalid_arg "Dense.set: negative index";
  let p = i lsr page_bits and s = i land slot_mask in
  let n = Array.length t.pages in
  if p >= n then begin
    let more = max (p + 1 - n) n in
    t.pages <- Array.append t.pages (Array.make more [||]);
    t.present <- Array.append t.present (Array.make more Bytes.empty)
  end;
  if Array.length (Array.unsafe_get t.pages p) = 0 then begin
    Array.unsafe_set t.pages p (Array.make page_size t.fill);
    Array.unsafe_set t.present p (Bytes.make (page_size / 8) '\000')
  end;
  Array.unsafe_set (Array.unsafe_get t.pages p) s v;
  let bits = Array.unsafe_get t.present p in
  if not (bit bits s) then begin
    flip bits s;
    t.length <- t.length + 1;
    if i >= t.bound then t.bound <- i + 1
  end

let find_or_add t i make =
  if mem t i then get t i
  else begin
    let v = make () in
    set t i v;
    v
  end

let remove t i =
  if mem t i then begin
    flip t.present.(i lsr page_bits) (i land slot_mask);
    t.length <- t.length - 1;
    Array.unsafe_set t.pages.(i lsr page_bits) (i land slot_mask) t.fill
  end

let iteri f t =
  for i = 0 to t.bound - 1 do
    if mem t i then f i (get t i)
  done

let reset t =
  t.pages <- [||];
  t.present <- [||];
  t.length <- 0;
  t.bound <- 0

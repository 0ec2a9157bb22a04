(* A ring of [Array.length cells] cells, a power of two, covering the
   numbers [base, base + capacity): a number's cell is its low bits, and a
   byte of [present] per cell marks it held. [count] counts the held
   cells, and [spill] holds the [spills] entries outside them (a number is
   in one place). A miss consults [spill] only when [spills > 0], which is
   almost never. *)
type 'a t = {
  fill : 'a;
  mutable cells : 'a array;
  mutable present : Bytes.t;
  mutable base : int;
  mutable count : int;
  spill : (int, 'a) Hashtbl.t;
  mutable spills : int;
}

let initial = 64

let reset t =
  t.cells <- Array.make initial t.fill;
  t.present <- Bytes.make initial '\000';
  t.base <- 0;
  t.count <- 0;
  Hashtbl.reset t.spill;
  t.spills <- 0

let create fill =
  let t =
    { fill; cells = [||]; present = Bytes.empty; base = 0; count = 0;
      spill = Hashtbl.create 1; spills = 0 }
  in
  reset t;
  t

let[@inline] held present c = Bytes.unsafe_get present c <> '\000'
let[@inline] mark t c b = Bytes.unsafe_set t.present c (if b then '\001' else '\000')

(* The cell holding [n], or -1. *)
let[@inline] cell t n =
  let cap = Array.length t.cells in
  let c = n land (cap - 1) in
  if n >= t.base && n - t.base < cap && held t.present c then c else -1

let[@inline] spilled t n = t.spills > 0 && Hashtbl.mem t.spill n
let mem t n = cell t n >= 0 || spilled t n

let get t n =
  let c = cell t n in
  if c >= 0 then Array.unsafe_get t.cells c
  else if t.spills = 0 then t.fill
  else try Hashtbl.find t.spill n with Not_found -> t.fill

let length t = t.count + t.spills

(* Spill [n], which is in neither place. *)
let spill_add t n v =
  Hashtbl.replace t.spill n v;
  t.spills <- t.spills + 1

(* The ring may span at most this many cells before a far number spills. *)
let room t = max 4096 (16 * (t.count + 1))

(* Move the held cells to a ring of at least [span] cells, and at least
   twice as many, from the same base, or with [~keep_top] to one ending
   where the ring ends. *)
let regrow ?(keep_top = false) t ~span =
  let cells = t.cells and present = t.present and base = t.base in
  let mask = Array.length cells - 1 in
  let size = ref (2 * (mask + 1)) in
  while !size < span do
    size := 2 * !size
  done;
  let mask' = !size - 1 in
  t.cells <- Array.make !size t.fill;
  t.present <- Bytes.make !size '\000';
  if keep_top then t.base <- base + mask + 1 - !size;
  for m = base to base + mask do
    Array.unsafe_set t.cells (m land mask') (Array.unsafe_get cells (m land mask));
    Bytes.unsafe_set t.present (m land mask') (Bytes.unsafe_get present (m land mask))
  done

let rec replace t n v =
  let cap = Array.length t.cells in
  let c = cell t n in
  if c >= 0 then Array.unsafe_set t.cells c v
  else if spilled t n then Hashtbl.replace t.spill n v
  else if n >= t.base && n - t.base < cap then begin
    let c = n land (cap - 1) in
    t.cells.(c) <- v;
    mark t c true;
    t.count <- t.count + 1
  end
  else if t.count = 0 then begin
    t.base <- n;
    replace t n v
  end
  else if n > t.base then begin
    (* Move the base up over free cells, then double or evict. *)
    while t.base + cap <= n && not (held t.present (t.base land (cap - 1))) do
      t.base <- t.base + 1
    done;
    let span = n + 1 - t.base in
    if span > cap && span <= room t then regrow t ~span
    else if span > cap then begin
      let top = n - cap + 1 in
      for m = t.base to min (top - 1) (t.base + cap - 1) do
        let c = m land (cap - 1) in
        if held t.present c then begin
          spill_add t m t.cells.(c);
          t.cells.(c) <- t.fill;
          mark t c false;
          t.count <- t.count - 1
        end
      done;
      t.base <- top
    end;
    replace t n v
  end
  else begin
    (* Below the base: double keeping the top, so a run of numbers
       arriving downwards also re-sizes a logarithmic number of times. *)
    let span = t.base + cap - n in
    if span <= room t then begin
      regrow ~keep_top:true t ~span;
      replace t n v
    end
    else spill_add t n v
  end

let remove t n =
  let c = cell t n in
  if c >= 0 then begin
    t.cells.(c) <- t.fill;
    mark t c false;
    t.count <- t.count - 1
  end
  else if spilled t n then begin
    Hashtbl.remove t.spill n;
    t.spills <- t.spills - 1
  end

let fold f t acc =
  let acc = ref (Hashtbl.fold f t.spill acc) in
  let mask = Array.length t.cells - 1 in
  if t.count > 0 then
    for c = 0 to mask do
      if held t.present c then acc := f (t.base + ((c - t.base) land mask)) t.cells.(c) !acc
    done;
  !acc

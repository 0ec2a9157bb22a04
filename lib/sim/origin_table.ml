let none = min_int

(* One origin's ids: [vals.(id - base)], [none] where absent, with
   [count] of the cells present. [spill] holds the ids outside the
   array's range. *)
type ids = {
  mutable base : int;
  mutable vals : int array;
  mutable count : int;
  spill : int Int_table.t;
}

type t = ids Dense.t

(* The value of an origin with no ids: never handed out, never mutated. *)
let empty = { base = 0; vals = [||]; count = 0; spill = Int_table.create 1 }

let initial = 64

(* The array may span at most this many cells before a far id spills. *)
let room ids = max 4096 (16 * (ids.count + 1))

let create () = Dense.create empty
let reset t = Dense.reset t

let get t ~origin id =
  let ids = Dense.get t origin in
  let i = id - ids.base in
  if i >= 0 && i < Array.length ids.vals then Array.unsafe_get ids.vals i
  else if Int_table.length ids.spill = 0 then none
  else Option.value ~default:none (Int_table.find_opt ids.spill id)

let mem t ~origin id = get t ~origin id <> none

let set_cell ids i v =
  if ids.vals.(i) = none then ids.count <- ids.count + 1;
  ids.vals.(i) <- v

(* Move the cells to an array of [size] cells from [base], taking in the
   spilled ids it covers. *)
let resize ids ~base ~size =
  let vals = Array.make size none in
  Array.blit ids.vals 0 vals (ids.base - base) (Array.length ids.vals);
  ids.base <- base;
  ids.vals <- vals;
  if Int_table.length ids.spill > 0 then
    Int_table.filter_map_inplace
      (fun id v ->
        let i = id - base in
        if i >= 0 && i < size then begin
          set_cell ids i v;
          None
        end
        else Some v)
      ids.spill

let replace t ~origin id v =
  if v = none then invalid_arg "Origin_table.replace: the absent value";
  let ids =
    let ids = Dense.get t origin in
    if ids != empty then ids
    else begin
      let ids =
        { base = id; vals = Array.make initial none; count = 0; spill = Int_table.create 1 }
      in
      Dense.set t origin ids;
      ids
    end
  in
  let i = id - ids.base in
  if i >= 0 && i < Array.length ids.vals then set_cell ids i v
  else begin
    (* Double at least, keeping the top where [id] lies below the base,
       so a run of ids arriving in either direction re-sizes only a
       logarithmic number of times. *)
    let cap = Array.length ids.vals in
    let lo = min ids.base id and hi = max (ids.base + cap) (id + 1) in
    let size = max (2 * cap) (hi - lo) in
    if size <= room ids then begin
      resize ids ~base:(if id < ids.base then hi - size else lo) ~size;
      set_cell ids (id - ids.base) v
    end
    else Int_table.replace ids.spill id v
  end

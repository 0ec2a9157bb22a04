(* A ring of cells indexed by [version land (capacity - 1)], each holding
   its version (0 when free) and value. [live] counts the cells in use;
   [spill] holds the versions displaced from their cell. *)

type 'a t = {
  mutable keys : int array;
  mutable vals : 'a array;
  mutable live : int;
  spill : (int, 'a) Hashtbl.t;
  fill : 'a;
}

let initial = 64

let create fill =
  {
    keys = Array.make initial 0;
    vals = Array.make initial fill;
    live = 0;
    spill = Hashtbl.create 1;
    fill;
  }

let cell t version = version land (Array.length t.keys - 1)
let spilled t version = Hashtbl.length t.spill > 0 && Hashtbl.mem t.spill version
let mem t version = t.keys.(cell t version) = version || spilled t version

let find t version =
  let i = cell t version in
  if t.keys.(i) = version then t.vals.(i) else Hashtbl.find t.spill version

let get t version =
  let i = cell t version in
  if t.keys.(i) = version then t.vals.(i)
  else if spilled t version then Hashtbl.find t.spill version
  else t.fill

let length t = t.live + Hashtbl.length t.spill

let grow t =
  let keys = t.keys and vals = t.vals in
  let cap = 2 * Array.length keys in
  t.keys <- Array.make cap 0;
  t.vals <- Array.make cap t.fill;
  Array.iteri
    (fun i version ->
      if version <> 0 then begin
        let j = cell t version in
        t.keys.(j) <- version;
        t.vals.(j) <- vals.(i)
      end)
    keys

let rec replace t version v =
  if version <= 0 then invalid_arg "Version_window.replace: number must be positive";
  let i = cell t version in
  let held = t.keys.(i) in
  if held = version then t.vals.(i) <- v
  else if spilled t version then Hashtbl.replace t.spill version v
  else if held = 0 then begin
    t.keys.(i) <- version;
    t.vals.(i) <- v;
    t.live <- t.live + 1
  end
  else if 2 * (t.live + 1) > Array.length t.keys then begin
    grow t;
    replace t version v
  end
  else begin
    Hashtbl.replace t.spill held t.vals.(i);
    t.keys.(i) <- version;
    t.vals.(i) <- v
  end

let remove t version =
  let i = cell t version in
  if t.keys.(i) = version then begin
    t.keys.(i) <- 0;
    t.vals.(i) <- t.fill;
    t.live <- t.live - 1
  end
  else if Hashtbl.length t.spill > 0 then Hashtbl.remove t.spill version

let reset t =
  t.keys <- Array.make initial 0;
  t.vals <- Array.make initial t.fill;
  t.live <- 0;
  Hashtbl.reset t.spill

let fold f t acc =
  let acc = ref (Hashtbl.fold (fun _ v acc -> f v acc) t.spill acc) in
  Array.iteri (fun i version -> if version <> 0 then acc := f t.vals.(i) !acc) t.keys;
  !acc

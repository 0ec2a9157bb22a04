(* [vals.(i)] with a presence byte per index; absent cells hold [fill] so
   no dropped value is retained. *)
type 'a t = {
  mutable vals : 'a array;
  mutable present : Bytes.t;
  mutable bound : int;
  fill : 'a;
}

let initial = 64

let create fill =
  { vals = Array.make initial fill; present = Bytes.make initial '\000'; bound = 0; fill }

let mem t i = i >= 0 && i < t.bound && Bytes.unsafe_get t.present i <> '\000'
let get t i = if mem t i then Array.unsafe_get t.vals i else t.fill

let set t i v =
  if i < 0 then invalid_arg "Dense.set: negative index";
  let cap = Array.length t.vals in
  if i >= cap then begin
    let bigger = max (2 * cap) (i + 1) in
    let vals = Array.make bigger t.fill and present = Bytes.make bigger '\000' in
    Array.blit t.vals 0 vals 0 cap;
    Bytes.blit t.present 0 present 0 cap;
    t.vals <- vals;
    t.present <- present
  end;
  t.vals.(i) <- v;
  Bytes.unsafe_set t.present i '\001';
  if i >= t.bound then t.bound <- i + 1

let bound t = t.bound

let reset t =
  t.vals <- Array.make initial t.fill;
  t.present <- Bytes.make initial '\000';
  t.bound <- 0

(* Order statistics over repeated measurements. Quartiles follow Python's
   statistics.quantiles(values, n=4) (the "exclusive" method), so a spread
   computed here matches one computed from the printed values. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

let quartiles xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Dist.quartiles: no values"
  else if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = ld + 1 in
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let median xs =
  let _, m, _ = quartiles xs in
  m

let iqr xs =
  let q1, _, q3 = quartiles xs in
  q3 -. q1

let minimum xs = Array.fold_left Float.min Float.infinity xs
let maximum xs = Array.fold_left Float.max Float.neg_infinity xs

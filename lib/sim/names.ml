type t = { mutable strs : string array; mutable count : int }

let create () = { strs = Array.make 8 ""; count = 0 }

let rec find_phys strs n s i =
  if i = n then -1 else if Array.unsafe_get strs i == s then i else find_phys strs n s (i + 1)

let rec find_equal strs n s i =
  if i = n then -1
  else if String.equal (Array.unsafe_get strs i) s then i
  else find_equal strs n s (i + 1)

let find t s =
  let i = find_phys t.strs t.count s 0 in
  if i >= 0 then i else find_equal t.strs t.count s 0

let index t s =
  let i = find t s in
  if i >= 0 then i
  else begin
    let n = t.count in
    if n = Array.length t.strs then begin
      let bigger = Array.make (2 * n) "" in
      Array.blit t.strs 0 bigger 0 n;
      t.strs <- bigger
    end;
    t.strs.(n) <- s;
    t.count <- n + 1;
    n
  end

let of_list names =
  let t = create () in
  List.iter (fun s -> ignore (index t s)) names;
  t

let name t i =
  if i < 0 || i >= t.count then invalid_arg "Names.name: index not held";
  t.strs.(i)

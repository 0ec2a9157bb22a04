(* Tests for the snapshot-isolation engine: writesets, the versioned store,
   locks, ordered announcement and the full database. *)

open Sim
open Mvcc

let k table row = Key.make ~table ~row
let vi n = Value.int n
let upd n = Writeset.Update (vi n)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let value_opt : Value.t option Alcotest.testable =
  Alcotest.testable
    (Fmt.option Value.pp)
    (fun a b ->
      match (a, b) with
      | None, None -> true
      | Some x, Some y -> Value.equal x y
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Writeset *)

let test_writeset_basics () =
  let ws = Writeset.of_list [ (k "t" "a", upd 1); (k "t" "b", upd 2) ] in
  check_int "cardinal" 2 (Writeset.cardinal ws);
  check_bool "mem" true (Writeset.find_op ws (k "t" "a") <> None);
  check_bool "not mem" false (Writeset.find_op ws (k "t" "c") <> None);
  check_bool "empty" true (Writeset.is_empty Writeset.empty);
  check_bool "non-empty" false (Writeset.is_empty ws)

let test_writeset_supersede () =
  let ws = Writeset.of_list [ (k "t" "a", upd 1); (k "t" "b", upd 2); (k "t" "a", upd 9) ] in
  check_int "no duplicate entry" 2 (Writeset.cardinal ws);
  match Writeset.entries ws with
  | [ e1; e2 ] ->
      check_bool "order preserved" true (Key.equal e1.key (k "t" "a"));
      (match e1.op with
      | Writeset.Update v -> check_int "latest op wins" 9 (Value.as_int v)
      | _ -> Alcotest.fail "expected update");
      check_bool "second entry" true (Key.equal e2.key (k "t" "b"))
  | _ -> Alcotest.fail "expected two entries"

let test_writeset_intersects () =
  let a = Writeset.of_list [ (k "t" "x", upd 1); (k "t" "y", upd 2) ] in
  let b = Writeset.of_list [ (k "t" "y", upd 3); (k "t" "z", upd 4) ] in
  let c = Writeset.of_list [ (k "t" "z", upd 5) ] in
  check_bool "a/b intersect" true (Writeset.intersects a b);
  check_bool "b/a symmetric" true (Writeset.intersects b a);
  check_bool "a/c disjoint" false (Writeset.intersects a c);
  check_bool "empty never intersects" false (Writeset.intersects a Writeset.empty)

let test_writeset_union_later_wins () =
  let a = Writeset.of_list [ (k "t" "x", upd 1); (k "t" "y", upd 2) ] in
  let b = Writeset.of_list [ (k "t" "y", upd 9); (k "t" "z", Writeset.Delete) ] in
  let u = Writeset.union a b in
  check_int "union size" 3 (Writeset.cardinal u);
  let find key =
    List.find (fun e -> Key.equal e.Writeset.key key) (Writeset.entries u)
  in
  (match (find (k "t" "y")).op with
  | Writeset.Update v -> check_int "later wins" 9 (Value.as_int v)
  | _ -> Alcotest.fail "expected update");
  match (find (k "t" "z")).op with
  | Writeset.Delete -> ()
  | _ -> Alcotest.fail "expected delete"

let test_writeset_encoded_bytes () =
  let ws = Writeset.singleton (k "accounts" "42") (upd 7) in
  (* 8 header + (8+2+2) key + 1 op + 8 int *)
  check_int "size" 29 (Writeset.encoded_bytes ws);
  check_int "empty size" 8 (Writeset.encoded_bytes Writeset.empty)

let test_writeset_delta_fold () =
  let ws =
    Writeset.of_list
      [
        (k "t" "sum", Writeset.Add 2); (k "t" "sum", Writeset.Add 3);
        (k "t" "img", upd 10); (k "t" "img", Writeset.Add 5);
        (k "t" "pin", Writeset.Add 9); (k "t" "pin", upd 1);
        (k "t" "dead", Writeset.Delete); (k "t" "dead", Writeset.Add 4);
        (k "t" "ins", Writeset.Insert (vi 7)); (k "t" "ins", Writeset.Add 1);
      ]
  in
  let op key =
    match Writeset.find_op ws key with
    | Some op -> op
    | None -> Alcotest.fail ("missing op for " ^ Key.to_string key)
  in
  (match op (k "t" "sum") with
  | Writeset.Add 5 -> ()
  | _ -> Alcotest.fail "delta after delta must sum");
  (match op (k "t" "img") with
  | Writeset.Update v -> check_int "delta folds onto image" 15 (Value.as_int v)
  | _ -> Alcotest.fail "expected update for img");
  (match op (k "t" "pin") with
  | Writeset.Update v -> check_int "image replaces delta" 1 (Value.as_int v)
  | _ -> Alcotest.fail "expected update for pin");
  (match op (k "t" "dead") with
  | Writeset.Update v ->
      check_int "delete then delta re-creates from zero" 4 (Value.as_int v)
  | _ -> Alcotest.fail "expected update for dead");
  (match op (k "t" "ins") with
  | Writeset.Insert v -> check_int "delta folds onto insert" 8 (Value.as_int v)
  | _ -> Alcotest.fail "expected insert for ins");
  check_bool "mixed set is not all deltas" false (Writeset.all_deltas ws);
  check_bool "pure delta set is" true
    (Writeset.all_deltas (Writeset.singleton (k "t" "sum") (Writeset.Add 1)));
  check_bool "empty is vacuously all deltas" true (Writeset.all_deltas Writeset.empty);
  check_bool "Add is a delta" true (Writeset.op_is_delta (Writeset.Add 1));
  check_bool "Update is not" false (Writeset.op_is_delta (upd 1))

let test_writeset_delta_union () =
  let a = Writeset.of_list [ (k "t" "x", upd 10); (k "t" "y", Writeset.Add 2) ] in
  let b =
    Writeset.of_list
      [ (k "t" "x", Writeset.Add 5); (k "t" "y", Writeset.Add 3); (k "t" "z", upd 1) ]
  in
  let u = Writeset.union a b in
  check_int "union size" 3 (Writeset.cardinal u);
  (match Writeset.find_op u (k "t" "x") with
  | Some (Writeset.Update v) ->
      check_int "later delta folds onto earlier image" 15 (Value.as_int v)
  | _ -> Alcotest.fail "expected update for x");
  match Writeset.find_op u (k "t" "y") with
  | Some (Writeset.Add 5) -> ()
  | _ -> Alcotest.fail "deltas must sum across union"

let test_writeset_delta_encoded_bytes () =
  (* A delta entry is 1 tag + 8 increment on the wire, same as a final
     integer image — and the legacy blind-write sizes (the paper's
     54/158/275 B workload averages) are untouched by the new op. *)
  check_int "delta entry size" 29
    (Writeset.encoded_bytes
       (Writeset.singleton (k "accounts" "42") (Writeset.Add 7)));
  check_int "blind size unchanged" 29
    (Writeset.encoded_bytes (Writeset.singleton (k "accounts" "42") (upd 7)));
  check_int "image + delta on one key stays one entry" 29
    (Writeset.encoded_bytes
       (Writeset.of_list
          [ (k "accounts" "42", upd 1); (k "accounts" "42", Writeset.Add 6) ]))

let writeset_gen_over ~keys =
  let open QCheck in
  let key_gen = Gen.map (fun i -> k "t" (string_of_int i)) (Gen.int_bound keys) in
  let op_gen =
    Gen.oneof
      [
        Gen.map (fun n -> Writeset.Insert (vi n)) Gen.small_int;
        Gen.map (fun n -> upd n) Gen.small_int;
        Gen.return Writeset.Delete;
        Gen.map (fun n -> Writeset.Add n) Gen.small_int;
      ]
  in
  make
    ~print:(fun ws -> Format.asprintf "%a" Writeset.pp ws)
    Gen.(map Writeset.of_list (small_list (pair key_gen op_gen)))

let writeset_gen = writeset_gen_over ~keys:20

let prop_intersects_symmetric =
  QCheck.Test.make ~name:"writeset intersection is symmetric" ~count:200
    (QCheck.pair writeset_gen writeset_gen) (fun (a, b) ->
      Writeset.intersects a b = Writeset.intersects b a)

let prop_intersects_iff_shared_key =
  QCheck.Test.make ~name:"intersects agrees with intersecting the key lists" ~count:200
    (QCheck.pair writeset_gen writeset_gen) (fun (a, b) ->
      let shared =
        List.exists (fun key -> List.exists (Key.equal key) (Writeset.keys b)) (Writeset.keys a)
      in
      Writeset.intersects a b = shared)

let prop_union_keys =
  QCheck.Test.make ~name:"union covers both key sets" ~count:200
    (QCheck.pair writeset_gen writeset_gen) (fun (a, b) ->
      let u = Writeset.union a b in
      let mem key = Writeset.find_op u key <> None in
      List.for_all mem (Writeset.keys a) && List.for_all mem (Writeset.keys b))

(* The reference for one key's final op: a later final image replaces the
   earlier op, a later delta folds onto it. *)
let fold_ref earlier op =
  match (earlier, op) with
  | Some (Writeset.Insert (Value.Int n)), Writeset.Add d -> Writeset.Insert (vi (n + d))
  | Some (Writeset.Insert (Value.Text _)), Writeset.Add d -> Writeset.Insert (vi d)
  | Some (Writeset.Update (Value.Int n)), Writeset.Add d -> Writeset.Update (vi (n + d))
  | Some (Writeset.Update (Value.Text _)), Writeset.Add d -> Writeset.Update (vi d)
  | Some Writeset.Delete, Writeset.Add d -> Writeset.Update (vi d)
  | Some (Writeset.Add d0), Writeset.Add d -> Writeset.Add (d0 + d)
  | _, op -> op

(* The final entries of a raw write list, in first-write order. *)
let entries_ref writes =
  List.fold_left
    (fun acc (key, op) ->
      if List.mem_assq key acc then
        List.map (fun (k', o) -> if k' == key then (k', fold_ref (Some o) op) else (k', o)) acc
      else acc @ [ (key, op) ])
    [] writes

(* A writeset that has never been sealed answers [find_op] from its raw
   log and [is_empty] from the log's emptiness; both must agree with the
   sealed form ([entries], [cardinal], and [find_op] after sealing) and
   with a reference fold of the input. Few keys and many deltas, so delta
   runs over images, deletes and other deltas are common. *)
let prop_raw_writeset_matches_sealed =
  let open QCheck in
  let key_gen = Gen.map (fun i -> k "raw" (string_of_int i)) (Gen.int_bound 4) in
  let op_gen =
    Gen.frequency
      [
        (1, Gen.map (fun n -> Writeset.Insert (vi n)) Gen.small_int);
        (1, Gen.map (fun n -> upd n) Gen.small_int);
        (1, Gen.return (Writeset.Update (Value.text "x")));
        (1, Gen.return Writeset.Delete);
        (4, Gen.map (fun n -> Writeset.Add n) Gen.small_signed_int);
      ]
  in
  let writes_gen = Gen.small_list (Gen.pair key_gen op_gen) in
  let print writes =
    String.concat "; "
      (List.map
         (fun (key, op) ->
           Format.asprintf "%s:%a" (Key.to_string key) Writeset.pp (Writeset.singleton key op))
         writes)
  in
  Test.make ~name:"raw writeset agrees with its sealed form" ~count:500 (make ~print writes_gen)
    (fun writes ->
      let universe = List.init 5 (fun i -> k "raw" (string_of_int i)) in
      let expected = entries_ref writes in
      let ws = Writeset.of_list writes in
      (* Raw reads first: nothing has sealed [ws] yet. *)
      let raw = List.map (Writeset.find_op ws) universe in
      let raw_empty = Writeset.is_empty ws in
      let sealed_entries =
        List.map (fun (e : Writeset.entry) -> (e.key, e.op)) (Writeset.entries ws)
      in
      raw = List.map (fun key -> List.assq_opt key expected) universe
      && raw_empty = (writes = [])
      && List.equal (fun (a, o) (b, p) -> a == b && o = p) sealed_entries expected
      && Writeset.cardinal ws = List.length expected
      && raw = List.map (Writeset.find_op ws) universe)

let key_strings_gen =
  QCheck.(
    pair
      (oneof [ oneofl [ "accounts"; "item"; "orders"; "hot"; "t" ]; string ])
      (oneof [ map string_of_int (int_range 0 1_000_000); string ]))

(* [Key.make] caches the [(table, row)] pair's hash, the value [Key.hash]
   had when it hashed the two-field record: it must stay the pair's, as it
   fixes every [Key.Tbl]'s bucket and iteration order and so the
   fixed-seed results that iterate one. Workload-shaped keys plus
   arbitrary strings. *)
let prop_key_hash_is_pair_hash =
  QCheck.Test.make ~name:"Key.hash equals the (table, row) pair hash" ~count:1000
    key_strings_gen (fun (table, row) -> Key.hash (k table row) = Hashtbl.hash (table, row))

(* Keys built separately (from physically distinct copies of the strings)
   are the same interned key, and agree on every comparison the tables and
   sets use. *)
let prop_key_separately_made_equal =
  QCheck.Test.make ~name:"separately made keys are equal" ~count:1000 key_strings_gen
    (fun (table, row) ->
      let copy str = Bytes.to_string (Bytes.of_string str) in
      let a = k table row and b = k (copy table) (copy row) in
      a == b && Key.equal a b && Key.compare a b = 0 && Key.hash a = Key.hash b)

(* [Key.make] interns: the same row gives back the very same key, and
   another row another id. *)
let test_key_make_interns () =
  let copy str = Bytes.to_string (Bytes.of_string str) in
  let a = k "intern" "row1" in
  check_bool "same key twice" true (a == Key.make ~table:(copy "intern") ~row:(copy "row1"));
  check_bool "another row, another id" true (a.Key.id <> (k "intern" "row2").Key.id);
  check_bool "a key made on another domain has a domain-local id" true
    (Domain.join (Domain.spawn (fun () -> (k "intern" "row2").Key.id = 0)))

(* Two tables holding the same keys iterate in the same order: the
   [Key.Tbl] with the cached hash and a polymorphic [Hashtbl] keyed by the
   [(table, row)] pair. *)
let prop_key_tbl_order_is_pair_order =
  QCheck.Test.make ~name:"Key.Tbl iterates in (table, row) Hashtbl order" ~count:200
    QCheck.(small_list key_strings_gen)
    (fun pairs ->
      let tbl = Key.Tbl.create 16 and poly = Hashtbl.create 16 in
      List.iteri
        (fun i (table, row) ->
          Key.Tbl.replace tbl (k table row) i;
          Hashtbl.replace poly (table, row) i)
        pairs;
      let via_key =
        Key.Tbl.fold (fun key i acc -> (key.Key.table, key.Key.row, i) :: acc) tbl []
      in
      let via_pair = Hashtbl.fold (fun (table, row) i acc -> (table, row, i) :: acc) poly [] in
      via_key = via_pair)

(* [union a b] against the fold of [add] over [b]'s entries that it
   replaced. Few keys, so shared keys (and deltas over final images) are
   common; the third writeset checks a chain, as a batched remote apply
   folds one. *)
let union_by_add a b =
  List.fold_left
    (fun acc (e : Writeset.entry) -> Writeset.add acc e.key e.op)
    a (Writeset.entries b)

let prop_union_matches_add_fold =
  let ws_gen = writeset_gen_over ~keys:8 in
  QCheck.Test.make ~name:"union equals the fold of add" ~count:500
    (QCheck.triple ws_gen ws_gen ws_gen) (fun (a, b, c) ->
      let same u v =
        Writeset.cardinal u = Writeset.cardinal v
        && List.equal
             (fun (x : Writeset.entry) (y : Writeset.entry) ->
               Key.equal x.key y.key && x.op = y.op)
             (Writeset.entries u) (Writeset.entries v)
        && List.for_all
             (fun i ->
               let key = k "t" (string_of_int i) in
               Writeset.find_op u key = Writeset.find_op v key)
             (List.init 10 Fun.id)
      in
      same (Writeset.union a b) (union_by_add a b)
      && same
           (Writeset.union (Writeset.union a b) c)
           (union_by_add (union_by_add a b) c))

(* [intersects] stamps one side's keys in the per-domain position table
   and probes the other side's: once both writesets are sealed and the
   table's pages exist, it allocates nothing. *)
let test_writeset_intersects_alloc () =
  let ws prefix n =
    Writeset.of_list (List.init n (fun i -> (k "ia" (prefix ^ string_of_int i), upd i)))
  in
  let a = ws "a" 8 and b = ws "b" 8 and c = Writeset.singleton (k "ia" "a7") (upd 0) in
  check_bool "disjoint" false (Writeset.intersects a b);
  check_bool "shared key" true (Writeset.intersects c a);
  let calls = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to calls / 2 do
    ignore (Sys.opaque_identity (Writeset.intersects a b));
    ignore (Sys.opaque_identity (Writeset.intersects c a))
  done;
  let words = Gc.minor_words () -. before in
  (* A few words box the two counter reads. *)
  check_bool (Printf.sprintf "%.0f words over %d calls" words calls) true (words < 16.)

let op_bytes_ref = function
  | Writeset.Insert v | Writeset.Update v -> 1 + Value.encoded_bytes v
  | Writeset.Delete -> 1
  | Writeset.Add _ -> 9

(* [intersects] and the seal share the position table's stamps. Calls of
   [intersects] between seals of other writesets (fresh ones, and ones
   that [intersects] itself seals) must leave every sealed form equal to a
   reference fold of its writes, and every answer equal to intersecting
   the key lists. *)
let prop_intersects_keeps_sealed_forms =
  let open QCheck in
  let key_gen = Gen.map (fun i -> k "is" (string_of_int i)) (Gen.int_bound 6) in
  let op_gen =
    Gen.oneof
      [
        Gen.map (fun n -> Writeset.Insert (vi n)) Gen.small_int;
        Gen.map (fun n -> upd n) Gen.small_int;
        Gen.return (Writeset.Update (Value.text "text"));
        Gen.return Writeset.Delete;
        Gen.map (fun n -> Writeset.Add n) Gen.small_signed_int;
      ]
  in
  let writes_gen = Gen.small_list (Gen.pair key_gen op_gen) in
  let gen =
    Gen.pair
      (Gen.list_size (Gen.int_range 2 6) writes_gen)
      (Gen.list_size (Gen.int_range 1 30) (Gen.pair Gen.nat Gen.nat))
  in
  let print (sets, steps) =
    Printf.sprintf "%d writesets [%s], steps %s" (List.length sets)
      (String.concat "; "
         (List.map
            (fun writes ->
              Format.asprintf "%a" Writeset.pp (Writeset.of_list writes))
            sets))
      (Print.(list (pair int int)) steps)
  in
  Test.make ~name:"intersects between seals keeps every sealed form" ~count:300
    (make ~print gen) (fun (sets, steps) ->
      let writes = Array.of_list sets in
      let n = Array.length writes in
      let ws = Array.map Writeset.of_list writes in
      let matches_ref t writes =
        let expected = entries_ref writes in
        List.equal
          (fun (key, op) (key', op') -> key == key' && op = op')
          (List.map (fun (e : Writeset.entry) -> (e.key, e.op)) (Writeset.entries t))
          expected
        && Writeset.cardinal t = List.length expected
        && Writeset.encoded_bytes t
           = List.fold_left
               (fun acc (key, op) -> acc + Key.encoded_bytes key + op_bytes_ref op)
               8 expected
      in
      let shared i j =
        List.exists (fun (key, _) -> List.mem_assq key writes.(j)) writes.(i)
      in
      List.for_all
        (fun (i, j) ->
          let i = i mod n and j = j mod n in
          if i = j then matches_ref (Writeset.of_list writes.(i)) writes.(i)
          else Writeset.intersects ws.(i) ws.(j) = shared i j)
        steps
      && Array.for_all2 matches_ref ws writes)

(* ------------------------------------------------------------------ *)
(* Store *)

let test_store_snapshot_reads () =
  let s = Store.create () in
  Store.preload s (k "t" "a") (vi 0);
  Store.install s ~version:3 (Writeset.singleton (k "t" "a") (upd 30));
  Store.install s ~version:7 (Writeset.singleton (k "t" "a") (upd 70));
  Alcotest.check value_opt "at 0" (Some (vi 0)) (Store.read s ~at:0 (k "t" "a"));
  Alcotest.check value_opt "at 2" (Some (vi 0)) (Store.read s ~at:2 (k "t" "a"));
  Alcotest.check value_opt "at 3" (Some (vi 30)) (Store.read s ~at:3 (k "t" "a"));
  Alcotest.check value_opt "at 6" (Some (vi 30)) (Store.read s ~at:6 (k "t" "a"));
  Alcotest.check value_opt "at 7" (Some (vi 70)) (Store.read s ~at:7 (k "t" "a"));
  Alcotest.check value_opt "latest" (Some (vi 70)) (Store.read_latest s (k "t" "a"));
  check_int "version" 7 (Store.current_version s)

let test_store_tombstones () =
  let s = Store.create () in
  Store.install s ~version:1 (Writeset.singleton (k "t" "a") (Writeset.Insert (vi 5)));
  Store.install s ~version:2 (Writeset.singleton (k "t" "a") Writeset.Delete);
  Alcotest.check value_opt "visible at 1" (Some (vi 5)) (Store.read s ~at:1 (k "t" "a"));
  Alcotest.check value_opt "deleted at 2" None (Store.read s ~at:2 (k "t" "a"));
  Alcotest.check value_opt "missing row" None (Store.read s ~at:2 (k "t" "zz"))

let test_store_version_monotonic () =
  let s = Store.create () in
  Store.install s ~version:5 (Writeset.singleton (k "t" "a") (upd 1));
  (match Store.install s ~version:5 (Writeset.singleton (k "t" "b") (upd 2)) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "must reject non-increasing version");
  check_int "latest_writer" 5 (Store.latest_writer s (k "t" "a"));
  check_int "latest_writer unknown" 0 (Store.latest_writer s (k "t" "zz"))

let test_store_sparse_versions () =
  (* A replica jumps 0 -> 3 -> 9 when applying batched remote writesets. *)
  let s = Store.create () in
  Store.install s ~version:3 (Writeset.singleton (k "t" "a") (upd 3));
  Store.install s ~version:9 (Writeset.singleton (k "t" "b") (upd 9));
  check_int "version 9" 9 (Store.current_version s);
  Alcotest.check value_opt "a visible at 5" (Some (vi 3)) (Store.read s ~at:5 (k "t" "a"));
  Alcotest.check value_opt "b invisible at 5" None (Store.read s ~at:5 (k "t" "b"))

let test_store_copy_flattens () =
  let s = Store.create () in
  Store.install s ~version:1 (Writeset.singleton (k "t" "a") (upd 1));
  Store.install s ~version:2 (Writeset.singleton (k "t" "a") (upd 2));
  let c = Store.copy s in
  check_int "copy version" 2 (Store.current_version c);
  check_int "copy flattened" 1 (Store.version_records c);
  Alcotest.check value_opt "copy value" (Some (vi 2)) (Store.read_latest c (k "t" "a"));
  (* the copy is independent *)
  Store.install s ~version:3 (Writeset.singleton (k "t" "a") (upd 3));
  Alcotest.check value_opt "copy unaffected" (Some (vi 2)) (Store.read_latest c (k "t" "a"))

let test_store_gc () =
  let s = Store.create () in
  for v = 1 to 10 do
    Store.install s ~version:v (Writeset.singleton (k "t" "a") (upd v))
  done;
  check_int "ten records" 10 (Store.version_records s);
  Store.gc s ~keep_after:8;
  check_int "pruned to recent + anchor" 3 (Store.version_records s);
  Alcotest.check value_opt "read at 9 still works" (Some (vi 9))
    (Store.read s ~at:9 (k "t" "a"));
  Alcotest.check value_opt "read at 8 sees anchor" (Some (vi 8))
    (Store.read s ~at:8 (k "t" "a"))

let test_store_delta_reads () =
  let s = Store.create () in
  Store.preload s (k "t" "a") (vi 10);
  Store.install s ~version:1 (Writeset.singleton (k "t" "a") (Writeset.Add 5));
  Store.install s ~version:2 (Writeset.singleton (k "t" "a") (Writeset.Add 7));
  Alcotest.check value_opt "base" (Some (vi 10)) (Store.read s ~at:0 (k "t" "a"));
  Alcotest.check value_opt "one delta" (Some (vi 15)) (Store.read s ~at:1 (k "t" "a"));
  Alcotest.check value_opt "two deltas" (Some (vi 22)) (Store.read s ~at:2 (k "t" "a"));
  check_int "latest_writer sees deltas" 2 (Store.latest_writer s (k "t" "a"));
  Alcotest.(check (option int)) "blind_write_after skips them" None
    (Store.blind_write_after s (k "t" "a") ~after:0);
  Store.install s ~version:3 (Writeset.singleton (k "t" "a") (upd 100));
  Store.install s ~version:4 (Writeset.singleton (k "t" "a") (Writeset.Add 1));
  Alcotest.check value_opt "delta over the new image" (Some (vi 101))
    (Store.read s ~at:4 (k "t" "a"));
  Alcotest.(check (option int)) "blind writer found under a delta" (Some 3)
    (Store.blind_write_after s (k "t" "a") ~after:2);
  Alcotest.(check (option int)) "a blind write at the snapshot is not after it" None
    (Store.blind_write_after s (k "t" "a") ~after:3);
  Alcotest.(check (option int)) "unknown key" None
    (Store.blind_write_after s (k "t" "nope") ~after:0);
  (* a delta with no image below folds from a zero base *)
  Store.install s ~version:5 (Writeset.singleton (k "t" "fresh") (Writeset.Add 3));
  Alcotest.check value_opt "zero base" (Some (vi 3)) (Store.read s ~at:5 (k "t" "fresh"))

(* [blind_write_after ~after] is "the newest blind version, if it is newer
   than [after]", whatever order the chain was built in: in-order installs
   followed by out-of-order [install_at]s, re-installs of a present version
   (the first one stays) and a preloaded version 0. *)
let prop_blind_write_after_is_newest_blind =
  QCheck.Test.make ~name:"blind_write_after = newest blind version > after" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let key = k "t" "a" in
      let s = Store.create () in
      let installed : (int, bool) Hashtbl.t = Hashtbl.create 32 in
      let op () =
        if Rng.chance rng 0.3 then (Writeset.Update (vi 1), true)
        else if Rng.chance rng 0.1 then (Writeset.Delete, true)
        else (Writeset.Add 1, false)
      in
      if Rng.bool rng then begin
        Store.preload s key (vi 0);
        Hashtbl.replace installed 0 true
      end;
      let n = 1 + Rng.int rng 40 in
      let versions = Array.init n (fun i -> i + 1) in
      Rng.shuffle rng versions;
      let in_order = Rng.int rng (n + 1) in
      let ordered = Array.sub versions 0 in_order in
      Array.sort compare ordered;
      let put install v =
        let o, blind = op () in
        install s ~version:v (Writeset.singleton key o);
        if not (Hashtbl.mem installed v) then Hashtbl.replace installed v blind
      in
      Array.iter (put (fun s ~version ws -> Store.install s ~version ws)) ordered;
      for i = in_order to n - 1 do
        put (fun s ~version ws -> Store.install_at s ~version ws) versions.(i)
      done;
      for _ = 1 to Rng.int rng 5 do
        put (fun s ~version ws -> Store.install_at s ~version ws) (1 + Rng.int rng n)
      done;
      let newest_blind =
        Hashtbl.fold (fun v blind acc -> if blind then max v acc else acc) installed (-1)
      in
      List.for_all
        (fun after ->
          let expected = if newest_blind > after then Some newest_blind else None in
          Store.blind_write_after s key ~after = expected)
        (List.init (n + 3) (fun i -> i - 1)))

(* A reference store kept here, over a [Key.Tbl]: the same version-chain
   rules as [Store], written with list functions, so the id-indexed row
   table can be checked against a hash table of the same chains. *)
module Model_store = struct
  type cell = Blind of Value.t option | Delta of int

  type t = {
    rows : (int * cell) list Key.Tbl.t;
    mutable version : int;
    mutable pruned : int;
  }

  let create () = { rows = Key.Tbl.create 16; version = 0; pruned = 0 }
  let chain t key = Option.value ~default:[] (Key.Tbl.find_opt t.rows key)

  let cell_of_op = function
    | Writeset.Insert v | Writeset.Update v -> Blind (Some v)
    | Writeset.Delete -> Blind None
    | Writeset.Add d -> Delta d

  (* The value a chain suffix denotes: deltas summed onto the first image
     below them, a missing or non-integer base counting as zero. *)
  let value suffix =
    let rec fold sum saw = function
      | (_, Delta d) :: rest -> fold (sum + d) true rest
      | (_, Blind (Some (Value.Int n))) :: _ when saw -> Some (Value.int (sum + n))
      | (_, Blind _) :: _ when saw -> Some (Value.int sum)
      | (_, Blind v) :: _ -> v
      | [] -> if saw then Some (Value.int sum) else None
    in
    fold 0 false suffix

  let read t ~at key = value (List.filter (fun (v, _) -> v <= at) (chain t key))

  let install t ~version ws =
    Writeset.iter_entries ws (fun key op ->
        Key.Tbl.replace t.rows key ((version, cell_of_op op) :: chain t key));
    t.version <- version

  let install_at t ~version ws =
    Writeset.iter_entries ws (fun key op ->
        let c = chain t key in
        if not (List.exists (fun (v, _) -> v = version) c) then
          Key.Tbl.replace t.rows key
            (List.stable_sort
               (fun (a, _) (b, _) -> compare b a)
               ((version, cell_of_op op) :: c)))

  let gc_key t ~keep_after key =
    match Key.Tbl.find_opt t.rows key with
    | None -> ()
    | Some c -> (
        let above, suffix = List.partition (fun (v, _) -> v > keep_after) c in
        match (above, suffix) with
        | _, [] -> ()
        | [], _ when value suffix = None ->
            t.pruned <- t.pruned + List.length suffix;
            Key.Tbl.remove t.rows key
        | _, [ (_, Blind _) ] -> ()
        | _, (v, _) :: below ->
            t.pruned <- t.pruned + List.length below;
            Key.Tbl.replace t.rows key (above @ [ (v, Blind (value suffix)) ]))

  let gc t ~keep_after =
    List.iter (gc_key t ~keep_after) (Key.Tbl.fold (fun key _ acc -> key :: acc) t.rows [])

  let copy t =
    let fresh = { (create ()) with version = t.version } in
    Key.Tbl.iter
      (fun key c ->
        match c with
        | (v, _) :: _ -> Key.Tbl.replace fresh.rows key [ (v, Blind (value c)) ]
        | [] -> ())
      t.rows;
    fresh

  let tombstones t =
    Key.Tbl.fold
      (fun key c acc -> match c with (v, Blind None) :: _ -> (key, v) :: acc | _ -> acc)
      t.rows []

  let pp_chain t key =
    match Key.Tbl.find_opt t.rows key with
    | None -> "<no chain>"
    | Some c ->
        String.concat ""
          (List.map
             (fun (v, cell) ->
               match cell with
               | Blind (Some value) -> Format.asprintf "(%d,B%a)" v Value.pp value
               | Blind None -> Format.asprintf "(%d,Bdel)" v
               | Delta d -> Format.asprintf "(%d,D%+d)" v d)
             c)
end

(* Random install / install_at / gc / gc_key / copy sequences over a few
   keys: after every step the id-indexed store and the reference agree on
   every chain, every snapshot read, the row and record counts, the pruned
   count and the tombstones. *)
let prop_store_matches_tbl_model =
  QCheck.Test.make ~name:"Store agrees with a Key.Tbl reference model" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let rng = Rng.create seed in
      let keys = Array.init 6 (fun i -> k (if i < 3 then "m" else "n") (string_of_int i)) in
      let s = ref (Store.create ()) and m = ref (Model_store.create ()) in
      Array.iter
        (fun key ->
          if Rng.bool rng then begin
            Store.preload !s key (vi 5);
            Key.Tbl.replace !m.rows key [ (0, Model_store.Blind (Some (vi 5))) ]
          end)
        keys;
      let random_ws () =
        let op () =
          match Rng.int rng 4 with
          | 0 -> Writeset.Insert (vi (Rng.int rng 100))
          | 1 -> upd (Rng.int rng 100)
          | 2 -> Writeset.Delete
          | _ -> Writeset.Add (1 + Rng.int rng 9)
        in
        Writeset.of_list
          (List.init (1 + Rng.int rng 4) (fun _ -> (keys.(Rng.int rng 6), op ())))
      in
      let agree () =
        let top = Store.newest_version !s + 4 in
        Store.current_version !s = !m.version
        && Store.row_count !s = Key.Tbl.length !m.rows
        && Store.version_records !s
           = Key.Tbl.fold (fun _ c acc -> acc + List.length c) !m.rows 0
        && Store.pruned !s = !m.pruned
        && List.sort compare (Store.tombstones !s) = List.sort compare (Model_store.tombstones !m)
        && Array.for_all
             (fun key ->
               Format.asprintf "%a" (fun fmt () -> Store.pp_chain fmt !s key) ()
               = Model_store.pp_chain !m key
               && List.for_all
                    (fun at ->
                      Option.equal Value.equal (Store.read !s ~at key)
                        (Model_store.read !m ~at key))
                    (List.init (top + 1) Fun.id))
             keys
      in
      let step () =
        let v = Store.current_version !s in
        match Rng.int rng 6 with
        | 0 | 1 ->
            (* Above every chain, as a commit in version order installs. *)
            let version = Store.newest_version !s + 1 + Rng.int rng 3 and ws = random_ws () in
            Store.install !s ~version ws;
            Model_store.install !m ~version ws
        | 2 ->
            let version = 1 + Rng.int rng (v + 4) and ws = random_ws () in
            Store.install_at !s ~version ws;
            Model_store.install_at !m ~version ws
        | 3 ->
            let keep_after = Rng.int rng (v + 1) in
            Store.gc !s ~keep_after;
            Model_store.gc !m ~keep_after
        | 4 ->
            let keep_after = Rng.int rng (v + 1) and key = keys.(Rng.int rng 6) in
            Store.gc_key !s ~keep_after key;
            Model_store.gc_key !m ~keep_after key
        | _ ->
            s := Store.copy !s;
            m := Model_store.copy !m
      in
      let rec go n = n = 0 || (step (); agree () && go (n - 1)) in
      go (1 + Rng.int rng 30))

(* The first-updater check of a delta write must cost the transaction's
   concurrency window, not the key's history: on a 10 000-delta hot chain, a
   recent snapshot stops after a handful of entries. *)
let test_store_blind_write_after_stops_at_snapshot () =
  let key = k "t" "hot" in
  let build n =
    let s = Store.create () in
    Store.preload s key (vi 0);
    for v = 1 to n do
      Store.install s ~version:v (Writeset.singleton key (Writeset.Add 1))
    done;
    s
  in
  let long = build 10_000 and short = build 10 in
  let alloc f =
    let before = Gc.minor_words () in
    ignore (Sys.opaque_identity (f ()));
    Gc.minor_words () -. before
  in
  let recent s = Store.blind_write_after s key ~after:(Store.current_version s - 5) in
  Alcotest.(check (option int)) "no blind write in the window" None (recent long);
  Alcotest.(check (float 0.)) "allocation independent of chain length"
    (alloc (fun () -> recent short))
    (alloc (fun () -> recent long));
  (* CPU time per call, best of three: a recent snapshot must be far cheaper
     than a walk of the whole chain (the two differ ~1000x in entries). *)
  let per_call n f =
    let best = ref infinity in
    for _ = 1 to 3 do
      let t0 = Sys.time () in
      for _ = 1 to n do
        ignore (Sys.opaque_identity (f ()))
      done;
      best := Float.min !best ((Sys.time () -. t0) /. float_of_int n)
    done;
    !best
  in
  let window = per_call 100_000 (fun () -> recent long) in
  let whole = per_call 500 (fun () -> Store.blind_write_after long key ~after:(-1)) in
  Alcotest.(check (option int)) "the full walk reaches the preload" (Some 0)
    (Store.blind_write_after long key ~after:(-1));
  check_bool
    (Printf.sprintf "window walk (%.0f ns) < whole-chain walk (%.0f ns) / 10"
       (window *. 1e9) (whole *. 1e9))
    true
    (window *. 10. < whole)

(* A re-apply at a version the chain already holds — at its head, in the
   middle, or at its bottom — changes nothing, down to the blocks. *)
let test_store_install_at_idempotent () =
  let s = Store.create () in
  let key = k "t" "a" in
  Store.preload s key (vi 0);
  List.iter
    (fun (v, op) -> Store.install_at s ~version:v (Writeset.singleton key op))
    [ (2, upd 2); (4, Writeset.Add 4); (6, Writeset.Delete) ];
  let before = Store.chain s key in
  List.iter
    (fun v ->
      Store.install_at s ~version:v (Writeset.singleton key (upd 99));
      check_bool (Printf.sprintf "re-apply at %d keeps the chain" v) true
        (Store.chain s key == before))
    [ 6; 4; 2; 0 ];
  Alcotest.(check string)
    "chain unchanged" "(6,Bdel)(4,D+4)(2,B2)(0,B0)"
    (Format.asprintf "%a" (fun fmt () -> Store.pp_chain fmt s key) ())

let test_store_delta_out_of_order_install () =
  (* Parallel apply slots deltas into the chains in worker-finish order; the
     symbolic representation makes the chain — and every snapshot read —
     identical whichever order they land in. *)
  let build order =
    let s = Store.create () in
    Store.install s ~version:3 (Writeset.singleton (k "t" "a") (upd 10));
    List.iter
      (fun (v, d) ->
        Store.install_at s ~version:v (Writeset.singleton (k "t" "a") (Writeset.Add d)))
      order;
    Store.force_version s 5;
    s
  in
  let check_reads name s =
    Alcotest.check value_opt (name ^ ": at 3") (Some (vi 10)) (Store.read s ~at:3 (k "t" "a"));
    Alcotest.check value_opt (name ^ ": at 4") (Some (vi 12)) (Store.read s ~at:4 (k "t" "a"));
    Alcotest.check value_opt (name ^ ": at 5") (Some (vi 15)) (Store.read s ~at:5 (k "t" "a"))
  in
  check_reads "in order" (build [ (4, 2); (5, 3) ]);
  check_reads "out of order" (build [ (5, 3); (4, 2) ])

let test_store_gc_materializes_delta_base () =
  let s = Store.create () in
  Store.install s ~version:1 (Writeset.singleton (k "t" "a") (upd 100));
  for v = 2 to 6 do
    Store.install s ~version:v (Writeset.singleton (k "t" "a") (Writeset.Add 1))
  done;
  Store.gc s ~keep_after:4;
  check_int "pruned to recent + anchor" 3 (Store.version_records s);
  (* the boundary entry was materialized so the surviving deltas keep a base *)
  Alcotest.check value_opt "anchor folds the dropped run" (Some (vi 103))
    (Store.read s ~at:4 (k "t" "a"));
  Alcotest.check value_opt "at 5" (Some (vi 104)) (Store.read s ~at:5 (k "t" "a"));
  Alcotest.check value_opt "at 6" (Some (vi 105)) (Store.read s ~at:6 (k "t" "a"))

let test_store_copy_materializes_deltas () =
  let s = Store.create () in
  Store.install s ~version:1 (Writeset.singleton (k "t" "a") (upd 100));
  Store.install s ~version:2 (Writeset.singleton (k "t" "a") (Writeset.Add 5));
  let c = Store.copy s in
  check_int "flattened" 1 (Store.version_records c);
  Alcotest.check value_opt "copy folded the delta" (Some (vi 105))
    (Store.read_latest c (k "t" "a"));
  Store.install s ~version:3 (Writeset.singleton (k "t" "a") (Writeset.Add 1));
  Alcotest.check value_opt "copy isolated" (Some (vi 105)) (Store.read_latest c (k "t" "a"))

let test_store_gc_preserves_tombstones () =
  (* Regression: the boundary entry gc materialises must keep a delete a
     delete. A value folded over a tombstone would resurrect the row. *)
  let s = Store.create () in
  Store.install s ~version:1 (Writeset.singleton (k "t" "a") (upd 1));
  Store.install s ~version:2 (Writeset.singleton (k "t" "a") Writeset.Delete);
  Store.install s ~version:3 (Writeset.singleton (k "t" "a") (Writeset.Add 4));
  Store.gc s ~keep_after:2;
  Alcotest.check value_opt "deleted at the floor" None (Store.read s ~at:2 (k "t" "a"));
  Alcotest.check value_opt "delta folds from the deletion" (Some (vi 4))
    (Store.read s ~at:3 (k "t" "a"));
  Alcotest.check value_opt "latest agrees" (Some (vi 4))
    (Store.read_latest s (k "t" "a"));
  (* A row whose entire surviving history is a below-floor tombstone is
     dropped outright — it must read as absent, not as a stale value. *)
  Store.install s ~version:4 (Writeset.singleton (k "t" "b") (upd 9));
  Store.install s ~version:5 (Writeset.singleton (k "t" "b") Writeset.Delete);
  let rows_before = Store.row_count s in
  Store.gc s ~keep_after:5;
  check_int "tombstoned row removed" (rows_before - 1) (Store.row_count s);
  Alcotest.check value_opt "removed row reads as absent" None
    (Store.read_latest s (k "t" "b"))

let test_store_copy_preserves_tombstones () =
  (* Same regression through the dump path: a copy flattens each chain to
     one version, and the flatten must not turn delete-then-delta history
     into a live pre-delete value. *)
  let s = Store.create () in
  Store.install s ~version:1 (Writeset.singleton (k "t" "a") (upd 50));
  Store.install s ~version:2 (Writeset.singleton (k "t" "a") Writeset.Delete);
  Store.install s ~version:3 (Writeset.singleton (k "t" "b") (upd 7));
  let c = Store.copy s in
  Alcotest.check value_opt "deleted row stays deleted in the copy" None
    (Store.read_latest c (k "t" "a"));
  Alcotest.check value_opt "live row copied" (Some (vi 7))
    (Store.read_latest c (k "t" "b"));
  (* delete-then-delta: the delta must fold from the deletion (zero base),
     not from the pre-delete image *)
  Store.install s ~version:4 (Writeset.singleton (k "t" "a") (Writeset.Add 4));
  let c2 = Store.copy s in
  Alcotest.check value_opt "delta over tombstone folds from zero"
    (Some (vi 4))
    (Store.read_latest c2 (k "t" "a"))

(* ------------------------------------------------------------------ *)
(* Locks *)

(* One holder per txid, made on first use, so a test speaks in txids. *)
let holders () =
  let made = Hashtbl.create 8 in
  fun txid ->
    match Hashtbl.find_opt made txid with
    | Some h -> h
    | None ->
        let h = Locks.register txid in
        Hashtbl.replace made txid h;
        h

let test_locks_grant_and_reentry () =
  let l = Locks.create () and h = holders () in
  (match Locks.acquire l (h 1) (k "t" "a") with
  | Locks.Granted -> ()
  | _ -> Alcotest.fail "fresh lock should be granted");
  (match Locks.acquire l (h 1) (k "t" "a") with
  | Locks.Granted -> ()
  | _ -> Alcotest.fail "re-entrant acquire");
  check_bool "holder" true (Locks.holder l (k "t" "a") = Some 1)

let test_locks_block_and_handoff () =
  let l = Locks.create () and h = holders () in
  ignore (Locks.acquire l (h 1) (k "t" "a"));
  (match Locks.acquire l (h 2) (k "t" "a") with
  | Locks.Would_block h -> check_int "holder is 1" 1 h
  | _ -> Alcotest.fail "expected Would_block");
  Locks.enqueue l (h 2) (k "t" "a");
  (match Locks.acquire l (h 3) (k "t" "a") with
  | Locks.Would_block _ -> ()
  | _ -> Alcotest.fail "expected Would_block");
  Locks.enqueue l (h 3) (k "t" "a");
  let grants = Locks.release_all l (h 1) in
  (match grants with
  | [ (key, 2) ] -> check_bool "handed to first waiter" true (Key.equal key (k "t" "a"))
  | _ -> Alcotest.fail "expected handoff to tx 2");
  check_bool "new holder" true (Locks.holder l (k "t" "a") = Some 2)

let test_locks_deadlock_detection () =
  let l = Locks.create () and h = holders () in
  ignore (Locks.acquire l (h 1) (k "t" "a"));
  ignore (Locks.acquire l (h 2) (k "t" "b"));
  (match Locks.acquire l (h 2) (k "t" "a") with
  | Locks.Would_block 1 -> Locks.enqueue l (h 2) (k "t" "a")
  | _ -> Alcotest.fail "expected block on 1");
  (* 1 -> b (held by 2), 2 -> a (held by 1): cycle *)
  match Locks.acquire l (h 1) (k "t" "b") with
  | Locks.Deadlock cycle ->
      check_bool "cycle mentions both" true (List.mem 1 cycle && List.mem 2 cycle)
  | _ -> Alcotest.fail "expected deadlock"

let test_locks_no_false_deadlock () =
  let l = Locks.create () and h = holders () in
  ignore (Locks.acquire l (h 1) (k "t" "a"));
  ignore (Locks.acquire l (h 2) (k "t" "b"));
  (match Locks.acquire l (h 2) (k "t" "a") with
  | Locks.Would_block _ -> Locks.enqueue l (h 2) (k "t" "a")
  | _ -> Alcotest.fail "expected block");
  (* 3 waits on a chain, no cycle *)
  match Locks.acquire l (h 3) (k "t" "b") with
  | Locks.Would_block 2 -> ()
  | _ -> Alcotest.fail "expected plain block"

let test_locks_cancel_wait () =
  let l = Locks.create () and h = holders () in
  ignore (Locks.acquire l (h 1) (k "t" "a"));
  (match Locks.acquire l (h 2) (k "t" "a") with
  | Locks.Would_block _ -> Locks.enqueue l (h 2) (k "t" "a")
  | _ -> Alcotest.fail "expected block");
  Locks.cancel_wait l (h 2) (k "t" "a");
  let grants = Locks.release_all l (h 1) in
  check_bool "no grant to cancelled waiter" true (grants = []);
  check_bool "lock free" true (Locks.holder l (k "t" "a") = None)

let test_locks_release_frees () =
  let l = Locks.create () and h = holders () in
  ignore (Locks.acquire l (h 1) (k "t" "a"));
  ignore (Locks.acquire l (h 1) (k "t" "b"));
  Alcotest.(check int) "held count" 2 (List.length (Locks.held_by (h 1)));
  ignore (Locks.release_all l (h 1));
  check_int "no locks" 0 (Locks.lock_count l);
  match Locks.acquire l (h 2) (k "t" "a") with
  | Locks.Granted -> ()
  | _ -> Alcotest.fail "freed lock should grant"

(* Locks are released in [Key.compare] order whatever order they were
   taken in, so the grants (returned newest first) come back descending. *)
let test_locks_release_in_key_order () =
  let l = Locks.create () and h = holders () in
  let kc = k "t" "c" and ka = k "t" "a" and kb = k "t" "b" in
  List.iter (fun key -> ignore (Locks.acquire l (h 1) key)) [ kc; ka; kb ];
  List.iter
    (fun (waiter, key) ->
      match Locks.acquire l (h waiter) key with
      | Locks.Would_block 1 -> Locks.enqueue l (h waiter) key
      | _ -> Alcotest.fail "expected block on 1")
    [ (2, kc); (3, ka); (4, kb) ];
  Alcotest.(check (list string))
    "held_by sorted" [ "t/a"; "t/b"; "t/c" ]
    (List.map Key.to_string (Locks.held_by (h 1)));
  let grants = Locks.release_all l (h 1) in
  Alcotest.(check (list (pair string int)))
    "granted in key order" [ ("t/a", 3); ("t/b", 4); ("t/c", 2) ]
    (List.rev_map (fun (key, tx) -> (Key.to_string key, tx)) grants);
  List.iter
    (fun (key, tx) -> check_bool "new holder" true (Locks.holder l key = Some tx))
    [ (ka, 3); (kb, 4); (kc, 2) ]

(* The lock table as it was before holders: per-table hash tables of
   granted keys and wait-for edges by txid, and a release that sorts the
   granted keys with [List.sort_uniq] and hands them on in that order.
   It is the reference for the model test below. *)
module Sorted_locks = struct
  type lock = { mutable owner : int; mutable queue : int list }

  let free = { owner = -1; queue = [] }

  type t = {
    locks : lock Key.Dense.t;
    held : (int, Key.t list) Hashtbl.t;
    waits : (int, Key.t) Hashtbl.t;
  }

  let create () =
    { locks = Key.Dense.create ~absent:free; held = Hashtbl.create 64; waits = Hashtbl.create 16 }

  let holder t key =
    let l = Key.Dense.find t.locks key in
    if l == free then None else Some l.owner

  let note_held t txid key =
    let keys = Option.value ~default:[] (Hashtbl.find_opt t.held txid) in
    Hashtbl.replace t.held txid (key :: keys)

  let held_by t txid =
    List.sort_uniq Key.compare (Option.value ~default:[] (Hashtbl.find_opt t.held txid))

  let waiting_for t txid =
    match Hashtbl.find_opt t.waits txid with None -> None | Some key -> holder t key

  let find_cycle t ~me ~start =
    let rec walk tx acc steps =
      if steps > 10_000 then None
      else if tx = me then Some (List.rev acc)
      else
        match waiting_for t tx with
        | None -> None
        | Some next -> walk next (next :: acc) (steps + 1)
    in
    walk start [ start ] 0

  let acquire t txid key =
    let lock = Key.Dense.find t.locks key in
    if lock == free then begin
      Key.Dense.replace t.locks key { owner = txid; queue = [] };
      note_held t txid key;
      Locks.Granted
    end
    else if lock.owner = txid then Locks.Granted
    else
      match find_cycle t ~me:txid ~start:lock.owner with
      | Some cycle -> Locks.Deadlock (txid :: cycle)
      | None -> Locks.Would_block lock.owner

  let enqueue t txid key =
    let lock = Key.Dense.find t.locks key in
    if lock == free then invalid_arg "Locks.enqueue: lock not held by anyone";
    lock.queue <- lock.queue @ [ txid ];
    Hashtbl.replace t.waits txid key

  let cancel_wait t txid key =
    Hashtbl.remove t.waits txid;
    let lock = Key.Dense.find t.locks key in
    if lock != free then lock.queue <- List.filter (fun w -> w <> txid) lock.queue

  let release_all t txid =
    let keys = held_by t txid in
    Hashtbl.remove t.held txid;
    List.fold_left
      (fun grants key ->
        let lock = Key.Dense.find t.locks key in
        if lock == free || lock.owner <> txid then grants
        else
          match lock.queue with
          | [] ->
              Key.Dense.remove t.locks key;
              grants
          | next :: rest ->
              lock.owner <- next;
              lock.queue <- rest;
              Hashtbl.remove t.waits next;
              note_held t next key;
              (key, next) :: grants)
      [] keys

  let lock_count t = Key.Dense.length t.locks
end

type lock_op =
  | L_acquire of int * int
  | L_enqueue of int * int
  | L_cancel of int * int
  | L_release of int

(* Random programs of acquires, enqueues, cancels and releases over four
   txids and five keys, run on {!Locks} and on {!Sorted_locks}. Every
   result must agree: each [acquire] (each [Deadlock] cycle included),
   each grant list in order, an [enqueue] on a free lock raising in both,
   and after every step the holder of each key, the lock count and each
   txid's [held_by]. Any program is allowed, including ones the database
   never runs (a txid queueing on a lock it holds, or twice). *)
let prop_locks_match_sorted_reference =
  let keys = Array.init 5 (fun i -> k "lm" (String.make 1 (Char.chr (Char.code 'a' + i)))) in
  let op =
    QCheck.Gen.(
      let tx = int_range 1 4 and key = int_range 0 4 in
      frequency
        [
          (8, map2 (fun t k -> L_acquire (t, k)) tx key);
          (6, map2 (fun t k -> L_enqueue (t, k)) tx key);
          (2, map2 (fun t k -> L_cancel (t, k)) tx key);
          (3, map (fun t -> L_release t) tx);
        ])
  in
  let print = function
    | L_acquire (t, k) -> Printf.sprintf "acquire %d %d" t k
    | L_enqueue (t, k) -> Printf.sprintf "enqueue %d %d" t k
    | L_cancel (t, k) -> Printf.sprintf "cancel %d %d" t k
    | L_release t -> Printf.sprintf "release %d" t
  in
  let attempt f = match f () with v -> Ok v | exception Invalid_argument _ -> Error () in
  QCheck.Test.make ~name:"locks agree with the sort-based reference" ~count:500
    QCheck.(
      make
        ~print:(fun ops -> String.concat ", " (List.map print ops))
        Gen.(list_size (int_range 1 60) op))
    (fun ops ->
      let l = Locks.create () and r = Sorted_locks.create () in
      let h = Array.init 5 Locks.register in
      List.for_all
        (fun op ->
          let same =
            match op with
            | L_acquire (t, i) ->
                Locks.acquire l h.(t) keys.(i) = Sorted_locks.acquire r t keys.(i)
            | L_enqueue (t, i) ->
                attempt (fun () -> Locks.enqueue l h.(t) keys.(i))
                = attempt (fun () -> Sorted_locks.enqueue r t keys.(i))
            | L_cancel (t, i) ->
                Locks.cancel_wait l h.(t) keys.(i);
                Sorted_locks.cancel_wait r t keys.(i);
                true
            | L_release t -> Locks.release_all l h.(t) = Sorted_locks.release_all r t
          in
          same
          && Array.for_all (fun key -> Locks.holder l key = Sorted_locks.holder r key) keys
          && Locks.lock_count l = Sorted_locks.lock_count r
          && List.for_all
               (fun t -> Locks.held_by h.(t) = Sorted_locks.held_by r t)
               [ 1; 2; 3; 4 ])
        ops)

(* Words allocated per steady-state transaction: register, acquire four
   free keys, release them with no waiter. A grant is a lock record and
   one list cell: 28 words a transaction here, 96 with the per-table
   hash tables and the sorted release. *)
let test_locks_cycle_alloc () =
  let l = Locks.create () in
  let keys = Array.init 4 (fun i -> k "la" (string_of_int i)) in
  let cycle txid =
    let h = Locks.register txid in
    for i = 0 to Array.length keys - 1 do
      ignore (Sys.opaque_identity (Locks.acquire l h keys.(i)))
    done;
    ignore (Sys.opaque_identity (Locks.release_all l h))
  in
  for txid = 1 to 1_000 do
    cycle txid
  done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for txid = 1_001 to 1_000 + n do
    cycle txid
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check_int "all free" 0 (Locks.lock_count l);
  if words > 32. then Alcotest.failf "%.1f words per transaction (bound 32)" words

(* ------------------------------------------------------------------ *)
(* Commit order *)

let test_commit_order_sequencing () =
  let e = Engine.create () in
  let co = Commit_order.create e () in
  check_int "alloc 1" 1 (Commit_order.next_seq co);
  check_int "alloc 2" 2 (Commit_order.next_seq co);
  let log = ref [] in
  let committer seq delay =
    ignore
      (Engine.spawn e (fun () ->
           Engine.sleep e (Time.us delay);
           Commit_order.wait_turn co seq;
           Commit_order.complete co seq;
           log := seq :: !log))
  in
  (* seq 2 is ready long before seq 1; announcement must still be 1, 2 *)
  committer 2 10;
  committer 1 500;
  Engine.run e;
  Alcotest.(check (list int)) "announce order" [ 1; 2 ] (List.rev !log);
  check_int "announced" 2 (Commit_order.announced co)

let test_commit_order_abuse_blocks () =
  (* COMMIT 9 without COMMIT 1..8: blocks forever (paper 5.2). *)
  let e = Engine.create () in
  let co = Commit_order.create e () in
  let reached = ref false in
  let _ =
    Engine.spawn e (fun () ->
        Commit_order.wait_turn co 9;
        reached := true)
  in
  Engine.run ~until:(Time.sec 10) e;
  check_bool "still blocked" false !reached;
  check_int "waiting" 1 (Commit_order.waiting co)

let test_commit_order_complete_out_of_order () =
  let e = Engine.create () in
  let co = Commit_order.create e () in
  for _ = 1 to 3 do
    ignore (Commit_order.next_seq co)
  done;
  (* 3 and 2 finish first; the announced prefix stays closed at 0. *)
  Commit_order.complete co 3;
  Commit_order.complete co 2;
  check_int "prefix held back" 0 (Commit_order.announced co);
  (* 1 closes the run: the prefix advances through 1, 2 and 3 at once. *)
  Commit_order.complete co 1;
  check_int "contiguous run published" 3 (Commit_order.announced co);
  (* duplicate completions of an already-published number are ignored *)
  Commit_order.complete co 2;
  check_int "duplicate ignored" 3 (Commit_order.announced co)

let test_commit_order_complete_releases_waiters () =
  let e = Engine.create () in
  let co = Commit_order.create e () in
  let reached = ref false in
  ignore
    (Engine.spawn e (fun () ->
         Commit_order.wait_turn co 3;
         reached := true));
  Commit_order.complete co 2;
  Engine.run e;
  check_bool "blocked while 1 is outstanding" false !reached;
  Commit_order.complete co 1;
  Engine.run e;
  check_bool "released once the prefix reaches 2" true !reached

(* ------------------------------------------------------------------ *)
(* Db *)

let fixed_disk e =
  Storage.Disk.create e ~rng:(Rng.create 5)
    ~config:
      {
        Storage.Disk.fsync_lo = Time.of_ms 8.;
        fsync_hi = Time.of_ms 8.;
        position_lo = Time.of_ms 5.;
        position_hi = Time.of_ms 5.;
        bandwidth_bytes_per_sec = 1e9;
      }
    ()

let make_db ?(config = Db.default_config) ?(seed = 1) () =
  let e = Engine.create () in
  let disk = fixed_disk e in
  let db = Db.create e ~rng:(Rng.create seed) ~log_disk:disk ~config () in
  (e, db, disk)

(* One certified writeset through the in-order ([COMMIT n]) or the
   publish-barrier finish, chained after the version below it. *)
let apply_in_order db ~version ~order ws =
  Db.apply_certified db ~batch:[ (version, ws) ] ~prev:(version - 1) ~order ~in_order:true

let apply_parallel db ~version ~order ws =
  Db.apply_certified db ~batch:[ (version, ws) ] ~prev:(version - 1) ~order ~in_order:false

let in_fiber e f =
  let failure = ref None in
  let _ =
    Engine.spawn e (fun () ->
        try f () with exn -> failure := Some exn)
  in
  Engine.run e;
  match !failure with Some exn -> raise exn | None -> ()

let test_db_read_your_writes () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 1) ];
  in_fiber e (fun () ->
      let tx = Db.begin_tx db in
      Alcotest.check value_opt "initial" (Some (vi 1)) (Db.read tx (k "t" "a"));
      (match Db.write tx (k "t" "a") (upd 42) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write should succeed");
      Alcotest.check value_opt "own write visible" (Some (vi 42)) (Db.read tx (k "t" "a"));
      Alcotest.check value_opt "not committed yet" (Some (vi 1))
        (Db.read_committed db (k "t" "a"));
      match Db.commit_standalone tx with
      | Ok v ->
          check_int "first version" 1 v;
          Alcotest.check value_opt "committed" (Some (vi 42))
            (Db.read_committed db (k "t" "a"))
      | Error _ -> Alcotest.fail "commit should succeed")

let test_db_snapshot_isolation () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 1) ];
  in_fiber e (fun () ->
      let t1 = Db.begin_tx db in
      let t2 = Db.begin_tx db in
      (match Db.write t1 (k "t" "a") (upd 10) with Ok () -> () | Error _ -> Alcotest.fail "w");
      (match Db.commit_standalone t1 with Ok _ -> () | Error _ -> Alcotest.fail "c");
      (* t2's snapshot predates t1's commit *)
      Alcotest.check value_opt "t2 sees old value" (Some (vi 1)) (Db.read t2 (k "t" "a"));
      let t3 = Db.begin_tx db in
      Alcotest.check value_opt "t3 sees new value" (Some (vi 10)) (Db.read t3 (k "t" "a"));
      Db.commit_readonly t2;
      Db.commit_readonly t3)

let test_db_first_updater_wins_committed () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  in_fiber e (fun () ->
      let t1 = Db.begin_tx db in
      let t2 = Db.begin_tx db in
      (match Db.write t1 (k "t" "a") (upd 1) with Ok () -> () | Error _ -> Alcotest.fail "w1");
      (match Db.commit_standalone t1 with Ok _ -> () | Error _ -> Alcotest.fail "c1");
      match Db.write t2 (k "t" "a") (upd 2) with
      | Error (Db.Ww_conflict key) ->
          check_bool "conflict on a" true (Key.equal key (k "t" "a"));
          check_int "t2 aborted" 1 (Db.aborts db)
      | _ -> Alcotest.fail "expected first-updater-wins abort")

let test_db_blocked_writer_aborts_after_holder_commits () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  let t2_result = ref (Ok ()) in
  let _ =
    Engine.spawn e (fun () ->
        let t1 = Db.begin_tx db in
        ignore (Db.write t1 (k "t" "a") (upd 1));
        Engine.sleep e (Time.of_ms 50.);
        ignore (Db.commit_standalone t1))
  in
  let _ =
    Engine.spawn e (fun () ->
        Engine.sleep e (Time.of_ms 1.);
        let t2 = Db.begin_tx db in
        t2_result := Db.write t2 (k "t" "a") (upd 2))
  in
  Engine.run e;
  match !t2_result with
  | Error (Db.Ww_conflict _) -> ()
  | _ -> Alcotest.fail "blocked writer must abort once holder commits"

let test_db_blocked_writer_proceeds_after_holder_aborts () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  let outcome = ref None in
  let _ =
    Engine.spawn e (fun () ->
        let t1 = Db.begin_tx db in
        ignore (Db.write t1 (k "t" "a") (upd 1));
        Engine.sleep e (Time.of_ms 50.);
        Db.abort t1)
  in
  let _ =
    Engine.spawn e (fun () ->
        Engine.sleep e (Time.of_ms 1.);
        let t2 = Db.begin_tx db in
        let r = Db.write t2 (k "t" "a") (upd 2) in
        outcome := Some (r, Db.commit_standalone t2))
  in
  Engine.run e;
  match !outcome with
  | Some (Ok (), Ok _) ->
      Alcotest.check value_opt "t2's write committed" (Some (vi 2))
        (Db.read_committed db (k "t" "a"))
  | _ -> Alcotest.fail "waiter should proceed after holder aborts"

let test_db_deadlock_victim () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0); (k "t" "b", vi 0) ];
  let t1_ok = ref false and t2_err = ref None in
  let _ =
    Engine.spawn e (fun () ->
        let t1 = Db.begin_tx db in
        ignore (Db.write t1 (k "t" "a") (upd 1));
        Engine.sleep e (Time.of_ms 10.);
        (* t1 waits for b (held by t2) *)
        match Db.write t1 (k "t" "b") (upd 1) with
        | Ok () ->
            ignore (Db.commit_standalone t1);
            t1_ok := true
        | Error _ -> ())
  in
  let _ =
    Engine.spawn e (fun () ->
        let t2 = Db.begin_tx db in
        ignore (Db.write t2 (k "t" "b") (upd 2));
        Engine.sleep e (Time.of_ms 20.);
        (* closes the cycle: t2 -> a (t1), t1 -> b (t2) *)
        match Db.write t2 (k "t" "a") (upd 2) with
        | Error (Db.Deadlock cycle) -> t2_err := Some cycle
        | _ -> ())
  in
  Engine.run e;
  (match !t2_err with
  | Some cycle -> check_bool "cycle found" true (List.length cycle >= 2)
  | None -> Alcotest.fail "expected deadlock victim");
  check_bool "survivor committed" true !t1_ok;
  check_int "one deadlock counted" 1 (Db.deadlocks_detected db)

let test_db_write_skew_allowed () =
  (* SI is not serializable: disjoint writes based on overlapping reads
     both commit. *)
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "x", vi 1); (k "t" "y", vi 1) ];
  in_fiber e (fun () ->
      let t1 = Db.begin_tx db in
      let t2 = Db.begin_tx db in
      let x1 = Value.as_int (Option.get (Db.read t1 (k "t" "x"))) in
      let y2 = Value.as_int (Option.get (Db.read t2 (k "t" "y"))) in
      ignore (Db.write t1 (k "t" "y") (upd (-x1)));
      ignore (Db.write t2 (k "t" "x") (upd (-y2)));
      (match Db.commit_standalone t1 with Ok _ -> () | Error _ -> Alcotest.fail "t1");
      (match Db.commit_standalone t2 with Ok _ -> () | Error _ -> Alcotest.fail "t2");
      Alcotest.check value_opt "x" (Some (vi (-1))) (Db.read_committed db (k "t" "x"));
      Alcotest.check value_opt "y" (Some (vi (-1))) (Db.read_committed db (k "t" "y")))

let test_db_group_commit_fsyncs () =
  (* Ten standalone committers at the same instant share fsyncs. *)
  let e, db, disk = make_db () in
  Db.load db (List.init 10 (fun i -> (k "t" (string_of_int i), vi 0)));
  for i = 0 to 9 do
    ignore
      (Engine.spawn e (fun () ->
           let tx = Db.begin_tx db in
           ignore (Db.write tx (k "t" (string_of_int i)) (upd 1));
           ignore (Db.commit_standalone tx)))
  done;
  Engine.run e;
  check_int "ten commits" 10 (Db.commits db);
  check_bool "far fewer fsyncs than commits" true (Storage.Disk.fsyncs disk <= 2);
  check_int "version advanced to 10" 10 (Db.current_version db)

let test_db_ordered_announce () =
  (* The Tashkent-API scenario from paper 3: four transactions submitted
     concurrently with a prescribed order commit in one fsync and are
     announced 3,4,8,9. *)
  let e, db, disk = make_db () in
  Db.load db [ (k "t" "a", vi 0); (k "t" "b", vi 0) ];
  let announced = ref [] in
  let submit version order ws =
    ignore
      (Engine.spawn e (fun () ->
           match apply_in_order db ~version ~order ws with
           | Ok () -> announced := (version, Time.to_us (Engine.now e)) :: !announced
           | Error _ -> Alcotest.fail "apply failed"))
  in
  (* Submitted out of global order, on disjoint keys (conflicting remote
     writesets must never be submitted concurrently — paper 5.2.1). *)
  submit 9 4 (Writeset.singleton (k "t" "d") (upd 9));
  submit 3 1 (Writeset.singleton (k "t" "a") (upd 3));
  submit 8 3 (Writeset.singleton (k "t" "c") (upd 8));
  submit 4 2 (Writeset.singleton (k "t" "b") (upd 4));
  Engine.run e;
  let versions = List.map fst (List.rev !announced) in
  Alcotest.(check (list int)) "announced in global order" [ 3; 4; 8; 9 ] versions;
  check_int "single grouped fsync" 1 (Storage.Disk.fsyncs disk);
  check_int "replica at version 9" 9 (Db.current_version db);
  Alcotest.check value_opt "final d" (Some (vi 9)) (Db.read_committed db (k "t" "d"))

let test_db_no_intermediate_snapshot_exposed () =
  (* While version 9's record is durable before version 4 announces, no
     snapshot may ever show T9 without T4. *)
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0); (k "t" "b", vi 0) ];
  let violations = ref 0 in
  let _ =
    Engine.spawn e (fun () ->
        for _ = 1 to 200 do
          let b = Db.read_committed db (k "t" "b") in
          let a = Db.read_committed db (k "t" "a") in
          (match (a, b) with
          | Some a, Some b when Value.as_int b = 9 && Value.as_int a <> 4 -> incr violations
          | _ -> ());
          Engine.sleep e (Time.us 100)
        done)
  in
  let submit version order ws =
    ignore (Engine.spawn e (fun () -> ignore (apply_in_order db ~version ~order ws)))
  in
  submit 9 2 (Writeset.singleton (k "t" "b") (upd 9));
  Engine.schedule e ~at:(Time.of_ms 5.) (fun () ->
      submit 4 1 (Writeset.singleton (k "t" "a") (upd 4)));
  Engine.run e;
  check_int "no inconsistent snapshot" 0 !violations

let test_db_remote_priority_preempts () =
  let config = { Db.default_config with remote_priority = true } in
  let e, db, _ = make_db ~config () in
  Db.load db [ (k "t" "a", vi 0) ];
  let local_result = ref None in
  let _ =
    Engine.spawn e (fun () ->
        let tx = Db.begin_tx db in
        ignore (Db.write tx (k "t" "a") (upd 1));
        Engine.sleep e (Time.of_ms 100.);
        local_result := Some (Db.commit_standalone tx))
  in
  let applied = ref false in
  let _ =
    Engine.spawn e (fun () ->
        Engine.sleep e (Time.of_ms 1.);
        let order = Db.next_order db in
        match apply_in_order db ~version:50 ~order (Writeset.singleton (k "t" "a") (upd 9)) with
        | Ok () -> applied := true
        | Error _ -> ())
  in
  Engine.run e;
  check_bool "remote writeset applied" true !applied;
  check_bool "remote did not wait for local think time" true
    Time.(Engine.now e < Time.of_ms 200.);
  (match !local_result with
  | Some (Error Db.Preempted) -> ()
  | _ -> Alcotest.fail "local holder should have been preempted");
  Alcotest.check value_opt "remote value stands" (Some (vi 9))
    (Db.read_committed db (k "t" "a"))

let test_db_remote_no_priority_waits () =
  (* Without priorities the remote writeset queues behind the local holder
     (paper 8.2 option (a)); when the holder aborts, the remote proceeds. *)
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  let _ =
    Engine.spawn e (fun () ->
        let tx = Db.begin_tx db in
        ignore (Db.write tx (k "t" "a") (upd 1));
        Engine.sleep e (Time.of_ms 50.);
        Db.abort tx)
  in
  let applied_at = ref Time.zero in
  let _ =
    Engine.spawn e (fun () ->
        Engine.sleep e (Time.of_ms 1.);
        let order = Db.next_order db in
        match apply_in_order db ~version:50 ~order (Writeset.singleton (k "t" "a") (upd 9)) with
        | Ok () -> applied_at := Engine.now e
        | Error _ -> Alcotest.fail "apply failed")
  in
  Engine.run e;
  check_bool "remote waited for local abort" true Time.(!applied_at >= Time.of_ms 50.)

let test_db_artificial_conflict_stalls_concurrent_submission () =
  (* Conflicting remote writesets submitted concurrently wedge the database
     (lock queue vs announce order) — the deadlock the paper warns the
     middleware must avoid by serialising them (5.2.1). *)
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  let finished = ref 0 in
  let submit version order =
    ignore
      (Engine.spawn e (fun () ->
           match
             apply_in_order db ~version ~order
               (Writeset.singleton (k "t" "a") (upd version))
           with
           | Ok () | Error _ -> incr finished))
  in
  (* order 2 grabs the lock first, then waits for order 1's announce, which
     is queued behind the lock. *)
  submit 9 2;
  Engine.schedule e ~at:(Time.of_ms 1.) (fun () -> submit 8 1);
  Engine.run ~until:(Time.sec 5) e;
  check_int "both stuck" 0 !finished

let test_db_doom_parked_transaction () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  let blocked_result = ref None in
  let _ =
    Engine.spawn e (fun () ->
        let t1 = Db.begin_tx db in
        ignore (Db.write t1 (k "t" "a") (upd 1));
        Engine.sleep e (Time.of_ms 100.);
        ignore (Db.commit_standalone t1))
  in
  let victim_id = ref 0 in
  let _ =
    Engine.spawn e (fun () ->
        Engine.sleep e (Time.of_ms 1.);
        let t2 = Db.begin_tx db in
        victim_id := Db.tx_id t2;
        blocked_result := Some (Db.write t2 (k "t" "a") (upd 2)))
  in
  Engine.schedule e ~at:(Time.of_ms 10.) (fun () -> Db.doom db !victim_id);
  Engine.run e;
  match !blocked_result with
  | Some (Error Db.Preempted) -> ()
  | _ -> Alcotest.fail "parked transaction should wake with Preempted"

let test_db_crash_recover_synchronous () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  in_fiber e (fun () ->
      let tx = Db.begin_tx db in
      ignore (Db.write tx (k "t" "a") (upd 11));
      ignore (Db.commit_standalone tx);
      let tx2 = Db.begin_tx db in
      ignore (Db.write tx2 (k "t" "b") (Writeset.Insert (vi 22)));
      ignore (Db.commit_standalone tx2));
  Db.crash db;
  let v = Db.recover db in
  check_int "recovered to version 2" 2 v;
  Alcotest.check value_opt "a recovered" (Some (vi 11)) (Db.read_committed db (k "t" "a"));
  Alcotest.check value_opt "b recovered" (Some (vi 22)) (Db.read_committed db (k "t" "b"))

let test_db_crash_asynchronous_loses_everything () =
  let config = { Db.default_config with durability = Db.Asynchronous } in
  let e, db, disk = make_db ~config () in
  Db.load db [ (k "t" "a", vi 0) ];
  in_fiber e (fun () ->
      let tx = Db.begin_tx db in
      ignore (Db.write tx (k "t" "a") (upd 1));
      ignore (Db.commit_standalone tx));
  check_int "commit did not fsync" 0 (Storage.Disk.fsyncs disk);
  Db.crash db;
  let v = Db.recover db in
  check_int "nothing recovered" 0 v;
  (* the initial population survives in the data files, the commit is lost *)
  Alcotest.check value_opt "committed update lost" (Some (vi 0))
    (Db.read_committed db (k "t" "a"))

let test_db_periodic_durability_prefix () =
  let config = { Db.default_config with durability = Db.Periodic (Time.of_ms 100.) } in
  let e, db, _ = make_db ~config () in
  Db.load db [ (k "t" "a", vi 0) ];
  (* one commit before the periodic sync, one after *)
  let _ =
    Engine.spawn e (fun () ->
        let tx = Db.begin_tx db in
        ignore (Db.write tx (k "t" "a") (upd 1));
        ignore (Db.commit_standalone tx);
        Engine.sleep e (Time.of_ms 150.);
        let tx2 = Db.begin_tx db in
        ignore (Db.write tx2 (k "t" "a") (upd 2));
        ignore (Db.commit_standalone tx2))
  in
  Engine.run ~until:(Time.of_ms 180.) e;
  Db.crash db;
  let v = Db.recover db in
  check_int "prefix recovered" 1 v;
  Alcotest.check value_opt "first commit survives" (Some (vi 1))
    (Db.read_committed db (k "t" "a"))

(* ------------------------------------------------------------------ *)
(* Commutative deltas at the database layer *)

let test_db_delta_read_your_writes () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 10) ];
  in_fiber e (fun () ->
      let tx = Db.begin_tx db in
      (match Db.write tx (k "t" "a") (Writeset.Add 5) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "delta write should succeed");
      Alcotest.check value_opt "own delta folds onto the snapshot" (Some (vi 15))
        (Db.read tx (k "t" "a"));
      (match Db.write tx (k "t" "a") (Writeset.Add 2) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "second delta should succeed");
      Alcotest.check value_opt "deltas accumulate" (Some (vi 17)) (Db.read tx (k "t" "a"));
      match Db.commit_standalone tx with
      | Ok _ ->
          Alcotest.check value_opt "committed" (Some (vi 17))
            (Db.read_committed db (k "t" "a"))
      | Error _ -> Alcotest.fail "commit should succeed")

let test_db_delta_first_updater_relaxed () =
  (* A committed delta does not abort a concurrent delta writer (they
     commute; this mirrors the certifier's fast path so local and global
     certification agree), but it still aborts a concurrent blind writer,
     and a committed blind write still aborts a concurrent delta. *)
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  in_fiber e (fun () ->
      let t1 = Db.begin_tx db in
      let t2 = Db.begin_tx db in
      let t3 = Db.begin_tx db in
      (match Db.write t1 (k "t" "a") (Writeset.Add 1) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "t1 write");
      (match Db.commit_standalone t1 with Ok _ -> () | Error _ -> Alcotest.fail "t1 commit");
      (match Db.write t2 (k "t" "a") (Writeset.Add 2) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "a delta must not conflict with a committed delta");
      (match Db.commit_standalone t2 with Ok _ -> () | Error _ -> Alcotest.fail "t2 commit");
      Alcotest.check value_opt "both deltas committed" (Some (vi 3))
        (Db.read_committed db (k "t" "a"));
      (match Db.write t3 (k "t" "a") (upd 99) with
      | Error (Db.Ww_conflict _) -> ()
      | _ -> Alcotest.fail "a blind write must still abort against committed deltas");
      let t4 = Db.begin_tx db in
      let t5 = Db.begin_tx db in
      (match Db.write t4 (k "t" "a") (upd 50) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "t4 write");
      (match Db.commit_standalone t4 with Ok _ -> () | Error _ -> Alcotest.fail "t4 commit");
      match Db.write t5 (k "t" "a") (Writeset.Add 1) with
      | Error (Db.Ww_conflict _) -> ()
      | _ -> Alcotest.fail "a delta must abort against a committed blind write")

let test_db_delta_crash_recover () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 10) ];
  in_fiber e (fun () ->
      let tx = Db.begin_tx db in
      ignore (Db.write tx (k "t" "a") (Writeset.Add 5));
      ignore (Db.commit_standalone tx);
      let tx2 = Db.begin_tx db in
      ignore (Db.write tx2 (k "t" "a") (Writeset.Add 7));
      ignore (Db.commit_standalone tx2));
  Db.crash db;
  check_int "recovered both delta commits" 2 (Db.recover db);
  Alcotest.check value_opt "deltas replayed onto the base" (Some (vi 22))
    (Db.read_committed db (k "t" "a"))

let test_db_delta_torn_tail_recovery () =
  (* The second delta's commit record is mid-fsync at the crash: the torn
     slot must be discarded by the recovery scan, and the surviving prefix
     must still fold its delta onto the base. *)
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 100) ];
  let _ =
    Engine.spawn e (fun () ->
        let tx = Db.begin_tx db in
        ignore (Db.write tx (k "t" "a") (Writeset.Add 5));
        ignore (Db.commit_standalone tx);
        let tx2 = Db.begin_tx db in
        ignore (Db.write tx2 (k "t" "a") (Writeset.Add 7));
        ignore (Db.commit_standalone tx2))
  in
  (* Step the clock until the second record is appended but not yet synced,
     then pull the plug mid-flush. *)
  let wal = Db.wal db in
  while
    not (Storage.Wal.last_lsn wal = 2 && Storage.Wal.durable_lsn wal = 1)
    && Time.(Engine.now e < sec 1)
  do
    Engine.run ~until:(Time.add (Engine.now e) (Time.of_ms 1.)) e
  done;
  let lost = Storage.Wal.crash ~torn:true wal in
  check_bool "second record was still in flight" true (lost >= 1);
  let torn_before = Storage.Wal.torn_discarded (Db.wal db) in
  check_int "only the durable prefix replays" 1 (Db.recover db);
  check_int "the torn record was discarded by the scan" (torn_before + 1)
    (Storage.Wal.torn_discarded (Db.wal db));
  Alcotest.check value_opt "surviving prefix folds" (Some (vi 105))
    (Db.read_committed db (k "t" "a"))

let test_db_batch_apply_version_faithful () =
  (* A grouped remote batch must slot each writeset in at its own
     certified version, not rename them all to the batch top: a delayed
     duplicate delivery of one member (a commit reply overtaking the
     stream after certifier failover) then backfills onto the existing
     chain entry idempotently instead of double-counting its deltas. *)
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 10); (k "t" "b", vi 0) ];
  in_fiber e (fun () ->
      let dup = Writeset.of_list [ (k "t" "a", Writeset.Add 7); (k "t" "b", upd 3) ] in
      let batch =
        [
          (1, Writeset.singleton (k "t" "a") (Writeset.Add 5));
          (2, dup);
          (3, Writeset.singleton (k "t" "b") (Writeset.Add 4));
        ]
      in
      (match Db.apply_certified db ~batch ~prev:0 ~order:(Db.next_order db) ~in_order:true with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "batch apply should succeed");
      check_int "store at the batch top" 3 (Db.current_version db);
      Alcotest.check value_opt "deltas folded across the batch" (Some (vi 22))
        (Db.read_committed db (k "t" "a"));
      Alcotest.check value_opt "snapshot below the top sees only v1" (Some (vi 15))
        (Db.read_committed db ~at:1 (k "t" "a"));
      Alcotest.check value_opt "blind then delta" (Some (vi 7))
        (Db.read_committed db (k "t" "b"));
      (match apply_in_order db ~version:2 ~order:(Db.next_order db) dup with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "duplicate delivery should succeed");
      check_int "duplicate went through backfill" 1 (Db.backfills db);
      Alcotest.check value_opt "no double count" (Some (vi 22))
        (Db.read_committed db (k "t" "a"));
      Alcotest.check value_opt "blind image undisturbed" (Some (vi 7))
        (Db.read_committed db (k "t" "b")))

(* ------------------------------------------------------------------ *)
(* Parallel apply: out-of-order install, ordered publish (Apply_pool's
   database substrate) *)

let test_db_parallel_out_of_order_publish () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0); (k "t" "b", vi 0) ];
  let seen_at_2 = ref (-1) in
  ignore
    (Engine.spawn e (fun () ->
         (* Hold version 1 back so version 2's worker finishes first. *)
         Engine.sleep e (Time.of_ms 30.);
         ignore
           (apply_parallel db ~version:1 ~order:1
              (Writeset.singleton (k "t" "a") (upd 1)))));
  ignore
    (Engine.spawn e (fun () ->
         ignore
           (apply_parallel db ~version:2 ~order:2
              (Writeset.singleton (k "t" "b") (upd 2)));
         seen_at_2 := Db.current_version db));
  Engine.run e;
  (* Version 2 finished first, but must not have been visible before the
     prefix (version 1) closed. *)
  check_int "publish barrier held" 0 !seen_at_2;
  check_int "prefix closed, both published" 2 (Db.current_version db);
  Alcotest.check value_opt "a at latest" (Some (vi 1)) (Db.read_committed db (k "t" "a"));
  Alcotest.check value_opt "b at latest" (Some (vi 2)) (Db.read_committed db (k "t" "b"));
  (* Snapshot at version 1 must not show version 2's row. *)
  Alcotest.check value_opt "b invisible at snapshot 1" (Some (vi 0))
    (Db.read_committed db ~at:1 (k "t" "b"))

let test_db_parallel_recover_out_of_order_log () =
  (* Both records are durable but were logged out of version order (2's
     fsync completed before 1's). Recovery sorts by version, verifies the
     redo chain, and reinstates everything. *)
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0); (k "t" "b", vi 0) ];
  ignore
    (Engine.spawn e (fun () ->
         Engine.sleep e (Time.of_ms 30.);
         ignore
           (apply_parallel db ~version:1 ~order:1
              (Writeset.singleton (k "t" "a") (upd 1)))));
  ignore
    (Engine.spawn e (fun () ->
         ignore
           (apply_parallel db ~version:2 ~order:2
              (Writeset.singleton (k "t" "b") (upd 2)))));
  Engine.run e;
  Db.crash db;
  let v = Db.recover db in
  check_int "recovered through the reordered log" 2 v;
  Alcotest.check value_opt "a recovered" (Some (vi 1)) (Db.read_committed db (k "t" "a"));
  Alcotest.check value_opt "b recovered" (Some (vi 2)) (Db.read_committed db (k "t" "b"))

let test_db_parallel_delta_apply_and_recover () =
  (* Version 2 (a delta) is installed before version 1 (the blind base it
     folds onto); reads after publish and replay after a crash must both see
     base + delta. *)
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  ignore
    (Engine.spawn e (fun () ->
         Engine.sleep e (Time.of_ms 30.);
         ignore
           (apply_parallel db ~version:1 ~order:1
              (Writeset.singleton (k "t" "a") (upd 10)))));
  ignore
    (Engine.spawn e (fun () ->
         ignore
           (apply_parallel db ~version:2 ~order:2
              (Writeset.singleton (k "t" "a") (Writeset.Add 3)))));
  Engine.run e;
  check_int "both published" 2 (Db.current_version db);
  Alcotest.check value_opt "delta folded onto the later-installed base" (Some (vi 13))
    (Db.read_committed db (k "t" "a"));
  Alcotest.check value_opt "snapshot below the delta" (Some (vi 10))
    (Db.read_committed db ~at:1 (k "t" "a"));
  Db.crash db;
  check_int "recovered" 2 (Db.recover db);
  Alcotest.check value_opt "recovery refolds the delta" (Some (vi 13))
    (Db.read_committed db (k "t" "a"))

let test_db_parallel_recover_truncates_at_gap () =
  (* Version 2's record reaches the log but version 1's never does (its
     worker was still stalled at the crash). The recovered state must be the
     consistent prefix below the hole — version 2 cannot be kept without 1. *)
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0); (k "t" "b", vi 0) ];
  ignore
    (Engine.spawn e (fun () ->
         ignore
           (apply_parallel db ~version:2 ~order:2
              (Writeset.singleton (k "t" "b") (upd 2)))));
  ignore
    (Engine.spawn e (fun () ->
         Engine.sleep e (Time.sec 5);
         ignore
           (apply_parallel db ~version:1 ~order:1
              (Writeset.singleton (k "t" "a") (upd 1)))));
  Engine.run ~until:(Time.sec 1) e;
  Db.crash db;
  let v = Db.recover db in
  check_int "orphan suffix truncated" 0 v;
  Alcotest.check value_opt "b rolled back to the prefix" (Some (vi 0))
    (Db.read_committed db (k "t" "b"));
  Alcotest.check value_opt "a untouched" (Some (vi 0)) (Db.read_committed db (k "t" "a"))

let test_db_recover_across_version_jump () =
  (* A snapshot transfer jumps the applied prefix from 2 to 10: version 10
     chains after 2, not after 9, which this replica never saw. Every
     record is durable but they finish out of order; recovery must follow
     the supplied chain across the jump to the top. *)
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0); (k "t" "b", vi 0) ];
  let apply ~delay ~version ~prev ~order key =
    ignore
      (Engine.spawn e (fun () ->
           Engine.sleep e (Time.of_ms delay);
           ignore
             (Db.apply_certified db
                ~batch:[ (version, Writeset.singleton (k "t" key) (upd version)) ]
                ~prev ~order ~in_order:false)))
  in
  apply ~delay:40. ~version:1 ~prev:0 ~order:1 "a";
  apply ~delay:30. ~version:2 ~prev:1 ~order:2 "b";
  apply ~delay:20. ~version:10 ~prev:2 ~order:3 "a";
  apply ~delay:0. ~version:11 ~prev:10 ~order:4 "b";
  Engine.run e;
  check_int "all published" 11 (Db.current_version db);
  Db.crash db;
  check_int "recovered across the jump" 11 (Db.recover db);
  Alcotest.check value_opt "a at 10" (Some (vi 10)) (Db.read_committed db (k "t" "a"));
  Alcotest.check value_opt "b at 11" (Some (vi 11)) (Db.read_committed db (k "t" "b"))

let test_db_restore_from_dump () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  in_fiber e (fun () ->
      let tx = Db.begin_tx db in
      ignore (Db.write tx (k "t" "a") (upd 5));
      ignore (Db.commit_standalone tx));
  let version, copy = Db.dump db in
  check_int "dump version" 1 version;
  Db.crash db;
  Db.restore_from_dump db ~version copy;
  check_int "restored version" 1 (Db.current_version db);
  Alcotest.check value_opt "restored value" (Some (vi 5)) (Db.read_committed db (k "t" "a"))

let test_db_commit_readonly () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  in_fiber e (fun () ->
      let tx = Db.begin_tx db in
      ignore (Db.read tx (k "t" "a"));
      Db.commit_readonly tx);
  check_int "no version created" 0 (Db.current_version db);
  check_int "no commit counted" 0 (Db.commits db);
  check_int "no abort counted" 0 (Db.aborts db)

(* Property: N concurrent incrementers of one counter; first-updater-wins
   means the final value equals the number of successful commits. *)
let prop_no_lost_updates =
  QCheck.Test.make ~name:"no lost updates under concurrent increments" ~count:30
    QCheck.(pair (int_range 2 12) (int_range 0 1000))
    (fun (n, seed) ->
      let e, db, _ = make_db ~seed () in
      Db.load db [ (k "t" "counter", vi 0) ];
      let successes = ref 0 in
      let rng = Rng.create seed in
      for _ = 1 to n do
        let delay = Rng.int rng 20_000 in
        ignore
          (Engine.spawn e (fun () ->
               Engine.sleep e (Time.us delay);
               let tx = Db.begin_tx db in
               match Db.read tx (k "t" "counter") with
               | None -> ()
               | Some v -> (
                   match Db.write tx (k "t" "counter") (upd (Value.as_int v + 1)) with
                   | Error _ -> ()
                   | Ok () -> (
                       match Db.commit_standalone tx with
                       | Ok _ -> incr successes
                       | Error _ -> ()))))
      done;
      Engine.run e;
      match Db.read_committed db (k "t" "counter") with
      | Some v -> Value.as_int v = !successes
      | None -> false)

let test_db_vacuum_prunes_versions () =
  let e = Engine.create () in
  let disk = fixed_disk e in
  let config = { Db.default_config with gc_interval = Some (Time.of_ms 500.) } in
  let db = Db.create e ~rng:(Rng.create 1) ~log_disk:disk ~config () in
  Db.load db [ (k "t" "a", vi 0) ];
  let _ =
    Engine.spawn e (fun () ->
        for i = 1 to 50 do
          let tx = Db.begin_tx db in
          ignore (Db.write tx (k "t" "a") (upd i));
          ignore (Db.commit_standalone tx)
        done)
  in
  Engine.run ~until:(Time.sec 2) e;
  check_int "all committed" 50 (Db.commits db);
  check_bool "old versions vacuumed" true (Store.version_records (Db.store db) <= 3);
  Alcotest.check value_opt "latest value intact" (Some (vi 50))
    (Db.read_committed db (k "t" "a"))

let test_db_watermark_and_active_tracking () =
  let e, db, _ = make_db () in
  Db.load db [ (k "t" "a", vi 0) ];
  in_fiber e (fun () ->
      for i = 1 to 3 do
        let tx = Db.begin_tx db in
        (match Db.write tx (k "t" "a") (upd i) with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "write");
        match Db.commit_standalone tx with
        | Ok _ -> ()
        | Error _ -> Alcotest.fail "commit"
      done;
      check_int "idle: watermark = current version" 3
        (Db.oldest_active_snapshot db);
      let reader = Db.begin_tx db in
      let writer = Db.begin_tx db in
      (match Db.write writer (k "t" "a") (upd 9) with
      | Ok () -> ()
      | Error _ -> Alcotest.fail "write2");
      (match Db.commit_standalone writer with
      | Ok _ -> ()
      | Error _ -> Alcotest.fail "commit2");
      check_int "reader pins its snapshot" 3 (Db.oldest_active_snapshot db);
      Db.abort reader;
      check_int "abort releases the pin" 4 (Db.oldest_active_snapshot db);
      let pinned = Db.begin_tx db in
      Db.doom db (Db.tx_id pinned);
      check_int "a doomed transaction does not pin" 4
        (Db.oldest_active_snapshot db);
      Db.abort pinned;
      let _hanging = Db.begin_tx db in
      Db.crash db;
      check_int "crash empties the active set" 0
        (List.length (Db.active_txids db)))

let test_db_stale_snapshot_expiry () =
  (* The max-snapshot-age escape hatch: a transaction parked forever must
     not pin the watermark past the configured age — the vacuum pass dooms
     it, counts it, and GC moves on. *)
  let config =
    {
      Db.default_config with
      gc_interval = Some (Time.sec 1);
      max_snapshot_age = Some (Time.sec 2);
    }
  in
  let e, db, _ = make_db ~config () in
  Db.load db [ (k "t" "a", vi 0) ];
  let stale = ref None in
  ignore (Engine.spawn e (fun () -> stale := Some (Db.begin_tx db)));
  Engine.run ~until:(Time.of_ms 10.) e;
  ignore
    (Engine.spawn e (fun () ->
         for i = 1 to 5 do
           let tx = Db.begin_tx db in
           (match Db.write tx (k "t" "a") (upd i) with
           | Ok () -> ()
           | Error _ -> ());
           ignore (Db.commit_standalone tx)
         done));
  Engine.run ~until:(Time.sec 6) e;
  check_int "escape hatch fired once" 1 (Db.stale_snapshots_expired db);
  (match !stale with
  | Some tx -> check_bool "stale tx doomed" true (Db.is_doomed tx <> None)
  | None -> Alcotest.fail "leaked tx never began");
  check_int "watermark freed" 5 (Db.oldest_active_snapshot db)

(* The watermark against the fold over the active set that it replaced:
   the minimum of the current version and every non-doomed open
   transaction's snapshot. Random runs of begins, commits with a write
   (each to its own row, so nothing blocks), read-only commits, aborts,
   dooms, vacuum passes that expire over-age snapshots, waits that age
   them, crashes, and bursts of 80 transactions that begin and commit
   behind the open ones, so that the window of snapshots by txid must
   grow past an open transaction rather than slide. *)
type snapshot_op =
  | S_begin
  | S_commit of int
  | S_readonly of int
  | S_abort of int
  | S_doom of int
  | S_wait
  | S_vacuum
  | S_crash
  | S_burst

let prop_oldest_active_snapshot =
  let op =
    QCheck.Gen.(
      let pick f = map f (int_bound 1_000) in
      frequency
        [
          (30, return S_begin);
          (20, pick (fun i -> S_commit i));
          (10, pick (fun i -> S_readonly i));
          (10, pick (fun i -> S_abort i));
          (4, pick (fun i -> S_doom i));
          (5, return S_wait);
          (5, return S_vacuum);
          (1, return S_crash);
          (1, return S_burst);
        ])
  in
  let print = function
    | S_begin -> "begin"
    | S_commit i -> Printf.sprintf "commit #%d" i
    | S_readonly i -> Printf.sprintf "readonly #%d" i
    | S_abort i -> Printf.sprintf "abort #%d" i
    | S_doom i -> Printf.sprintf "doom #%d" i
    | S_wait -> "wait 20ms"
    | S_vacuum -> "vacuum"
    | S_crash -> "crash"
    | S_burst -> "burst"
  in
  QCheck.Test.make ~name:"oldest active snapshot agrees with the active-set fold" ~count:200
    QCheck.(
      make
        ~print:(fun ops -> String.concat ", " (List.map print ops))
        Gen.(list_size (int_range 1 400) op))
    (fun ops ->
      let config = { Db.default_config with max_snapshot_age = Some (Time.of_ms 50.) } in
      let e, db, _ = make_db ~config () in
      Db.load db [ (k "t" "a", vi 0) ];
      let ok = ref true in
      in_fiber e (fun () ->
          (* The transactions begun since the last crash and not finished. *)
          let open_txs = ref [] in
          let commit tx =
            let row = string_of_int (Db.tx_id tx) in
            match Db.write tx (k "q" row) (Writeset.Insert (vi 1)) with
            | Ok () -> ignore (Db.commit_standalone tx)
            | Error _ -> ()
          in
          let take i f =
            match !open_txs with
            | [] -> ()
            | txs ->
                let tx = List.nth txs (i mod List.length txs) in
                open_txs := List.filter (fun t -> t != tx) txs;
                f tx
          in
          let fold () =
            List.fold_left
              (fun acc tx ->
                if Db.is_doomed tx = None then min acc (Db.snapshot_version tx) else acc)
              (Db.current_version db) !open_txs
          in
          List.iter
            (fun op ->
              (match op with
              | S_begin -> open_txs := !open_txs @ [ Db.begin_tx db ]
              | S_commit i -> take i commit
              | S_readonly i -> take i Db.commit_readonly
              | S_abort i -> take i Db.abort
              | S_doom i -> (
                  match !open_txs with
                  | [] -> ()
                  | txs -> Db.doom db (Db.tx_id (List.nth txs (i mod List.length txs))))
              | S_wait -> Engine.sleep e (Time.of_ms 20.)
              | S_vacuum -> ignore (Db.vacuum db)
              | S_crash ->
                  Db.crash db;
                  open_txs := []
              | S_burst ->
                  for _ = 1 to 80 do
                    commit (Db.begin_tx db)
                  done);
              ok :=
                !ok
                && Db.oldest_active_snapshot db = fold ()
                && List.length (Db.active_txids db) = List.length !open_txs)
            ops);
      !ok)

let test_db_vacuum_capped_by_cluster_floor () =
  (* The vacuum must not prune past the cluster floor even when no local
     snapshot needs the history — another replica might. And the floor is
     monotone: stale gossip cannot move it backwards. *)
  let config = { Db.default_config with gc_interval = Some (Time.sec 1) } in
  let e, db, _ = make_db ~config () in
  Db.load db [ (k "t" "a", vi 0) ];
  ignore
    (Engine.spawn e (fun () ->
         for i = 1 to 10 do
           let tx = Db.begin_tx db in
           (match Db.write tx (k "t" "a") (upd i) with
           | Ok () -> ()
           | Error _ -> ());
           ignore (Db.commit_standalone tx)
         done));
  Engine.run ~until:(Time.of_ms 900.) e;
  check_int "all versions present before the first vacuum" 11
    (Store.version_records (Db.store db));
  Db.set_cluster_gc_floor db 5;
  Engine.run ~until:(Time.of_ms 1500.) e;
  check_int "pruned up to the floor only" 6
    (Store.version_records (Db.store db));
  check_int "floor recorded" 5 (Db.cluster_gc_floor db);
  Db.set_cluster_gc_floor db 3;
  check_int "floor is monotone" 5 (Db.cluster_gc_floor db);
  Db.set_cluster_gc_floor db 20;
  Engine.run ~until:(Time.of_ms 2500.) e;
  check_int "a floor above the local watermark is capped by it" 1
    (Store.version_records (Db.store db));
  Alcotest.check value_opt "latest value intact" (Some (vi 10))
    (Db.read_committed db (k "t" "a"))

(* The vacuum walks the redo log from a cursor instead of scanning the
   store. It is exact iff, right after each pass, the reference full scan
   ({!Store.gc}) at that pass's floor finds nothing left to do: no record
   to prune, no boundary left to materialise, no bare tombstone left at or
   below the floor. *)
let vacuum_is_exact db keys =
  let floor = Db.vacuum db in
  let store = Db.store db in
  let chains () =
    List.map
      (fun key -> Format.asprintf "%a" (fun fmt () -> Store.pp_chain fmt store key) ())
      keys
  in
  let pruned = Store.pruned store and before = chains () in
  Store.gc store ~keep_after:floor;
  Store.pruned store = pruned && List.equal String.equal before (chains ())

(* One in-order certified update of [key] at [version], under the next
   announce order. *)
let put_at db ~version key n =
  ignore
    (apply_in_order db ~version ~order:(Db.next_order db) (Writeset.singleton key (upd n)))

let test_db_vacuum_revisits_parked_commit () =
  (* A backfill at version 2 is logged while version 3 is already visible,
     then parks in [wait_turn] behind an unfinished order across a pass at
     floor 3. Its rows land only after that pass, so the next pass must
     still visit its record and flatten the key. *)
  let e, db, _ = make_db () in
  let a = k "t" "a" and b = k "t" "b" in
  Db.load db [ (a, vi 0); (b, vi 0) ];
  let keys = [ a; b ] in
  in_fiber e (fun () ->
      put_at db ~version:1 a 10;
      put_at db ~version:3 a 30);
  check_bool "first pass exact" true (vacuum_is_exact db keys);
  check_int "a flattened to one version" 1 (Store.version_records (Db.store db) - 1);
  let gap = Db.next_order db in
  let backfill = Db.next_order db in
  ignore
    (Engine.spawn e (fun () ->
         ignore
           (Db.apply_certified db ~batch:[ (2, Writeset.singleton a (upd 20)) ] ~prev:1
              ~order:backfill ~in_order:true)));
  Engine.run ~until:(Time.of_ms 50.) e;
  check_int "backfill logged" 3 (Storage.Wal.last_lsn (Db.wal db));
  check_int "backfill parked in its turn" 1 (List.length (Db.active_txids db));
  check_bool "pass while it is parked exact" true (vacuum_is_exact db keys);
  in_fiber e (fun () ->
      ignore (apply_in_order db ~version:4 ~order:gap (Writeset.singleton b (upd 40))));
  check_int "backfill landed" 0 (List.length (Db.active_txids db));
  check_bool "next pass flattens the backfilled key" true (vacuum_is_exact db keys);
  Alcotest.check value_opt "a reads its newest version" (Some (vi 30))
    (Db.read_committed db a)

let test_db_vacuum_revisits_under_dropped_floor () =
  (* The local watermark settles the log at floor 3; the first cluster
     floor then arrives at 2, and a backfill lands at version 1 under the
     row's version-3 entry. When the floor climbs back to 3 the row holds
     two entries at or below it, and the record that wrote the upper one
     lies behind the cursor: the drop must send the walk back to the log's
     start. *)
  let e, db, _ = make_db () in
  let a = k "t" "a" in
  Db.load db [ (a, vi 0) ];
  in_fiber e (fun () ->
      put_at db ~version:2 a 20;
      put_at db ~version:3 a 30);
  check_bool "pass at the local watermark exact" true (vacuum_is_exact db [ a ]);
  Db.set_cluster_gc_floor db 2;
  in_fiber e (fun () ->
      put_at db ~version:1 a 10);
  check_bool "pass at the dropped floor exact" true (vacuum_is_exact db [ a ]);
  Db.set_cluster_gc_floor db 3;
  check_bool "pass back at floor 3 exact" true (vacuum_is_exact db [ a ]);
  check_int "a flat" 1 (Store.version_records (Db.store db))

let test_db_vacuum_holds_at_restored_dump () =
  (* A restored dump's row at version 4 was written by no record in this
     log. A backfill at version 1 lands under it while the floor is 2;
     once the floor reaches 4 that row must be flattened, so the cursor may
     not pass the restore point before then. *)
  let e, db, _ = make_db () in
  let a = k "t" "a" in
  Db.load db [ (a, vi 0) ];
  in_fiber e (fun () ->
      put_at db ~version:4 a 40);
  let version, copy = Db.dump db in
  Db.crash db;
  Db.restore_from_dump db ~version copy;
  Db.set_cluster_gc_floor db 2;
  check_bool "pass after the restore exact" true (vacuum_is_exact db [ a ]);
  in_fiber e (fun () ->
      put_at db ~version:1 a 10);
  check_bool "pass below the dump version exact" true (vacuum_is_exact db [ a ]);
  Db.set_cluster_gc_floor db 4;
  check_bool "pass at the dump version exact" true (vacuum_is_exact db [ a ]);
  check_int "a flat" 1 (Store.version_records (Db.store db))

(* Random Db histories against the reference full scan. A history runs in
   rounds. Each round spawns, at random instants, local writers that commit
   standalone or certified (in order or not), readers that pin the floor
   for a while, and one applier fiber replaying certified batches in turn
   (multi-version batches, in order or not, with backfills into skipped
   versions and duplicate deliveries), while a checker fiber vacuums at
   random instants. Writes mix updates, inserts, deletes and deltas. The
   checker also takes a dump now and then, which may hold rows installed
   but not yet published. Between rounds, at a quiescent point, the
   history may raise the cluster floor, take a dump, crash and recover,
   recover without a crash, or crash and restore an earlier dump. Local
   writers and the applier write disjoint keys, so an in-order commit
   never waits on a lock an earlier order holds. *)
let prop_incremental_vacuum_equals_full_scan =
  QCheck.Test.make ~name:"incremental vacuum equals full scan" ~count:120
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let durability =
        Rng.pick rng [| Db.Synchronous; Db.Asynchronous; Db.Periodic (Time.of_ms 20.) |]
      in
      let e, db, _ = make_db ~config:{ Db.default_config with durability } ~seed () in
      let local_keys = List.init 4 (fun i -> k "l" (string_of_int i)) in
      let remote_keys = List.init 4 (fun i -> k "r" (string_of_int i)) in
      let keys = local_keys @ remote_keys in
      Db.load db (List.map (fun key -> (key, vi 0)) keys);
      let standalone = Rng.chance rng 0.3 in
      let exact = ref true in
      let check () = if not (vacuum_is_exact db keys) then exact := false in
      let random_ws pool =
        let pool = Array.of_list pool in
        List.init (1 + Rng.int rng 3) (fun _ ->
            let op =
              match Rng.int rng 10 with
              | 0 | 1 -> Writeset.Delete
              | 2 -> Writeset.Insert (vi (Rng.int rng 100))
              | 3 | 4 | 5 -> Writeset.Add (1 + Rng.int rng 5)
              | _ -> upd (Rng.int rng 100)
            in
            (Rng.pick rng pool, op))
      in
      (* Certified versions: fresh ones from a counter; some are skipped
         and delivered later as backfills below the visible version. *)
      let top = ref 0 and skipped = ref [] and delivered = ref [] in
      let fresh () =
        if Rng.chance rng 0.15 then begin
          incr top;
          skipped := !top :: !skipped
        end;
        incr top;
        !top
      in
      let local_writer () =
        Engine.sleep e (Time.of_ms (Rng.uniform rng ~lo:0. ~hi:150.));
        let tx = Db.begin_tx db in
        Engine.sleep e (Time.of_ms (Rng.uniform rng ~lo:0. ~hi:30.));
        let rec write_all = function
          | [] -> true
          | (key, op) :: rest -> (
              match Db.write tx key op with Ok () -> write_all rest | Error _ -> false)
        in
        if write_all (random_ws local_keys) then
          if standalone then ignore (Db.commit_standalone tx)
          else
            let version = fresh () in
            ignore
              (Db.commit_certified tx ~version ~prev:(version - 1)
                 ~order:(Db.next_order db) ~in_order:(Rng.bool rng))
      in
      let reader () =
        Engine.sleep e (Time.of_ms (Rng.uniform rng ~lo:0. ~hi:150.));
        let tx = Db.begin_tx db in
        Engine.sleep e (Time.of_ms (Rng.uniform rng ~lo:0. ~hi:120.));
        List.iter (fun key -> ignore (Db.read tx key)) keys;
        Db.commit_readonly tx
      in
      let applier () =
        for _ = 1 to Rng.int rng 5 do
          Engine.sleep e (Time.of_ms (Rng.uniform rng ~lo:0. ~hi:40.));
          let batch =
            match (!skipped, !delivered) with
            | v :: rest, _ when Rng.chance rng 0.4 ->
                skipped := rest;
                [ (v, Writeset.of_list (random_ws remote_keys)) ]
            | _, (_ :: _ as old) when Rng.chance rng 0.2 ->
                [ Rng.pick rng (Array.of_list old) ]
            | _ ->
                List.init (1 + Rng.int rng 3) (fun _ ->
                    (fresh (), Writeset.of_list (random_ws remote_keys)))
          in
          delivered := batch @ !delivered;
          let prev = List.fold_left (fun acc (v, _) -> min acc v) max_int batch - 1 in
          let order = Db.next_order db and in_order = Rng.bool rng in
          let rec apply () =
            match Db.apply_certified db ~batch ~prev ~order ~in_order with
            | Ok () -> ()
            | Error _ ->
                Engine.sleep e (Time.of_ms 1.);
                apply ()
          in
          apply ()
        done
      in
      let dumps = ref [] in
      for _ = 1 to 6 do
        for _ = 1 to Rng.int rng 8 do
          ignore (Engine.spawn e local_writer)
        done;
        for _ = 1 to Rng.int rng 3 do
          ignore (Engine.spawn e reader)
        done;
        if not standalone then ignore (Engine.spawn e applier);
        let until = Time.add (Engine.now e) (Time.sec 1) in
        ignore
          (Engine.spawn e (fun () ->
               while Time.(Engine.now e < until) do
                 Engine.sleep e (Time.of_ms (Rng.uniform rng ~lo:1. ~hi:40.));
                 check ();
                 if Rng.chance rng 0.05 then dumps := Db.dump db :: !dumps
               done));
        Engine.run ~until e;
        if Db.active_txids db <> [] then exact := false;
        check ();
        if Rng.bool rng then
          Db.set_cluster_gc_floor db (Rng.int rng (Db.current_version db + 1));
        (match Rng.int rng 5 with
        | 0 -> dumps := Db.dump db :: !dumps
        | 1 ->
            Db.crash db;
            ignore (Db.recover db)
        | 2 -> ignore (Db.recover db)
        | 3 -> (
            match !dumps with
            | [] -> ()
            | dumps ->
                let version, copy = Rng.pick rng (Array.of_list dumps) in
                Db.crash db;
                Db.restore_from_dump db ~version copy)
        | _ -> ());
        check ()
      done;
      !exact)

let qsuite tests = List.map QCheck_alcotest.to_alcotest tests

let suites =
  [
    ( "mvcc.writeset",
      [
        Alcotest.test_case "basics" `Quick test_writeset_basics;
        Alcotest.test_case "supersede keeps position" `Quick test_writeset_supersede;
        Alcotest.test_case "intersection" `Quick test_writeset_intersects;
        Alcotest.test_case "intersects allocates nothing" `Quick
          test_writeset_intersects_alloc;
        Alcotest.test_case "union later wins" `Quick test_writeset_union_later_wins;
        Alcotest.test_case "encoded bytes" `Quick test_writeset_encoded_bytes;
        Alcotest.test_case "delta folding" `Quick test_writeset_delta_fold;
        Alcotest.test_case "delta union" `Quick test_writeset_delta_union;
        Alcotest.test_case "delta encoded bytes" `Quick test_writeset_delta_encoded_bytes;
      ]
      @ qsuite
          [
            prop_intersects_symmetric;
            prop_intersects_iff_shared_key;
            prop_union_keys;
            prop_raw_writeset_matches_sealed;
            prop_union_matches_add_fold;
            prop_intersects_keeps_sealed_forms;
          ]
    );
    ( "mvcc.key",
      Alcotest.test_case "make interns" `Quick test_key_make_interns
      :: qsuite
        [
          prop_key_hash_is_pair_hash;
          prop_key_separately_made_equal;
          prop_key_tbl_order_is_pair_order;
        ] );
    ( "mvcc.store",
      [
        Alcotest.test_case "snapshot reads" `Quick test_store_snapshot_reads;
        Alcotest.test_case "tombstones" `Quick test_store_tombstones;
        Alcotest.test_case "version monotonic" `Quick test_store_version_monotonic;
        Alcotest.test_case "sparse versions" `Quick test_store_sparse_versions;
        Alcotest.test_case "copy flattens and isolates" `Quick test_store_copy_flattens;
        Alcotest.test_case "gc keeps visibility" `Quick test_store_gc;
        Alcotest.test_case "delta reads fold onto images" `Quick test_store_delta_reads;
        Alcotest.test_case "blind_write_after stops at the snapshot" `Quick
          test_store_blind_write_after_stops_at_snapshot;
        Alcotest.test_case "install_at re-apply keeps the chain" `Quick
          test_store_install_at_idempotent;
        Alcotest.test_case "delta install is order-insensitive" `Quick
          test_store_delta_out_of_order_install;
        Alcotest.test_case "gc materializes a delta base" `Quick
          test_store_gc_materializes_delta_base;
        Alcotest.test_case "copy materializes deltas" `Quick
          test_store_copy_materializes_deltas;
        Alcotest.test_case "gc preserves tombstones" `Quick
          test_store_gc_preserves_tombstones;
        Alcotest.test_case "copy preserves tombstones" `Quick
          test_store_copy_preserves_tombstones;
      ]
      @ qsuite [ prop_blind_write_after_is_newest_blind; prop_store_matches_tbl_model ] );
    ( "mvcc.locks",
      [
        Alcotest.test_case "grant and re-entry" `Quick test_locks_grant_and_reentry;
        Alcotest.test_case "block and FIFO handoff" `Quick test_locks_block_and_handoff;
        Alcotest.test_case "deadlock detection" `Quick test_locks_deadlock_detection;
        Alcotest.test_case "no false deadlock" `Quick test_locks_no_false_deadlock;
        Alcotest.test_case "cancel wait" `Quick test_locks_cancel_wait;
        Alcotest.test_case "release frees" `Quick test_locks_release_frees;
        Alcotest.test_case "release in key order" `Quick test_locks_release_in_key_order;
        QCheck_alcotest.to_alcotest prop_locks_match_sorted_reference;
        Alcotest.test_case "steady-state acquire/release allocation" `Quick
          test_locks_cycle_alloc;
      ] );
    ( "mvcc.commit_order",
      [
        Alcotest.test_case "sequencing" `Quick test_commit_order_sequencing;
        Alcotest.test_case "abuse blocks forever" `Quick test_commit_order_abuse_blocks;
        Alcotest.test_case "complete publishes contiguous runs" `Quick
          test_commit_order_complete_out_of_order;
        Alcotest.test_case "complete releases waiters" `Quick
          test_commit_order_complete_releases_waiters;
      ] );
    ( "mvcc.db",
      [
        Alcotest.test_case "read your writes" `Quick test_db_read_your_writes;
        QCheck_alcotest.to_alcotest prop_oldest_active_snapshot;
        Alcotest.test_case "snapshot isolation" `Quick test_db_snapshot_isolation;
        Alcotest.test_case "first-updater-wins (committed)" `Quick
          test_db_first_updater_wins_committed;
        Alcotest.test_case "blocked writer aborts after holder commits" `Quick
          test_db_blocked_writer_aborts_after_holder_commits;
        Alcotest.test_case "blocked writer proceeds after holder aborts" `Quick
          test_db_blocked_writer_proceeds_after_holder_aborts;
        Alcotest.test_case "deadlock victim aborted" `Quick test_db_deadlock_victim;
        Alcotest.test_case "write skew allowed (SI)" `Quick test_db_write_skew_allowed;
        Alcotest.test_case "group commit shares fsyncs" `Quick test_db_group_commit_fsyncs;
        Alcotest.test_case "ordered announce (COMMIT n)" `Quick test_db_ordered_announce;
        Alcotest.test_case "no intermediate snapshot exposed" `Quick
          test_db_no_intermediate_snapshot_exposed;
        Alcotest.test_case "remote priority preempts local" `Quick
          test_db_remote_priority_preempts;
        Alcotest.test_case "remote without priority waits" `Quick
          test_db_remote_no_priority_waits;
        Alcotest.test_case "artificial conflict wedges concurrent submission" `Quick
          test_db_artificial_conflict_stalls_concurrent_submission;
        Alcotest.test_case "doom a parked transaction" `Quick
          test_db_doom_parked_transaction;
        Alcotest.test_case "crash/recover (synchronous)" `Quick
          test_db_crash_recover_synchronous;
        Alcotest.test_case "crash loses all (asynchronous)" `Quick
          test_db_crash_asynchronous_loses_everything;
        Alcotest.test_case "periodic durability keeps prefix" `Quick
          test_db_periodic_durability_prefix;
        Alcotest.test_case "parallel apply publishes in order" `Quick
          test_db_parallel_out_of_order_publish;
        Alcotest.test_case "parallel recovery replays reordered log" `Quick
          test_db_parallel_recover_out_of_order_log;
        Alcotest.test_case "parallel recovery truncates at a gap" `Quick
          test_db_parallel_recover_truncates_at_gap;
        Alcotest.test_case "recovery follows the chain across a version jump" `Quick
          test_db_recover_across_version_jump;
        Alcotest.test_case "delta read-your-writes" `Quick test_db_delta_read_your_writes;
        Alcotest.test_case "delta first-updater relaxation" `Quick
          test_db_delta_first_updater_relaxed;
        Alcotest.test_case "delta crash/recover" `Quick test_db_delta_crash_recover;
        Alcotest.test_case "delta torn-tail recovery" `Quick
          test_db_delta_torn_tail_recovery;
        Alcotest.test_case "batch apply keeps versions faithful" `Quick
          test_db_batch_apply_version_faithful;
        Alcotest.test_case "parallel delta apply and recovery" `Quick
          test_db_parallel_delta_apply_and_recover;
        Alcotest.test_case "restore from dump" `Quick test_db_restore_from_dump;
        Alcotest.test_case "read-only commit is free" `Quick test_db_commit_readonly;
        Alcotest.test_case "vacuum prunes old versions" `Quick test_db_vacuum_prunes_versions;
        Alcotest.test_case "watermark tracks active snapshots" `Quick
          test_db_watermark_and_active_tracking;
        Alcotest.test_case "stale snapshot expiry (escape hatch)" `Quick
          test_db_stale_snapshot_expiry;
        Alcotest.test_case "vacuum capped by the cluster floor" `Quick
          test_db_vacuum_capped_by_cluster_floor;
        Alcotest.test_case "vacuum revisits a commit logged before the pass" `Quick
          test_db_vacuum_revisits_parked_commit;
        Alcotest.test_case "vacuum revisits rows under a dropped floor" `Quick
          test_db_vacuum_revisits_under_dropped_floor;
        Alcotest.test_case "vacuum holds at a restored dump" `Quick
          test_db_vacuum_holds_at_restored_dump;
      ]
      @ qsuite [ prop_no_lost_updates; prop_incremental_vacuum_equals_full_scan ] );
  ]

(* The COMMIT n database extension in isolation (paper §5.2, §8.3).

   Demonstrates, against a single Mvcc.Db instance, through the in-order
   certified-commit finish ([Mvcc.Db.apply_certified ~in_order:true]):
   1. concurrent ordered commits grouped into one disk write, announced in
      the prescribed global order — the paper's example (§3): remote
      batches T1_2_3, T4, T5_6_7_8, T9 committing with four transactions
      but one fsync;
   2. an artificial conflict (§5.2.1): conflicting remote writesets must be
      submitted serially, costing a second fsync;
   3. the abuse deadlock (§5.2): COMMIT 9 without COMMIT 1..8 never
      announces.
   A last part contrasts the publish-barrier finish ([~in_order:false])
   that parallel apply uses.

   Run with: dune exec examples/api_ordering.exe *)

open Sim

let key row = Mvcc.Key.make ~table:"t" ~row
let upd n = Mvcc.Writeset.Update (Mvcc.Value.int n)

let make_db () =
  let engine = Engine.create () in
  let rng = Rng.create 2006 in
  let disk = Storage.Disk.create engine ~rng:(Rng.split rng) () in
  let db = Mvcc.Db.create engine ~rng:(Rng.split rng) ~log_disk:disk () in
  Mvcc.Db.load db (List.init 10 (fun i -> (key (string_of_int i), Mvcc.Value.int 0)));
  (engine, db, disk)

let () =
  (* --- The §3 example: versions 1..9 in four ordered transactions. --- *)
  let engine, db, disk = make_db () in
  (* Each transaction installs a run of certified versions, chained after
     the version the previous transaction ended at ([prev]). *)
  let submit name ~prev order versions =
    let batch =
      List.map (fun v -> (v, Mvcc.Writeset.singleton (key (string_of_int v)) (upd v))) versions
    in
    ignore
      (Engine.spawn engine (fun () ->
           match Mvcc.Db.apply_certified db ~batch ~prev ~order ~in_order:true with
           | Ok () ->
               Printf.printf "[%s] %-8s announced as version %d\n"
                 (Time.to_string (Engine.now engine)) name
                 (List.fold_left max 0 versions)
           | Error e -> Format.printf "%s failed: %a@." name Mvcc.Db.pp_abort_reason e))
  in
  (* Submitted deliberately out of order; the announce sequence fixes it. *)
  submit "T9" ~prev:8 4 [ 9 ];
  submit "T5_6_7_8" ~prev:4 3 [ 5; 6; 7; 8 ];
  submit "T4" ~prev:3 2 [ 4 ];
  submit "T1_2_3" ~prev:0 1 [ 1; 2; 3 ];
  Engine.run engine;
  Printf.printf "four ordered transactions -> %d fsync(s); database at version %d\n\n"
    (Storage.Disk.fsyncs disk)
    (Mvcc.Db.current_version db);

  (* --- Artificial conflict: two remote writesets touch key "x". --- *)
  let engine, db, disk = make_db () in
  Mvcc.Db.load db [ (Mvcc.Key.make ~table:"t" ~row:"x", Mvcc.Value.int 0) ];
  let x = Mvcc.Key.make ~table:"t" ~row:"x" in
  let done1 = Ivar.create engine () in
  ignore
    (Engine.spawn engine (fun () ->
         (match
            Mvcc.Db.apply_certified db ~batch:[ (1, Mvcc.Writeset.singleton x (upd 17)) ]
              ~prev:0 ~order:1 ~in_order:true
          with
         | Ok () -> Printf.printf "[%s] W1 (x=17) committed\n" (Time.to_string (Engine.now engine))
         | Error _ -> ());
         Ivar.fill done1 ()));
  ignore
    (Engine.spawn engine (fun () ->
         (* The proxy detected the conflict, so it waits for W1 before
            submitting W2 — the serialisation that costs a second fsync. *)
         Ivar.read done1;
         match
           Mvcc.Db.apply_certified db ~batch:[ (2, Mvcc.Writeset.singleton x (upd 39)) ]
             ~prev:1 ~order:2 ~in_order:true
         with
         | Ok () -> Printf.printf "[%s] W2 (x=39) committed after W1\n" (Time.to_string (Engine.now engine))
         | Error _ -> ()));
  Engine.run engine;
  Printf.printf "conflicting writesets serialised -> %d fsyncs; x = %d\n"
    (Storage.Disk.fsyncs disk)
    (match Mvcc.Db.read_committed db x with Some v -> Mvcc.Value.as_int v | None -> -1);

  (* --- Abuse: COMMIT 9 with no COMMIT 1..8 wedges (§5.2). --- *)
  let engine, db, _ = make_db () in
  let reached = ref false in
  ignore
    (Engine.spawn engine (fun () ->
         match
           Mvcc.Db.apply_certified db ~batch:[ (9, Mvcc.Writeset.singleton (key "1") (upd 1)) ]
             ~prev:8 ~order:9 ~in_order:true
         with
         | Ok () | Error _ -> reached := true));
  Engine.run ~until:(Time.sec 60) engine;
  Printf.printf "\nabusing the interface (COMMIT 9 without 1..8): %s\n"
    (if !reached then "committed (unexpected!)" else "blocked forever, as the paper warns");

  (* --- Parallel apply: out-of-order finish, in-order publish. ---
     The publish-barrier finish installs each writeset as soon as its own locks
     and disk work allow (here: version 2 finishes before version 1, since
     they touch different keys), while the visible snapshot version only
     advances through the contiguous prefix of announce orders. *)
  let engine, db, disk = make_db () in
  ignore
    (Engine.spawn engine (fun () ->
         (* Hold version 1 back a little so version 2's worker finishes first. *)
         Engine.sleep engine (Time.of_ms 30.);
         match
           Mvcc.Db.apply_certified db ~batch:[ (1, Mvcc.Writeset.singleton (key "1") (upd 1)) ]
             ~prev:0 ~order:1 ~in_order:false
         with
         | Ok () ->
             Printf.printf "[%s] version 1 finished; visible version now %d\n"
               (Time.to_string (Engine.now engine)) (Mvcc.Db.current_version db)
         | Error _ -> ()));
  ignore
    (Engine.spawn engine (fun () ->
         match
           Mvcc.Db.apply_certified db ~batch:[ (2, Mvcc.Writeset.singleton (key "2") (upd 2)) ]
             ~prev:1 ~order:2 ~in_order:false
         with
         | Ok () ->
             Printf.printf "[%s] version 2 finished first; visible version still %d\n"
               (Time.to_string (Engine.now engine)) (Mvcc.Db.current_version db)
         | Error _ -> ()));
  Engine.run engine;
  Printf.printf
    "parallel apply -> %d fsync(s); published version %d only once the prefix closed\n"
    (Storage.Disk.fsyncs disk) (Mvcc.Db.current_version db)

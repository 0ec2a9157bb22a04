(* Tests for the disk, WAL and dump-store models. *)

open Sim

let fixed_disk_config =
  {
    Storage.Disk.fsync_lo = Time.of_ms 8.;
    fsync_hi = Time.of_ms 8.;
    position_lo = Time.of_ms 5.;
    position_hi = Time.of_ms 5.;
    bandwidth_bytes_per_sec = 1_000_000_000.;
  }

let make_disk e = Storage.Disk.create e ~rng:(Rng.create 3) ~config:fixed_disk_config ()

let test_disk_fsync_latency () =
  let e = Engine.create () in
  let disk = make_disk e in
  let _ =
    Engine.spawn e (fun () ->
        Storage.Disk.fsync disk ~bytes:100;
        Alcotest.(check int) "one fsync took 8ms" 8_000 (Time.to_us (Engine.now e)))
  in
  Engine.run e;
  Alcotest.(check int) "fsync counted" 1 (Storage.Disk.fsyncs disk)

let test_disk_fifo_contention () =
  (* Two fsyncs and a page read share the channel: strictly serial. *)
  let e = Engine.create () in
  let disk = make_disk e in
  let done_at = ref [] in
  let op name f = ignore (Engine.spawn e (fun () -> f (); done_at := (name, Time.to_ms (Engine.now e)) :: !done_at)) in
  op "f1" (fun () -> Storage.Disk.fsync disk ~bytes:0);
  op "r" (fun () -> Storage.Disk.read disk ~bytes:0);
  op "f2" (fun () -> Storage.Disk.fsync disk ~bytes:0);
  Engine.run e;
  (match List.rev !done_at with
  | [ ("f1", t1); ("r", t2); ("f2", t3) ] ->
      Alcotest.(check (float 0.01)) "first" 8. t1;
      Alcotest.(check (float 0.01)) "second" 13. t2;
      Alcotest.(check (float 0.01)) "third" 21. t3
  | _ -> Alcotest.fail "expected FIFO order");
  Alcotest.(check int) "reads" 1 (Storage.Disk.reads disk)

let test_disk_transfer_component () =
  let e = Engine.create () in
  let config = { fixed_disk_config with bandwidth_bytes_per_sec = 1_000_000. } in
  let disk = Storage.Disk.create e ~rng:(Rng.create 1) ~config () in
  let _ =
    Engine.spawn e (fun () ->
        (* 1 MB at 1 MB/s = 1 s, plus 8 ms latency *)
        Storage.Disk.fsync disk ~bytes:1_000_000)
  in
  Engine.run e;
  Alcotest.(check int) "latency+transfer" 1_008_000 (Time.to_us (Engine.now e));
  Alcotest.(check int) "bytes accounted" 1_000_000 (Storage.Disk.bytes_synced disk)

let test_ramdisk_is_fast () =
  let e = Engine.create () in
  let disk = Storage.Disk.create_ram e ~rng:(Rng.create 1) () in
  Alcotest.(check bool) "is_ram" true (Storage.Disk.is_ram disk);
  let _ =
    Engine.spawn e (fun () ->
        for _ = 1 to 100 do
          Storage.Disk.fsync disk ~bytes:100
        done)
  in
  Engine.run e;
  Alcotest.(check bool) "100 fsyncs under 1ms" true Time.(Engine.now e < Time.of_ms 1.)

(* ------------------------------------------------------------------ *)
(* Disk fault injection *)

let test_disk_stall () =
  let e = Engine.create () in
  let disk = make_disk e in
  Storage.Disk.set_stall disk ~extra:(Time.of_ms 100.);
  let _ =
    Engine.spawn e (fun () ->
        Storage.Disk.fsync disk ~bytes:0;
        Alcotest.(check int) "8ms + 100ms stall" 108_000 (Time.to_us (Engine.now e));
        Storage.Disk.clear_stall disk;
        Storage.Disk.fsync disk ~bytes:0;
        Alcotest.(check int) "back to 8ms" 116_000 (Time.to_us (Engine.now e)))
  in
  Engine.run e;
  Alcotest.(check bool) "stall cleared" false (Storage.Disk.stalled disk);
  Alcotest.(check int) "one stalled fsync" 1 (Storage.Disk.fsync_stalls disk)

let test_disk_degrade () =
  let e = Engine.create () in
  let disk = make_disk e in
  Storage.Disk.set_degrade disk ~factor:3.;
  let _ =
    Engine.spawn e (fun () ->
        Storage.Disk.fsync disk ~bytes:0;
        Alcotest.(check int) "3x the 8ms fsync" 24_000 (Time.to_us (Engine.now e));
        Storage.Disk.clear_degrade disk;
        Storage.Disk.fsync disk ~bytes:0;
        Alcotest.(check int) "healthy again" 32_000 (Time.to_us (Engine.now e)))
  in
  Engine.run e;
  Alcotest.(check (float 0.001)) "factor cleared" 1.0
    (Storage.Disk.degrade_factor disk)

let test_disk_io_errors () =
  let e = Engine.create () in
  let disk = make_disk e in
  Storage.Disk.set_write_error_rate disk 1.0;
  let _ =
    Engine.spawn e (fun () ->
        Storage.Disk.fsync disk ~bytes:0;
        (* one failed attempt burns a full op time before the retry *)
        Alcotest.(check int) "double cost" 16_000 (Time.to_us (Engine.now e)))
  in
  Engine.run e;
  Alcotest.(check int) "error counted" 1 (Storage.Disk.io_errors disk);
  Storage.Disk.reset_stats disk;
  Alcotest.(check int) "fault counters survive reset" 1
    (Storage.Disk.io_errors disk)

(* ------------------------------------------------------------------ *)
(* WAL group commit *)

let make_wal ?synchronous e =
  let disk = make_disk e in
  (Storage.Wal.create e ~disk ?synchronous (), disk)

let test_wal_single_append_sync () =
  let e = Engine.create () in
  let wal, disk = make_wal e in
  let _ =
    Engine.spawn e (fun () ->
        let lsn = Storage.Wal.append_and_sync wal ~bytes:54 "w1" in
        Alcotest.(check int) "lsn" 1 lsn;
        Alcotest.(check int) "durable" 1 (Storage.Wal.durable_lsn wal))
  in
  Engine.run e;
  Alcotest.(check int) "one fsync" 1 (Storage.Disk.fsyncs disk)

let test_wal_group_commit () =
  (* 10 concurrent committers, all appending at t=0: the first flush covers
     everyone appended before the fsync started. *)
  let e = Engine.create () in
  let wal, disk = make_wal e in
  let done_count = ref 0 in
  for i = 1 to 10 do
    ignore
      (Engine.spawn e (fun () ->
           ignore (Storage.Wal.append_and_sync wal ~bytes:54 (string_of_int i));
           incr done_count))
  done;
  Engine.run e;
  Alcotest.(check int) "all committed" 10 !done_count;
  Alcotest.(check int) "single grouped fsync" 1 (Storage.Disk.fsyncs disk);
  Alcotest.(check (float 0.01)) "group size 10" 10. (Storage.Wal.mean_group_size wal)

let test_wal_two_waves () =
  (* A second wave arriving during the first fsync shares the *next* fsync. *)
  let e = Engine.create () in
  let wal, disk = make_wal e in
  for i = 1 to 3 do
    ignore (Engine.spawn e (fun () -> ignore (Storage.Wal.append_and_sync wal ~bytes:10 (string_of_int i))))
  done;
  Engine.schedule e ~at:(Time.of_ms 2.) (fun () ->
      for i = 4 to 8 do
        ignore
          (Engine.spawn e (fun () ->
               ignore (Storage.Wal.append_and_sync wal ~bytes:10 (string_of_int i))))
      done);
  Engine.run e;
  Alcotest.(check int) "two fsyncs" 2 (Storage.Disk.fsyncs disk);
  Alcotest.(check int) "all durable" 8 (Storage.Wal.durable_lsn wal);
  Alcotest.(check int) "records synced" 8 (Storage.Wal.records_synced wal)

let test_wal_async_mode () =
  let e = Engine.create () in
  let wal, disk = make_wal ~synchronous:false e in
  let _ =
    Engine.spawn e (fun () ->
        ignore (Storage.Wal.append_and_sync wal ~bytes:54 "volatile");
        Alcotest.(check int) "returned instantly" 0 (Time.to_us (Engine.now e)))
  in
  Engine.run e;
  Alcotest.(check int) "no fsync issued" 0 (Storage.Disk.fsyncs disk);
  Alcotest.(check int) "nothing durable" 0 (Storage.Wal.durable_lsn wal)

let test_wal_crash_loses_tail () =
  let e = Engine.create () in
  let wal, _disk = make_wal e in
  let _ =
    Engine.spawn e (fun () ->
        ignore (Storage.Wal.append_and_sync wal ~bytes:10 "a");
        ignore (Storage.Wal.append wal ~bytes:10 "b");
        ignore (Storage.Wal.append wal ~bytes:10 "c"))
  in
  Engine.run e;
  Alcotest.(check int) "lsn 3" 3 (Storage.Wal.last_lsn wal);
  let lost = Storage.Wal.crash wal in
  Alcotest.(check int) "two lost" 2 lost;
  Alcotest.(check int) "durable prefix survives" 1 (Storage.Wal.last_lsn wal);
  Alcotest.(check (list string)) "redo stream" [ "a" ] (Storage.Wal.records_from wal 0)

let test_wal_records_from () =
  let e = Engine.create () in
  let wal, _ = make_wal e in
  let _ =
    Engine.spawn e (fun () ->
        List.iter (fun r -> ignore (Storage.Wal.append wal ~bytes:1 r)) [ "a"; "b"; "c"; "d" ];
        Storage.Wal.sync wal)
  in
  Engine.run e;
  Alcotest.(check (list string)) "suffix from 2" [ "c"; "d" ] (Storage.Wal.records_from wal 2);
  Alcotest.(check (list string)) "empty suffix" [] (Storage.Wal.records_from wal 4);
  Alcotest.(check (list string)) "whole log" [ "a"; "b"; "c"; "d" ]
    (Storage.Wal.records_from wal 0)

let test_wal_sync_idempotent () =
  let e = Engine.create () in
  let wal, disk = make_wal e in
  let _ =
    Engine.spawn e (fun () ->
        ignore (Storage.Wal.append_and_sync wal ~bytes:5 "a");
        Storage.Wal.sync wal;
        Storage.Wal.sync wal)
  in
  Engine.run e;
  Alcotest.(check int) "no extra fsyncs when durable" 1 (Storage.Disk.fsyncs disk)

(* ------------------------------------------------------------------ *)
(* WAL torn/corrupt tails and the checksum recovery scan *)

let test_wal_torn_crash_truncates () =
  let e = Engine.create () in
  let wal, _ = make_wal e in
  let _ =
    Engine.spawn e (fun () ->
        ignore (Storage.Wal.append_and_sync wal ~bytes:10 "a");
        ignore (Storage.Wal.append wal ~bytes:10 "b");
        ignore (Storage.Wal.append wal ~bytes:10 "c"))
  in
  Engine.run e;
  let lost = Storage.Wal.crash ~torn:true wal in
  Alcotest.(check int) "b and c lost" 2 lost;
  (* the torn slot is unreadable even before the scan runs *)
  Alcotest.(check (list string)) "redo stops at durable prefix" [ "a" ]
    (Storage.Wal.records_from wal 0);
  let records, scan = Storage.Wal.recover wal in
  Alcotest.(check (list string)) "intact prefix replayed" [ "a" ] records;
  Alcotest.(check int) "verified" 1 scan.Storage.Wal.verified;
  Alcotest.(check int) "one torn discarded" 1 scan.Storage.Wal.torn;
  Alcotest.(check int) "no corrupt" 0 scan.Storage.Wal.corrupt;
  Alcotest.(check int) "log truncated" 1 (Storage.Wal.last_lsn wal);
  Alcotest.(check int) "cumulative torn count" 1 (Storage.Wal.torn_discarded wal)

let test_wal_torn_position_sweep () =
  (* A crash can tear the final record at any byte offset; the scan must
     classify and truncate it identically at every position. *)
  let bytes = 10 in
  for torn_bytes = 0 to bytes - 1 do
    let e = Engine.create () in
    let wal, _ = make_wal e in
    let _ =
      Engine.spawn e (fun () ->
          ignore (Storage.Wal.append_and_sync wal ~bytes "a");
          ignore (Storage.Wal.append wal ~bytes "b"))
    in
    Engine.run e;
    ignore (Storage.Wal.crash ~torn:true ~torn_bytes wal);
    let records, scan = Storage.Wal.recover wal in
    Alcotest.(check (list string))
      (Printf.sprintf "prefix intact at torn offset %d" torn_bytes)
      [ "a" ] records;
    Alcotest.(check int) "one torn" 1 scan.Storage.Wal.torn;
    Alcotest.(check int) "no corrupt" 0 scan.Storage.Wal.corrupt;
    Alcotest.(check int) "verified prefix" 1 scan.Storage.Wal.verified;
    Alcotest.(check int) "truncated to prefix" 1 (Storage.Wal.last_lsn wal)
  done

let test_wal_corrupt_tail () =
  let e = Engine.create () in
  let wal, _ = make_wal e in
  let _ =
    Engine.spawn e (fun () ->
        ignore (Storage.Wal.append_and_sync wal ~bytes:10 "a");
        ignore (Storage.Wal.append_and_sync wal ~bytes:10 "b"))
  in
  Engine.run e;
  Alcotest.(check bool) "tail corrupted" true (Storage.Wal.corrupt_tail wal);
  (* redo refuses to read past the corrupt record even without a scan *)
  Alcotest.(check (list string)) "redo stops before corrupt record" [ "a" ]
    (Storage.Wal.records_from wal 0);
  let records, scan = Storage.Wal.recover wal in
  Alcotest.(check (list string)) "verified prefix" [ "a" ] records;
  Alcotest.(check int) "one corrupt discarded" 1 scan.Storage.Wal.corrupt;
  Alcotest.(check int) "durable rolled back" 1 (Storage.Wal.durable_lsn wal);
  Alcotest.(check int) "cumulative corrupt count" 1
    (Storage.Wal.corrupt_discarded wal);
  Alcotest.(check bool) "empty log has nothing to corrupt" false
    (Storage.Wal.corrupt_tail (fst (make_wal (Engine.create ()))))

(* Two rounds of corruption of the same record must not cancel out. *)
let test_wal_corrupt_tail_twice () =
  let e = Engine.create () in
  let wal, _ = make_wal e in
  let _ =
    Engine.spawn e (fun () ->
        ignore (Storage.Wal.append_and_sync wal ~bytes:10 "a");
        ignore (Storage.Wal.append_and_sync wal ~bytes:10 "b"))
  in
  Engine.run e;
  Alcotest.(check bool) "first corruption" true (Storage.Wal.corrupt_tail wal);
  Alcotest.(check bool) "second corruption" true (Storage.Wal.corrupt_tail wal);
  let records, scan = Storage.Wal.recover wal in
  Alcotest.(check (list string)) "record still discarded" [ "a" ] records;
  Alcotest.(check int) "one corrupt discarded" 1 scan.Storage.Wal.corrupt;
  Alcotest.(check int) "none torn" 0 scan.Storage.Wal.torn

let test_wal_crash_races_inflight_fsync () =
  (* A crash while an fsync is in flight invalidates that flush: when the
     writer fiber completes it must NOT mark its captured target durable —
     that would resurrect truncated pre-crash slots (or post-crash appends
     that were never synced) as readable. *)
  let e = Engine.create () in
  let wal, _ = make_wal e in
  ignore
    (Engine.spawn e (fun () ->
         ignore (Storage.Wal.append_and_sync wal ~bytes:10 "a")));
  (* stop mid-fsync: the device's fixed latency is 8 ms *)
  Engine.run ~until:(Time.of_ms 4.) e;
  Alcotest.(check bool) "flush in flight" true
    (Storage.Wal.flushing_since wal <> None);
  ignore (Storage.Wal.crash wal);
  (* appends racing the doomed flush *)
  ignore (Storage.Wal.append_batch wal ~bytes_of:(fun _ -> 10) [ "d"; "e" ]);
  Engine.run e;
  Alcotest.(check int) "stale flush not marked durable" 0
    (Storage.Wal.durable_lsn wal);
  Alcotest.(check (list string)) "nothing resurrected" []
    (Storage.Wal.records_from wal 0);
  (* the log still works: a fresh sync makes the new tail durable *)
  ignore (Engine.spawn e (fun () -> Storage.Wal.sync wal));
  Engine.run e;
  Alcotest.(check int) "new tail durable" 2 (Storage.Wal.durable_lsn wal);
  Alcotest.(check (list string)) "redo is the new tail" [ "d"; "e" ]
    (Storage.Wal.records_from wal 0)

(* ------------------------------------------------------------------ *)
(* Dump store *)

let test_dump_keeps_two () =
  let store = Storage.Dump_store.create () in
  Storage.Dump_store.put store ~version:10 ~bytes:100 "v10";
  Storage.Dump_store.put store ~version:20 ~bytes:100 "v20";
  Storage.Dump_store.put store ~version:30 ~bytes:100 "v30";
  Alcotest.(check int) "keeps two" 2 (Storage.Dump_store.count store);
  match Storage.Dump_store.latest store with
  | Some (30, _, "v30") -> ()
  | _ -> Alcotest.fail "expected newest copy"

let test_dump_fallback_on_corruption () =
  let store = Storage.Dump_store.create () in
  Storage.Dump_store.put store ~version:10 ~bytes:100 "v10";
  Storage.Dump_store.put store ~version:20 ~bytes:100 "v20";
  Storage.Dump_store.invalidate_latest store;
  (match Storage.Dump_store.latest store with
  | Some (10, _, "v10") -> ()
  | _ -> Alcotest.fail "expected fallback to previous copy");
  Alcotest.(check bool) "empty store has no dump" true
    (Storage.Dump_store.latest (Storage.Dump_store.create ()) = None)


(* Property: after any interleaving of appends and syncs followed by a
   crash, the surviving records are exactly a prefix of what was appended,
   at least as long as the last completed sync. *)
let prop_wal_durable_prefix =
  QCheck.Test.make ~name:"wal survives crash as an appended prefix" ~count:60
    QCheck.(int_range 0 10_000)
    (fun seed ->
      let e = Engine.create () in
      let rng = Rng.create seed in
      let disk = Storage.Disk.create e ~rng:(Rng.split rng) () in
      let wal = Storage.Wal.create e ~disk () in
      let appended = ref [] in
      let synced_upto = ref 0 in
      ignore
        (Engine.spawn e (fun () ->
             for i = 1 to 30 do
               appended := i :: !appended;
               if Rng.chance rng 0.5 then begin
                 ignore (Storage.Wal.append_and_sync wal ~bytes:10 i);
                 synced_upto := i
               end
               else ignore (Storage.Wal.append wal ~bytes:10 i);
               Engine.sleep e (Sim.Time.of_ms (Rng.uniform rng ~lo:0. ~hi:5.))
             done));
      Engine.run ~until:(Sim.Time.sec 5) e;
      ignore (Storage.Wal.crash wal);
      let survived = Storage.Wal.records_from wal 0 in
      let all = List.rev !appended in
      let rec is_prefix p l =
        match (p, l) with
        | [], _ -> true
        | x :: p', y :: l' -> x = y && is_prefix p' l'
        | _ -> false
      in
      is_prefix survived all && List.length survived >= !synced_upto)

let suites =
  [
    ( "storage.disk",
      [
        Alcotest.test_case "fsync latency" `Quick test_disk_fsync_latency;
        Alcotest.test_case "fifo contention" `Quick test_disk_fifo_contention;
        Alcotest.test_case "transfer component" `Quick test_disk_transfer_component;
        Alcotest.test_case "ramdisk fast" `Quick test_ramdisk_is_fast;
        Alcotest.test_case "stall adds latency" `Quick test_disk_stall;
        Alcotest.test_case "degrade multiplies latency" `Quick test_disk_degrade;
        Alcotest.test_case "transient io errors" `Quick test_disk_io_errors;
      ] );
    ( "storage.wal",
      [
        Alcotest.test_case "single append+sync" `Quick test_wal_single_append_sync;
        Alcotest.test_case "group commit batches" `Quick test_wal_group_commit;
        Alcotest.test_case "two waves two fsyncs" `Quick test_wal_two_waves;
        Alcotest.test_case "asynchronous mode" `Quick test_wal_async_mode;
        Alcotest.test_case "crash loses volatile tail" `Quick test_wal_crash_loses_tail;
        Alcotest.test_case "records_from" `Quick test_wal_records_from;
        Alcotest.test_case "sync idempotent" `Quick test_wal_sync_idempotent;
        Alcotest.test_case "torn crash truncates" `Quick test_wal_torn_crash_truncates;
        Alcotest.test_case "torn position sweep" `Quick test_wal_torn_position_sweep;
        Alcotest.test_case "corrupt tail" `Quick test_wal_corrupt_tail;
        Alcotest.test_case "corrupt tail twice stays corrupt" `Quick
          test_wal_corrupt_tail_twice;
        Alcotest.test_case "crash races in-flight fsync" `Quick
          test_wal_crash_races_inflight_fsync;
        QCheck_alcotest.to_alcotest prop_wal_durable_prefix;
      ] );
    ( "storage.dump_store",
      [
        Alcotest.test_case "keeps last two" `Quick test_dump_keeps_two;
        Alcotest.test_case "fallback on corruption" `Quick test_dump_fallback_on_corruption;
      ] );
  ]

(* Tests for the discrete-event simulation substrate. *)

open Sim

let us = Time.us
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let check_time msg expected actual =
  Alcotest.(check int) msg (Time.to_us expected) (Time.to_us actual)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_arithmetic () =
  check_int "of_ms" 2_500 (Time.to_us (Time.of_ms 2.5));
  check_int "of_sec" 1_500_000 (Time.to_us (Time.of_sec 1.5));
  check_time "add" (us 30) (Time.add (us 10) (us 20));
  check_time "diff" (us 15) (Time.diff (us 40) (us 25));
  check_time "scale" (us 50) (Time.scale (us 100) 0.5);
  check_time "mul" (us 300) (Time.mul (us 100) 3);
  check_time "div" (us 33) (Time.div (us 100) 3);
  check_bool "lt" true Time.(us 1 < us 2);
  check_bool "ge" true Time.(us 2 >= us 2);
  Alcotest.(check (float 1e-9)) "ratio" 0.25 (Time.ratio (us 25) (us 100));
  Alcotest.(check string) "pp us" "999us" (Time.to_string (us 999));
  Alcotest.(check string) "pp ms" "1.500ms" (Time.to_string (us 1_500));
  Alcotest.(check string) "pp s" "2.000s" (Time.to_string (Time.sec 2))

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.int a 1_000_000) (Rng.int b 1_000_000)
  done

let test_rng_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = List.init 50 (fun _ -> Rng.int parent 1000) in
  let ys = List.init 50 (fun _ -> Rng.int child 1000) in
  check_bool "streams differ" true (xs <> ys)

let test_rng_ranges () =
  let rng = Rng.create 1 in
  for _ = 1 to 1_000 do
    let x = Rng.int rng 10 in
    check_bool "int in [0,10)" true (x >= 0 && x < 10);
    let y = Rng.int_in_range rng ~lo:5 ~hi:9 in
    check_bool "range inclusive" true (y >= 5 && y <= 9);
    let f = Rng.float rng in
    check_bool "float in [0,1)" true (f >= 0. && f < 1.)
  done

let test_rng_uniform_mean () =
  let rng = Rng.create 99 in
  let n = 20_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.uniform rng ~lo:6. ~hi:12.
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 9" true (abs_float (mean -. 9.) < 0.1)

let test_rng_exponential_mean () =
  let rng = Rng.create 5 in
  let n = 50_000 in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Rng.exponential rng ~mean:4.
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean near 4" true (abs_float (mean -. 4.) < 0.1)

let test_rng_chance () =
  let rng = Rng.create 3 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Rng.chance rng 0.3 then incr hits
  done;
  check_bool "p=0.3" true (abs (!hits - 3_000) < 200)

(* ------------------------------------------------------------------ *)
(* Event heap, driven through the engine: pushing is [schedule], popping
   is [run] handing each event's time to its callback. *)

(* Schedule one event per time, run the engine, and return the times in
   the order the events ran. *)
let drain_times times =
  let e = Engine.create () in
  let out = ref [] in
  List.iter (fun t -> Engine.schedule e ~at:(us t) (fun () -> out := t :: !out)) times;
  let pending = Engine.pending_events e in
  Engine.run e;
  (pending, Engine.pending_events e, List.rev !out)

let test_heap_sorts () =
  let rng = Rng.create 11 in
  let input = List.init 500 (fun _ -> Rng.int rng 10_000) in
  let pending, left, out = drain_times input in
  check_int "length" 500 pending;
  Alcotest.(check (list int)) "sorted" (List.sort compare input) out;
  check_int "empty after drain" 0 left

let test_heap_pop_empty () =
  let e = Engine.create () in
  Engine.run e;
  check_int "pop empty: nothing ran" 0 (Engine.events_processed e);
  check_int "pop empty: nothing pending" 0 (Engine.pending_events e);
  check_time "pop empty: clock unmoved" Time.zero (Engine.now e);
  Engine.schedule e ~at:(us 7) ignore;
  Engine.run e;
  Engine.run e;
  check_int "pop after drain: one event in all" 1 (Engine.events_processed e);
  check_time "pop after drain: clock at the last event" (us 7) (Engine.now e)

let prop_heap_matches_sorted_list =
  QCheck.Test.make ~name:"heap pops in sorted order for any input" ~count:200
    QCheck.(list (int_bound 1_000_000))
    (fun xs ->
      let _, left, out = drain_times xs in
      left = 0 && out = List.sort compare xs)

(* ------------------------------------------------------------------ *)
(* Engine basics *)

let test_engine_event_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.schedule e ~at:(us 30) (fun () -> log := 3 :: !log);
  Engine.schedule e ~at:(us 10) (fun () -> log := 1 :: !log);
  Engine.schedule e ~at:(us 20) (fun () -> log := 2 :: !log);
  Engine.run e;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  check_time "clock at last event" (us 30) (Engine.now e)

let test_engine_fifo_ties () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 10 do
    Engine.schedule e ~at:(us 5) (fun () -> log := i :: !log)
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo among ties" [ 1; 2; 3; 4; 5; 6; 7; 8; 9; 10 ]
    (List.rev !log)

(* [pending_events] and the clock across several [~until] limits: an event
   exactly at the limit runs, later ones stay queued, events scheduled from
   outside between runs join the queue, and a limit behind the clock never
   moves it back. *)
let test_engine_until () =
  let e = Engine.create () in
  Engine.run e;
  Engine.run ~stop_when_idle:false e;
  check_int "empty engine: nothing pending" 0 (Engine.pending_events e);
  check_int "empty engine: nothing processed" 0 (Engine.events_processed e);
  let fired = ref [] in
  let at t = Engine.schedule e ~at:(us t) (fun () -> fired := t :: !fired) in
  List.iter at [ 40; 10; 30; 30; 50; 20 ];
  check_int "six pending" 6 (Engine.pending_events e);
  Engine.run ~until:(us 30) e;
  Alcotest.(check (list int)) "through the limit" [ 10; 20; 30; 30 ] (List.rev !fired);
  check_int "two pending past the limit" 2 (Engine.pending_events e);
  check_time "clock at the limit" (us 30) (Engine.now e);
  at 35;
  check_int "scheduled between runs" 3 (Engine.pending_events e);
  Engine.run ~until:(us 5) e;
  check_time "limit behind the clock keeps it" (us 30) (Engine.now e);
  check_int "nothing ran" 3 (Engine.pending_events e);
  Engine.run ~until:(us 45) e;
  Alcotest.(check (list int)) "second window" [ 10; 20; 30; 30; 35; 40 ] (List.rev !fired);
  check_int "one pending" 1 (Engine.pending_events e);
  check_time "clock at the second limit" (us 45) (Engine.now e);
  Engine.run e;
  check_int "drained" 0 (Engine.pending_events e);
  check_int "all processed" 7 (Engine.events_processed e);
  check_time "clock at the last event" (us 50) (Engine.now e)

let test_engine_schedule_past_rejected () =
  let e = Engine.create () in
  Engine.schedule e ~at:(us 10) (fun () ->
      match Engine.schedule e ~at:(us 5) (fun () -> ()) with
      | exception Invalid_argument _ -> ()
      | () -> Alcotest.fail "scheduling in the past must be rejected");
  Engine.run e

let test_fiber_sleep () =
  let e = Engine.create () in
  let log = ref [] in
  let _f =
    Engine.spawn e (fun () ->
        log := ("a", Engine.now e) :: !log;
        Engine.sleep e (us 100);
        log := ("b", Engine.now e) :: !log;
        Engine.sleep e (us 50);
        log := ("c", Engine.now e) :: !log)
  in
  Engine.run e;
  match List.rev !log with
  | [ ("a", t1); ("b", t2); ("c", t3) ] ->
      check_time "start" Time.zero t1;
      check_time "after first sleep" (us 100) t2;
      check_time "after second sleep" (us 150) t3
  | _ -> Alcotest.fail "unexpected log"

let test_fiber_join () =
  let e = Engine.create () in
  let done_child = ref false in
  let done_parent = ref false in
  let _p =
    Engine.spawn e (fun () ->
        let child =
          Engine.spawn e (fun () ->
              Engine.sleep e (us 500);
              done_child := true)
        in
        Engine.join e child;
        check_bool "child finished before join returns" true !done_child;
        check_time "joined at child's end" (us 500) (Engine.now e);
        done_parent := true)
  in
  Engine.run e;
  check_bool "parent ran to completion" true !done_parent

let test_fiber_join_finished () =
  let e = Engine.create () in
  let ok = ref false in
  let _ =
    Engine.spawn e (fun () ->
        let child = Engine.spawn e (fun () -> ()) in
        Engine.sleep e (us 10);
        (* child long finished; join must not block *)
        Engine.join e child;
        ok := true)
  in
  Engine.run e;
  check_bool "join on finished fiber returns" true !ok

let test_fiber_cancel () =
  let e = Engine.create () in
  let reached = ref false in
  let cleaned = ref false in
  let f =
    Engine.spawn e (fun () ->
        Fun.protect
          ~finally:(fun () -> cleaned := true)
          (fun () ->
            Engine.sleep e (us 1000);
            reached := true))
  in
  Engine.schedule e ~at:(us 10) (fun () -> Engine.cancel e f);
  Engine.run e;
  check_bool "body after sleep not reached" false !reached;
  check_bool "finaliser ran" true !cleaned;
  check_bool "fiber reported dead" false (Engine.fiber_alive f)

let test_engine_stalled_detection () =
  let e = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create e () in
  let _ = Engine.spawn e (fun () -> ignore (Mailbox.recv mb)) in
  (match Engine.run ~stop_when_idle:false e with
  | exception Engine.Stalled _ -> ()
  | () -> Alcotest.fail "expected Stalled");
  (* default tolerates blocked fibers *)
  let e2 = Engine.create () in
  let mb2 : int Mailbox.t = Mailbox.create e2 () in
  let _ = Engine.spawn e2 (fun () -> ignore (Mailbox.recv mb2)) in
  Engine.run e2

let test_fiber_exception_propagates () =
  let e = Engine.create () in
  let _ = Engine.spawn e (fun () -> failwith "boom") in
  match Engine.run e with
  | exception Failure msg -> Alcotest.(check string) "message" "boom" msg
  | () -> Alcotest.fail "expected exception to escape run"

let test_determinism_trace () =
  (* Two identical engines with the same seed produce the same trace. *)
  let run_once () =
    let e = Engine.create () in
    let rng = Rng.create 2024 in
    let trace = Buffer.create 256 in
    let mb = Mailbox.create e () in
    for i = 1 to 3 do
      ignore
        (Engine.spawn e (fun () ->
             for j = 1 to 5 do
               Engine.sleep e (us (Rng.int_in_range rng ~lo:1 ~hi:50));
               Mailbox.send mb (i * 100 + j)
             done))
    done;
    ignore
      (Engine.spawn e (fun () ->
           for _ = 1 to 15 do
             let v = Mailbox.recv mb in
             Buffer.add_string trace
               (Printf.sprintf "%d@%d;" v (Time.to_us (Engine.now e)))
           done));
    Engine.run e;
    Buffer.contents trace
  in
  Alcotest.(check string) "identical traces" (run_once ()) (run_once ())

(* ------------------------------------------------------------------ *)
(* Mailbox *)

let test_mailbox_fifo () =
  let e = Engine.create () in
  let mb = Mailbox.create e () in
  let got = ref [] in
  let _ =
    Engine.spawn e (fun () ->
        for _ = 1 to 5 do
          got := Mailbox.recv mb :: !got
        done)
  in
  let _ =
    Engine.spawn e (fun () ->
        for i = 1 to 5 do
          Mailbox.send mb i;
          Engine.sleep e (us 1)
        done)
  in
  Engine.run e;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !got)

let test_mailbox_buffering () =
  let e = Engine.create () in
  let mb = Mailbox.create e () in
  Mailbox.send mb 1;
  Mailbox.send mb 2;
  check_int "buffered" 2 (Mailbox.length mb);
  check_bool "try_recv" true (Mailbox.try_recv mb = Some 1);
  let got = ref 0 in
  let _ = Engine.spawn e (fun () -> got := Mailbox.recv mb) in
  Engine.run e;
  check_int "drained in order" 2 !got;
  check_bool "empty" true (Mailbox.is_empty mb)

let test_mailbox_recv_batch () =
  let e = Engine.create () in
  let mb = Mailbox.create e () in
  let batches = ref [] in
  let _ =
    Engine.spawn e (fun () ->
        for _ = 1 to 2 do
          batches := Mailbox.recv_batch mb :: !batches
        done)
  in
  let _ =
    Engine.spawn e (fun () ->
        Engine.sleep e (us 10);
        (* all three sent at the same instant: batch together *)
        Mailbox.send mb 1;
        Mailbox.send mb 2;
        Mailbox.send mb 3;
        Engine.sleep e (us 10);
        Mailbox.send mb 4)
  in
  Engine.run e;
  match List.rev !batches with
  | [ first; second ] ->
      (* The blocked receiver wakes with 1, then drains 2 and 3. *)
      Alcotest.(check (list int)) "first batch" [ 1; 2; 3 ] first;
      Alcotest.(check (list int)) "second batch" [ 4 ] second
  | _ -> Alcotest.fail "expected two batches"

let test_mailbox_cancelled_receiver_skipped () =
  let e = Engine.create () in
  let mb = Mailbox.create e () in
  let got = ref [] in
  let victim = Engine.spawn e (fun () -> got := Mailbox.recv mb :: !got) in
  let _ = Engine.spawn e (fun () -> got := Mailbox.recv mb :: !got) in
  Engine.schedule e ~at:(us 5) (fun () -> Engine.cancel e victim);
  Engine.schedule e ~at:(us 10) (fun () -> Mailbox.send mb 42);
  Engine.run e;
  Alcotest.(check (list int)) "survivor got message" [ 42 ] !got

(* ------------------------------------------------------------------ *)
(* Ivar *)

let test_ivar_roundtrip () =
  let e = Engine.create () in
  let iv = Ivar.create e () in
  let got = ref 0 in
  let _ = Engine.spawn e (fun () -> got := Ivar.read iv) in
  Engine.schedule e ~at:(us 100) (fun () -> Ivar.fill iv 7);
  Engine.run e;
  check_int "value" 7 !got

let test_ivar_read_after_fill () =
  let e = Engine.create () in
  let iv = Ivar.create e () in
  Ivar.fill iv 3;
  check_bool "filled" true (Ivar.is_filled iv);
  check_bool "peek" true (Ivar.peek iv = Some 3);
  let got = ref 0 in
  let _ = Engine.spawn e (fun () -> got := Ivar.read iv) in
  Engine.run e;
  check_int "read returns immediately" 3 !got

let test_ivar_double_fill () =
  let e = Engine.create () in
  let iv = Ivar.create e () in
  Ivar.fill iv 1;
  check_bool "try_fill refused" false (Ivar.try_fill iv 2);
  Alcotest.check_raises "fill raises" (Invalid_argument "Ivar.fill: already filled")
    (fun () -> Ivar.fill iv 2)

let test_ivar_multiple_readers () =
  let e = Engine.create () in
  let iv = Ivar.create e () in
  let total = ref 0 in
  for _ = 1 to 4 do
    ignore (Engine.spawn e (fun () -> total := !total + Ivar.read iv))
  done;
  Engine.schedule e ~at:(us 10) (fun () -> Ivar.fill iv 5);
  Engine.run e;
  check_int "all readers woke" 20 !total

(* ------------------------------------------------------------------ *)
(* Waitq *)

let test_waitq_signal_broadcast () =
  let e = Engine.create () in
  let q = Waitq.create e () in
  let woke = ref 0 in
  for _ = 1 to 3 do
    ignore (Engine.spawn e (fun () -> Waitq.wait q; incr woke))
  done;
  Engine.schedule e ~at:(us 10) (fun () -> Waitq.signal q);
  Engine.schedule e ~at:(us 20) (fun () ->
      check_int "one woke" 1 !woke;
      Waitq.broadcast q);
  Engine.run e;
  check_int "all woke" 3 !woke;
  check_int "no waiters left" 0 (Waitq.waiters q)

let test_waitq_lost_signal () =
  let e = Engine.create () in
  let q = Waitq.create e () in
  Waitq.signal q;
  (* no memory: a later waiter stays blocked *)
  let woke = ref false in
  let _ = Engine.spawn e (fun () -> Waitq.wait q; woke := true) in
  Engine.run e;
  check_bool "signal before wait is lost" false !woke

(* ------------------------------------------------------------------ *)
(* Resource *)

let test_resource_serialises () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 () in
  let ends = ref [] in
  for i = 1 to 3 do
    ignore
      (Engine.spawn e (fun () ->
           Resource.use r (us 100);
           ends := (i, Engine.now e) :: !ends))
  done;
  Engine.run e;
  (match List.rev !ends with
  | [ (1, t1); (2, t2); (3, t3) ] ->
      check_time "first" (us 100) t1;
      check_time "second" (us 200) t2;
      check_time "third" (us 300) t3
  | _ -> Alcotest.fail "unexpected completion order");
  Alcotest.(check (float 0.02)) "fully utilised" 1.0 (Resource.utilization r)

let test_resource_parallel_servers () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:2 () in
  let finished = ref [] in
  for i = 1 to 4 do
    ignore
      (Engine.spawn e (fun () ->
           Resource.use r (us 100);
           finished := (i, Time.to_us (Engine.now e)) :: !finished))
  done;
  Engine.run e;
  let times = List.map snd (List.rev !finished) in
  Alcotest.(check (list int)) "two waves" [ 100; 100; 200; 200 ] times

let test_resource_with_held_releases_on_exn () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 () in
  let second_ran = ref false in
  let _ =
    Engine.spawn e (fun () ->
        match Resource.with_held r (fun () -> failwith "inner") with
        | exception Failure _ -> ()
        | () -> ())
  in
  let _ =
    Engine.spawn e (fun () ->
        Engine.sleep e (us 1);
        Resource.use r (us 10);
        second_ran := true)
  in
  Engine.run e;
  check_bool "resource released after exception" true !second_ran

let test_resource_utilization_accounting () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 () in
  let _ =
    Engine.spawn e (fun () ->
        Resource.use r (us 250);
        Engine.sleep e (us 750))
  in
  Engine.run e;
  check_time "busy time" (us 250) (Resource.busy_time r);
  Alcotest.(check (float 0.001)) "25% utilised" 0.25 (Resource.utilization r)

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_summary () =
  let s = Stats.Summary.create () in
  List.iter (Stats.Summary.observe s) [ 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. ];
  check_int "count" 8 (Stats.Summary.count s);
  Alcotest.(check (float 1e-9)) "mean" 5.0 (Stats.Summary.mean s);
  Alcotest.(check (float 1e-6)) "stddev (sample)" 2.13809 (Stats.Summary.stddev s);
  Alcotest.(check (float 1e-9)) "min" 2.0 (Stats.Summary.min s);
  Alcotest.(check (float 1e-9)) "max" 9.0 (Stats.Summary.max s)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1_000 do
    Stats.Histogram.observe h (float_of_int i)
  done;
  check_int "count" 1_000 (Stats.Histogram.count h);
  let p50 = Stats.Histogram.percentile h 0.5 in
  let p99 = Stats.Histogram.percentile h 0.99 in
  check_bool "p50 within 10%" true (abs_float (p50 -. 500.) < 50.);
  check_bool "p99 within 10%" true (abs_float (p99 -. 990.) < 99.);
  check_bool "p50 < p99" true (p50 < p99);
  Alcotest.(check (float 0.5)) "mean" 500.5 (Stats.Histogram.mean h)

let test_histogram_empty_and_reset () =
  let h = Stats.Histogram.create () in
  Alcotest.(check (float 0.)) "empty percentile" 0. (Stats.Histogram.percentile h 0.99);
  Stats.Histogram.observe h 10.;
  Stats.Histogram.reset h;
  check_int "reset count" 0 (Stats.Histogram.count h)

let test_rate () =
  let r = Stats.Rate.create () in
  Stats.Rate.add r 500;
  Stats.Rate.tick r;
  Alcotest.(check (float 1e-9)) "per sec" 50.1 (Stats.Rate.per_sec r ~window:(Time.sec 10))


let test_engine_yield_interleaves () =
  let e = Engine.create () in
  let log = ref [] in
  let worker name =
    ignore
      (Engine.spawn e (fun () ->
           for i = 1 to 3 do
             log := Printf.sprintf "%s%d" name i :: !log;
             Engine.yield e
           done))
  in
  worker "a";
  worker "b";
  Engine.run e;
  Alcotest.(check (list string)) "round-robin interleaving"
    [ "a1"; "b1"; "a2"; "b2"; "a3"; "b3" ]
    (List.rev !log)

let test_suspend_manual_resume () =
  let e = Engine.create () in
  let resume_cell = ref None in
  let got = ref 0 in
  let _ =
    Engine.spawn e (fun () -> got := Engine.suspend e (fun r -> resume_cell := Some r))
  in
  Engine.schedule e ~at:(us 10) (fun () ->
      match !resume_cell with Some r -> r 42 | None -> Alcotest.fail "not registered");
  Engine.run e;
  check_int "value passed through suspend" 42 !got

let test_suspend_double_resume_ignored () =
  let e = Engine.create () in
  let resume_cell = ref None in
  let wakeups = ref 0 in
  let _ =
    Engine.spawn e (fun () ->
        ignore (Engine.suspend e (fun r -> resume_cell := Some r) : int);
        incr wakeups)
  in
  Engine.schedule e ~at:(us 10) (fun () ->
      match !resume_cell with
      | Some r ->
          r 1;
          r 2
      | None -> ());
  Engine.run e;
  check_int "resumed exactly once" 1 !wakeups

let test_rng_copy_same_stream () =
  let a = Rng.create 5 in
  ignore (Rng.int a 100);
  let b = Rng.copy a in
  for _ = 1 to 20 do
    check_int "copies advance identically" (Rng.int a 1_000) (Rng.int b 1_000)
  done

(* The event queue against its specification: events run in the stable
   sort by time of their scheduling order. Over 10k events on few distinct
   instants (so most ties are broken by scheduling order), a third of them
   scheduling a follow-up (possibly at the same instant) from inside their
   callback, growing the queue far past its initial capacity. *)
let prop_engine_runs_stable_sort_by_time =
  QCheck.Test.make ~name:"events run in stable time order of scheduling" ~count:20
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let e = Engine.create () in
      let scheduled = ref [] and ran = ref [] and next_id = ref 0 in
      let rec add time =
        let id = !next_id in
        incr next_id;
        scheduled := (id, time) :: !scheduled;
        Engine.schedule e ~at:(us time) (fun () ->
            ran := id :: !ran;
            if Rng.chance rng 0.33 then add (time + Rng.int rng 3))
      in
      for _ = 1 to 10_000 do
        add (Rng.int rng 200)
      done;
      Engine.run e;
      let expected =
        List.stable_sort (fun (_, a) (_, b) -> Int.compare a b) (List.rev !scheduled)
      in
      Engine.pending_events e = 0
      && Engine.events_processed e = !next_id
      && List.rev !ran = List.map fst expected)

(* A fiber cancelled while parked on a structure that skips dead waiters
   ([Mailbox], [Waitq], [Resource]) is never resumed: it must stop counting
   as blocked when it is cancelled, or an idle engine reports a stall. *)
let test_engine_cancelled_parked_not_stalled () =
  let e = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create e () in
  let q = Waitq.create e () in
  let r = Resource.create e ~capacity:1 () in
  let on_mailbox = Engine.spawn e (fun () -> ignore (Mailbox.recv mb)) in
  let on_waitq = Engine.spawn e (fun () -> Waitq.wait q) in
  let holder = Engine.spawn e (fun () -> Resource.acquire r) in
  let on_resource = Engine.spawn e (fun () -> Resource.acquire r) in
  Engine.run e;
  check_bool "holder finished holding the server" false (Engine.fiber_alive holder);
  (match Engine.run ~stop_when_idle:false e with
  | exception Engine.Stalled msg ->
      Alcotest.(check string) "three parked fibers"
        "event queue empty with 3 fiber(s) still blocked" msg
  | () -> Alcotest.fail "expected Stalled before the cancellations");
  List.iter (Engine.cancel e) [ on_mailbox; on_waitq; on_resource ];
  Engine.run ~stop_when_idle:false e;
  Mailbox.send mb 1;
  Waitq.signal q;
  Resource.release r;
  Engine.run ~stop_when_idle:false e;
  check_int "the message waits for a live receiver" 1 (Mailbox.length mb);
  check_int "no waiter left" 0 (Resource.queue_length r + Waitq.waiters q)

(* A cancelled fiber that is resumed anyway ([Ivar] wakes every reader)
   stops counting once, not twice: a later blocked fiber still counts. *)
let test_engine_cancelled_parked_counts_once () =
  let e = Engine.create () in
  let iv : int Ivar.t = Ivar.create e () in
  let reader = Engine.spawn e (fun () -> ignore (Ivar.read iv)) in
  Engine.run e;
  Engine.cancel e reader;
  Engine.cancel e reader;
  Ivar.fill iv 1;
  Engine.run ~stop_when_idle:false e;
  check_bool "reader discarded" false (Engine.fiber_alive reader);
  let mb : int Mailbox.t = Mailbox.create e () in
  let _ = Engine.spawn e (fun () -> ignore (Mailbox.recv mb)) in
  match Engine.run ~stop_when_idle:false e with
  | exception Engine.Stalled msg ->
      Alcotest.(check string) "one blocked fiber"
        "event queue empty with 1 fiber(s) still blocked" msg
  | () -> Alcotest.fail "expected Stalled"

(* A fiber cancelled before its start event never runs, but it finishes:
   a fiber joining it resumes, and nothing is left blocked. *)
let test_engine_join_cancelled_before_start () =
  let e = Engine.create () in
  let ran = ref false and joined = ref false in
  let victim = Engine.spawn e (fun () -> ran := true) in
  Engine.cancel e victim;
  let _ =
    Engine.spawn e (fun () ->
        Engine.join e victim;
        joined := true)
  in
  Engine.run ~stop_when_idle:false e;
  check_bool "the cancelled fiber never ran" false !ran;
  check_bool "its joiner resumed" true !joined

(* A waiter that [Mailbox], [Waitq] or [Resource] skips because it was
   cancelled is never resumed, so its [Fun.protect] finaliser does not run
   (the documented exception); it still finishes, so its joiner resumes.
   A cancelled sleeper is resumed at its wake-up, and its finaliser runs. *)
let test_engine_join_cancelled_waiter () =
  let e = Engine.create () in
  let mb : int Mailbox.t = Mailbox.create e () in
  let q = Waitq.create e () in
  let r = Resource.create e ~capacity:1 () in
  let _holder = Engine.spawn e (fun () -> Resource.acquire r) in
  let finalised = ref [] in
  let protected name body =
    Engine.spawn e (fun () ->
        Fun.protect ~finally:(fun () -> finalised := name :: !finalised) body)
  in
  let waiters =
    [
      protected "mailbox" (fun () -> ignore (Mailbox.recv mb));
      protected "waitq" (fun () -> Waitq.wait q);
      protected "resource" (fun () -> Resource.acquire r);
      protected "sleep" (fun () -> Engine.sleep e (us 50));
    ]
  in
  let joined = ref 0 in
  List.iter
    (fun w ->
      ignore
        (Engine.spawn e (fun () ->
             Engine.join e w;
             incr joined)))
    waiters;
  Engine.run ~until:(us 10) e;
  List.iter (Engine.cancel e) waiters;
  Mailbox.send mb 1;
  Waitq.signal q;
  Resource.release r;
  Engine.run ~stop_when_idle:false e;
  check_int "every joiner resumed" 4 !joined;
  Alcotest.(check (list string)) "only the resumed sleeper ran its finaliser" [ "sleep" ]
    !finalised;
  check_int "the message waits for a live receiver" 1 (Mailbox.length mb)

(* A fiber cancelled while parked on an [Ivar] inside [with_held] is
   resumed into [Cancelled] when the ivar is filled: it releases the
   resource there, and only then does its joiner resume. *)
let test_engine_join_waits_for_cleanup () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 () in
  let iv : unit Ivar.t = Ivar.create e () in
  let holder = Engine.spawn e (fun () -> Resource.with_held r (fun () -> Ivar.read iv)) in
  let joined = ref false and granted_at_once = ref false in
  let _ =
    Engine.spawn e (fun () ->
        Engine.join e holder;
        joined := true;
        let before = Engine.events_processed e in
        Resource.acquire r;
        granted_at_once := Engine.events_processed e = before)
  in
  Engine.run e;
  Engine.cancel e holder;
  Engine.run e;
  check_bool "the joiner waits while the holder has cleanup left" false !joined;
  Ivar.fill iv ();
  Engine.run ~stop_when_idle:false e;
  check_bool "the joiner resumes after the fill" true !joined;
  check_bool "the resource was released before the joiner ran" true !granted_at_once

(* A holder cancelled during [Resource.use]'s service time releases the
   server when its sleep ends, and the next waiter is granted then; a
   cancelled waiter is skipped. Nothing is left counted as blocked. *)
let test_resource_cancel_during_use () =
  let e = Engine.create () in
  let r = Resource.create e ~capacity:1 () in
  let log = ref [] in
  let note name = log := (name, Time.to_us (Engine.now e)) :: !log in
  let holder =
    Engine.spawn e (fun () ->
        Resource.use r (us 100);
        note "holder")
  in
  let skipped =
    Engine.spawn e (fun () ->
        Resource.use r (us 10);
        note "skipped")
  in
  let _next =
    Engine.spawn e (fun () ->
        Resource.use r (us 50);
        note "next")
  in
  Engine.schedule e ~at:(us 10) (fun () ->
      Engine.cancel e holder;
      Engine.cancel e skipped);
  Engine.run ~stop_when_idle:false e;
  Alcotest.(check (list (pair string int))) "next granted at the holder's release"
    [ ("next", 150) ] (List.rev !log);
  check_time "busy for both services" (us 150) (Resource.busy_time r);
  check_int "no waiter left" 0 (Resource.queue_length r)

(* Words allocated per sleep/wake cycle of a fiber, per yield, and per
   [Resource.use] (acquire on the fast path, sleep, release). Each measures
   10 words; when sleep went through [suspend] and [Resource.use] through
   [Fun.protect], a sleep cost 36 and a [Resource.use] 49. *)
let test_engine_sleep_alloc () =
  let n = 10_000 in
  let per_cycle make_body =
    let e = Engine.create () in
    let body = make_body e in
    let _ = Engine.spawn e (fun () -> for _ = 1 to n do body () done) in
    (* The first run grows the queue and starts the fiber. *)
    Engine.run ~until:(us 1) e;
    let before = Gc.minor_words () in
    Engine.run e;
    (Gc.minor_words () -. before) /. float_of_int n
  in
  let sleep = per_cycle (fun e () -> Engine.sleep e (us 1)) in
  let yield = per_cycle (fun e () -> Engine.yield e) in
  let use =
    per_cycle (fun e ->
        let r = Resource.create e ~capacity:1 () in
        fun () -> Resource.use r (us 1))
  in
  let bound = 12. in
  List.iter
    (fun (name, words) ->
      check_bool (Printf.sprintf "%s: %.1f words per cycle <= %.0f" name words bound) true
        (words <= bound))
    [ ("sleep", sleep); ("yield", yield); ("Resource.use", use) ]

(* Random programs against a reference event order. A program schedules
   callbacks at the current instant and at later ones, from callbacks,
   from fibers (which sleep, yield, read ivars and receive from mailboxes,
   and fill and send to wake others) and from outside between [run ~until]
   calls, whose limits are sometimes behind the clock. Every event the
   engine will run gets a reference label at the moment it is scheduled,
   in scheduling order; a correct engine runs, at each step, the pending
   event with the least [(time, label)]. After each run the test also
   checks [pending_events], [events_processed] and the clock. *)
exception Order_violation of string

type ref_waiter = { mutable wake : int (* label of the wake-up event *) }

let prop_engine_matches_reference_order =
  QCheck.Test.make ~name:"events run in the reference (time, scheduling) order" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Rng.create seed in
      let e = Engine.create () in
      let fail fmt = Printf.ksprintf (fun m -> raise (Order_violation m)) fmt in
      (* label -> time of every scheduled, not yet run event *)
      let pending : (int, int) Hashtbl.t = Hashtbl.create 64 in
      let next_label = ref 0 and ran = ref 0 and last_time = ref 0 in
      let budget = ref (50 + Rng.int rng 250) in
      let expect at =
        let label = !next_label in
        incr next_label;
        Hashtbl.replace pending label at;
        label
      in
      let run_event label =
        let now = Time.to_us (Engine.now e) in
        let least =
          Hashtbl.fold
            (fun l t best ->
              match best with
              | Some (bt, bl) when (bt, bl) < (t, l) -> best
              | _ -> Some (t, l))
            pending None
        in
        (match least with
        | Some (t, l) when l = label && t = now -> ()
        | Some (t, l) -> fail "ran label %d at %d; expected label %d at %d" label now l t
        | None -> fail "ran label %d with nothing pending" label);
        Hashtbl.remove pending label;
        incr ran;
        last_time := now
      in
      let ivars = Array.init 3 (fun _ -> (ref (Ivar.create e ()), ref [])) in
      let mailboxes =
        Array.init 2 (fun _ -> (Mailbox.create e (), Queue.create (), ref 0))
      in
      let delay () = if Rng.chance rng 0.5 then 0 else 1 + Rng.int rng 4 in
      let rec act () =
        if !budget > 0 then begin
          decr budget;
          match Rng.int rng 5 with
          | 0 | 1 ->
              let at = Time.to_us (Engine.now e) + delay () in
              let label = expect at in
              Engine.schedule e ~at:(us at) (fun () ->
                  run_event label;
                  for _ = 1 to Rng.int rng 3 do
                    act ()
                  done)
          | 2 ->
              let label = expect (Time.to_us (Engine.now e)) in
              ignore
                (Engine.spawn e (fun () ->
                     run_event label;
                     fiber (1 + Rng.int rng 4)))
          | 3 ->
              let iv, readers = ivars.(Rng.int rng (Array.length ivars)) in
              List.iter
                (fun w -> w.wake <- expect (Time.to_us (Engine.now e)))
                (List.rev !readers);
              readers := [];
              Ivar.fill !iv ();
              iv := Ivar.create e ()
          | _ ->
              let mb, receivers, buffered = mailboxes.(Rng.int rng 2) in
              (match Queue.take_opt receivers with
              | Some w -> w.wake <- expect (Time.to_us (Engine.now e))
              | None -> incr buffered);
              Mailbox.send mb ()
        end
      and fiber steps =
        for _ = 1 to steps do
          match Rng.int rng 5 with
          | 0 ->
              let d = delay () in
              if d = 0 then Engine.sleep e Time.zero
              else begin
                let label = expect (Time.to_us (Engine.now e) + d) in
                Engine.sleep e (us d);
                run_event label
              end
          | 1 ->
              let label = expect (Time.to_us (Engine.now e)) in
              Engine.yield e;
              run_event label
          | 2 ->
              let iv, readers = ivars.(Rng.int rng (Array.length ivars)) in
              let iv = !iv in
              if Ivar.is_filled iv then Ivar.read iv
              else begin
                let w = { wake = -1 } in
                readers := w :: !readers;
                Ivar.read iv;
                run_event w.wake
              end
          | 3 ->
              let mb, receivers, buffered = mailboxes.(Rng.int rng 2) in
              if !buffered > 0 then begin
                decr buffered;
                Mailbox.recv mb
              end
              else begin
                let w = { wake = -1 } in
                Queue.add w receivers;
                Mailbox.recv mb;
                run_event w.wake
              end
          | _ -> act ()
        done
      in
      let check_run ?until () =
        let clock0 = Time.to_us (Engine.now e) and ran0 = !ran in
        Engine.run ?until:(Option.map us until) e;
        let n_pending = Hashtbl.length pending in
        let clock = Time.to_us (Engine.now e) in
        (match until with
        | Some limit when limit < clock0 ->
            if !ran <> ran0 then
              fail "limit %d behind the clock %d ran events" limit clock0
        | Some limit ->
            Hashtbl.iter
              (fun l t ->
                if t <= limit then fail "label %d at %d left behind limit %d" l t limit)
              pending
        | None ->
            if n_pending > 0 then fail "%d events left after an unlimited run" n_pending);
        let expected_clock =
          match until with
          | Some limit when n_pending > 0 -> max clock0 limit
          | _ -> max clock0 !last_time
        in
        if clock <> expected_clock then fail "clock %d, expected %d" clock expected_clock;
        if Engine.pending_events e <> n_pending then
          fail "pending_events %d, expected %d" (Engine.pending_events e) n_pending;
        if Engine.events_processed e <> !ran then
          fail "events_processed %d, expected %d" (Engine.events_processed e) !ran
      in
      match
        for _ = 1 to 1 + Rng.int rng 8 do
          for _ = 1 to Rng.int rng 4 do
            act ()
          done;
          let clock = Time.to_us (Engine.now e) in
          check_run ~until:(max 0 (clock - 3 + Rng.int rng 12)) ()
        done;
        check_run ()
      with
      | () -> true
      | exception Order_violation msg -> QCheck.Test.fail_reportf "seed %d: %s" seed msg)

(* The window against a [Hashtbl] reference. Each case numbers from one
   base (0, far up, below zero or past 2^40) and mixes: a frontier-like
   run of small offsets; offsets that collide in the ring (multiples of
   its initial 64 cells apart) and stay behind while later ones pass;
   offsets just below the first number seen, or far enough below that
   they must spill; jumps past the ring's room and far outliers above;
   long runs of consecutive numbers that are never removed, so the ring
   doubles past the fixed room; removes and resets as at a crash. *)
type window_op = W_replace of int * int | W_remove of int | W_run of int * int | W_reset

let prop_version_window =
  let bases = [| 0; 100_000_000; -5_000; 1 lsl 40 |] in
  let offset =
    QCheck.Gen.(
      frequency
        [
          (40, int_range 1 200);
          (20, map (fun k -> 1 + (64 * k)) (int_range 0 40));
          (6, int_range (-40) (-1));
          (3, int_range 4_200 5_000);
          (2, int_range (-100_000) (-5_000));
          (1, int_range 1_000_000_000 1_000_000_100);
        ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (60, map2 (fun d x -> W_replace (d, x)) offset (int_range (-3) 1000));
          (20, map (fun d -> W_remove d) offset);
          (1, map2 (fun d n -> W_run (d, n)) offset (int_range 1 6_000));
          (1, return W_reset);
        ])
  in
  let print = function
    | W_replace (d, x) -> Printf.sprintf "replace base+%d %d" d x
    | W_remove d -> Printf.sprintf "remove base+%d" d
    | W_run (d, n) -> Printf.sprintf "run of %d from base+%d" n d
    | W_reset -> "reset"
  in
  QCheck.Test.make ~name:"version window agrees with a Hashtbl" ~count:300
    QCheck.(
      make
        ~print:(fun (b, ops) ->
          Printf.sprintf "base %d: %s" bases.(b) (String.concat ", " (List.map print ops)))
        Gen.(pair (int_bound 3) (list_size (int_range 1 600) op)))
    (fun (b, ops) ->
      let base = bases.(b) in
      let w = Version_window.create (-1) in
      let reference = Hashtbl.create 16 in
      let probes = Hashtbl.create 16 in
      let probe n = List.iter (fun n -> Hashtbl.replace probes n ()) [ n - 1; n; n + 1 ] in
      let replace n x =
        Version_window.replace w n x;
        Hashtbl.replace reference n x;
        probe n
      in
      List.iter
        (function
          | W_replace (d, x) -> replace (base + d) x
          | W_remove d ->
              Version_window.remove w (base + d);
              Hashtbl.remove reference (base + d);
              probe (base + d)
          | W_run (d, n) ->
              for i = 0 to n - 1 do
                replace (base + d + i) i
              done
          | W_reset ->
              Version_window.reset w;
              Hashtbl.reset reference)
        ops;
      for d = 1 to 2_700 do
        probe (base + d)
      done;
      let agrees n () ok =
        ok
        &&
        match Hashtbl.find_opt reference n with
        | Some x -> Version_window.mem w n && Version_window.get w n = x
        | None -> (not (Version_window.mem w n)) && Version_window.get w n = -1
      in
      let entries = List.sort compare (Version_window.fold (fun n x acc -> (n, x) :: acc) w []) in
      Hashtbl.fold agrees probes true
      && Version_window.length w = Hashtbl.length reference
      && entries = List.sort compare (Hashtbl.fold (fun n x acc -> (n, x) :: acc) reference []))

(* The dense array against a [Hashtbl] reference: random sets, some far
   past the first page and some sparse, thousands of cells apart, so
   pages are skipped and the directory grows by jumps; sets of the fill
   value itself, which must still be present; removes and resets. *)
type dense_op = D_set of int * int | D_remove of int | D_reset

let prop_dense =
  let index =
    QCheck.Gen.(
      frequency [ (30, int_range 0 200); (2, int_range 200 2000); (2, int_range 2000 100_000) ])
  in
  let op =
    QCheck.Gen.(
      frequency
        [
          (30, map2 (fun i x -> D_set (i, x)) index small_nat);
          (3, map (fun i -> D_set (i, -1)) index);
          (8, map (fun i -> D_remove i) index);
          (1, return D_reset);
        ])
  in
  let print = function
    | D_set (i, x) -> Printf.sprintf "set %d %d" i x
    | D_remove i -> Printf.sprintf "remove %d" i
    | D_reset -> "reset"
  in
  QCheck.Test.make ~name:"dense array agrees with a Hashtbl" ~count:300
    QCheck.(
      make
        ~print:(fun ops -> String.concat ", " (List.map print ops))
        Gen.(list_size (int_range 1 200) op))
    (fun ops ->
      let d = Dense.create (-1) in
      let reference = Hashtbl.create 16 in
      let bound = ref 0 in
      let probes = Hashtbl.create 16 in
      List.iter
        (function
          | D_set (i, x) ->
              Dense.set d i x;
              Hashtbl.replace reference i x;
              Hashtbl.replace probes i ();
              bound := max !bound (i + 1)
          | D_remove i ->
              Dense.remove d i;
              Hashtbl.remove reference i;
              Hashtbl.replace probes i ()
          | D_reset ->
              Dense.reset d;
              Hashtbl.reset reference;
              bound := 0)
        ops;
      let agrees i =
        match Hashtbl.find_opt reference i with
        | Some x -> Dense.mem d i && Dense.get d i = x
        | None -> (not (Dense.mem d i)) && Dense.get d i = -1
      in
      let entries = ref [] in
      Dense.iteri (fun i x -> entries := (i, x) :: !entries) d;
      List.for_all agrees (List.init 2100 (fun i -> i - 1))
      && Hashtbl.fold (fun i () ok -> ok && agrees i) probes true
      && Dense.bound d = !bound
      && Dense.length d = Hashtbl.length reference
      && List.rev !entries = List.sort compare (Hashtbl.fold (fun i x acc -> (i, x) :: acc) reference []))

(* Words allocated per [replace] of the next id of one of eight origins
   that number up from their own bases, as a certifier records its
   outcomes in a window per origin. Counted as minor plus major words less
   the promoted ones, so the rings' doublings count too: 1.5 words per
   record here, 6.2 with an int hash table per origin. A full major
   collection first settles the heap the earlier tests left, which moved
   the count between 1.6 and 2.9 from run to run. *)
let test_per_origin_record_alloc () =
  let t = Dense.create (Version_window.create 0) in
  let record n =
    for i = 1 to n do
      let origin = i land 7 in
      let ids = Dense.find_or_add t origin (fun () -> Version_window.create 0) in
      Version_window.replace ids (((origin + 1) * 100_000_000) + (i lsr 3)) i
    done
  in
  let allocated () =
    let minor, promoted, major = Gc.counters () in
    minor +. major -. promoted
  in
  record 1_000;
  Gc.full_major ();
  let n = 200_000 in
  let before = allocated () in
  record n;
  let words = (allocated () -. before) /. float_of_int n in
  Alcotest.(check int) "last id recorded" n
    (Version_window.get (Dense.get t 0) (100_000_000 + (n lsr 3)));
  if words > 4. then Alcotest.failf "%.1f words per record (bound 4)" words

let suites =
  [
    ( "sim.time",
      [
        Alcotest.test_case "arithmetic and formatting" `Quick test_time_arithmetic;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "ranges" `Quick test_rng_ranges;
        Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "chance" `Quick test_rng_chance;
        Alcotest.test_case "copy preserves stream" `Quick test_rng_copy_same_stream;
      ] );
    ( "sim.heap",
      [
        Alcotest.test_case "heap sort" `Quick test_heap_sorts;
        Alcotest.test_case "pop empty" `Quick test_heap_pop_empty;
        QCheck_alcotest.to_alcotest prop_heap_matches_sorted_list;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "event order" `Quick test_engine_event_order;
        Alcotest.test_case "fifo among ties" `Quick test_engine_fifo_ties;
        Alcotest.test_case "run until" `Quick test_engine_until;
        QCheck_alcotest.to_alcotest prop_engine_runs_stable_sort_by_time;
        QCheck_alcotest.to_alcotest prop_engine_matches_reference_order;
        Alcotest.test_case "no scheduling in the past" `Quick
          test_engine_schedule_past_rejected;
        Alcotest.test_case "fiber sleep" `Quick test_fiber_sleep;
        Alcotest.test_case "fiber join" `Quick test_fiber_join;
        Alcotest.test_case "join finished fiber" `Quick test_fiber_join_finished;
        Alcotest.test_case "fiber cancel runs finalisers" `Quick test_fiber_cancel;
        Alcotest.test_case "stall detection" `Quick test_engine_stalled_detection;
        Alcotest.test_case "fiber exception propagates" `Quick
          test_fiber_exception_propagates;
        Alcotest.test_case "deterministic trace" `Quick test_determinism_trace;
        Alcotest.test_case "yield interleaves fairly" `Quick test_engine_yield_interleaves;
        Alcotest.test_case "suspend/manual resume" `Quick test_suspend_manual_resume;
        Alcotest.test_case "double resume ignored" `Quick test_suspend_double_resume_ignored;
        Alcotest.test_case "cancelled parked fibers are not stalled" `Quick
          test_engine_cancelled_parked_not_stalled;
        Alcotest.test_case "a cancelled parked fiber counts once" `Quick
          test_engine_cancelled_parked_counts_once;
        Alcotest.test_case "sleep/wake allocation" `Quick test_engine_sleep_alloc;
        Alcotest.test_case "join a fiber cancelled before it started" `Quick
          test_engine_join_cancelled_before_start;
        Alcotest.test_case "join a cancelled waiter" `Quick test_engine_join_cancelled_waiter;
        Alcotest.test_case "join waits for a cancelled fiber's cleanup" `Quick
          test_engine_join_waits_for_cleanup;
      ] );
    ( "sim.mailbox",
      [
        Alcotest.test_case "fifo delivery" `Quick test_mailbox_fifo;
        Alcotest.test_case "buffering and try_recv" `Quick test_mailbox_buffering;
        Alcotest.test_case "recv_batch groups" `Quick test_mailbox_recv_batch;
        Alcotest.test_case "cancelled receiver skipped" `Quick
          test_mailbox_cancelled_receiver_skipped;
      ] );
    ( "sim.ivar",
      [
        Alcotest.test_case "roundtrip" `Quick test_ivar_roundtrip;
        Alcotest.test_case "read after fill" `Quick test_ivar_read_after_fill;
        Alcotest.test_case "double fill rejected" `Quick test_ivar_double_fill;
        Alcotest.test_case "multiple readers" `Quick test_ivar_multiple_readers;
      ] );
    ( "sim.waitq",
      [
        Alcotest.test_case "signal then broadcast" `Quick test_waitq_signal_broadcast;
        Alcotest.test_case "signals are not remembered" `Quick test_waitq_lost_signal;
      ] );
    ( "sim.resource",
      [
        Alcotest.test_case "capacity 1 serialises" `Quick test_resource_serialises;
        Alcotest.test_case "parallel servers" `Quick test_resource_parallel_servers;
        Alcotest.test_case "with_held releases on exception" `Quick
          test_resource_with_held_releases_on_exn;
        Alcotest.test_case "utilization accounting" `Quick
          test_resource_utilization_accounting;
        Alcotest.test_case "cancelled during use" `Quick test_resource_cancel_during_use;
      ] );
    ( "sim.stats",
      [
        Alcotest.test_case "summary" `Quick test_summary;
        Alcotest.test_case "histogram percentiles" `Quick test_histogram_percentiles;
        Alcotest.test_case "histogram empty/reset" `Quick test_histogram_empty_and_reset;
        Alcotest.test_case "rate" `Quick test_rate;
      ] );
    ( "sim.tables",
      [
        QCheck_alcotest.to_alcotest prop_version_window;
        QCheck_alcotest.to_alcotest prop_dense;
        Alcotest.test_case "per-origin record allocation" `Quick test_per_origin_record_alloc;
      ] );
  ]

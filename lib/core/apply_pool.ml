open Sim

(* The one applier behind a replica's proxy (the worker half; the database
   half is Mvcc.Db's certified-commit finish). Items are submitted in
   version order and published in submission order; the ordering policy
   decides how many execute at once and whether a key-level index over
   in-flight writesets (the Overlay technique from the certifier) makes each
   item wait for the newest pending writer of any key it touches. Whichever
   item completes the head of the submission queue publishes the ready
   prefix inline — the ordered-publish barrier that keeps GSI snapshots
   gap-free. *)

type policy = Serial | Commit_n | Parallel of int

type handle = {
  batch : (int * Mvcc.Writeset.t) list;
  mutable deps : handle list;  (* pending predecessors writing an overlapping key *)
  exec : unit -> unit;
  on_published : unit -> unit;
  exec_done : unit Ivar.t;
  mutable fiber : Engine.fiber option;  (* the item's own fiber under Commit_n *)
  mutable wait_span : Obs.Trace.span option;
}

(* Per-key in-flight writers. Delta writers ([Writeset.Add]) commute with
   each other, so a key tracks the newest pending blind (final-image)
   writer plus every pending delta writer since it: a new delta depends
   only on the blind writer (all in-flight deltas can run concurrently
   with it), while a new blind write depends on everything — the blind
   writer and the whole delta set. *)
type key_writers = { mutable blind : handle option; mutable deltas : handle list }

(* The absent slot of the key index: never handed out, never mutated. *)
let no_writers = { blind = None; deltas = [] }

type t = {
  engine : Engine.t;
  name : string;
  policy : policy;
  trace : Obs.Trace.t;
  queue : handle Mailbox.t;
  unpublished : handle Queue.t;  (* submitted, not yet published, in order *)
  index : key_writers Mvcc.Key.Dense.t;  (* empty under [Serial] *)
  mutable workers : Engine.fiber list;
  (* Time-weighted exec concurrency: parallelism = ∫busy dt / ∫[busy>0] dt. *)
  mutable busy : int;
  mutable last_change : Time.t;
  mutable busy_area : float;
  mutable busy_span : float;
  c_stalls : Stats.Counter.t;
  c_submitted : Stats.Counter.t;
}

(* One FIFO worker already runs items in version order, so an index would
   only cost. *)
let indexed t = match t.policy with Serial -> false | Commit_n | Parallel _ -> true

let account t =
  let now = Engine.now t.engine in
  let dt = Time.to_sec (Time.diff now t.last_change) in
  if dt > 0. then begin
    t.busy_area <- t.busy_area +. (float_of_int t.busy *. dt);
    if t.busy > 0 then t.busy_span <- t.busy_span +. dt
  end;
  t.last_change <- now

let enter_busy t =
  account t;
  t.busy <- t.busy + 1

let leave_busy t =
  account t;
  t.busy <- t.busy - 1

let parallelism t =
  account t;
  if t.busy_span > 0. then t.busy_area /. t.busy_span else 0.

let stalls t = Stats.Counter.value t.c_stalls
let pending t = Queue.length t.unpublished

(* Retire this item's key-index entries (unless a later submission already
   took them over). *)
let retire t h =
  List.iter
    (fun (_, ws) ->
      Mvcc.Writeset.iter_keys ws (fun key ->
          let w = Mvcc.Key.Dense.find t.index key in
          if w != no_writers then begin
            (match w.blind with
            | Some h' when h' == h -> w.blind <- None
            | Some _ | None -> ());
            w.deltas <- List.filter (fun h' -> not (h' == h)) w.deltas;
            match (w.blind, w.deltas) with
            | None, [] -> Mvcc.Key.Dense.remove t.index key
            | _ -> ()
          end))
    h.batch

let rec publish t =
  match Queue.peek_opt t.unpublished with
  | Some h when Ivar.is_filled h.exec_done ->
      ignore (Queue.take t.unpublished);
      if indexed t then retire t h;
      h.on_published ();
      publish t
  | Some _ | None -> ()

let run t h =
  let unmet = List.filter (fun d -> not (Ivar.is_filled d.exec_done)) h.deps in
  if unmet <> [] then Stats.Counter.incr t.c_stalls;
  List.iter (fun d -> Ivar.read d.exec_done) unmet;
  (match h.wait_span with
  | Some sp ->
      Obs.Trace.finish t.trace sp;
      h.wait_span <- None
  | None -> ());
  enter_busy t;
  h.exec ();
  leave_busy t;
  Ivar.fill h.exec_done ();
  publish t

let spawn_workers t =
  let n = match t.policy with Serial -> 1 | Commit_n -> 0 | Parallel n -> n in
  t.workers <-
    List.init n (fun _ ->
        Engine.spawn t.engine
          (fun () ->
            let rec loop () =
              run t (Mailbox.recv t.queue);
              loop ()
            in
            loop ()))

let create engine ~name ~policy ~metrics ~trace () =
  (match policy with
  | Parallel n when n < 2 -> invalid_arg "Apply_pool.create: Parallel needs >= 2 workers"
  | Serial | Commit_n | Parallel _ -> ());
  let t =
    {
      engine;
      name;
      policy;
      trace;
      queue = Mailbox.create engine ~name:(name ^ ".apply_queue") ();
      unpublished = Queue.create ();
      index = Mvcc.Key.Dense.create ~absent:no_writers;
      workers = [];
      busy = 0;
      last_change = Engine.now engine;
      busy_area = 0.;
      busy_span = 0.;
      c_stalls = Obs.Registry.counter metrics ("replica." ^ name ^ ".apply.stalls");
      c_submitted = Obs.Registry.counter metrics ("replica." ^ name ^ ".apply.submitted");
    }
  in
  Obs.Registry.gauge metrics
    ("replica." ^ name ^ ".apply.parallelism")
    (fun () -> parallelism t);
  Obs.Registry.gauge metrics
    ("replica." ^ name ^ ".apply.pending")
    (fun () -> float_of_int (pending t));
  Obs.Registry.on_reset metrics (fun () ->
      account t;
      t.busy_area <- 0.;
      t.busy_span <- 0.);
  spawn_workers t;
  t

(* Link [h] to the pending writers of its keys, then make it the newest
   writer. A delta commutes with all pending deltas on the key and only
   waits for the pending blind writer (its read base); a blind write pins a
   final value, so it waits for everything and supersedes every pending
   writer as the dependency target for later submissions. *)
let link t h =
  let depend d = if d != h && not (List.memq d h.deps) then h.deps <- d :: h.deps in
  List.iter
    (fun (_, ws) ->
      Mvcc.Writeset.iter_entries ws (fun key op ->
          let w =
            match Mvcc.Key.Dense.find t.index key with
            | w when w != no_writers -> w
            | _ ->
                let w = { blind = None; deltas = [] } in
                Mvcc.Key.Dense.replace t.index key w;
                w
          in
          Option.iter depend w.blind;
          if Mvcc.Writeset.op_is_delta op then w.deltas <- h :: w.deltas
          else begin
            List.iter depend w.deltas;
            w.blind <- Some h;
            w.deltas <- []
          end))
    h.batch

let submit t ~batch ?trace_id ?(on_published = ignore) ~exec () =
  let h =
    {
      batch;
      deps = [];
      exec;
      on_published;
      exec_done = Ivar.create t.engine ();
      fiber = None;
      wait_span =
        (if Obs.Trace.enabled t.trace then
           Some (Obs.Trace.span t.trace ?id:trace_id ~stage:"apply.wait" ~actor:t.name ())
         else None);
    }
  in
  if indexed t then link t h;
  Stats.Counter.incr t.c_submitted;
  Queue.add h t.unpublished;
  (match t.policy with
  | Commit_n ->
      h.fiber <- Some (Engine.spawn t.engine (fun () -> run t h))
  | Serial | Parallel _ -> Mailbox.send t.queue h);
  h

let has_deps h = h.deps <> []

let pause t =
  List.iter (fun f -> Engine.cancel t.engine f) t.workers;
  t.workers <- [];
  Queue.iter (fun h -> Option.iter (Engine.cancel t.engine) h.fiber) t.unpublished;
  Queue.clear t.unpublished;
  Mailbox.clear t.queue;
  Mvcc.Key.Dense.reset t.index;
  account t;
  t.busy <- 0

let resume t = spawn_workers t

open Effect
open Effect.Deep

exception Cancelled
exception Stalled of string

type fiber = {
  mutable cancelled : bool;
  mutable finished : bool;
  mutable join_waiters : (unit -> unit) list;
}

(* The event queue is a binary min-heap on [(time, seq)], held as unboxed
   ints in parallel arrays so that ordering two events is two inline int
   compares; [runs.(i)] is the callback of the event at slot [i]. [seq]
   numbers events in scheduling order and is unique, so [(time, seq)] is a
   total order (same-instant events run FIFO) and any correct heap pops the
   same sequence. Slots at [size] and beyond hold [nop] so a run event's
   closure is not retained. *)
type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable processed : int;
  mutable blocked_fibers : int;
  mutable times : int array;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable size : int;
}

(* The effect performed by all blocking operations: [register] receives the
   current fiber and a one-shot resume function. *)
type _ Effect.t += Suspend : (fiber -> ('a -> unit) -> unit) -> 'a Effect.t

let nop () = ()
let initial_capacity = 64

let create () =
  {
    clock = Time.zero;
    seq = 0;
    processed = 0;
    blocked_fibers = 0;
    times = Array.make initial_capacity 0;
    seqs = Array.make initial_capacity 0;
    runs = Array.make initial_capacity nop;
    size = 0;
  }

let now t = t.clock
let events_processed t = t.processed
let pending_events t = t.size

let grow t =
  let cap = 2 * Array.length t.times in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.size;
    b
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.runs <- extend t.runs nop

(* Hole-based sift-up. The new event carries the largest [seq] so far, so
   it sorts after every queued event at the same instant: a parent moves
   down only when strictly later. *)
let push t time seq run =
  if t.size = Array.length t.times then grow t;
  let times = t.times and seqs = t.seqs and runs = t.runs in
  let i = ref t.size and sifting = ref true in
  t.size <- t.size + 1;
  while !sifting && !i > 0 do
    let p = (!i - 1) / 2 in
    if time < times.(p) then begin
      times.(!i) <- times.(p);
      seqs.(!i) <- seqs.(p);
      runs.(!i) <- runs.(p);
      i := p
    end
    else sifting := false
  done;
  times.(!i) <- time;
  seqs.(!i) <- seq;
  runs.(!i) <- run

(* Drop the head: hole-based sift-down of the last event from the root. *)
let drop_head t =
  let n = t.size - 1 in
  t.size <- n;
  let times = t.times and seqs = t.seqs and runs = t.runs in
  let time = times.(n) and seq = seqs.(n) and run = runs.(n) in
  runs.(n) <- nop;
  if n > 0 then begin
    let i = ref 0 and sifting = ref true in
    while !sifting do
      let l = (2 * !i) + 1 in
      if l >= n then sifting := false
      else begin
        let r = l + 1 in
        let c =
          if r < n then
            let tl = times.(l) and tr = times.(r) in
            if tr < tl || (tr = tl && seqs.(r) < seqs.(l)) then r else l
          else l
        in
        let tc = times.(c) in
        if tc < time || (tc = time && seqs.(c) < seq) then begin
          times.(!i) <- tc;
          seqs.(!i) <- seqs.(c);
          runs.(!i) <- runs.(c);
          i := c
        end
        else sifting := false
      end
    done;
    times.(!i) <- time;
    seqs.(!i) <- seq;
    runs.(!i) <- run
  end

let schedule t ~at run =
  if Time.( < ) at t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%s is before now=%s" (Time.to_string at)
         (Time.to_string t.clock));
  t.seq <- t.seq + 1;
  push t (Time.to_us at) t.seq run

let schedule_after t span run = schedule t ~at:(Time.add t.clock span) run

let finish_fiber t fiber =
  fiber.finished <- true;
  let waiters = List.rev fiber.join_waiters in
  fiber.join_waiters <- [];
  List.iter (fun w -> schedule t ~at:t.clock w) waiters

let spawn t ?name:_ body =
  let fiber = { cancelled = false; finished = false; join_waiters = [] } in
  let handler : (unit, unit) handler =
    {
      retc = (fun () -> finish_fiber t fiber);
      exnc =
        (fun e ->
          match e with
          | Cancelled -> finish_fiber t fiber
          | e ->
              finish_fiber t fiber;
              raise e);
      effc =
        (fun (type a) (eff : a Effect.t) ->
          match eff with
          | Suspend register ->
              Some
                (fun (k : (a, unit) continuation) ->
                  let resumed = ref false in
                  t.blocked_fibers <- t.blocked_fibers + 1;
                  let resume (v : a) =
                    if not !resumed then begin
                      resumed := true;
                      t.blocked_fibers <- t.blocked_fibers - 1;
                      if fiber.cancelled then discontinue k Cancelled else continue k v
                    end
                  in
                  register fiber resume)
          | _ -> None);
    }
  in
  let start () = if not fiber.cancelled then match_with body () handler in
  schedule t ~at:t.clock start;
  fiber

let cancel _t fiber = if not fiber.finished then fiber.cancelled <- true
let fiber_alive fiber = not (fiber.finished || fiber.cancelled)
let suspend2 (_ : t) register = perform (Suspend register)
let suspend t register = suspend2 t (fun _fiber resume -> register resume)

let sleep t span =
  if Time.is_zero span then ()
  else suspend t (fun resume -> schedule_after t span (fun () -> resume ()))

let yield t = suspend t (fun resume -> schedule t ~at:t.clock (fun () -> resume ()))

let join t fiber =
  if not fiber.finished then
    suspend t (fun resume -> fiber.join_waiters <- (fun () -> resume ()) :: fiber.join_waiters)

let run ?until ?(stop_when_idle = true) t =
  let limit = match until with None -> max_int | Some limit -> Time.to_us limit in
  let rec loop () =
    if t.size = 0 then begin
      if (not stop_when_idle) && t.blocked_fibers > 0 then
        raise
          (Stalled
             (Printf.sprintf "event queue empty with %d fiber(s) still blocked"
                t.blocked_fibers))
    end
    else
      let time = t.times.(0) in
      if time > limit then
        (* Leave future events queued; advance the clock to the limit. *)
        t.clock <- Time.max t.clock (Time.of_us limit)
      else begin
        let run = t.runs.(0) in
        drop_head t;
        t.clock <- Time.of_us time;
        t.processed <- t.processed + 1;
        run ();
        loop ()
      end
  in
  loop ()

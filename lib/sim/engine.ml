open Effect
open Effect.Deep

exception Cancelled
exception Stalled of string

type fiber = {
  mutable cancelled : bool;
  mutable finished : bool;
  mutable parked : bool; (* counted in [blocked_fibers] *)
  mutable nap : int; (* span of the sleep being handled, in microseconds *)
  mutable join_waiters : (unit -> unit) list;
}

(* Events scheduled for a later instant wait in a binary min-heap on
   [(time, seq)], held as unboxed ints in parallel arrays so that ordering
   two events is two inline int compares; [runs.(i)] is the callback of the
   event at slot [i]. [seq] numbers heap events in scheduling order and is
   unique, so [(time, seq)] is a total order (same-instant events run FIFO)
   and any correct heap pops the same sequence. Slots at [size] and beyond
   hold [nop] so a run event's closure is not retained.

   About half of all events are scheduled at the current instant (wake-ups,
   yields, zero-delay sends). They skip the heap and queue in [ring], a
   FIFO of [ring_len] callbacks from [ring_head] (capacity a power of two).
   The order is still [(time, seq)]: a heap event at instant [c] was
   scheduled while the clock was before [c], so before every ring event of
   [c]; the loop runs the heap's events at the current instant, then the
   ring, and only then advances the clock, and the ring is empty whenever
   the clock moves. *)
type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable processed : int;
  mutable blocked_fibers : int;
  mutable times : int array;
  mutable seqs : int array;
  mutable runs : (unit -> unit) array;
  mutable size : int;
  mutable ring : (unit -> unit) array;
  mutable ring_head : int;
  mutable ring_len : int;
}

(* [Park register] is {!suspend}, [Park_fiber register] is {!suspend2}:
   [register] receives a one-shot resume function (and the fiber).
   [Sleep span] parks the fiber for [span] ({!yield} is [Sleep 0]); its
   wake-up is an event, so a sleeping fiber never counts as blocked. *)
type _ Effect.t +=
  | Park : (('a -> unit) -> unit) -> 'a Effect.t
  | Park_fiber : (fiber -> ('a -> unit) -> unit) -> 'a Effect.t
  | Sleep : int -> unit Effect.t

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
    ring = Array.make initial_capacity nop;
    ring_head = 0;
    ring_len = 0;
  }

let now t = t.clock
let events_processed t = t.processed
let pending_events t = t.size + t.ring_len

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

let ring_add t run =
  let cap = Array.length t.ring in
  if t.ring_len = cap then begin
    (* Unroll into a ring twice the size, oldest first from slot 0. *)
    let ring = Array.make (2 * cap) nop in
    let first = cap - t.ring_head in
    Array.blit t.ring t.ring_head ring 0 first;
    Array.blit t.ring 0 ring first t.ring_head;
    t.ring <- ring;
    t.ring_head <- 0
  end;
  let ring = t.ring in
  ring.((t.ring_head + t.ring_len) land (Array.length ring - 1)) <- run;
  t.ring_len <- t.ring_len + 1

let ring_take t =
  let ring = t.ring and head = t.ring_head in
  let run = ring.(head) in
  ring.(head) <- nop;
  t.ring_head <- (head + 1) land (Array.length ring - 1);
  t.ring_len <- t.ring_len - 1;
  run

(* [at] in microseconds, not before the clock. *)
let schedule_us t at run =
  let clock = (t.clock :> int) in
  if at = clock then ring_add t run
  else if at < clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule: at=%s is before now=%s"
         (Time.to_string (Time.of_us at)) (Time.to_string t.clock))
  else begin
    t.seq <- t.seq + 1;
    push t at t.seq run
  end

let schedule t ~(at : Time.t) run = schedule_us t (at :> int) run
let schedule_after t (span : Time.t) run =
  schedule_us t ((t.clock :> int) + (span :> int)) run

(* Idempotent: a cancelled waiter that a structure dropped (see
   [drop_waiter]) may still be resumed into its [Cancelled] by something
   else it registered with. *)
let finish_fiber t fiber =
  if not fiber.finished then begin
    fiber.finished <- true;
    let waiters = List.rev fiber.join_waiters in
    fiber.join_waiters <- [];
    List.iter (ring_add t) waiters
  end

(* A parked fiber counts as blocked until it is resumed or cancelled,
   whichever comes first; a fiber that parks after its cancellation never
   counts. *)
let park t fiber =
  if not fiber.cancelled then begin
    fiber.parked <- true;
    t.blocked_fibers <- t.blocked_fibers + 1
  end

let unpark t fiber =
  if fiber.parked then begin
    fiber.parked <- false;
    t.blocked_fibers <- t.blocked_fibers - 1
  end

(* The one-shot resume of a fiber parked on [k]. *)
let resumer t fiber k =
  let resumed = ref false in
  park t fiber;
  fun v ->
    if not !resumed then begin
      resumed := true;
      unpark t fiber;
      if fiber.cancelled then discontinue k Cancelled else continue k v
    end

let spawn t ?name:_ body =
  let fiber =
    { cancelled = false; finished = false; parked = false; nap = 0; join_waiters = [] }
  in
  (* Allocated once per fiber rather than once per sleep: the span travels
     in [fiber.nap]. *)
  let wake_after_nap =
    Some
      (fun (k : (unit, unit) continuation) ->
        schedule_us t ((t.clock :> int) + fiber.nap) (fun () ->
            if fiber.cancelled then discontinue k Cancelled else continue k ()))
  in
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
        (fun (type a) (eff : a Effect.t) : ((a, unit) continuation -> unit) option ->
          match eff with
          | Sleep span ->
              fiber.nap <- span;
              wake_after_nap
          | Park register ->
              Some (fun (k : (a, unit) continuation) -> register (resumer t fiber k))
          | Park_fiber register ->
              Some
                (fun (k : (a, unit) continuation) -> register fiber (resumer t fiber k))
          | _ -> None);
    }
  in
  let start () =
    if fiber.cancelled then finish_fiber t fiber else match_with body () handler
  in
  ring_add t start;
  fiber

let cancel t fiber =
  if not fiber.finished then begin
    fiber.cancelled <- true;
    unpark t fiber
  end

let drop_waiter t fiber = if fiber.cancelled then finish_fiber t fiber

let fiber_alive fiber = not (fiber.finished || fiber.cancelled)
let suspend (_ : t) register = perform (Park register)
let suspend2 (_ : t) register = perform (Park_fiber register)
let sleep _t (span : Time.t) =
  let span = (span :> int) in
  if span <> 0 then perform (Sleep span)

let yield _t = perform (Sleep 0)

let join t fiber =
  if not fiber.finished then
    suspend t (fun resume -> fiber.join_waiters <- resume :: fiber.join_waiters)

let run ?until ?(stop_when_idle = true) t =
  let limit = match until with None -> max_int | Some limit -> Time.to_us limit in
  let rec loop () =
    let now = (t.clock :> int) in
    if t.size > 0 && t.times.(0) = now && now <= limit then begin
      (* A heap event at the current instant precedes the whole ring. *)
      let run = t.runs.(0) in
      drop_head t;
      t.processed <- t.processed + 1;
      run ();
      loop ()
    end
    else if t.ring_len > 0 then begin
      (* With the limit behind the clock, the ring waits for a later run. *)
      if now <= limit then begin
        let run = ring_take t in
        t.processed <- t.processed + 1;
        run ();
        loop ()
      end
    end
    else if t.size = 0 then begin
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
        t.clock <- Time.of_us (max now limit)
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

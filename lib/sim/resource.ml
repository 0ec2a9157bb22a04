type t = {
  engine : Engine.t;
  label : string;
  cap : int;
  mutable busy : int;
  waiters : (Engine.fiber * (unit -> unit)) Queue.t;
  created_at : Time.t;
  mutable last_change : Time.t;
  mutable busy_integral : Time.t; (* sum of busy * dt *)
}

let create engine ?(name = "resource") ~capacity () =
  if capacity <= 0 then invalid_arg "Resource.create: capacity must be positive";
  {
    engine;
    label = name;
    cap = capacity;
    busy = 0;
    waiters = Queue.create ();
    created_at = Engine.now engine;
    last_change = Engine.now engine;
    busy_integral = Time.zero;
  }

let name t = t.label
let capacity t = t.cap

let account t =
  let now = Engine.now t.engine in
  let dt = Time.diff now t.last_change in
  t.busy_integral <- Time.add t.busy_integral (Time.mul dt t.busy);
  t.last_change <- now

let grant t =
  account t;
  t.busy <- t.busy + 1

let acquire t =
  if t.busy < t.cap && Queue.is_empty t.waiters then grant t
  else
    Engine.suspend2 t.engine (fun fiber resume -> Queue.add (fiber, resume) t.waiters)

let rec wake_next t =
  match Queue.take_opt t.waiters with
  | None -> ()
  | Some (fiber, resume) ->
      if Engine.fiber_alive fiber then begin
        grant t;
        Engine.schedule_after t.engine Time.zero resume
      end
      else begin
        Engine.drop_waiter t.engine fiber;
        wake_next t
      end

let release t =
  if t.busy <= 0 then invalid_arg "Resource.release: not held";
  account t;
  t.busy <- t.busy - 1;
  wake_next t

(* The holder can be cancelled mid-service (e.g. a crashed replica's
   client); the server must still be released. [use] and [with_held]
   release with a [match] rather than [Fun.protect], which costs two
   closures and a handler per operation. *)
let release_and_reraise t e =
  let bt = Printexc.get_raw_backtrace () in
  release t;
  Printexc.raise_with_backtrace e bt

let use t duration =
  acquire t;
  match Engine.sleep t.engine duration with
  | () -> release t
  | exception e -> release_and_reraise t e

let with_held t f =
  acquire t;
  match f () with
  | v ->
      release t;
      v
  | exception e -> release_and_reraise t e

let queue_length t = Queue.length t.waiters

let busy_time t =
  account t;
  t.busy_integral

let utilization t =
  let elapsed = Time.diff (Engine.now t.engine) t.created_at in
  if Time.is_zero elapsed then 0.
  else Time.ratio (busy_time t) (Time.mul elapsed t.cap)

type t = {
  engine : Engine.t;
  label : string;
  queue : (Engine.fiber * (unit -> unit)) Queue.t;
}

let create engine ?(name = "waitq") () = { engine; label = name; queue = Queue.create () }
let name t = t.label

let wait t =
  Engine.suspend2 t.engine (fun fiber resume -> Queue.add (fiber, resume) t.queue)

let rec signal t =
  match Queue.take_opt t.queue with
  | None -> ()
  | Some (fiber, resume) ->
      if Engine.fiber_alive fiber then
        Engine.schedule_after t.engine Time.zero resume
      else begin
        Engine.drop_waiter t.engine fiber;
        signal t
      end

let broadcast t =
  let pending = Queue.length t.queue in
  for _ = 1 to pending do
    signal t
  done

let waiters t = Queue.length t.queue

type 'a t = {
  engine : Engine.t;
  label : string;
  msgs : 'a Queue.t;
  waiters : (Engine.fiber * ('a -> unit)) Queue.t;
}

let create engine ?(name = "mailbox") () =
  { engine; label = name; msgs = Queue.create (); waiters = Queue.create () }

let name t = t.label

(* Pop the first waiter whose fiber is still alive and not cancelled. *)
let rec pop_live_waiter t =
  match Queue.take_opt t.waiters with
  | None -> None
  | Some (fiber, resume) ->
      if Engine.fiber_alive fiber then Some resume
      else begin
        Engine.drop_waiter t.engine fiber;
        pop_live_waiter t
      end

let send t msg =
  match pop_live_waiter t with
  | Some resume -> Engine.schedule_after t.engine Time.zero (fun () -> resume msg)
  | None -> Queue.add msg t.msgs

let recv t =
  match Queue.take_opt t.msgs with
  | Some msg -> msg
  | None ->
      Engine.suspend2 t.engine (fun fiber resume -> Queue.add (fiber, resume) t.waiters)

let try_recv t = Queue.take_opt t.msgs

let recv_batch t =
  let first = recv t in
  let rec drain acc =
    match Queue.take_opt t.msgs with None -> List.rev acc | Some m -> drain (m :: acc)
  in
  drain [ first ]

let length t = Queue.length t.msgs
let is_empty t = Queue.is_empty t.msgs
let clear t = Queue.clear t.msgs

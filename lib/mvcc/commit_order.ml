open Sim

type t = {
  engine : Engine.t;
  mutable allocated : int;
  mutable announced_upto : int;
  mutable turnstile : Waitq.t;
  (* Sequence numbers finished out of order that are still waiting for
     every lower number to finish before they can publish. *)
  completed : (int, unit) Hashtbl.t;
}

let create engine () =
  {
    engine;
    allocated = 0;
    announced_upto = 0;
    turnstile = Waitq.create engine ();
    completed = Hashtbl.create 64;
  }

let next_seq t =
  t.allocated <- t.allocated + 1;
  t.allocated

let rec wait_turn t n =
  if n <= 0 then invalid_arg "Commit_order.wait_turn: sequence numbers are 1-based";
  if t.announced_upto < n - 1 then begin
    Waitq.wait t.turnstile;
    wait_turn t n
  end

(* Mark [n] finished in any order; the announced prefix only advances
   through a contiguous run of completed numbers, so observers never see
   [n] published before [n-1]. *)
let complete t n =
  if n <= 0 then invalid_arg "Commit_order.complete: sequence numbers are 1-based";
  if n > t.announced_upto && not (Hashtbl.mem t.completed n) then begin
    Hashtbl.replace t.completed n ();
    let advanced = ref false in
    while Hashtbl.mem t.completed (t.announced_upto + 1) do
      Hashtbl.remove t.completed (t.announced_upto + 1);
      t.announced_upto <- t.announced_upto + 1;
      advanced := true
    done;
    if !advanced then Waitq.broadcast t.turnstile
  end

let announced t = t.announced_upto
let waiting t = Waitq.waiters t.turnstile

let reset t =
  t.allocated <- 0;
  t.announced_upto <- 0;
  Hashtbl.reset t.completed;
  t.turnstile <- Waitq.create t.engine ()

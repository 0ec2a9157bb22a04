open Sim

type event =
  | Request_admitted of {
      actor : string;
      part : int;
      origin : string;
      req_id : int;
      replica_version : int;
    }
  | Verdict of {
      actor : string;
      part : int;
      origin : string;
      req_id : int;
      committed : bool;
      version : int;
    }
  | Durable_ack of {
      actor : string;
      part : int;
      origin : string;
      req_id : int;
      version : int;
    }
  | Log_append of {
      actor : string;
      part : int;
      version : int;
      origin : string;
      req_id : int;
      cross : bool;
    }
  | Gc_floor of { actor : string; part : int; floor : int }
  | Prepared of { actor : string; part : int; gtx : string; vote : bool }
  | Xvote of {
      actor : string;
      part : int;
      from_part : int;
      gtx : string;
      vote : bool;
    }
  | Decision of { actor : string; part : int; gtx : string; committed : bool }
  | Ws_install of { actor : string; part : int; version : int }
  | Snapshot_advance of { actor : string; part : int; version : int }
  | Snapshot_load of { actor : string; part : int; version : int }
  | Tx_submitted of { actor : string; tx : int }
  | Tx_resolved of { actor : string; tx : int; committed : bool }
  | Node_crash of { actor : string }
  | Node_recover of { actor : string }
  | Actor_reset of { actor : string }
  | Fault_health of { healthy : bool }

type handler = Time.t -> event -> unit

type t = {
  on : bool;
  now : unit -> Time.t;
  mutable handlers : handler list;
  mutable emitted : int;
}

let create engine =
  { on = true; now = (fun () -> Engine.now engine); handlers = []; emitted = 0 }

let disabled () =
  { on = false; now = (fun () -> Time.zero); handlers = []; emitted = 0 }

let enabled t = t.on

let subscribe t h = t.handlers <- t.handlers @ [ h ]

let rec dispatch now ev = function
  | [] -> ()
  | h :: rest ->
      h now ev;
      dispatch now ev rest

let emit t ev =
  if t.on then begin
    t.emitted <- t.emitted + 1;
    dispatch (t.now ()) ev t.handlers
  end

let emitted t = t.emitted

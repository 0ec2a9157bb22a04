open Sim

type config = {
  latency_lo : Time.t;
  latency_hi : Time.t;
  bandwidth_bytes_per_sec : float;
}

let default_lan =
  {
    latency_lo = Time.us 40;
    latency_hi = Time.us 80;
    bandwidth_bytes_per_sec = 125_000_000.; (* 1 Gb/s *)
  }

type verdict = Pass | Drop | Delay of Time.t

type 'a t = {
  engine : Engine.t;
  rng : Rng.t;
  config : config;
  (* Endpoint addresses, interned: the mailboxes and the FIFO floors are
     indexed by an address's index, so a send hashes no string. *)
  names : Names.t;
  endpoints : 'a Mailbox.t option Dense.t;
  last_delivery : Time.t Dense.t Dense.t; (* FIFO floor per directed link: src -> dst *)
  partitions : (string * string, unit) Hashtbl.t;
  link_extra : (string * string, Time.t) Hashtbl.t;
  mutable drop_rate : float;
  mutable tap : (src:string -> dst:string -> 'a -> verdict) option;
  sent : Stats.Counter.t;
  delivered : Stats.Counter.t;
  dropped : Stats.Counter.t;
}

let create engine ~rng ?(config = default_lan) () =
  {
    engine;
    rng;
    config;
    names = Names.create ();
    endpoints = Dense.create None;
    last_delivery = Dense.create (Dense.create Time.zero);
    partitions = Hashtbl.create 8;
    link_extra = Hashtbl.create 8;
    drop_rate = 0.;
    tap = None;
    sent = Stats.Counter.create ();
    delivered = Stats.Counter.create ();
    dropped = Stats.Counter.create ();
  }

let engine t = t.engine

(* The index of [addr], which no endpoint may hold yet. *)
let claim t fn addr =
  let i = Names.index t.names addr in
  if Dense.mem t.endpoints i then
    invalid_arg (Printf.sprintf "Network.%s: address %S already taken" fn addr);
  i

let register t addr =
  let i = claim t "register" addr in
  let mb = Mailbox.create t.engine ~name:addr () in
  Dense.set t.endpoints i (Some mb);
  mb

let reattach t addr mb = Dense.set t.endpoints (claim t "reattach" addr) (Some mb)

let unregister t addr =
  let i = Names.index t.names addr in
  Dense.remove t.endpoints i;
  (* Drop the FIFO floors of every link touching this address: a restarted
     node must not inherit the pre-crash delivery horizon, which would
     delay its first post-recovery messages by however far ahead the old
     incarnation's traffic had pushed the link. *)
  Dense.remove t.last_delivery i;
  Dense.iteri (fun _ floors -> Dense.remove floors i) t.last_delivery

let link_key a b = if String.compare a b <= 0 then (a, b) else (b, a)
let partition t a b = Hashtbl.replace t.partitions (link_key a b) ()
let heal t a b = Hashtbl.remove t.partitions (link_key a b)
let set_drop_rate t rate = t.drop_rate <- rate
let drop_rate t = t.drop_rate
let slow_link t a b ~extra = Hashtbl.replace t.link_extra (link_key a b) extra
let restore_link t a b = Hashtbl.remove t.link_extra (link_key a b)
let set_tap t tap = t.tap <- tap

let transfer_time t size =
  Time.of_sec (float_of_int size /. t.config.bandwidth_bytes_per_sec)

let send t ~src ~dst ?(size = 256) msg =
  Stats.Counter.incr t.sent;
  let drop () = Stats.Counter.incr t.dropped in
  (* The tap (targeted fault injection) rules first: a surgically dropped or
     delayed message must not depend on the link's random state, so the
     verdict is computed before any latency draw. With no tap installed the
     random stream is untouched and delivery is bit-identical. *)
  let tap_verdict =
    match t.tap with None -> Pass | Some f -> f ~src ~dst msg
  in
  if tap_verdict = Drop then drop ()
  else if Hashtbl.length t.partitions > 0 && Hashtbl.mem t.partitions (link_key src dst)
  then drop ()
  else if t.drop_rate > 0. && Rng.chance t.rng t.drop_rate then drop ()
  else begin
    let latency =
      Rng.time_uniform t.rng ~lo:t.config.latency_lo ~hi:t.config.latency_hi
    in
    let latency =
      if Hashtbl.length t.link_extra = 0 then latency
      else
        match Hashtbl.find_opt t.link_extra (link_key src dst) with
        | Some extra -> Time.add latency extra
        | None -> latency
    in
    let latency =
      match tap_verdict with Delay extra -> Time.add latency extra | _ -> latency
    in
    let arrival =
      Time.add (Engine.now t.engine) (Time.add latency (transfer_time t size))
    in
    (* FIFO per directed link: never deliver before an earlier message. *)
    let d = Names.index t.names dst in
    let floors =
      Dense.find_or_add t.last_delivery (Names.index t.names src) (fun () ->
          Dense.create Time.zero)
    in
    let arrival = if Time.(arrival < Dense.get floors d) then Dense.get floors d else arrival in
    Dense.set floors d arrival;
    Engine.schedule t.engine ~at:arrival (fun () ->
        match Dense.get t.endpoints d with
        | Some mb ->
            Stats.Counter.incr t.delivered;
            Mailbox.send mb msg
        | None -> Stats.Counter.incr t.dropped)
  end

let messages_sent t = Stats.Counter.value t.sent
let messages_delivered t = Stats.Counter.value t.delivered
let messages_dropped t = Stats.Counter.value t.dropped

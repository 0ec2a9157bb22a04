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
  endpoints : (string, 'a Mailbox.t) Hashtbl.t;
  last_delivery : (string * string, Time.t ref) Hashtbl.t;
      (* FIFO floor per directed link, updated in place *)
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
    endpoints = Hashtbl.create 32;
    last_delivery = Hashtbl.create 64;
    partitions = Hashtbl.create 8;
    link_extra = Hashtbl.create 8;
    drop_rate = 0.;
    tap = None;
    sent = Stats.Counter.create ();
    delivered = Stats.Counter.create ();
    dropped = Stats.Counter.create ();
  }

let engine t = t.engine

let register t addr =
  if Hashtbl.mem t.endpoints addr then
    invalid_arg (Printf.sprintf "Network.register: address %S already taken" addr);
  let mb = Mailbox.create t.engine ~name:addr () in
  Hashtbl.replace t.endpoints addr mb;
  mb

let reattach t addr mb =
  if Hashtbl.mem t.endpoints addr then
    invalid_arg (Printf.sprintf "Network.reattach: address %S already taken" addr);
  Hashtbl.replace t.endpoints addr mb

let unregister t addr =
  Hashtbl.remove t.endpoints addr;
  (* Drop the FIFO floors of every link touching this address: a restarted
     node must not inherit the pre-crash delivery horizon, which would
     delay its first post-recovery messages by however far ahead the old
     incarnation's traffic had pushed the link. *)
  let stale =
    Hashtbl.fold
      (fun ((src, dst) as key) _ acc ->
        if String.equal src addr || String.equal dst addr then key :: acc else acc)
      t.last_delivery []
  in
  List.iter (Hashtbl.remove t.last_delivery) stale

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
    (* FIFO per directed link: never deliver before an earlier message.
       The link's floor is found once and moved in place. *)
    let arrival =
      match Hashtbl.find_opt t.last_delivery (src, dst) with
      | Some floor ->
          if Time.( < ) !floor arrival then floor := arrival;
          !floor
      | None ->
          Hashtbl.add t.last_delivery (src, dst) (ref arrival);
          arrival
    in
    Engine.schedule t.engine ~at:arrival (fun () ->
        match Hashtbl.find_opt t.endpoints dst with
        | Some mb ->
            Stats.Counter.incr t.delivered;
            Mailbox.send mb msg
        | None -> Stats.Counter.incr t.dropped)
  end

let messages_sent t = Stats.Counter.value t.sent
let messages_delivered t = Stats.Counter.value t.delivered
let messages_dropped t = Stats.Counter.value t.dropped

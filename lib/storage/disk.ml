open Sim

type config = {
  fsync_lo : Time.t;
  fsync_hi : Time.t;
  position_lo : Time.t;
  position_hi : Time.t;
  bandwidth_bytes_per_sec : float;
}

let default_hdd =
  {
    fsync_lo = Time.of_ms 6.;
    fsync_hi = Time.of_ms 12.;
    position_lo = Time.of_ms 4.;
    position_hi = Time.of_ms 9.;
    bandwidth_bytes_per_sec = 55_000_000.;
  }

let ram_config =
  {
    fsync_lo = Time.us 3;
    fsync_hi = Time.us 6;
    position_lo = Time.us 1;
    position_hi = Time.us 2;
    bandwidth_bytes_per_sec = 2_000_000_000.;
  }

type t = {
  rng : Rng.t;
  config : config;
  channel : Resource.t;
  engine : Engine.t;
  label : string;
  ram : bool;
  fsync_count : Stats.Counter.t;
  read_count : Stats.Counter.t;
  write_count : Stats.Counter.t;
  synced_bytes : Stats.Counter.t;
  (* Injectable fault state. All of it is mutated by the fault injector at
     runtime; the operation paths below consult it on every op. *)
  mutable stall_extra : Time.t option;
  mutable degrade_factor : float;
  mutable write_error_rate : float;
  fsync_stall_count : Stats.Counter.t;
  io_error_count : Stats.Counter.t;
}

let create engine ~rng ?(config = default_hdd) ?(name = "disk") () =
  {
    rng;
    config;
    channel = Resource.create engine ~name ~capacity:1 ();
    engine;
    label = name;
    ram = false;
    fsync_count = Stats.Counter.create ();
    read_count = Stats.Counter.create ();
    write_count = Stats.Counter.create ();
    synced_bytes = Stats.Counter.create ();
    stall_extra = None;
    degrade_factor = 1.0;
    write_error_rate = 0.;
    fsync_stall_count = Stats.Counter.create ();
    io_error_count = Stats.Counter.create ();
  }

let create_ram engine ~rng ?(name = "ramdisk") () =
  { (create engine ~rng ~config:ram_config ~name ()) with ram = true }

let name t = t.label
let is_ram t = t.ram

(* ------------------------------------------------------------------ *)
(* Fault injection *)

let set_stall t ~extra = t.stall_extra <- Some extra
let clear_stall t = t.stall_extra <- None
let stalled t = t.stall_extra <> None
let stall_extra t = t.stall_extra
let set_degrade t ~factor = t.degrade_factor <- Float.max 1.0 factor
let clear_degrade t = t.degrade_factor <- 1.0
let degrade_factor t = t.degrade_factor

let set_write_error_rate t rate =
  t.write_error_rate <- Float.min 1.0 (Float.max 0. rate)

let fsync_stalls t = Stats.Counter.value t.fsync_stall_count
let io_errors t = Stats.Counter.value t.io_error_count

(* A healthy op takes [base]; a degraded device multiplies it, a stalled
   one additionally holds the channel for the stall window. *)
let faulted t base =
  let lat = if t.degrade_factor > 1.0 then Time.scale base t.degrade_factor else base in
  match t.stall_extra with None -> lat | Some extra -> Time.add lat extra

let transfer_time t bytes =
  Time.of_sec (float_of_int bytes /. t.config.bandwidth_bytes_per_sec)

let occupy t duration = Resource.use t.channel duration

(* A transient write error is absorbed inside the device model: the failed
   attempt occupies the channel for a full op time before the driver's
   retry succeeds. At most one error per operation is modelled — enough to
   perturb latency without making op cost unbounded. *)
let maybe_error t ~lo ~hi ~bytes =
  if t.write_error_rate > 0. && Rng.chance t.rng t.write_error_rate then begin
    Stats.Counter.incr t.io_error_count;
    let wasted = Rng.time_uniform t.rng ~lo ~hi in
    occupy t (faulted t (Time.add wasted (transfer_time t bytes)))
  end

let fsync t ~bytes =
  maybe_error t ~lo:t.config.fsync_lo ~hi:t.config.fsync_hi ~bytes;
  if t.stall_extra <> None then Stats.Counter.incr t.fsync_stall_count;
  let latency = Rng.time_uniform t.rng ~lo:t.config.fsync_lo ~hi:t.config.fsync_hi in
  occupy t (faulted t (Time.add latency (transfer_time t bytes)));
  Stats.Counter.incr t.fsync_count;
  Stats.Counter.add t.synced_bytes bytes

let page_io t counter ~bytes =
  maybe_error t ~lo:t.config.position_lo ~hi:t.config.position_hi ~bytes;
  let latency =
    Rng.time_uniform t.rng ~lo:t.config.position_lo ~hi:t.config.position_hi
  in
  occupy t (faulted t (Time.add latency (transfer_time t bytes)));
  Stats.Counter.incr counter

let read t ~bytes = page_io t t.read_count ~bytes
let write t ~bytes = page_io t t.write_count ~bytes

let fsyncs t = Stats.Counter.value t.fsync_count
let reads t = Stats.Counter.value t.read_count
let writes t = Stats.Counter.value t.write_count
let bytes_synced t = Stats.Counter.value t.synced_bytes
let utilization t = Resource.utilization t.channel
let queue_length t = Resource.queue_length t.channel

let reset_stats t =
  Stats.Counter.reset t.fsync_count;
  Stats.Counter.reset t.read_count;
  Stats.Counter.reset t.write_count;
  Stats.Counter.reset t.synced_bytes

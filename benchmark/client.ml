(* The benchmark's closed-loop client. Each client fiber runs one request at
   a time: think, then draw a transaction from the workload profile and run
   it through its replica's proxy until one commits. After an abort the
   client backs off for an exponentially growing random time and draws a
   fresh transaction. Re-running the aborted one instead would, on TPC-B,
   keep a remote-branch transfer racing the branch's home client and
   abort it for seconds at a time, a tail made by the client rather than
   the system. A request whose [max_attempts] attempts all abort fails.

   A response time is that of the committed transaction, from its begin to
   its commit's return, as the paper measures it; aborted attempts and
   backoffs show in goodput and the abort rate instead.

   With [detail] (the traced rep only) every call into the proxy layer, and
   every backoff, is timed on the sim clock, and the committed writesets and
   the keys read are captured for the layer replay. The calls are the only
   things a transaction blocks on, so their sum must cover its response
   time; the budget gap measures how closely it does. *)

open Sim
module P = Tashkent.Proxy
module R = Tashkent.Replica
module Spec = Workload.Spec

let max_attempts = 100
let capture_limit = 20_000

(* Mean backoff after the [n]th aborted attempt: 10 ms doubling to 1 s. *)
let backoff n = Time.ms (min 1000 (10 lsl min 7 (n - 1)))

module Samples = struct
  type t = { mutable data : float array; mutable n : int }

  let create () = { data = Array.make 1024 0.; n = 0 }

  let add t x =
    if t.n = Array.length t.data then begin
      let bigger = Array.make (2 * t.n) 0. in
      Array.blit t.data 0 bigger 0 t.n;
      t.data <- bigger
    end;
    t.data.(t.n) <- x;
    t.n <- t.n + 1

  let count t = t.n

  let mean t =
    if t.n = 0 then 0.
    else
      let s = ref 0. in
      for i = 0 to t.n - 1 do
        s := !s +. t.data.(i)
      done;
      !s /. float_of_int t.n

  (* Exact nearest-rank percentile; 0 when empty. *)
  let percentile t p =
    if t.n = 0 then 0.
    else begin
      let a = Array.sub t.data 0 t.n in
      Array.sort Float.compare a;
      let rank = int_of_float (Float.ceil (p *. float_of_int t.n)) in
      a.(max 0 (min (t.n - 1) (rank - 1)))
    end
end

type call = Begin | Exec | Read | Write | Commit | Abort | Backoff

let call_index = function
  | Begin -> 0
  | Exec -> 1
  | Read -> 2
  | Write -> 3
  | Commit -> 4
  | Abort -> 5
  | Backoff -> 6

type t = {
  engine : Engine.t;
  detail : bool;
  mutable recording : bool;
  update_ms : Samples.t;
  ro_ms : Samples.t;
  calls : Samples.t array;  (* per [call], in ms *)
  mutable committed : int;
  mutable failed : int;
  mutable attempts : int;
  mutable aborted : int;
  mutable call_us : int;  (* summed call time of the recorded transactions *)
  mutable response_us : int;
  mutable writesets : (Mvcc.Writeset.t * int) list;
      (* committed writeset, and how many versions the replica advanced
         between its snapshot and the commit reply; newest first *)
  mutable n_writesets : int;
  mutable reads : Mvcc.Key.t list;
  mutable n_reads : int;
}

let create engine ~detail =
  {
    engine;
    detail;
    recording = false;
    update_ms = Samples.create ();
    ro_ms = Samples.create ();
    calls = Array.init 7 (fun _ -> Samples.create ());
    committed = 0;
    failed = 0;
    attempts = 0;
    aborted = 0;
    call_us = 0;
    response_us = 0;
    writesets = [];
    n_writesets = 0;
    reads = [];
    n_reads = 0;
  }

(* A [probe] client's requests add to the read-only response times and the
   call budget only: goodput, attempts and failures count the workload's
   own transactions. *)
let spawn ?(probe = false) t ~replica ~replica_ix ~client ~rng ~(spec : Spec.t) =
  let engine = t.engine in
  let proxy = R.proxy replica in
  let tx_calls = ref 0 in
  let timed call f =
    if not t.detail then f ()
    else begin
      let t0 = Engine.now engine in
      let r = f () in
      let d = Time.diff (Engine.now engine) t0 in
      tx_calls := !tx_calls + Time.to_us d;
      if t.recording then Samples.add t.calls.(call_index call) (Time.to_ms d);
      r
    end
  in
  let capturing () = t.detail && t.recording in
  let ctx tx =
    {
      Spec.read =
        (fun key ->
          if capturing () && t.n_reads < capture_limit then begin
            t.reads <- key :: t.reads;
            t.n_reads <- t.n_reads + 1
          end;
          timed Read (fun () -> P.read proxy tx key));
      write =
        (fun key op ->
          match timed Write (fun () -> P.write proxy tx key op) with
          | Ok () -> ()
          | Error _ -> raise Spec.Tx_failed);
      client_rng = rng;
    }
  in
  let attempt (body : Spec.tx_body) =
    let tx = timed Begin (fun () -> P.begin_tx proxy) in
    timed Exec (fun () -> R.use_cpu replica (spec.exec_cpu rng));
    match body.run (ctx tx) with
    | exception Spec.Tx_failed ->
        timed Abort (fun () -> P.abort proxy tx);
        false
    | () -> (
        let ws = if capturing () then P.tx_writeset tx else Mvcc.Writeset.empty in
        match timed Commit (fun () -> P.commit proxy tx) with
        | Ok () ->
            if (not (Mvcc.Writeset.is_empty ws)) && t.n_writesets < capture_limit
            then begin
              let lag = P.replica_version proxy - P.tx_start_version tx in
              t.writesets <- (ws, lag) :: t.writesets;
              t.n_writesets <- t.n_writesets + 1
            end;
            true
        | Error _ -> false)
  in
  let rec request () =
    if not (Time.is_zero spec.think_time) then
      Engine.sleep engine (Rng.time_exponential rng ~mean:spec.think_time);
    let rec go n =
      let body = spec.new_tx ~rng ~client ~replica_ix ~n_replicas:Scenario.n_replicas in
      let started = Engine.now engine in
      tx_calls := 0;
      let ok = attempt body in
      let counted = t.recording && not probe in
      if counted then begin
        t.attempts <- t.attempts + 1;
        if not ok then t.aborted <- t.aborted + 1
      end;
      if ok then begin
        if t.recording then begin
          let response = Time.diff (Engine.now engine) started in
          if counted then t.committed <- t.committed + 1;
          t.call_us <- t.call_us + !tx_calls;
          t.response_us <- t.response_us + Time.to_us response;
          Samples.add
            (match body.kind with Spec.Update -> t.update_ms | Spec.Read_only -> t.ro_ms)
            (Time.to_ms response)
        end
      end
      else if n >= max_attempts then (if counted then t.failed <- t.failed + 1)
      else begin
        timed Backoff (fun () ->
            Engine.sleep engine (Rng.time_exponential rng ~mean:(backoff n)));
        go (n + 1)
      end
    in
    go 1;
    request ()
  in
  ignore
    (Engine.spawn engine
       ~name:(Printf.sprintf "%s.bench%d" (R.name replica) client)
       request)

let call_mean t call = Samples.mean t.calls.(call_index call)
let call_p99 t call = Samples.percentile t.calls.(call_index call) 0.99

let budget_gap_share t =
  if t.response_us = 0 then 0.
  else 1. -. (float_of_int t.call_us /. float_of_int t.response_us)

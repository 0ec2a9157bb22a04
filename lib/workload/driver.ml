open Sim

module Collector = struct
  type t = {
    mutable enabled : bool;
    mutable n_committed : int;
    mutable n_update_committed : int;
    mutable n_aborted : int;
    update_latency : Stats.Histogram.t;
    ro_latency : Stats.Histogram.t;
  }

  let create () =
    {
      enabled = false;
      n_committed = 0;
      n_update_committed = 0;
      n_aborted = 0;
      update_latency = Stats.Histogram.create ();
      ro_latency = Stats.Histogram.create ();
    }

  let enable t = t.enabled <- true
  let disable t = t.enabled <- false

  let reset t =
    t.n_committed <- 0;
    t.n_update_committed <- 0;
    t.n_aborted <- 0;
    Stats.Histogram.reset t.update_latency;
    Stats.Histogram.reset t.ro_latency

  let record_commit t kind latency =
    if t.enabled then begin
      t.n_committed <- t.n_committed + 1;
      match kind with
      | Spec.Update ->
          t.n_update_committed <- t.n_update_committed + 1;
          Stats.Histogram.observe_time t.update_latency latency
      | Spec.Read_only -> Stats.Histogram.observe_time t.ro_latency latency
    end

  let record_abort t = if t.enabled then t.n_aborted <- t.n_aborted + 1
  let committed t = t.n_committed
  let update_committed t = t.n_update_committed
  let aborted t = t.n_aborted
  let mean_response_ms t = Stats.Histogram.mean t.update_latency /. 1_000.
  let mean_ro_response_ms t = Stats.Histogram.mean t.ro_latency /. 1_000.
  let p95_response_ms t = Stats.Histogram.percentile t.update_latency 0.95 /. 1_000.
  let p99_response_ms t = Stats.Histogram.percentile t.update_latency 0.99 /. 1_000.

  let goodput t ~window =
    let secs = Time.to_sec window in
    if secs <= 0. then 0. else float_of_int t.n_committed /. secs

  let throughput_all t ~window =
    let secs = Time.to_sec window in
    if secs <= 0. then 0. else float_of_int (t.n_committed + t.n_aborted) /. secs
end

(* Run one transaction body against executor callbacks; returns the kind on
   success, or None if the body failed locally. *)
let run_body body ~rng ~read ~write =
  let ctx =
    {
      Spec.read;
      write =
        (fun key op -> match write key op with Ok () -> () | Error _ -> raise Spec.Tx_failed);
      client_rng = rng;
    }
  in
  body.Spec.run ctx

let client_loop engine ~spec ~rng ~collector ~replica_ix ~n_replicas ~client
    ~begin_tx ~read ~write ~commit ~abort ~use_cpu =
  let rec loop () =
    if not (Time.is_zero spec.Spec.think_time) then
      Engine.sleep engine (Rng.time_exponential rng ~mean:spec.Spec.think_time);
    let body = spec.Spec.new_tx ~rng ~client ~replica_ix ~n_replicas in
    let started = Engine.now engine in
    let tx = begin_tx () in
    use_cpu (spec.Spec.exec_cpu rng);
    (match run_body body ~rng ~read:(read tx) ~write:(write tx) with
    | exception Spec.Tx_failed ->
        abort tx;
        Collector.record_abort collector
    | () -> (
        match commit tx with
        | Ok () ->
            Collector.record_commit collector body.Spec.kind
              (Time.diff (Engine.now engine) started)
        | Error _ -> Collector.record_abort collector));
    loop ()
  in
  loop ()

let spawn_replica_clients engine ~replica ~spec ~rng ~collector ~replica_ix ~n_replicas =
  let module R = Tashkent.Replica in
  let module S = Tashkent.Session in
  let session = R.session replica in
  let run ~client ~rng =
    client_loop engine ~spec ~rng ~collector ~replica_ix ~n_replicas ~client
      ~begin_tx:(fun () -> S.begin_tx session)
      ~read:(S.read session) ~write:(S.write session) ~commit:(S.commit session)
      ~abort:(S.abort session) ~use_cpu:(R.use_cpu replica)
  in
  let spawn_all () =
    for client = 0 to spec.Spec.clients_per_replica - 1 do
      let rng = Rng.split rng in
      R.register_client replica
        (Engine.spawn engine
           (fun () -> run ~client ~rng))
    done
  in
  spawn_all ();
  R.set_respawn_clients replica spawn_all

let spawn_standalone_clients engine ~db ~cpu ~spec ~rng ~collector =
  for client = 0 to spec.Spec.clients_per_replica - 1 do
    let client_rng = Rng.split rng in
    ignore
      (Engine.spawn engine (fun () ->
           client_loop engine ~spec ~rng:client_rng ~collector ~replica_ix:0
             ~n_replicas:1 ~client
             ~begin_tx:(fun () -> Mvcc.Db.begin_tx db)
             ~read:(fun tx key -> Mvcc.Db.read tx key)
             ~write:(fun tx key op -> Mvcc.Db.write tx key op)
             ~commit:(fun tx ->
               if Mvcc.Writeset.is_empty (Mvcc.Db.writeset tx) then begin
                 Mvcc.Db.commit_readonly tx;
                 Ok ()
               end
               else
                 match Mvcc.Db.commit_standalone tx with
                 | Ok _ -> Ok ()
                 | Error e -> Error e)
             ~abort:(fun tx -> Mvcc.Db.abort tx)
             ~use_cpu:(fun c -> Resource.use cpu c)))
  done

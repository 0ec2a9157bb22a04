(* The four benchmark workloads. Every one runs a closed loop on 8 replicas
   and a 3-certifier group, shared IO, one partition; they differ in mode,
   transaction mix and apply path so that each layer is stressed by one
   workload and bypassed by another (README.md says which). *)

open Sim

type t = {
  name : string;
  mode : Tashkent.Types.mode;
  profile : unit -> Workload.Spec.t;
      (* a fresh profile per rep: TPC-B/TPC-W profiles count history and
         order rows per client *)
  apply_workers : int;
  probe : bool;
      (* one extra read-only client per replica, for the workloads that have
         no read-only transactions of their own, so that every workload
         reports read-only response time *)
  warmup : Time.t;
  window : Time.t;
}

let n_replicas = 8
let n_certifiers = 3
let default_seed = 20060418

let all =
  [
    (* The Fig. 4 headline. Durability comes from the certifier's group
       commit; replicas are CPU-bound applying remote writesets, so the
       certifier, Paxos, network and remote apply dominate. No conflicts,
       no reads, no Apply_pool. *)
    {
      name = "mw-allupdates";
      mode = Tashkent.Types.Tashkent_mw;
      profile = (fun () -> Workload.Allupdates.profile ());
      apply_workers = 1;
      probe = true;
      warmup = Time.sec 2;
      window = Time.sec 4;
    };
    (* Durability from each replica's own WAL in commit order (log disk
       nearly saturated); hot branch rows give real write-write conflicts
       and aborts, while the certifier is nearly idle. *)
    {
      name = "base-tpcb";
      mode = Tashkent.Types.Base;
      profile = (fun () -> Workload.Tpcb.profile ());
      apply_workers = 1;
      probe = true;
      warmup = Time.sec 5;
      window = Time.sec 20;
    };
    (* The read-only path: 80% local snapshot reads that never certify, a
       database larger than the cache, and API-mode concurrent apply with
       artificial-conflict serialisation. The long window spans several
       30 s vacuum cycles; it is event-dense and cheap per event. *)
    {
      name = "api-tpcw";
      mode = Tashkent.Types.Tashkent_api;
      profile = (fun () -> Workload.Tpcw.profile ());
      apply_workers = 1;
      probe = false;
      warmup = Time.sec 10;
      window = Time.sec 200;
    };
    (* The only workload through Apply_pool and the delta fast path: every
       hot-key overlap commutes through certification. Longest update
       tail. *)
    {
      name = "mw-hotkey-pool";
      mode = Tashkent.Types.Tashkent_mw;
      profile = (fun () -> Workload.Hotkey.profile ~skew:0.99 ~deltas:true ());
      apply_workers = 4;
      probe = true;
      warmup = Time.sec 2;
      window = Time.sec 8;
    };
  ]

let find name = List.find_opt (fun s -> s.name = name) all

(* The read-only probe: point-read snapshot transactions of a uniformly
   drawn loaded row, with a point read's CPU demand and a short think time.
   At under 2% of a replica CPU it leaves the workload's own throughput
   essentially unchanged, and it still completes at least 2 500 requests
   per window, enough for a steady p99. *)
let probe_spec (spec : Workload.Spec.t) keys =
  {
    spec with
    think_time = Time.ms 10;
    exec_cpu = (fun rng -> Rng.time_uniform rng ~lo:(Time.us 100) ~hi:(Time.us 300));
    new_tx =
      (fun ~rng ~client:_ ~replica_ix:_ ~n_replicas:_ ->
        let key = Rng.pick rng keys in
        {
          Workload.Spec.kind = Workload.Spec.Read_only;
          run = (fun ctx -> ignore (ctx.Workload.Spec.read key));
        });
  }

(* The smoke test keeps every workload but shrinks its windows. *)
let smoke s = { s with warmup = Time.of_ms 500.; window = Time.sec 1 }

let cluster_config s (spec : Workload.Spec.t) ~seed =
  let replica =
    {
      (Tashkent.Replica.default_config s.mode) with
      Tashkent.Replica.io = Tashkent.Replica.Shared_io;
      (* no periodic dumps during a performance run *)
      mw_recovery = Tashkent.Replica.Dump_based { interval = Time.sec 1_000_000 };
      page_read_miss = spec.page_read_miss;
      page_writeback_per_op = spec.page_writeback_per_op;
      bg_page_writes_per_sec = spec.bg_page_writes_per_sec;
      db_size_bytes = spec.db_size_bytes;
    }
  in
  Tashkent.Cluster.config ~n_replicas ~n_certifiers ~apply_workers:s.apply_workers
    ~replica ~seed s.mode

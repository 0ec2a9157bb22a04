(** Schedule exploration: sweep fault-plan seeds in parallel batches,
    inject targeted message-level reorderings (precise {!Fault.Delay_msg} /
    {!Fault.Drop_msg} / {!Fault.Crash_on_msg} taps), and shrink any
    schedule that trips an invariant checkpoint or an online protocol
    monitor down to a minimal explicit plan — the artifact that becomes a
    CI regression.

    Every explored schedule runs through {!Chaos_exp} with the monitors
    attached, so a "violation" here means exactly what it means in CI: a
    checkpoint assertion or an {!Obs.Monitor} finding. Runs are
    deterministic per (workload seed, plan); the parallel batching only
    changes wall-clock time, never results. *)

type scenario_kind =
  | Random_schedule  (** {!Fault.random_plan} over the swept seed *)
  | Targeted_schedule
      (** {!targeted_plan} over the swept seed: a background
          replica–certifier partition plus a handful of precise message
          taps (delay the decisive Paxos ack, drop the Nth certifier
          reply or cross-partition vote, crash a certifier the instant it
          announces an entry) *)

type scenario = { plan_seed : int; kind : scenario_kind }

type repro = {
  scenario : scenario;
  plan : Fault.plan;  (** minimal violating plan (shrunk when enabled) *)
  signature : string;
      (** which class of violation the plan reproduces: a monitor name
          ("serial-order", "durability", …) or ["checkpoint"] for the
          post-heal invariant assertions. Shrinking preserves the
          signature — a candidate that merely violates {e something} is
          not accepted. *)
  violations : string list;  (** findings from the minimal plan's run *)
  original_len : int;  (** actions in the un-shrunk plan *)
  shrink_runs : int;  (** chaos runs spent shrinking this repro *)
}

type config = {
  base : Chaos_exp.config;
      (** template for every explored run (mode, cluster shape, duration,
          workload seed...); its [plan] field is ignored — the
          sweep substitutes its own *)
  first_seed : int;  (** first plan seed of the sweep *)
  n_seeds : int;  (** plan seeds swept; each yields one random and
                      (with [targeted]) one targeted schedule *)
  targeted : bool;  (** also run {!targeted_plan} per seed (default on) *)
  batch : int;  (** schedules run concurrently, one domain each *)
  shrink : bool;  (** shrink violating schedules (default on) *)
  max_shrink_runs : int;  (** chaos-run budget per shrink (default 48) *)
  max_repros : int;  (** stop shrinking after this many distinct repros *)
}

val default_config : unit -> config
(** {!Chaos_exp.default_config} base, seeds 1–8, targeted schedules on,
    batch of 4, shrinking on. *)

type result = {
  scenarios_run : int;
  runs : int;  (** total chaos executions, shrinking included *)
  clean : int;  (** scenarios with no violation *)
  repros : repro list;  (** one per violating scenario, sweep order *)
}

val targeted_plan :
  seed:int ->
  duration:Sim.Time.t ->
  n_certifiers:int ->
  n_replicas:int ->
  ?n_partitions:int ->
  unit ->
  Fault.plan
(** A reproducible targeted schedule: usually a replica partitioned from
    every certifier for a 1–3 s window (retry and GC-floor pressure), then
    2–4 precise taps drawn from: delay the decisive
    {!Fault.M_paxos_accept_ok}, drop or delay the Nth certifier reply to a
    chosen replica (forcing a client retry whose re-answer may arrive
    arbitrarily stale), drop the Nth fetch reply, crash a certifier at the
    instant it broadcasts a {!Fault.M_paxos_commit} (between append and
    announce; paired with recovery), and — when partitioned — drop the Nth
    cross-partition vote. A {!Fault.Heal_all} backstop lands at
    [0.85 * duration]. The generator draws from its own stream
    ([0x3C0E lxor seed]), so it shares no randomness with
    {!Fault.random_plan}. *)

val run : ?on_progress:(string -> unit) -> config -> result
(** Blocking. Sweeps all scenarios in batches of [config.batch] domains,
    then shrinks up to [max_repros] violating schedules (candidate
    removals within a shrink round also run batched). [on_progress] gets
    one human-readable line per batch and per shrink round. *)

val pp_repro : Format.formatter -> repro -> unit
val pp_result : Format.formatter -> result -> unit

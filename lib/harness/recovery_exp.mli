(** The §9.6 recovery-time experiments: dump cost and degradation,
    restore-from-dump, database-internal recovery, writeset replay rate,
    and certifier log growth / recovery. *)

type result = {
  dump_degradation : float;
      (** fractional drop of replica 0's goodput during the dump against
          the window before it *)
  dump_duration : Sim.Time.t;
  mw_restore_duration : Sim.Time.t;  (** restore a crashed MW replica from its dump *)
  mw_replayed : int;
  mw_replay_duration : Sim.Time.t;
  replay_rate : float;  (** writesets per second during catch-up *)
  db_recovery_duration : Sim.Time.t;  (** Base internal redo (§7.2) *)
  cert_bytes_per_ws : float;
  cert_log_bytes_per_hour : float;  (** at the measured update rate *)
  cert_recovery_duration : Sim.Time.t;  (** state transfer after 60 s down *)
  update_rate : float;  (** system-wide certified writesets per second *)
}

val net_dump_duration :
  dump_began:Sim.Time.t ->
  measured_from:Sim.Time.t ->
  finished:Sim.Time.t ->
  Sim.Time.t
(** Dump duration net of the dumper's idle lead-in: the dump fiber sleeps
    its interval before starting, so when measurement begins before the
    dump does, the time between [measured_from] and [dump_began] must not
    count. Equals [finished - max dump_began measured_from]. *)

val run : ?n_replicas:int -> ?seed:int -> unit -> result
(** Runs a Tashkent-MW TPC-W cluster through a full dump cycle, a replica
    crash/restore/replay, a certifier crash/recovery — then a Base cluster
    for the database-internal recovery number. Takes a few hundred
    simulated seconds. *)

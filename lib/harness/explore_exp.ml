open Sim

type scenario_kind = Random_schedule | Targeted_schedule
type scenario = { plan_seed : int; kind : scenario_kind }

type repro = {
  scenario : scenario;
  plan : Fault.plan;
  signature : string;
  violations : string list;
  original_len : int;
  shrink_runs : int;
}

type config = {
  base : Chaos_exp.config;
  first_seed : int;
  n_seeds : int;
  targeted : bool;
  batch : int;
  shrink : bool;
  max_shrink_runs : int;
  max_repros : int;
}

let default_config () =
  {
    base = Chaos_exp.default_config ();
    first_seed = 1;
    n_seeds = 8;
    targeted = true;
    batch = 4;
    shrink = true;
    max_shrink_runs = 48;
    max_repros = 3;
  }

type result = {
  scenarios_run : int;
  runs : int;
  clean : int;
  repros : repro list;
}

(* ------------------------------------------------------------------ *)
(* Targeted schedules *)

let targeted_plan ~seed ~duration ~n_certifiers ~n_replicas ?(n_partitions = 1)
    () =
  (* Own stream, disjoint from [Fault.random_plan]'s, so the two schedule
     families for one swept seed are independent. *)
  let rng = Rng.create (0x3C0E lxor seed) in
  let at lo hi = Time.scale duration (Rng.uniform rng ~lo ~hi) in
  let actions = ref [] in
  let add t a = actions := (t, a) :: !actions in
  let certs = List.init n_certifiers (fun i -> Fault.Cert i) in
  let any_replica () = Fault.Rep (Rng.int rng n_replicas) in
  (* Background disturbance: one replica cut off from every certifier long
     enough for client retries to pile up and its watermark report to go
     stale — the pressure that makes stale re-answers and floor races
     reachable at all. *)
  if Rng.chance rng 0.8 then begin
    let r = any_replica () in
    let t0 = at 0.15 0.45 in
    let dur =
      Rng.time_uniform rng ~lo:(Time.of_sec 1.0) ~hi:(Time.of_sec 3.0)
    in
    add t0 (Fault.Partition ([ r ], certs));
    add (Time.add t0 dur) (Fault.Heal ([ r ], certs))
  end;
  (* A handful of precise taps. At most one certifier crash per plan so a
     majority is always up (random taps must explore orderings, not
     manufacture unavailability). *)
  let crashed = ref false in
  let n_taps = 2 + Rng.int rng 3 in
  for _ = 1 to n_taps do
    let t = at 0.1 0.6 in
    match Rng.int rng (if n_partitions > 1 then 6 else 5) with
    | 0 ->
        (* Delay the decisive Paxos acceptor ack: the leader's majority
           completes late, and per-link FIFO stalls everything queued
           behind it. *)
        add t
          (Fault.Delay_msg
             {
               cls = Fault.M_paxos_accept_ok;
               src = None;
               dst = None;
               nth = 1 + Rng.int rng 32;
               extra =
                 Rng.time_uniform rng ~lo:(Time.of_ms 50.)
                   ~hi:(Time.of_ms 900.);
             })
    | 1 ->
        (* Lose a verdict on its way back: the client retries and the
           certifier re-answers from its decided table — the stale-reply
           family. *)
        add t
          (Fault.Drop_msg
             {
               cls = Fault.M_cert_reply;
               src = None;
               dst = Some (any_replica ());
               nth = 1 + Rng.int rng 48;
             })
    | 2 ->
        (* Same family, softer: the verdict arrives, but after the world
           has moved on. *)
        add t
          (Fault.Delay_msg
             {
               cls = Fault.M_cert_reply;
               src = None;
               dst = Some (any_replica ());
               nth = 1 + Rng.int rng 48;
               extra =
                 Rng.time_uniform rng ~lo:(Time.of_sec 0.8)
                   ~hi:(Time.of_sec 2.0);
             })
    | 3 ->
        add t
          (Fault.Drop_msg
             {
               cls = Fault.M_fetch_reply;
               src = None;
               dst = None;
               nth = 1 + Rng.int rng 8;
             })
    | 4 when not !crashed ->
        (* Crash a certifier at the instant it broadcasts a commit
           announcement: the entry is appended and announced, the
           announcer dies before doing anything else. *)
        crashed := true;
        let v = Rng.int rng n_certifiers in
        add t
          (Fault.Crash_on_msg
             {
               cls = Fault.M_paxos_commit;
               src = Some (Fault.Cert v);
               dst = None;
               nth = 1 + Rng.int rng 16;
               victim = Fault.Cert v;
             });
        add (Time.add t (Time.of_sec 2.5)) (Fault.Recover_certifier v);
        (* Backstop in case the tap fires after its paired recovery (both
           are no-ops on an up node). *)
        add (Time.scale duration 0.8) (Fault.Recover_certifier v)
    | 4 -> add t (Fault.Drop_burst { rate = 0.05; duration = Time.of_sec 0.5 })
    | _ ->
        add t
          (Fault.Drop_msg
             {
               cls = Fault.M_xvote;
               src = None;
               dst = None;
               nth = 1 + Rng.int rng 8;
             })
  done;
  add (Time.scale duration 0.85) Fault.Heal_all;
  List.stable_sort (fun (a, _) (b, _) -> Time.compare a b) !actions

(* ------------------------------------------------------------------ *)
(* Running schedules *)

let plan_of cfg { plan_seed; kind } =
  let b = cfg.base and c = cfg.base.cluster in
  match kind with
  | Random_schedule ->
      Fault.random_plan ~seed:plan_seed ~duration:b.duration
        ~n_certifiers:c.n_certifiers ~n_replicas:c.n_replicas
        ~n_partitions:c.n_partitions ~disk_faults:b.disk_faults ()
  | Targeted_schedule ->
      targeted_plan ~seed:plan_seed ~duration:b.duration
        ~n_certifiers:c.n_certifiers ~n_replicas:c.n_replicas
        ~n_partitions:c.n_partitions ()

(* What a schedule found: the violation class it reproduces ([None] on a
   clean run) and its findings. The class is the first monitor's name, or
   "checkpoint" for the post-heal invariant assertions; monitor findings
   print as "[1.234s] serial-order: detail". A schedule that crashes the
   harness outright (an assertion or unexpected exception deep in the
   model) is itself a finding, of class "exception" — explore must record
   it and keep sweeping, not die. *)
let run_schedule cfg plan =
  match
    Chaos_exp.run ~config:{ cfg.base with plan = Chaos_exp.Explicit plan } ()
  with
  | exception exn ->
      (Some "exception", [ "uncaught exception: " ^ Printexc.to_string exn ])
  | { run; _ } ->
      let signature =
        match (run.monitor_violations, run.violations) with
        | v :: _, _ -> (
            match String.index_opt v ']' with
            | Some i -> (
                let rest = String.sub v (i + 1) (String.length v - i - 1) in
                let rest = String.trim rest in
                match String.index_opt rest ':' with
                | Some j -> Some (String.sub rest 0 j)
                | None -> Some rest)
            | None -> Some "monitor")
        | [], _ :: _ -> Some "checkpoint"
        | [], [] -> None
      in
      (signature, run.violations @ run.monitor_violations)

(* The first [n] elements of a list and the rest. *)
let take n xs =
  let rec go n acc = function
    | x :: tl when n > 0 -> go (n - 1) (x :: acc) tl
    | tl -> (List.rev acc, tl)
  in
  go n [] xs

(* Run a batch of independent schedules, one domain each. Results are
   collected in input order, so batching never changes the outcome. *)
let par_map ~batch f xs =
  let batch = max 1 batch in
  let rec go acc xs =
    match xs with
    | [] -> List.concat (List.rev acc)
    | _ ->
        let chunk, rest = take batch xs in
        let rs =
          match chunk with
          | [ x ] -> [ f x ]
          | _ ->
              List.map Domain.join
                (List.map (fun x -> Domain.spawn (fun () -> f x)) chunk)
        in
        go (rs :: acc) rest
  in
  go [] xs

(* ------------------------------------------------------------------ *)
(* Shrinking: greedy one-action removal to a fixed point, preserving the
   violation signature so the minimal plan still reproduces the same bug
   class (not just *a* bug). Candidate removals within a round run in
   parallel batches; the earliest (lowest-index) success wins, keeping the
   result deterministic. *)

let shrink ~on_progress cfg ~signature plan ~budget =
  let runs = ref 0 in
  let rec round plan =
    let n = List.length plan in
    if n <= 1 || !runs >= budget then plan
    else begin
      on_progress
        (Printf.sprintf "shrink: %d actions, %d/%d runs used" n !runs budget);
      let rec scan i =
        if i >= n || !runs >= budget then None
        else
          let chunk = min cfg.batch (min (n - i) (budget - !runs)) in
          let idxs = List.init chunk (fun k -> i + k) in
          let cands =
            List.map
              (fun ix -> (ix, List.filteri (fun j _ -> j <> ix) plan))
              idxs
          in
          let hits =
            (* Runs inside the domains must not touch [runs]; the chunk's
               cost is added once here, in the parent. *)
            par_map ~batch:cfg.batch
              (fun (ix, cand) ->
                if fst (run_schedule cfg cand) = Some signature then
                  Some (ix, cand)
                else None)
              cands
          in
          runs := !runs + List.length cands;
          match List.find_map Fun.id hits with
          | Some hit -> Some hit
          | None -> scan (i + chunk)
      in
      match scan 0 with Some (_, cand) -> round cand | None -> plan
    end
  in
  let minimal = round plan in
  (minimal, !runs)

(* ------------------------------------------------------------------ *)

let run ?(on_progress = fun _ -> ()) cfg =
  let scenarios =
    List.concat_map
      (fun i ->
        let s = cfg.first_seed + i in
        { plan_seed = s; kind = Random_schedule }
        :: (if cfg.targeted then [ { plan_seed = s; kind = Targeted_schedule } ]
            else []))
      (List.init (max 0 cfg.n_seeds) Fun.id)
  in
  let outcomes =
    par_map ~batch:cfg.batch
      (fun sc ->
        let plan = plan_of cfg sc in
        (sc, plan, run_schedule cfg plan))
      scenarios
  in
  let total_runs = ref (List.length outcomes) in
  let violating =
    List.filter_map
      (fun (sc, plan, (signature, violations)) ->
        Option.map (fun signature -> (sc, plan, signature, violations)) signature)
      outcomes
  in
  on_progress
    (Printf.sprintf "sweep: %d schedules, %d violating"
       (List.length outcomes) (List.length violating));
  let to_shrink, overflow = take cfg.max_repros violating in
  if overflow <> [] then
    on_progress
      (Printf.sprintf
         "note: %d further violating schedules beyond max_repros=%d left \
          un-shrunk (reported with their full plans)"
         (List.length overflow) cfg.max_repros);
  let make_repro ~shrunk (sc, plan, signature, violations) =
    let original_len = List.length plan in
    let plan, shrink_runs, violations =
      if shrunk && cfg.shrink then begin
        let minimal, used =
          shrink ~on_progress cfg ~signature plan ~budget:cfg.max_shrink_runs
        in
        total_runs := !total_runs + used;
        (* Re-run the minimal plan once for its findings (also a guard: a
           shrink bug would surface here as a signature mismatch). *)
        incr total_runs;
        (minimal, used, snd (run_schedule cfg minimal))
      end
      else (plan, 0, violations)
    in
    { scenario = sc; plan; signature; violations; original_len; shrink_runs }
  in
  let repros =
    List.map (make_repro ~shrunk:true) to_shrink
    @ List.map (make_repro ~shrunk:false) overflow
  in
  {
    scenarios_run = List.length outcomes;
    runs = !total_runs;
    clean = List.length outcomes - List.length violating;
    repros;
  }

(* ------------------------------------------------------------------ *)

let pp_scenario ppf { plan_seed; kind } =
  Format.fprintf ppf "%s seed %d"
    (match kind with
    | Random_schedule -> "random"
    | Targeted_schedule -> "targeted")
    plan_seed

let pp_repro ppf r =
  Format.fprintf ppf "@[<v>%a: %s (%d actions" pp_scenario r.scenario
    r.signature (List.length r.plan);
  if r.shrink_runs > 0 then
    Format.fprintf ppf ", shrunk from %d in %d runs" r.original_len
      r.shrink_runs;
  Format.fprintf ppf ")@,plan:";
  List.iter
    (fun (t, a) ->
      Format.fprintf ppf "@,  +%.3fs  %a" (Time.to_sec t) Fault.pp_action a)
    r.plan;
  List.iter (fun v -> Format.fprintf ppf "@,violation: %s" v) r.violations;
  Format.fprintf ppf "@]"

let pp_result ppf r =
  Format.fprintf ppf
    "@[<v>schedules explored %d (clean %d, violating %d)@,total runs %d"
    r.scenarios_run r.clean (List.length r.repros) r.runs;
  List.iter (fun rp -> Format.fprintf ppf "@,%a" pp_repro rp) r.repros;
  Format.fprintf ppf "@]"

(* tashbench: the repository benchmark. See README.md for the workloads, the
   metric dictionary and the run protocol.

     tashbench run [--workload W] [--seed S] [--seconds N] [--trace 0|1]
                   [--out FILE] [--smoke] [--bench-json FILE]
     tashbench compare OLD.json NEW.json [--bench-json FILE]
     tashbench calibrate

   [run] measures each workload in fresh child processes, one at a time:
   untraced reps until [--seconds] of wall time has passed (at least
   [min_reps]), then, with [--trace 1], one traced rep. It prints every
   metric with its unit, optionally writes a JSON record, and ends with a
   one-line JSON summary. It exits 1 if a correctness check fails. *)

let min_reps = 3

(* Host times are stated for a machine on which Rep.reference takes this
   long; on the machine the baseline was recorded on it takes 330-430 us
   when the host is quiet. *)
let reference_s = 400e-6
let word_bytes = float_of_int (Sys.word_size / 8)

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("tashbench: " ^ s);
      exit 2)
    fmt

let scenario_of name =
  match Scenario.find name with
  | Some s -> s
  | None ->
      die "unknown workload %S (expected one of: %s)" name
        (String.concat ", " (List.map (fun (s : Scenario.t) -> s.name) Scenario.all))

let read_json path =
  match In_channel.with_open_bin path In_channel.input_all with
  | s -> Json.parse s
  | exception Sys_error e -> die "%s" e

(* --- child reps ----------------------------------------------------- *)

let spawn_rep ~workload ~seed ~smoke ~traced ~trace_capacity =
  let exe = Sys.executable_name in
  let args =
    [ exe; "rep"; "--workload"; workload; "--seed"; string_of_int seed ]
    @ (if traced then [ "--traced"; "--trace-capacity"; string_of_int trace_capacity ] else [])
    @ if smoke then [ "--smoke" ] else []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid = Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr in
  Unix.close wr;
  let ic = Unix.in_channel_of_descr rd in
  let out = In_channel.input_all ic in
  close_in ic;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> Json.parse (String.trim out)
  | _ -> die "rep of %s (seed %d) failed" workload seed

let rep_main argv =
  let workload = ref "" and seed = ref Scenario.default_seed in
  let traced = ref false and trace_capacity = ref 65536 and smoke = ref false in
  Arg.parse_argv argv
    [
      ("--workload", Arg.Set_string workload, "W");
      ("--seed", Arg.Set_int seed, "S");
      ("--traced", Arg.Set traced, "");
      ("--trace-capacity", Arg.Set_int trace_capacity, "N");
      ("--smoke", Arg.Set smoke, "");
    ]
    (fun a -> die "unexpected argument %S" a)
    "tashbench rep";
  let s = scenario_of !workload in
  let s = if !smoke then Scenario.smoke s else s in
  print_endline
    (Json.to_string (Rep.run s ~seed:!seed ~traced:!traced ~trace_capacity:!trace_capacity))

(* --- one workload ---------------------------------------------------- *)

let num j k = Json.to_float (Json.member k j)
let floats j k = Array.of_list (List.map Json.to_float (Json.to_list (Json.member k j)))

(* Sim results every rep of one seed must reproduce exactly. *)
let sim_keys =
  [ "goodput_tps"; "update_p50_ms"; "update_p99_ms"; "ro_p50_ms"; "ro_p99_ms";
    "committed"; "attempts"; "aborted"; "failed"; "events" ]

type outcome = {
  problems : string list;
  attempted : int;
  failed : int;
  e2e : (string * Json.t) list;
  per_layer : (string * Json.t) list;
}

let metric ?(extra = []) value unit =
  Json.Obj ([ ("value", Json.Float value); ("unit", Json.String unit) ] @ extra)

(* A host measurement over the reps: the compared value plus the median and
   IQR of all reps. *)
let spread value xs unit =
  metric value unit
    ~extra:
      [ ("median", Json.Float (Dist.median xs)); ("iqr", Json.Float (Dist.iqr xs));
        ("reps", Json.Int (Array.length xs)) ]

let measure (s : Scenario.t) ~seed ~seconds ~traced ~smoke =
  let t0 = Unix.gettimeofday () in
  let rec loop acc =
    let n = List.length acc in
    if n >= (if smoke then 1 else min_reps) && Unix.gettimeofday () -. t0 >= seconds
    then List.rev acc
    else
      loop (spawn_rep ~workload:s.name ~seed ~smoke ~traced:false ~trace_capacity:0 :: acc)
  in
  let reps = loop [] in
  let first = List.hd reps in
  let traced_rep =
    if traced then
      Some
        (spawn_rep ~workload:s.name ~seed ~smoke ~traced:true
           ~trace_capacity:(max 65536 (int_of_float (num first "events"))))
    else None
  in
  let all = reps @ Option.to_list traced_rep in
  let problems =
    List.concat_map (fun r -> List.map Json.to_str (Json.to_list (Json.member "problems" r))) all
    @ List.filter_map
        (fun k ->
          if List.for_all (fun r -> num r k = num first k) all then None
          else Some (Printf.sprintf "reps differ in %s" k))
        sim_keys
    @
    let words = Array.of_list (List.map (fun r -> num r "alloc_words") reps) in
    if Dist.minimum words >= 0.99 *. Dist.median words
       && Dist.maximum words <= 1.01 *. Dist.median words
    then []
    else
      [
        "untraced reps' alloc_words differ by more than 1%: "
        ^ String.concat ", " (Array.to_list (Array.map (Printf.sprintf "%.17g") words));
      ]
  in
  let per_rep f = Array.of_list (List.map f reps) in
  let committed = num first "committed" in
  (* Host time of a slice: its wall time over the reference loop's (the
     median of the seven timed around it), times [reference_s]. *)
  let slices r =
    let refs = floats r "ref_s" in
    let n = Array.length refs in
    Array.mapi
      (fun i c ->
        let lo = max 0 (i - 3) and hi = min (n - 1) (i + 3) in
        c /. Dist.median (Array.sub refs lo (hi - lo + 1)) *. reference_s)
      (floats r "chunk_s")
  in
  let total r = Array.fold_left ( +. ) 0. (slices r) in
  let rep_slices = List.map slices reps in
  let host_s =
    Array.fold_left ( +. ) 0.
      (Array.init Rep.chunks (fun i ->
           Dist.minimum (Array.of_list (List.map (fun sl -> sl.(i)) rep_slices))))
  in
  let host_us = per_rep (fun r -> total r *. 1e6 /. committed) in
  (* Set-up runs a few seconds before the window, close enough that the
     window's references gauge the machine's speed for it too. *)
  let setup =
    per_rep (fun r -> num r "setup_s" /. Dist.median (floats r "ref_s") *. reference_s)
  in
  let heap = per_rep (fun r -> num r "top_heap_words" *. word_bytes /. 1e6) in
  let alloc = per_rep (fun r -> num r "alloc_words" /. committed /. 1000.) in
  let samples k = [ ("samples", Json.member k first) ] in
  let e2e =
    [
      ("goodput_tps", metric (num first "goodput_tps") "1/s");
      ("update_p50_ms", metric (num first "update_p50_ms") "ms" ~extra:(samples "update_samples"));
      ("update_p99_ms", metric (num first "update_p99_ms") "ms" ~extra:(samples "update_samples"));
      ("ro_p50_ms", metric (num first "ro_p50_ms") "ms" ~extra:(samples "ro_samples"));
      ("ro_p99_ms", metric (num first "ro_p99_ms") "ms" ~extra:(samples "ro_samples"));
      ("host_us_per_commit", spread (host_s *. 1e6 /. committed) host_us "us");
      ("alloc_kwords_per_commit", spread (Dist.median alloc) alloc "kwords");
      ("peak_heap_mb", spread (Dist.median heap) heap "MB");
      ("setup_s", spread (Dist.median setup) setup "s");
    ]
  in
  let per_layer =
    match traced_rep with
    | None -> []
    | Some t ->
        let events = num first "events" in
        let ns_per_event = per_rep (fun r -> total r *. 1e9 /. events) in
        Json.to_assoc (Json.member "layers" t)
        @ [
            ("engine.ns_per_event", spread (host_s *. 1e9 /. events) ns_per_event "ns");
            ("trace.overhead_share", metric ((total t /. host_s) -. 1.) "rel");
          ]
  in
  {
    problems;
    attempted = int_of_float (committed +. num first "failed");
    failed = int_of_float (num first "failed");
    e2e;
    per_layer;
  }

(* --- smoke checks ---------------------------------------------------- *)

let smoke_problems record ~bench =
  let problems = ref [] in
  let add fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let text = Json.to_string record in
  if Json.to_string (Json.parse text) <> text then add "record does not round-trip";
  let expected section =
    match bench with
    | None -> None
    | Some b ->
        Some
          (List.map
             (fun m -> (Json.to_str (Json.member "name" m), Json.to_str (Json.member "unit" m)))
             (Json.to_list (Json.member section b)))
  in
  List.iter
    (fun (w, wj) ->
      List.iter
        (fun (section, bench_section) ->
          let ms = Json.to_assoc (Json.member section wj) in
          List.iter
            (fun (name, m) ->
              let unit = match Json.member "unit" m with Json.String u -> u | _ -> "" in
              let value = num m "value" in
              if unit = "" then add "%s %s has no unit" w name;
              if unit = "ratio" then begin
                if Json.member "base" m = Json.Null then add "%s %s names no base" w name;
                if value < 0. || value > 1. then add "%s %s = %g lies outside [0,1]" w name value
              end)
            ms;
          match expected bench_section with
          | Some names when List.map (fun (n, m) -> (n, Json.to_str (Json.member "unit" m))) ms <> names ->
              add "%s: %s metrics or units differ from BENCHMARK.json" w section
          | _ -> ())
        [ ("end_to_end", "end_to_end"); ("per_layer", "per_layer") ];
      let gap = num (Json.member "client.budget_gap_share" (Json.member "per_layer" wj)) "value" in
      if gap >= 0.01 then add "%s client.budget_gap_share = %g (must be < 1%%)" w gap)
    (Json.to_assoc (Json.member "workloads" record));
  List.rev !problems

(* --- run --------------------------------------------------------------- *)

let run_main argv =
  let workload = ref "" and seed = ref Scenario.default_seed and seconds = ref 20. in
  let trace = ref 1 and out = ref "" and smoke = ref false and bench_json = ref "BENCHMARK.json" in
  Arg.parse_argv argv
    [
      ("--workload", Arg.Set_string workload, "W  one workload (default: all four)");
      ("--seed", Arg.Set_int seed, "S  input seed");
      ("--seconds", Arg.Set_float seconds, "N  wall seconds of untraced reps per workload");
      ("--trace", Arg.Set_int trace, "0|1  also run the traced rep; report per-layer metrics");
      ("--out", Arg.Set_string out, "FILE  write the JSON record");
      ("--smoke", Arg.Set smoke, " 1 sim-s windows, one rep each, then check the record");
      ("--bench-json", Arg.Set_string bench_json, "FILE  benchmark description");
    ]
    (fun a -> die "unexpected argument %S" a)
    "tashbench run";
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  let traced = !trace = 1 || !smoke in
  let seconds = if !smoke then 0. else !seconds in
  let scenarios = if !workload = "" then Scenario.all else [ scenario_of !workload ] in
  let results =
    List.map
      (fun (s : Scenario.t) ->
        let o = measure s ~seed:!seed ~seconds ~traced ~smoke:!smoke in
        if not !smoke then
          List.iter
            (fun (name, m) ->
              Printf.printf "%-16s %-48s %.17g %s\n" s.name name (num m "value")
                (Json.to_str (Json.member "unit" m)))
            (o.e2e @ o.per_layer);
        List.iter (fun p -> Printf.printf "%-16s CHECK FAILED: %s\n" s.name p) o.problems;
        (s, o))
      scenarios
  in
  let correct = List.for_all (fun (_, o) -> o.problems = []) results in
  let record =
    Json.Obj
      [
        ("benchmark", Json.String "tashbench");
        ("seed", Json.Int !seed);
        ("seconds", Json.Float seconds);
        ("ocaml", Json.String Sys.ocaml_version);
        ( "workloads",
          Json.Obj
            (List.filter_map
               (fun ((s : Scenario.t), o) ->
                 if o.problems <> [] then None
                 else
                   Some
                     ( s.name,
                       Json.Obj
                         [
                           ("attempted", Json.Int o.attempted);
                           ("failed", Json.Int o.failed);
                           ("end_to_end", Json.Obj o.e2e);
                           ("per_layer", Json.Obj o.per_layer);
                         ] ))
               results) );
      ]
  in
  if !out <> "" then
    Out_channel.with_open_bin !out (fun oc ->
        output_string oc (Json.to_string record);
        output_char oc '\n');
  let smoke_ok =
    (not !smoke)
    ||
    let bench = if Sys.file_exists !bench_json then Some (read_json !bench_json) else None in
    match smoke_problems record ~bench with
    | [] ->
        print_endline "smoke: record checks passed";
        true
    | ps ->
        List.iter (fun p -> print_endline ("smoke: " ^ p)) ps;
        false
  in
  let metrics =
    List.concat_map
      (fun ((s : Scenario.t), o) ->
        let prefix = if List.length results > 1 then s.name ^ "/" else "" in
        List.map
          (fun (name, m) ->
            ( prefix ^ name,
              Json.Obj [ ("value", Json.member "value" m); ("unit", Json.member "unit" m) ] ))
          (if !trace = 1 then o.per_layer else o.e2e))
      results
  in
  let total f = List.fold_left (fun acc (_, o) -> acc + f o) 0 results in
  if not !smoke then
    print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int (total (fun o -> o.attempted)));
            ("failed", Json.Int (total (fun o -> o.failed)));
            ("metrics", Json.Obj metrics);
          ]));
  if not (correct && smoke_ok) then exit 1

(* --- compare ----------------------------------------------------------- *)

let compare_main argv =
  let files = ref [] and bench_json = ref "BENCHMARK.json" in
  Arg.parse_argv argv
    [ ("--bench-json", Arg.Set_string bench_json, "FILE  benchmark description") ]
    (fun f -> files := !files @ [ f ])
    "tashbench compare OLD.json NEW.json";
  let old_r, new_r =
    match !files with
    | [ a; b ] -> (read_json a, read_json b)
    | _ -> die "compare takes two record files"
  in
  let bench = read_json !bench_json in
  let worse = ref 0 in
  List.iter
    (fun (w, nw) ->
      match Json.member w (Json.member "workloads" old_r) with
      | Json.Null -> Printf.printf "%-16s not in the old record\n" w
      | ow ->
          List.iter
            (fun m ->
              let name = Json.to_str (Json.member "name" m) in
              let bound = num m "bound" in
              let lower = Json.to_str (Json.member "better" m) = "lower" in
              let get r = Json.member name (Json.member "end_to_end" r) in
              let o = get ow and n = get nw in
              if o = Json.Null || n = Json.Null then
                Printf.printf "%-16s %-24s missing\n" w name
              else begin
                let ov = num o "value" and nv = num n "value" in
                let rel_iqr j v =
                  match Json.member "iqr" j with Json.Null -> 0. | i -> Json.to_float i /. v
                in
                let change = (nv -. ov) /. ov in
                let worsening = if lower then change else -.change in
                let verdict =
                  if Float.max (rel_iqr o ov) (rel_iqr n nv) > bound then "unresolved"
                  else if worsening > bound then (incr worse; "worse")
                  else if worsening < -.bound then "better"
                  else "same"
                in
                Printf.printf "%-16s %-24s %14.6g -> %14.6g  %+7.2f%%  (bound %.0f%%)  %s\n" w
                  name ov nv (100. *. change) (100. *. bound) verdict
              end)
            (Json.to_list (Json.member "end_to_end" bench)))
    (Json.to_assoc (Json.member "workloads" new_r));
  if !worse > 0 then exit 1

(* --- calibrate --------------------------------------------------------- *)

let calibrate_main argv =
  let bench_json = ref "BENCHMARK.json" in
  Arg.parse_argv argv
    [ ("--bench-json", Arg.Set_string bench_json, "FILE  benchmark description") ]
    (fun a -> die "unexpected argument %S" a)
    "tashbench calibrate";
  let bounds =
    if Sys.file_exists !bench_json then
      List.map
        (fun m -> (Json.to_str (Json.member "name" m), num m "bound"))
        (Json.to_list (Json.member "end_to_end" (read_json !bench_json)))
    else []
  in
  let seeds = [ 1; 2; 3 ] in
  let sim_metrics = [ "goodput_tps"; "update_p50_ms"; "update_p99_ms"; "ro_p50_ms"; "ro_p99_ms" ] in
  List.iter
    (fun (s : Scenario.t) ->
      let reps =
        List.map
          (fun seed -> spawn_rep ~workload:s.name ~seed ~smoke:false ~traced:false ~trace_capacity:0)
          seeds
      in
      List.iter
        (fun k ->
          let xs = Array.of_list (List.map (fun r -> num r k) reps) in
          let m = Dist.median xs in
          let dev = Array.fold_left (fun acc x -> Float.max acc (Float.abs (x -. m) /. m)) 0. xs in
          let bound = Option.value ~default:Float.nan (List.assoc_opt k bounds) in
          Printf.printf "%-16s %-16s seeds 1-3: %s  largest deviation %.2f%%  bound %.0f%%%s\n"
            s.name k
            (String.concat " " (Array.to_list (Array.map (Printf.sprintf "%.6g") xs)))
            (100. *. dev) (100. *. bound)
            (if dev > bound then "  BOUND TOO TIGHT" else ""))
        sim_metrics;
      let abort_rate r = num r "aborted" /. Float.max 1. (num r "attempts") in
      Printf.printf "%-16s %-16s seeds 1-3: %s\n" s.name "abort_rate"
        (String.concat " " (List.map (fun r -> Printf.sprintf "%.4f" (abort_rate r)) reps)))
    Scenario.all

let () =
  let usage = "usage: tashbench (run | compare OLD NEW | calibrate) [options]" in
  if Array.length Sys.argv < 2 then die "%s" usage;
  let argv = Array.sub Sys.argv 1 (Array.length Sys.argv - 1) in
  try
    match Sys.argv.(1) with
    | "run" -> run_main argv
    | "rep" -> rep_main argv
    | "compare" -> compare_main argv
    | "calibrate" -> calibrate_main argv
    | _ -> die "%s" usage
  with
  | Arg.Bad msg -> die "%s" msg
  | Arg.Help msg ->
      print_string msg;
      exit 0
  | Json.Parse_error msg -> die "bad JSON: %s" msg

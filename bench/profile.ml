(* Sampling host profiler for bench sections ([--profile]).

   A SIGPROF interval timer fires every [interval] seconds of process CPU
   time; its handler records the OCaml call stack at the interrupted point.
   After the section each sample is charged, per module, once as self (the
   innermost frame) and once as inclusive (every module on the stack). A
   frame in [Stdlib] or [Camlinternal*] is charged to its first caller
   outside them, so [Hashtbl.find] on a hot path counts for the module that
   called it. Samples with no frame outside them (or no debug info) are
   unknown. A second table charges the same samples per function, to show
   where inside a module the time goes; there a [Stdlib] frame is named
   with its first caller outside [Stdlib], as [fn <- caller], so
   [Stdlib.List.rev <- Mvcc.Store.gc_chain.split] stays apart from every
   other [List.rev]. A stack walk stops at the boundary of the running
   fiber, so a fiber's frames do not include the engine loop that resumed
   it. Nothing is installed unless a section is profiled.

   Attribution is skewed toward allocation: OCaml 5 runs a signal handler
   at the next poll point, not where the signal landed, so time spent in
   allocation-free code is charged to the next frame that allocates (or
   polls). Self shares of a frame that runs next to allocation-free code
   are unreliable; compare inclusive shares, or time the code directly. *)

let interval = 0.001
let depth = 256
let top_functions = 15
let samples : Printexc.raw_backtrace list ref = ref []

let set_timer period =
  ignore
    (Unix.setitimer Unix.ITIMER_PROF { Unix.it_interval = period; it_value = period })

(* "Tashkent__Proxy.commit.(fun)" -> "Tashkent.Proxy"; executables' modules
   lose their "Dune__exe__" prefix. *)
let module_of_frame name =
  let m = match String.index_opt name '.' with Some i -> String.sub name 0 i | None -> name in
  let exe = "Dune__exe__" in
  let m =
    if String.starts_with ~prefix:exe m then
      String.sub m (String.length exe) (String.length m - String.length exe)
    else m
  in
  let b = Buffer.create (String.length m) and i = ref 0 in
  while !i < String.length m do
    if !i + 1 < String.length m && m.[!i] = '_' && m.[!i + 1] = '_' then begin
      Buffer.add_char b '.';
      i := !i + 2
    end
    else begin
      Buffer.add_char b m.[!i];
      incr i
    end
  done;
  Buffer.contents b

let is_stdlib m =
  String.starts_with ~prefix:"Stdlib" m || String.starts_with ~prefix:"Camlinternal" m

(* "Mvcc__Store.gc_chain.split" -> ("Mvcc.Store", "Mvcc.Store.gc_chain.split") *)
let frame_of_name name =
  let m = module_of_frame name in
  match String.index_opt name '.' with
  | Some i -> (m, m ^ String.sub name i (String.length name - i))
  | None -> (m, m)

(* The sampled stack as (module, function) frames, innermost first, without
   the profiler's own handler frames. *)
let frames_of_sample raw =
  match Printexc.backtrace_slots raw with
  | None -> []
  | Some slots ->
      Array.to_list slots
      |> List.filter_map (fun slot -> Option.map frame_of_name (Printexc.Slot.name slot))
      |> List.filter (fun (m, _) -> not (String.equal m "Profile"))

(* Function labels of a stack, innermost first: a [Stdlib] frame carries its
   first caller outside [Stdlib]. *)
let rec function_labels = function
  | [] -> []
  | (m, fn) :: outer when is_stdlib m -> (
      match List.find_opt (fun (m, _) -> not (is_stdlib m)) outer with
      | Some (_, caller) -> (fn ^ " <- " ^ caller) :: function_labels outer
      | None -> fn :: function_labels outer)
  | (_, fn) :: outer -> fn :: function_labels outer

(* Self counts the innermost name of each sample, inclusive every distinct
   name on its stack. *)
let charge self incl = function
  | [] -> false
  | owner :: _ as stack ->
      let bump tbl m =
        Hashtbl.replace tbl m (1 + Option.value ~default:0 (Hashtbl.find_opt tbl m))
      in
      bump self owner;
      List.iter (bump incl) (List.sort_uniq String.compare stack);
      true

let by_self self =
  Hashtbl.fold (fun m n acc -> (m, n) :: acc) self []
  |> List.sort (fun (ma, a) (mb, b) ->
         match Int.compare b a with 0 -> String.compare ma mb | c -> c)

let report name raws =
  let total = List.length raws in
  let self = Hashtbl.create 64 and incl = Hashtbl.create 64 in
  let fn_self = Hashtbl.create 256 and fn_incl = Hashtbl.create 256 in
  let unknown = ref 0 and fn_unknown = ref 0 in
  List.iter
    (fun raw ->
      let frames = frames_of_sample raw in
      let modules =
        List.filter_map (fun (m, _) -> if is_stdlib m then None else Some m) frames
      in
      if not (charge self incl modules) then incr unknown;
      if not (charge fn_self fn_incl (function_labels frames)) then incr fn_unknown)
    raws;
  let share n =
    Printf.sprintf "%.1f%%" (100. *. float_of_int n /. float_of_int (max 1 total))
  in
  Harness.Report.subsection (Printf.sprintf "host profile: %s (%d samples)" name total);
  let tbl = Harness.Report.table ~columns:[ "module"; "self"; "inclusive" ] in
  List.iter
    (fun (m, n) -> Harness.Report.row tbl [ m; share n; share (Hashtbl.find incl m) ])
    (by_self self);
  Harness.Report.row tbl [ "(unknown)"; share !unknown; "" ];
  Harness.Report.print tbl;
  let tbl = Harness.Report.table ~columns:[ "function"; "self"; "inclusive" ] in
  List.iteri
    (fun i (fn, n) ->
      if i < top_functions then
        Harness.Report.row tbl [ fn; share n; share (Hashtbl.find fn_incl fn) ])
    (by_self fn_self);
  Harness.Report.row tbl [ "(unknown)"; share !fn_unknown; "" ];
  Harness.Report.print tbl

let section name run =
  samples := [];
  Sys.set_signal Sys.sigprof
    (Sys.Signal_handle (fun _ -> samples := Printexc.get_callstack depth :: !samples));
  set_timer interval;
  Fun.protect run ~finally:(fun () ->
      set_timer 0.;
      Sys.set_signal Sys.sigprof Sys.Signal_ignore);
  let raws = !samples in
  samples := [];
  report name raws

(* Sampling host profiler for bench sections ([--profile]).

   A SIGPROF interval timer fires every [interval] seconds of process CPU
   time; its handler records the OCaml call stack at the interrupted point.
   After the section each sample is charged, per module, once as self (the
   innermost frame) and once as inclusive (every module on the stack). A
   frame in [Stdlib] or [Camlinternal*] is charged to its first caller
   outside them, so [Hashtbl.find] on a hot path counts for the module that
   called it. Samples with no frame outside them (or no debug info) are
   unknown. A stack walk stops at the boundary of the running fiber, so a
   fiber's frames do not include the engine loop that resumed it. Nothing
   is installed unless a section is profiled. *)

let interval = 0.001
let depth = 256
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

(* The sampled stack as module names, innermost first, without the
   profiler's own handler frames. *)
let modules_of_sample raw =
  match Printexc.backtrace_slots raw with
  | None -> []
  | Some slots ->
      Array.to_list slots
      |> List.filter_map (fun slot -> Option.map module_of_frame (Printexc.Slot.name slot))
      |> List.filter (fun m -> not (String.equal m "Profile"))

let report name raws =
  let total = List.length raws in
  let self = Hashtbl.create 64 and incl = Hashtbl.create 64 in
  let bump tbl m =
    Hashtbl.replace tbl m (1 + Option.value ~default:0 (Hashtbl.find_opt tbl m))
  in
  let unknown = ref 0 in
  List.iter
    (fun raw ->
      match List.filter (fun m -> not (is_stdlib m)) (modules_of_sample raw) with
      | [] -> incr unknown
      | owner :: _ as stack ->
          bump self owner;
          List.iter (bump incl) (List.sort_uniq String.compare stack))
    raws;
  let share n =
    Printf.sprintf "%.1f%%" (100. *. float_of_int n /. float_of_int (max 1 total))
  in
  Harness.Report.subsection (Printf.sprintf "host profile: %s (%d samples)" name total);
  let tbl = Harness.Report.table ~columns:[ "module"; "self"; "inclusive" ] in
  Hashtbl.fold (fun m n acc -> (m, n) :: acc) self []
  |> List.sort (fun (ma, a) (mb, b) ->
         match Int.compare b a with 0 -> String.compare ma mb | c -> c)
  |> List.iter (fun (m, n) ->
         Harness.Report.row tbl [ m; share n; share (Hashtbl.find incl m) ]);
  Harness.Report.row tbl [ "(unknown)"; share !unknown; "" ];
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

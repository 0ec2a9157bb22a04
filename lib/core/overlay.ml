open Mvcc

type t = {
  entries : (int, Types.entry) Hashtbl.t; (* version -> entry *)
  (* key -> (version, wrote-a-delta) pairs, newest first (see Cert_log). *)
  writers : (int * bool) list Key.Dense.t;
  mutable delta_skips : int;
}

let create () =
  { entries = Hashtbl.create 64; writers = Key.Dense.create ~absent:[]; delta_skips = 0 }

let size t = Hashtbl.length t.entries

let add t (entry : Types.entry) =
  Hashtbl.replace t.entries entry.version entry;
  Writeset.iter_entries entry.ws (fun key op ->
      let tagged = (entry.version, Writeset.op_is_delta op) in
      Key.Dense.replace t.writers key (tagged :: Key.Dense.find t.writers key))

let holds_request t ~origin ~req_id =
  Hashtbl.fold
    (fun _ (entry : Types.entry) acc ->
      acc || (entry.req_id = req_id && String.equal entry.origin origin && entry.xa = None))
    t.entries false

let conflict t ws ~start_version =
  let best = ref None in
  Writeset.iter_entries ws (fun key op ->
      let mine_delta = Writeset.op_is_delta op in
      (* Newest first. A delta candidate must scan past in-flight delta
         writers (they commute) down to the first blind writer still above
         its snapshot; a blind candidate conflicts with the head directly. *)
      let rec scan = function
        | [] -> ()
        | (v, writer_delta) :: rest ->
            if v > start_version then
              if mine_delta && writer_delta then begin
                t.delta_skips <- t.delta_skips + 1;
                scan rest
              end
              else
                match !best with
                | Some b when b >= v -> ()
                | _ -> best := Some v
      in
      scan (Key.Dense.find t.writers key));
  !best

let remove t version =
  match Hashtbl.find_opt t.entries version with
  | None -> ()
  | Some entry ->
      Hashtbl.remove t.entries version;
      Writeset.iter_keys entry.ws (fun key ->
          Key.Dense.replace t.writers key
            (List.filter (fun (v, _) -> v <> version) (Key.Dense.find t.writers key)))

let delta_overlaps t = t.delta_skips

let clear t =
  Hashtbl.reset t.entries;
  Key.Dense.reset t.writers

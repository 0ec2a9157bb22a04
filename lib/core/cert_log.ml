open Mvcc

type slot = { entry : Types.entry; mutable certified_back_to : int }

type t = {
  mutable slots : slot array;
  mutable size : int;  (* live entries: versions (floor, floor + size] *)
  mutable floor : int;  (* newest truncated version; 0 = nothing truncated *)
  (* key -> (version, wrote-a-delta) pairs, newest first. The delta tag
     lets certification skip commutative delta–delta overlaps without
     fetching the logged writeset. Truncation trims every list to
     versions above the floor, so no scan can ever observe pruned
     history. *)
  writers : (int * bool) list Key.Dense.t;
  (* Database state at [floor], folded from the truncated prefix: the
     base every snapshot transfer and consistency check starts from.
     [base_keys] remembers every key a truncated entry ever touched —
     a key present there but absent from [base] (or reading [None]) is a
     key the truncated history deleted. *)
  base : Store.t;
  base_keys : unit Key.Tbl.t;
  initial : Key.t -> Value.t option;  (* a row's image as first loaded *)
  (* Truncated entries per origin, indexed by [origins]. *)
  origins : Sim.Names.t;
  truncated_by_origin : int Sim.Dense.t;
  mutable bytes : int;  (* cumulative, survives truncation *)
  mutable live_bytes : int;  (* bytes held by live slots only *)
  mutable pruned : int;  (* cumulative entries dropped by truncation *)
  mutable extra_scans : int;
  mutable delta_skips : int;
}

let dummy_entry =
  {
    Types.version = 0;
    origin = "";
    req_id = 0;
    ws = Writeset.empty;
    gc_floor = 0;
    xa = None;
  }

let dummy_slot = { entry = dummy_entry; certified_back_to = 0 }

let create ?(initial = fun _ -> None) () =
  {
    slots = Array.make 256 dummy_slot;
    size = 0;
    floor = 0;
    writers = Key.Dense.create ~absent:[];
    base = Store.create ();
    base_keys = Key.Tbl.create 64;
    initial;
    origins = Sim.Names.create ();
    truncated_by_origin = Sim.Dense.create 0;
    bytes = 0;
    live_bytes = 0;
    pruned = 0;
    extra_scans = 0;
    delta_skips = 0;
  }

let version t = t.floor + t.size
let floor t = t.floor
let entries t = t.size

let get t v =
  if v <= t.floor || v > t.floor + t.size then
    invalid_arg
      (Printf.sprintf "Cert_log.get: version %d outside (%d, %d]" v t.floor
         (t.floor + t.size));
  t.slots.(v - t.floor - 1).entry

let get_opt t v =
  if v <= t.floor || v > t.floor + t.size then None
  else Some t.slots.(v - t.floor - 1).entry

let append t (entry : Types.entry) =
  if entry.version <> t.floor + t.size + 1 then
    invalid_arg
      (Printf.sprintf "Cert_log.append: version %d, expected %d" entry.version
         (t.floor + t.size + 1));
  if t.size = Array.length t.slots then begin
    let bigger = Array.make (2 * t.size) dummy_slot in
    Array.blit t.slots 0 bigger 0 t.size;
    t.slots <- bigger
  end;
  (* A fresh entry is known conflict-free back to the transaction's own
     certification window start; callers record it via certified_back_to
     when they need more. We initialise pessimistically to version-1: the
     normal certification already covered (start_version, version), but the
     start version is not stored here, so the first back-certification pays
     the scan and memoises. *)
  t.slots.(t.size) <- { entry; certified_back_to = entry.version - 1 };
  t.size <- t.size + 1;
  t.bytes <- t.bytes + Types.entry_bytes entry;
  t.live_bytes <- t.live_bytes + Types.entry_bytes entry;
  Writeset.iter_entries entry.ws (fun key op ->
      let tagged = (entry.version, Writeset.op_is_delta op) in
      Key.Dense.replace t.writers key (tagged :: Key.Dense.find t.writers key))

(* The part of a newest-first writer list above [floor]; the list itself
   when nothing falls at or below it. *)
let rec above_floor (floor : int) = function
  | (v, _) :: _ when v <= floor -> []
  | w :: rest as versions ->
      let kept = above_floor floor rest in
      if kept == rest then versions else w :: kept
  | [] -> []

let truncate t ~upto =
  let upto = min upto (t.floor + t.size) in
  if upto > t.floor then begin
    let k = upto - t.floor in
    (* Fold the dropped prefix into the base state so snapshot transfers
       and consistency checks can still reconstruct state at the floor. *)
    for i = 0 to k - 1 do
      let e = t.slots.(i).entry in
      t.live_bytes <- t.live_bytes - Types.entry_bytes e;
      t.pruned <- t.pruned + 1;
      let o = Sim.Names.index t.origins e.origin in
      Sim.Dense.set t.truncated_by_origin o (Sim.Dense.get t.truncated_by_origin o + 1);
      Writeset.iter_entries e.ws (fun key op ->
          if not (Key.Tbl.mem t.base_keys key) then begin
            Key.Tbl.replace t.base_keys key ();
            (* A key first folded by a delta starts from its loaded image,
               so deltas never fold onto 0; a blind image needs no base. *)
            if Writeset.op_is_delta op then
              Option.iter (Store.preload t.base key) (t.initial key)
          end);
      Store.install t.base ~version:e.version e.ws
    done;
    (* Only the keys the dropped prefix wrote need work. Every other key's
       base chain is already flat from an earlier truncation, which also
       dropped its writers at or below that floor; it has none in the
       dropped range, so none at or below the new floor. For each touched
       key: flatten the base chain at the new floor
       (deleted rows read as [None] via [base_keys]), and trim its writer
       index so nothing at or below the floor is ever scanned again. *)
    for i = 0 to k - 1 do
      Writeset.iter_entries t.slots.(i).entry.ws (fun key _ ->
          Store.gc_key t.base ~keep_after:upto key;
          let versions = Key.Dense.find t.writers key in
          let kept = above_floor upto versions in
          if kept != versions then Key.Dense.replace t.writers key kept)
    done;
    let remaining = t.size - k in
    Array.blit t.slots k t.slots 0 remaining;
    Array.fill t.slots remaining k dummy_slot;
    t.size <- remaining;
    t.floor <- upto
  end

let base_rows t =
  Key.Tbl.fold
    (fun key () acc -> (key, Store.read_latest t.base key) :: acc)
    t.base_keys []

let base_records t = Store.version_records t.base

let truncated_for_origin t origin =
  Sim.Dense.get t.truncated_by_origin (Sim.Names.find t.origins origin)

let conflict_in_window t ws ~lo ~hi =
  (* The writer index holds nothing at or below the floor, so a window
     reaching below it could silently miss conflicts — clamp and leave the
     too-old decision to the caller (the certifier aborts requests whose
     start version is below the floor before ever scanning). *)
  let lo = max lo t.floor in
  if hi <= lo then None
  else begin
    let best = ref None in
    Writeset.iter_entries ws (fun key op ->
        let mine_delta = Writeset.op_is_delta op in
        let rec scan = function
          | [] -> ()
          | (v, writer_delta) :: rest ->
              if v > hi then scan rest
              else if v > lo then
                if mine_delta && writer_delta then begin
                  (* Commutative delta–delta overlap: not a conflict.
                     Keep scanning — an older in-window blind write to
                     the same key would still conflict. *)
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
  end

let certify t ws ~start_version =
  conflict_in_window t ws ~lo:start_version ~hi:(t.floor + t.size)

let back_certify t ~version ~down_to =
  if version <= t.floor then None
  else begin
    let slot = t.slots.(version - t.floor - 1) in
    if down_to >= slot.certified_back_to then None
    else begin
      t.extra_scans <- t.extra_scans + 1;
      let ws = slot.entry.ws in
      let conflict = conflict_in_window t ws ~lo:down_to ~hi:slot.certified_back_to in
      (match conflict with
      | None -> slot.certified_back_to <- max down_to t.floor
      | Some v ->
          (* Conflict-free strictly above v. *)
          slot.certified_back_to <- v);
      conflict
    end
  end

let entries_between t ~lo ~hi =
  let hi = min hi (t.floor + t.size) in
  let lo = max lo t.floor in
  let rec collect v acc =
    if v <= lo then acc else collect (v - 1) (t.slots.(v - t.floor - 1).entry :: acc)
  in
  collect hi []

let bytes_total t = t.bytes
let bytes_live t = t.live_bytes
let pruned t = t.pruned
let back_certifications t = t.extra_scans
let delta_overlaps t = t.delta_skips

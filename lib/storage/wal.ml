open Sim

(* Each log slot models one physical record: the typed payload plus the
   on-disk framing that recovery validates — a length ([bytes] expected,
   [written] actually on disk) and whether its checksum still verifies.
   Payloads are immutable, so a checksum over one could only fail after
   media corruption: [corrupt] records that fact directly instead of
   hashing every payload on append and again on recovery. A slot is
   readable iff it is fully written and not corrupt. *)
type 'r slot = { payload : 'r; bytes : int; written : int; corrupt : bool }

let intact s = s.written = s.bytes && not s.corrupt

type scan = { verified : int; torn : int; corrupt : int }

type 'r t = {
  engine : Engine.t;
  disk : Disk.t;
  label : string;
  mutable sync_writes : bool;
  mutable records : 'r slot array; (* dense, index = lsn - 1 *)
  mutable size : int;
  mutable durable : int; (* durable lsn *)
  mutable unsynced_bytes : int;
  mutable syncing : bool;
  mutable flush_started : Time.t option; (* fsync in flight since *)
  mutable epoch : int; (* bumped on crash: invalidates in-flight flushes *)
  mutable waiters : (int * (unit -> unit)) list; (* target lsn, resume *)
  syncs : Stats.Counter.t;
  synced_records : Stats.Counter.t;
  group_sizes : Stats.Summary.t;
  batch_appends : Stats.Counter.t;
  torn_drops : Stats.Counter.t;
  corrupt_drops : Stats.Counter.t;
}

let create engine ~disk ?(synchronous = true) ?(name = "wal") () =
  {
    engine;
    disk;
    label = name;
    sync_writes = synchronous;
    (* slots beyond [size] are never read; the dummy is an immediate, so
       the array is never specialised as a float array *)
    records = Array.make 64 (Obj.magic 0);
    size = 0;
    durable = 0;
    unsynced_bytes = 0;
    syncing = false;
    flush_started = None;
    epoch = 0;
    waiters = [];
    syncs = Stats.Counter.create ();
    synced_records = Stats.Counter.create ();
    group_sizes = Stats.Summary.create ();
    batch_appends = Stats.Counter.create ();
    torn_drops = Stats.Counter.create ();
    corrupt_drops = Stats.Counter.create ();
  }

let name t = t.label
let synchronous t = t.sync_writes
let last_lsn t = t.size
let durable_lsn t = t.durable

let append t ~bytes r =
  if t.size = Array.length t.records then begin
    let bigger = Array.make (2 * t.size) t.records.(0) in
    Array.blit t.records 0 bigger 0 t.size;
    t.records <- bigger
  end;
  t.records.(t.size) <- { payload = r; bytes; written = bytes; corrupt = false };
  t.size <- t.size + 1;
  t.unsynced_bytes <- t.unsynced_bytes + bytes;
  t.size

(* A producer handing over several records at once (e.g. a multi-entry
   Paxos Accept) appends them as one batch, so the log can account for
   producer-side grouping separately from the fsync-side grouping that
   [group_sizes] tracks. *)
let append_batch t ~bytes_of records =
  List.iter (fun r -> ignore (append t ~bytes:(bytes_of r) r)) records;
  (match records with [] -> () | _ :: _ -> Stats.Counter.incr t.batch_appends);
  t.size

(* Flush loop: one in-flight fsync at a time; each flush covers everything
   appended before it starts, so concurrent committers group naturally.
   A crash while the fsync is in flight bumps [epoch]: the writer must then
   NOT mark its captured target durable — the tail it was flushing has been
   truncated, and advancing [durable] past [size] would resurrect stale
   slots on the next append. *)
let rec start_flush t =
  if (not t.syncing) && t.durable < t.size then begin
    t.syncing <- true;
    ignore
      (Engine.spawn t.engine (fun () ->
           (* Capture the batch when the writer actually runs, so appends
              made at the same instant share this fsync. *)
           let epoch = t.epoch in
           let target = t.size in
           let bytes = t.unsynced_bytes in
           t.unsynced_bytes <- 0;
           t.flush_started <- Some (Engine.now t.engine);
           Disk.fsync t.disk ~bytes;
           t.syncing <- false;
           if t.epoch = epoch then begin
             t.flush_started <- None;
             let group = target - t.durable in
             t.durable <- target;
             Stats.Counter.incr t.syncs;
             Stats.Counter.add t.synced_records group;
             Stats.Summary.observe t.group_sizes (float_of_int group);
             let ready, blocked =
               List.partition (fun (lsn, _) -> lsn <= target) t.waiters
             in
             t.waiters <- blocked;
             List.iter
               (fun (_, resume) -> Engine.schedule_after t.engine Time.zero resume)
               (List.rev ready)
           end;
           if t.waiters <> [] then start_flush t))
  end

let wait_durable t target =
  if target > t.durable then begin
    Engine.suspend t.engine (fun resume ->
        t.waiters <- (target, resume) :: t.waiters;
        start_flush t)
  end

let append_and_sync t ~bytes r =
  let lsn = append t ~bytes r in
  if t.sync_writes then wait_durable t lsn;
  lsn

let sync t = if t.sync_writes then wait_durable t t.size

let flushing_since t = t.flush_started

let appended t lsn =
  if lsn < 1 || lsn > t.size then
    invalid_arg (Printf.sprintf "Wal.appended: lsn %d outside 1..%d" lsn t.size);
  t.records.(lsn - 1).payload

(* The redo stream stops at the first unreadable slot: a torn or corrupt
   record — and everything behind it — must never be replayed. *)
let records_from t lsn =
  let rec collect i acc =
    if i >= t.durable then List.rev acc
    else
      let s = t.records.(i) in
      if intact s then collect (i + 1) (s.payload :: acc) else List.rev acc
  in
  collect (max 0 lsn) []

let crash ?(torn = false) ?torn_bytes t =
  let lost = t.size - t.durable in
  t.epoch <- t.epoch + 1;
  t.unsynced_bytes <- 0;
  t.waiters <- [];
  t.flush_started <- None;
  (if torn && lost > 0 && t.records.(t.durable).bytes > 0 then begin
     (* The first un-synced record was mid-write when power failed: keep it
        as a partial slot past the durable prefix. It is only visible to a
        recovery scan ([records_from] never reads past [durable]); the log
        MUST be passed through [recover] before reuse. *)
     let s = t.records.(t.durable) in
     let written =
       match torn_bytes with
       | Some b -> max 0 (min b (s.bytes - 1))
       | None -> s.bytes / 2
     in
     t.records.(t.durable) <- { s with written };
     t.size <- t.durable + 1
   end
   else t.size <- t.durable);
  lost

let corrupt_tail t =
  if t.durable = 0 then false
  else begin
    (* Media corruption of the newest durable record: the payload bits no
       longer match the stored checksum. Corrupting it again keeps it
       corrupt. *)
    let s = t.records.(t.durable - 1) in
    t.records.(t.durable - 1) <- { s with corrupt = true };
    true
  end

let recover t =
  let rec prefix i =
    if i < t.size && intact t.records.(i) then prefix (i + 1) else i
  in
  let verified = prefix 0 in
  let torn = ref 0 and corrupt = ref 0 in
  for i = verified to t.size - 1 do
    let s = t.records.(i) in
    if s.written < s.bytes then incr torn else incr corrupt
  done;
  t.size <- verified;
  t.durable <- min t.durable verified;
  t.unsynced_bytes <- 0;
  t.waiters <- [];
  t.flush_started <- None;
  t.epoch <- t.epoch + 1;
  Stats.Counter.add t.torn_drops !torn;
  Stats.Counter.add t.corrupt_drops !corrupt;
  let rec collect i acc =
    if i = 0 then acc else collect (i - 1) (t.records.(i - 1).payload :: acc)
  in
  (collect verified [], { verified; torn = !torn; corrupt = !corrupt })

let torn_discarded t = Stats.Counter.value t.torn_drops
let corrupt_discarded t = Stats.Counter.value t.corrupt_drops

let sync_count t = Stats.Counter.value t.syncs
let records_synced t = Stats.Counter.value t.synced_records
let mean_group_size t = Stats.Summary.mean t.group_sizes
let batch_appends t = Stats.Counter.value t.batch_appends

let reset_stats t =
  Stats.Counter.reset t.syncs;
  Stats.Counter.reset t.synced_records;
  Stats.Summary.reset t.group_sizes;
  Stats.Counter.reset t.batch_appends

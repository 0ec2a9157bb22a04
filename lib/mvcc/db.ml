open Sim

type txid = int

type durability = Synchronous | Asynchronous | Periodic of Time.t

type config = {
  durability : durability;
  page_read_miss : float;
  page_writeback_per_op : float;
  background_page_writes_per_sec : float;
  remote_priority : bool;
  gc_interval : Time.t option;
  max_snapshot_age : Time.t option;
}

(* WAL bytes per commit. PostgreSQL logs before/after page images (paper
   §9.2 credits part of the Tashkent-MW vs Tashkent-API gap to this), so a
   commit record is at least one 8 KB page. *)
let commit_record_bytes = 8192

(* One data page, the unit of a page-in read or a dirty-page writeback. *)
let page_bytes = 8192

let default_config =
  {
    durability = Synchronous;
    page_read_miss = 0.;
    page_writeback_per_op = 0.;
    background_page_writes_per_sec = 0.;
    remote_priority = false;
    gc_interval = None;
    max_snapshot_age = None;
  }

type abort_reason = Ww_conflict of Key.t | Deadlock of txid list | Preempted

let pp_abort_reason fmt = function
  | Ww_conflict key -> Format.fprintf fmt "ww-conflict on %a" Key.pp key
  | Deadlock cycle ->
      Format.fprintf fmt "deadlock [%a]"
        (Format.pp_print_list
           ~pp_sep:(fun fmt () -> Format.pp_print_string fmt " -> ")
           Format.pp_print_int)
        cycle
  | Preempted -> Format.pp_print_string fmt "preempted"

type tx_state = Active | Doomed of abort_reason | Committing | Committed | Aborted

type tx = {
  db : t;
  id : txid;
  lk : Locks.holder;
  snapshot : int;
  remote : bool;
  born : Time.t;  (* begin time, for the max-snapshot-age escape hatch *)
  mutable buffer : Writeset.t;
  mutable state : tx_state;
  mutable parked : ((unit, abort_reason) result -> unit) option;
  mutable parked_key : Key.t option;
  (* LSN of the transaction's first redo record; 0 until it logs. Logged
     but still active means its rows have not landed yet. *)
  mutable logged_lsn : int;
}

and t = {
  engine : Engine.t;
  rng : Rng.t;
  label : string;
  cfg : config;
  data_disk : Storage.Disk.t option;
  mutable db_store : Store.t;
  mutable locks : Locks.t;
  mutable order : Commit_order.t;
  (* Commit records carry (version, prev, writeset): [prev] is the version
     this replica had applied immediately before [version], so recovery can
     verify the redo chain and truncate at the first gap — essential because
     concurrent commits let records reach the log out of version order. *)
  db_wal : (int * int * Writeset.t) Storage.Wal.t;
  (* Publish frontier: finished-but-unpublished commits, keyed by announce
     order, whose top version is still waiting for a lower order to
     finish. *)
  unpublished : (int, int) Hashtbl.t;
  mutable published_order : int;
  active : (txid, tx) Hashtbl.t;
  (* The snapshot of each transaction of [active] that is not doomed, by
     txid; none below [oldest_txid]. See [oldest_active_snapshot]. *)
  pinning : int Version_window.t;
  mutable oldest_txid : int;
  mutable initial_rows : (Key.t * Value.t) list;
  mutable next_txid : int;
  (* Cluster GC watermark gossiped back by the certifier (monotone).
     [None] until the first gossip arrives — a standalone database
     vacuums on its local watermark alone. *)
  mutable cluster_floor : int option;
  (* Vacuum cursor into [db_wal]: the rows of every record at or below it
     are already collected at the last pass's floor, and no record at or
     below it can still land. *)
  mutable vacuumed_lsn : int;
  (* The floor of the last vacuum pass. *)
  mutable vacuum_floor : int;
  (* A dump restore's rows carry versions up to [restored_version] (its
     newest row, which may lie above the dump's published version), and no
     record in this log wrote them. Until the floor reaches that version an
     install below one of them can unflatten it, so the cursor may not pass
     [restored_lsn], the end of the log at the restore (0 and 0 when the
     store is not a restored dump). The bare tombstones among those rows
     are visited by name until the floor reaches each. *)
  mutable restored_lsn : int;
  mutable restored_version : int;
  mutable dump_tombstones : (Key.t * int) list;
  commit_count : Stats.Counter.t;
  abort_count : Stats.Counter.t;
  deadlock_count : Stats.Counter.t;
  backfill_count : Stats.Counter.t;
  stale_expired : Stats.Counter.t;
}

let wake_grants t grants =
  (* Locks freed by a release were handed to queued waiters; wake their
     fibers so they can re-run their acquisition check. *)
  List.iter
    (fun (_key, holder) ->
      match Hashtbl.find_opt t.active holder with
      | Some waiter -> (
          match waiter.parked with
          | Some resume ->
              Engine.schedule_after t.engine Time.zero (fun () -> resume (Ok ()))
          | None -> ())
      | None -> ())
    grants

let doom t txid =
  match Hashtbl.find_opt t.active txid with
  | None -> ()
  (* Remote transactions carry certified writesets: they must commit, so
     they are never victims. *)
  | Some tx when tx.remote -> ()
  | Some tx -> (
      match tx.state with
      | Active ->
          tx.state <- Doomed Preempted;
          Version_window.remove t.pinning txid;
          (* Stop waiting and free locks immediately so the preemptor can
             proceed; the owner fiber observes the doom at its next step. *)
          (match (tx.parked, tx.parked_key) with
          | Some resume, Some key ->
              Locks.cancel_wait t.locks tx.lk key;
              Engine.schedule_after t.engine Time.zero (fun () ->
                  resume (Error Preempted))
          | Some resume, None ->
              Engine.schedule_after t.engine Time.zero (fun () ->
                  resume (Error Preempted))
          | None, _ -> ());
          let grants = Locks.release_all t.locks tx.lk in
          wake_grants t grants
      | Doomed _ | Committing | Committed | Aborted -> ())

(* The replica's GC watermark: the oldest snapshot any live transaction
   still reads, defaulting to the current version when idle. Doomed
   transactions are condemned — their results are discarded on rollback —
   so they deliberately do not pin the watermark: that is what lets the
   max-snapshot-age escape hatch (and preemption) free history held by a
   stalled or leaked transaction.

   A snapshot is the store's version at [begin_tx], which only rises
   until a crash empties [active] (recovery and dump restore follow a
   crash), so snapshots rise with the txid, and the oldest is that of the
   lowest txid in [pinning]. A transaction leaves [pinning] when it
   finishes or is doomed, and never returns, so the cursor [oldest_txid]
   only moves up. *)
let oldest_active_snapshot t =
  while t.oldest_txid <= t.next_txid && not (Version_window.mem t.pinning t.oldest_txid) do
    t.oldest_txid <- t.oldest_txid + 1
  done;
  let current = Store.current_version t.db_store in
  if t.oldest_txid > t.next_txid then current
  else min current (Version_window.get t.pinning t.oldest_txid)

(* [tx] is finished: it leaves [active]. *)
let retire tx =
  Hashtbl.remove tx.db.active tx.id;
  Version_window.remove tx.db.pinning tx.id

let set_cluster_gc_floor t floor =
  match t.cluster_floor with
  | Some current when current >= floor -> ()
  | Some _ | None -> t.cluster_floor <- Some floor

let cluster_gc_floor t = Option.value ~default:0 t.cluster_floor

(* The furthest the vacuum cursor may stand: just before the first record
   of any commit that is logged but not installed, whose rows can still
   land at or below a floor. *)
let unlanded_lsn t =
  Hashtbl.fold
    (fun _ tx acc -> if tx.logged_lsn > 0 then Int.min acc (tx.logged_lsn - 1) else acc)
    t.active
    (Storage.Wal.last_lsn t.db_wal)

(* One vacuum pass: expire over-age local snapshots (the escape hatch that
   keeps GC making progress past a stalled or leaked transaction), then
   prune the version chains up to the cluster floor capped by the local
   watermark. Only rows written by the redo records after the cursor are
   visited: every other row already has at most one entry at or below the
   floor (DESIGN.md §14). Records above the floor are left for a later
   pass, and the cursor stops before the first of them. *)
let vacuum t =
  (match t.cfg.max_snapshot_age with
  | Some max_age ->
      let now = Engine.now t.engine in
      let stale =
        Hashtbl.fold
          (fun _ tx acc ->
            match tx.state with
            | Active when (not tx.remote) && Time.(Time.diff now tx.born > max_age) ->
                tx :: acc
            | _ -> acc)
          t.active []
      in
      List.iter
        (fun tx ->
          Stats.Counter.incr t.stale_expired;
          doom t tx.id)
        stale
  | None -> ());
  let keep_after =
    let local = oldest_active_snapshot t in
    match t.cluster_floor with Some floor -> min floor local | None -> local
  in
  (* The floor drops only when the first cluster floor arrives below the
     local watermark. Rows between the two floors were settled by records
     the cursor has passed, so walk the log again from its start. *)
  if keep_after < t.vacuum_floor then t.vacuumed_lsn <- 0;
  t.vacuum_floor <- keep_after;
  let collect key = Store.gc_key t.db_store ~keep_after key in
  let cursor = ref (unlanded_lsn t) in
  if keep_after < t.restored_version then cursor := Int.min !cursor t.restored_lsn;
  for lsn = t.vacuumed_lsn + 1 to Storage.Wal.last_lsn t.db_wal do
    let version, _, ws = Storage.Wal.appended t.db_wal lsn in
    if version <= keep_after then Writeset.iter_keys ws collect
    else if lsn <= !cursor then cursor := lsn - 1
  done;
  t.vacuumed_lsn <- !cursor;
  t.dump_tombstones <-
    List.filter
      (fun (key, version) ->
        if version <= keep_after then collect key;
        version > keep_after)
      t.dump_tombstones;
  keep_after

let create engine ~rng ~log_disk ?data_disk ?(config = default_config)
    ?(name = "db") () =
  let db =
    {
      engine;
      rng;
      label = name;
      cfg = config;
      data_disk;
      db_store = Store.create ();
      locks = Locks.create ();
      order = Commit_order.create engine ();
      db_wal = Storage.Wal.create engine ~disk:log_disk ~name:(name ^ ".wal") ();
      unpublished = Hashtbl.create 64;
      published_order = 0;
      active = Hashtbl.create 32;
      pinning = Version_window.create 0;
      oldest_txid = 1;
      initial_rows = [];
      next_txid = 0;
      cluster_floor = None;
      vacuumed_lsn = 0;
      vacuum_floor = 0;
      restored_lsn = 0;
      restored_version = 0;
      dump_tombstones = [];
      commit_count = Stats.Counter.create ();
      abort_count = Stats.Counter.create ();
      deadlock_count = Stats.Counter.create ();
      backfill_count = Stats.Counter.create ();
      stale_expired = Stats.Counter.create ();
    }
  in
  (match (config.background_page_writes_per_sec, data_disk) with
  | rate, Some disk when rate > 0. ->
      (* A small hot page set coalesces dirty writes into a steady
         background stream (checkpointer/bgwriter), independent of the
         transaction rate. *)
      let interval = Time.of_sec (1. /. rate) in
      ignore
        (Engine.spawn engine (fun () ->
             let rec loop () =
               Engine.sleep engine interval;
               if Stats.Counter.value db.commit_count > 0 then
                 Storage.Disk.write disk ~bytes:page_bytes;
               loop ()
             in
             loop ()))
  | _, (Some _ | None) -> ());
  (match config.durability with
  | Periodic interval ->
      ignore
        (Engine.spawn engine (fun () ->
             let rec loop () =
               Engine.sleep engine interval;
               Storage.Wal.sync db.db_wal;
               loop ()
             in
             loop ()))
  | Synchronous | Asynchronous -> ());
  (match config.gc_interval with
  | Some interval ->
      (* Vacuum: drop row versions no active snapshot (and no replica
         behind the cluster GC floor) can still see. *)
      ignore
        (Engine.spawn engine (fun () ->
             let rec loop () =
               Engine.sleep engine interval;
               ignore (vacuum db);
               loop ()
             in
             loop ()))
  | None -> ());
  db

let name t = t.label
let config t = t.cfg
let engine t = t.engine
let current_version t = Store.current_version t.db_store

let load t rows =
  (* The initial population lives in the data files, which survive a crash
     (only WAL-recent state is at risk), so recovery re-seeds it. *)
  t.initial_rows <- t.initial_rows @ rows;
  List.iter (fun (key, value) -> Store.preload t.db_store key value) rows

(* ------------------------------------------------------------------ *)
(* Transaction lifecycle *)

let begin_tx_internal t ~remote =
  t.next_txid <- t.next_txid + 1;
  let tx =
    {
      db = t;
      id = t.next_txid;
      lk = Locks.register t.next_txid;
      snapshot = Store.current_version t.db_store;
      remote;
      born = Engine.now t.engine;
      buffer = Writeset.empty;
      state = Active;
      parked = None;
      parked_key = None;
      logged_lsn = 0;
    }
  in
  Hashtbl.replace t.active tx.id tx;
  Version_window.replace t.pinning tx.id tx.snapshot;
  tx

let begin_tx t = begin_tx_internal t ~remote:false
let tx_id tx = tx.id
let snapshot_version tx = tx.snapshot

let release_locks tx =
  let grants = Locks.release_all tx.db.locks tx.lk in
  wake_grants tx.db grants

(* Final transition out of Active/Doomed/Committing into Aborted. *)
let rollback tx =
  match tx.state with
  | Aborted | Committed -> ()
  | Active | Doomed _ | Committing ->
      tx.state <- Aborted;
      (match tx.parked_key with
      | Some key -> Locks.cancel_wait tx.db.locks tx.lk key
      | None -> ());
      release_locks tx;
      retire tx;
      Stats.Counter.incr tx.db.abort_count

let abort tx = rollback tx

let commit_readonly tx =
  if not (Writeset.is_empty tx.buffer) then
    invalid_arg "Db.commit_readonly: transaction has writes";
  match tx.state with
  | Committed | Aborted -> ()
  | Active | Doomed _ | Committing ->
      tx.state <- Committed;
      retire tx

let is_doomed tx = match tx.state with Doomed r -> Some r | _ -> None

let fail tx reason =
  rollback tx;
  Error reason

(* ------------------------------------------------------------------ *)
(* Reads and writes *)

let maybe_page_in t =
  match t.data_disk with
  | Some disk when t.cfg.page_read_miss > 0. && Rng.chance t.rng t.cfg.page_read_miss ->
      Storage.Disk.read disk ~bytes:page_bytes
  | Some _ | None -> ()

let read tx key =
  maybe_page_in tx.db;
  (* Read-your-own-writes from the buffer first. *)
  match Writeset.find_op tx.buffer key with
  | Some (Writeset.Insert v | Writeset.Update v) -> Some v
  | Some Writeset.Delete -> None
  | Some (Writeset.Add d) ->
      (* A buffered delta folds onto the snapshot base (missing or
         non-integer base counts as zero, as at apply time). *)
      let base =
        match Store.read tx.db.db_store ~at:tx.snapshot key with
        | Some (Value.Int n) -> n
        | Some (Value.Text _) | None -> 0
      in
      Some (Value.int (base + d))
  | None -> Store.read tx.db.db_store ~at:tx.snapshot key

let park tx =
  let result =
    Engine.suspend tx.db.engine (fun resume -> tx.parked <- Some resume)
  in
  tx.parked <- None;
  tx.parked_key <- None;
  result

let rec write tx key op =
  match tx.state with
  | Doomed r -> fail tx r
  | Aborted | Committed | Committing -> invalid_arg "Db.write: transaction is finished"
  | Active -> (
      (* First-updater-wins against already-committed concurrent writers. A
         delta write only conflicts with a committed final image: committed
         deltas past the snapshot commute with it, mirroring the
         certifier's delta fast path so local and global certification
         agree. *)
      let committed_conflict =
        (not tx.remote)
        &&
        match op with
        | Writeset.Add _ ->
            Store.blind_write_after tx.db.db_store key ~after:tx.snapshot <> None
        | Writeset.Insert _ | Writeset.Update _ | Writeset.Delete ->
            Store.latest_writer tx.db.db_store key > tx.snapshot
      in
      if committed_conflict then fail tx (Ww_conflict key)
      else
        match Locks.acquire tx.db.locks tx.lk key with
        | Locks.Granted ->
            tx.buffer <- Writeset.add tx.buffer key op;
            Ok ()
        | Locks.Deadlock cycle ->
            Stats.Counter.incr tx.db.deadlock_count;
            fail tx (Deadlock cycle)
        | Locks.Would_block holder ->
            let park_and_retry () =
              Locks.enqueue tx.db.locks tx.lk key;
              tx.parked_key <- Some key;
              match park tx with
              | Ok () -> write tx key op
              | Error r -> fail tx r
            in
            let holder_delta_on_key =
              match Hashtbl.find_opt tx.db.active holder with
              | Some htx -> (
                  match Writeset.find_op htx.buffer key with
                  | Some hop -> Writeset.op_is_delta hop
                  | None -> false)
              | None -> false
            in
            if tx.remote && Writeset.op_is_delta op && holder_delta_on_key then begin
              (* Commutative bypass: a remote delta slots around a holder
                 whose own write to this key is a delta, instead of evicting
                 or queueing behind it. The symbolic store makes the two
                 installs order-insensitive, and the holder's delta folds on
                 top of this one when it commits. *)
              tx.buffer <- Writeset.add tx.buffer key op;
              Ok ()
            end
            else if tx.remote && tx.db.cfg.remote_priority then begin
              (* Priority write: evict an active holder and retry. A holder
                 already in its commit phase cannot be evicted — it will
                 release the lock when it announces, so queue behind it. *)
              doom tx.db holder;
              match Locks.holder tx.db.locks key with
              | Some h when h = holder -> park_and_retry ()
              | _ -> write tx key op
            end
            else park_and_retry ())

let writeset tx = tx.buffer

(* ------------------------------------------------------------------ *)
(* Commit machinery *)

let next_order t = Commit_order.next_seq t.order

let schedule_writebacks t ws =
  match t.data_disk with
  | Some disk when t.cfg.page_writeback_per_op > 0. ->
      let expected = t.cfg.page_writeback_per_op *. float_of_int (Writeset.cardinal ws) in
      let whole = int_of_float expected in
      let pages = whole + if Rng.chance t.rng (expected -. float_of_int whole) then 1 else 0 in
      if pages > 0 then
        ignore
          (Engine.spawn t.engine (fun () ->
               for _ = 1 to pages do
                 Storage.Disk.write disk ~bytes:page_bytes
               done))
  | Some _ | None -> ()

(* One durable group for the whole batch: a redo record per version,
   chained from [prev] through the batch, one sync. *)
let log_batch t ~prev batch =
  let prev = ref prev in
  let records =
    List.map
      (fun (version, ws) ->
        let r = (version, !prev, ws) in
        prev := version;
        r)
      batch
  in
  let bytes_of (_, _, ws) = max (Writeset.encoded_bytes ws) commit_record_bytes in
  ignore (Storage.Wal.append_batch t.db_wal ~bytes_of records);
  match t.cfg.durability with
  | Synchronous -> Storage.Wal.sync t.db_wal
  | Asynchronous | Periodic _ -> ()

(* Slot the rows in at their certified version. One at or below the
   visible version is a backfill: the reply overtook the remote-writeset
   stream (a certifier failover re-answered a retried request from its
   decided table after this replica already applied later versions). *)
let install t ~version ws =
  if version <= Store.current_version t.db_store then Stats.Counter.incr t.backfill_count;
  Store.install_at t.db_store ~version ws

(* Mark [order] finished and advance the visible version through the
   contiguous run of finished orders ({!Commit_order.complete}), so
   snapshot reads and [check_consistency] always see a gap-free prefix of
   the global history. *)
let publish t ~order ~version =
  Hashtbl.replace t.unpublished order version;
  Commit_order.complete t.order order;
  while t.published_order < Commit_order.announced t.order do
    let next = t.published_order + 1 in
    (match Hashtbl.find_opt t.unpublished next with
    | Some v ->
        Hashtbl.remove t.unpublished next;
        if v > Store.current_version t.db_store then Store.force_version t.db_store v
    | None -> ());
    t.published_order <- next
  done

let mark_committed tx =
  tx.state <- Committed;
  release_locks tx;
  retire tx;
  Stats.Counter.incr tx.db.commit_count

(* The one certified-commit finish. The redo records hit the log at once
   (grouping fsyncs with every concurrent committer); [in_order] then
   waits for [order]'s turn ([COMMIT n]) before installing, while the
   publish barrier alone installs rows immediately and lets visibility
   catch up through the contiguous prefix. [written] is the writeset whose
   rows the data pages write back: the committer's own buffer, or for a
   remote apply the sealed union it replayed, which holds the same keys
   and spares sealing the replay's buffer. *)
let finish_certified tx ~batch ~prev ~order ~in_order ~written =
  let t = tx.db in
  tx.logged_lsn <- Storage.Wal.last_lsn t.db_wal + 1;
  log_batch t ~prev batch;
  if in_order then Commit_order.wait_turn t.order order;
  List.iter (fun (version, ws) -> install t ~version ws) batch;
  publish t ~order ~version:(List.fold_left (fun a (v, _) -> max a v) 0 batch);
  mark_committed tx;
  schedule_writebacks t written

let commit_certified tx ~version ~prev ~order ~in_order =
  match tx.state with
  (* [order] is not consumed: the caller re-installs the buffered writeset
     under it with {!apply_certified}. *)
  | Doomed r -> fail tx r
  | Aborted | Committed | Committing ->
      invalid_arg "Db.commit_certified: transaction is finished"
  | Active ->
      tx.state <- Committing;
      finish_certified tx ~batch:[ (version, tx.buffer) ] ~prev ~order ~in_order
        ~written:tx.buffer;
      Ok ()

let commit_standalone tx =
  match tx.state with
  | Doomed r -> fail tx r
  | Aborted | Committed | Committing ->
      invalid_arg "Db.commit_standalone: transaction is finished"
  | Active ->
      tx.state <- Committing;
      let order = next_order tx.db in
      (* In a centralised database the announce sequence *is* the version
         sequence. *)
      finish_certified tx ~batch:[ (order, tx.buffer) ] ~prev:(order - 1) ~order
        ~in_order:true ~written:tx.buffer;
      Ok order

(* Replay a run of certified writesets as ONE remote transaction: take
   every write of their union (and its lock) in turn, then finish. Each
   writeset still lands at its own certified version: installing the
   merged union at the batch's top version would read the same at the
   head, but it renames history — a delayed commit reply for one of the
   batched versions (a certifier failover re-answering from its decided
   table) would then backfill the same writeset beside its renamed copy
   instead of landing on it idempotently, a harmless shadow for blind
   images but a double count for commutative deltas. *)
let apply_certified t ~batch ~prev ~order ~in_order =
  let batch = List.sort (fun (a, _) (b, _) -> Int.compare a b) batch in
  let ws =
    match batch with
    | [] -> invalid_arg "Db.apply_certified: empty batch"
    | [ (_, ws) ] -> ws
    | batch -> List.fold_left (fun acc (_, ws) -> Writeset.union acc ws) Writeset.empty batch
  in
  let tx = begin_tx_internal t ~remote:true in
  let written = ref (Ok ()) in
  Writeset.iter_entries ws (fun key op ->
      match !written with Ok () -> written := write tx key op | Error _ -> ());
  match !written with
  | Ok () ->
      tx.state <- Committing;
      finish_certified tx ~batch ~prev ~order ~in_order ~written:ws;
      Ok ()
  | Error _ as failed -> failed

(* ------------------------------------------------------------------ *)
(* Queries *)

let read_committed t ?at key =
  let at = Option.value ~default:(Store.current_version t.db_store) at in
  Store.read t.db_store ~at key

let store t = t.db_store
let active_txids t = Hashtbl.fold (fun id _ acc -> id :: acc) t.active []

(* ------------------------------------------------------------------ *)
(* Crash and recovery *)

(* Every path that replaces the store restarts the publish frontier and the
   vacuum. A store rebuilt from the data files and the redo log holds only
   rows some record in the log wrote, so the vacuum starts over at the
   log's first record. *)
let reset_for_new_store t =
  Hashtbl.reset t.unpublished;
  t.published_order <- 0;
  t.vacuumed_lsn <- 0;
  t.vacuum_floor <- 0;
  t.restored_lsn <- 0;
  t.restored_version <- 0;
  t.dump_tombstones <- []

let crash t =
  ignore (Storage.Wal.crash t.db_wal);
  t.db_store <- Store.create ();
  (* Data files survive; only logged state needs recovery. *)
  List.iter (fun (key, value) -> Store.preload t.db_store key value) t.initial_rows;
  t.locks <- Locks.create ();
  Commit_order.reset t.order;
  t.order <- Commit_order.create t.engine ();
  reset_for_new_store t;
  Hashtbl.reset t.active;
  Version_window.reset t.pinning

exception Redo_gap

let recover t =
  (* Checksum-scan the redo log: replay only the verified prefix, so a torn
     or corrupt tail record is truncated rather than installed. Anything
     discarded was never acked durable (redo acks follow the sync). Each
     record names its chain predecessor; replay stops at the first record
     whose predecessor never made it to disk — concurrent commits can log
     records out of version order, so a lost middle record
     must truncate everything above it or recovery would expose a snapshot
     with a hole in the history. *)
  let records, _scan = Storage.Wal.recover t.db_wal in
  let by_version =
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) records
  in
  let fresh = Store.create () in
  List.iter (fun (key, value) -> Store.preload fresh key value) t.initial_rows;
  (try
     List.iter
       (fun (version, prev, ws) ->
         if version > Store.current_version fresh then
           if prev > Store.current_version fresh then raise Redo_gap
           else Store.install fresh ~version ws)
       by_version
   with Redo_gap -> ());
  t.db_store <- fresh;
  (* Announce sequence restarts after recovery. *)
  t.order <- Commit_order.create t.engine ();
  reset_for_new_store t;
  Store.current_version fresh

let restore_from_dump t ~version dump =
  let copy = Store.copy dump in
  Store.force_version copy version;
  t.db_store <- copy;
  t.order <- Commit_order.create t.engine ();
  reset_for_new_store t;
  (* A flat copy, which no record logged so far can unflatten. *)
  t.vacuumed_lsn <- unlanded_lsn t;
  t.restored_lsn <- t.vacuumed_lsn;
  t.restored_version <- Store.newest_version copy;
  t.dump_tombstones <- Store.tombstones copy

let dump t = (Store.current_version t.db_store, Store.copy t.db_store)

(* ------------------------------------------------------------------ *)
(* Statistics *)

let commits t = Stats.Counter.value t.commit_count
let backfills t = Stats.Counter.value t.backfill_count
let aborts t = Stats.Counter.value t.abort_count
let deadlocks_detected t = Stats.Counter.value t.deadlock_count
let stale_snapshots_expired t = Stats.Counter.value t.stale_expired
let wal t = t.db_wal

let reset_stats t =
  Stats.Counter.reset t.commit_count;
  Stats.Counter.reset t.abort_count;
  Stats.Counter.reset t.deadlock_count;
  Stats.Counter.reset t.backfill_count;
  Stats.Counter.reset t.stale_expired;
  Storage.Wal.reset_stats t.db_wal

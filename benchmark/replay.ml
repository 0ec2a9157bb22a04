(* Layer replay: the writesets the traced rep committed and the keys it read,
   fed back through the public functions of the certification and storage
   layers, so that each function is timed on the workload's own inputs
   rather than on synthetic ones.

   The certifier pattern is replayed in chunks of [chunk] writesets (about
   one group commit): each chunk is certified against the log holding every
   earlier writeset and against an overlay holding the previous chunk (the
   batch still in flight), then appended to both. A certification window
   starts [lag] versions before the writeset's own version, where [lag] is
   how far the committing replica advanced while the transaction ran.

   Every function runs over the whole input in each of [batches] batches.
   The result per function is the median and IQR over the batches of
   ns per operation, and the words allocated per operation, which repeat
   exactly. *)

let batches = 11
let chunk = 32

(* Words allocated so far: minor + major - promoted. *)
let alloc_words () =
  let minor, promoted, major = Gc.counters () in
  minor +. major -. promoted

type acc = { mutable ns : float; mutable words : float; mutable ops : int }

let fns =
  [
    "writeset.intersects";
    "cert_log.append";
    "cert_log.certify";
    "overlay.add";
    "overlay.conflict";
    "store.install";
    "store.read";
  ]

let run ~(writesets : (Mvcc.Writeset.t * int) array) ~(reads : Mvcc.Key.t array)
    ~(rows : (Mvcc.Key.t * Mvcc.Value.t) list) =
  let n = Array.length writesets in
  let entries =
    Array.mapi
      (fun i (ws, _) ->
        {
          Tashkent.Types.version = i + 1;
          origin = "replay";
          req_id = i;
          ws;
          gc_floor = 0;
          xa = None;
        })
      writesets
  in
  let start i = max 0 (i + 1 - snd writesets.(i)) in
  (* The probe itself allocates; measure it once and take it out. *)
  let probe_words =
    let w0 = alloc_words () in
    let w1 = alloc_words () in
    w1 -. w0
  in
  let per_batch = Hashtbl.create 8 in
  List.iter (fun f -> Hashtbl.replace per_batch f (Array.make batches 0., ref 0.)) fns;
  for b = 0 to batches - 1 do
    let accs = Hashtbl.create 8 in
    List.iter (fun f -> Hashtbl.replace accs f { ns = 0.; words = 0.; ops = 0 }) fns;
    let timed name lo hi f =
      let a = Hashtbl.find accs name in
      let w0 = alloc_words () in
      let t0 = Unix.gettimeofday () in
      for i = lo to hi - 1 do
        f i
      done;
      let t1 = Unix.gettimeofday () in
      a.words <- a.words +. (alloc_words () -. w0 -. probe_words);
      a.ns <- a.ns +. ((t1 -. t0) *. 1e9);
      a.ops <- a.ops + (hi - lo)
    in
    let log = Tashkent.Cert_log.create () in
    let overlay = Tashkent.Overlay.create () in
    let rec certify_chunks lo =
      if lo < n then begin
        let hi = min n (lo + chunk) in
        timed "writeset.intersects" lo hi (fun i ->
            ignore (Mvcc.Writeset.intersects (fst writesets.(i)) (fst writesets.((i + n - 1) mod n))));
        timed "overlay.conflict" lo hi (fun i ->
            ignore (Tashkent.Overlay.conflict overlay (fst writesets.(i)) ~start_version:(start i)));
        timed "cert_log.certify" lo hi (fun i ->
            ignore (Tashkent.Cert_log.certify log (fst writesets.(i)) ~start_version:(start i)));
        for v = max 1 (lo - chunk + 1) to lo do
          Tashkent.Overlay.remove overlay v
        done;
        timed "overlay.add" lo hi (fun i -> Tashkent.Overlay.add overlay entries.(i));
        timed "cert_log.append" lo hi (fun i -> Tashkent.Cert_log.append log entries.(i));
        certify_chunks hi
      end
    in
    certify_chunks 0;
    let store = Mvcc.Store.create () in
    List.iter (fun (k, v) -> Mvcc.Store.preload store k v) rows;
    let rec install_chunks lo =
      if lo < n then begin
        let hi = min n (lo + chunk) in
        timed "store.install" lo hi (fun i ->
            Mvcc.Store.install store ~version:(i + 1) (fst writesets.(i)));
        install_chunks hi
      end
    in
    install_chunks 0;
    let m = Array.length reads in
    let rec read_chunks lo =
      if lo < m then begin
        let hi = min m (lo + chunk) in
        let at = Mvcc.Store.current_version store in
        timed "store.read" lo hi (fun i -> ignore (Mvcc.Store.read store ~at reads.(i)));
        read_chunks hi
      end
    in
    read_chunks 0;
    Hashtbl.iter
      (fun name a ->
        let ns, words = Hashtbl.find per_batch name in
        let ops = float_of_int (max 1 a.ops) in
        ns.(b) <- a.ns /. ops;
        words := a.words /. ops)
      accs
  done;
  List.map
    (fun name ->
      let ns, words = Hashtbl.find per_batch name in
      (name, Dist.median ns, Dist.iqr ns, !words))
    fns

(* Per-encoding benchmark of the ordered-XML store.

   One single-threaded closed-loop client drives [Api.Store] over one
   workload (see [Workloads]), giving GLOBAL, LOCAL and DEWEY each their own
   durable [Reldb.Db]. Every answer is checked. Every end-to-end timing is
   reported in calibrated time: raw time x (nominal / running kernel time),
   see [Calib].

   A run goes: set-up, repeated (median reported) -> warm-up round ->
   counted pass (fixed rounds, exact per-layer counts) -> close and reopen
   every store, repeated (recovery), then verify -> warm-up round -> timed
   phase (--seconds, Obs off) -> with --trace 1, a checkpoint and a traced
   pass (fixed rounds, Obs on) splitting each operation across the
   program's spans -> final check of edited documents.

   Usage:
     xbench.exe --workload read-hot|read-varied|edit-durable --seed N
                --seconds S --trace 0|1 --calib-nominal-ms MS [--dir DIR]

   Standard output lists every metric by name with its unit, then, as its
   last line, one JSON object
   {"correct":..,"attempted":..,"failed":..,"metrics":{..}} holding the
   end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1). *)

open Lanes

let now = Obs.Clock.now_ns
let since_ms = Obs.Clock.since_ms

(* --- command line ------------------------------------------------------- *)

type args = {
  spec : spec;
  seed : int;
  seconds : float;
  trace : bool;
  nominal_ms : float;
  dir : string;
}

let usage =
  "xbench --workload read-hot|read-varied|edit-durable --seed N --seconds S \
   --trace 0|1 --calib-nominal-ms MS [--dir DIR]"

let parse_args () =
  let workload = ref "" and seed = ref None and seconds = ref None
  and trace = ref None and nominal = ref None
  and dir = ref ".bench_tmp" in
  let specs =
    [
      ("--workload", Arg.Set_string workload, " workload name");
      ("--seed", Arg.Int (fun n -> seed := Some n), " input seed");
      ("--seconds", Arg.Float (fun s -> seconds := Some s), " timed phase");
      ("--trace", Arg.Int (fun n -> trace := Some n), " 0 or 1");
      ( "--calib-nominal-ms",
        Arg.Float (fun f -> nominal := Some f),
        " kernel time calibrated timings are expressed against" );
      ("--dir", Arg.Set_string dir, " scratch directory for the stores");
    ]
  in
  Arg.parse specs (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let spec = List.find_opt (fun s -> s.name = !workload) Workloads.all in
  match (spec, !seed, !seconds, !trace, !nominal) with
  | Some spec, Some seed, Some seconds, Some ((0 | 1) as tr), Some nominal_ms
    when seconds > 0. && nominal_ms > 0. ->
      { spec; seed; seconds; trace = tr = 1; nominal_ms; dir = !dir }
  | _ ->
      prerr_endline usage;
      exit 2

(* --- accumulators ------------------------------------------------------- *)

(* Latencies of one lane over one pass. *)
type lat = {
  mutable raw : float list;
  mutable at : int list;  (* kernel samples taken before each operation *)
  mutable cal : float list;  (* filled in when the pass ends *)
  mutable ops : int;
  mutable failed : int;
}

let new_lat () = { raw = []; at = []; cal = []; ops = 0; failed = 0 }

(* Exact counts from public calls, summed over a lane's operations. *)
type counts = {
  mutable c_ops : int;
  mutable rows_read : int;
  mutable rows_written : int;
  mutable bumps : int;
  mutable hits : int;
  mutable misses : int;
  mutable wal_bytes : int;
  mutable minor_words : float;
  mutable majors : int;
  label_rows_read : (string, int) Hashtbl.t;
}

let new_counts () =
  {
    c_ops = 0;
    rows_read = 0;
    rows_written = 0;
    bumps = 0;
    hits = 0;
    misses = 0;
    wal_bytes = 0;
    minor_words = 0.;
    majors = 0;
    label_rows_read = Hashtbl.create 8;
  }

(* Per-layer self times and Obs counters from the traced pass. *)
type traced = {
  self_ms : (string, float) Hashtbl.t;
  mutable statements : int;
  mutable fsyncs : int;
}

let new_traced () = { self_ms = Hashtbl.create 16; statements = 0; fsyncs = 0 }

(* Self time per span name: a span's duration minus the time its direct
   children cover. [spans] is in preorder with absolute depths, as
   [Obs.Span.collect] returns them. *)
let add_self_times acc ~factor (spans : Obs.Span.t list) =
  let arr = Array.of_list spans in
  let child = Array.make (Array.length arr) 0. in
  let stack = ref [] in
  Array.iteri
    (fun i (sp : Obs.Span.t) ->
      let rec pop () =
        match !stack with
        | j :: rest when arr.(j).Obs.Span.sp_depth >= sp.sp_depth ->
            stack := rest;
            pop ()
        | _ -> ()
      in
      pop ();
      (match !stack with
      | j :: _ -> child.(j) <- child.(j) +. Obs.Span.elapsed_ms sp
      | [] -> ());
      stack := i :: !stack)
    arr;
  Array.iteri
    (fun i (sp : Obs.Span.t) ->
      let self = (Obs.Span.elapsed_ms sp -. child.(i)) *. factor in
      let prev = Option.value ~default:0. (Hashtbl.find_opt acc sp.sp_name) in
      Hashtbl.replace acc sp.sp_name (prev +. self))
    arr

(* --- running operations ------------------------------------------------- *)

type mode =
  | Timed  (** untraced; latencies only *)
  | Counted of counts array  (** untraced; latencies and exact counts *)
  | Traced of traced array  (** Obs on; spans and Obs counters *)

let errors_shown = ref 0

(* Run one operation; a wrong answer or an exception is a failure, and the
   first few failures are described on standard error. *)
let attempt label lane run =
  let failure =
    try if run () then None else Some "gave a wrong answer"
    with e -> Some ("raised " ^ Printexc.to_string e)
  in
  match failure with
  | None -> true
  | Some what ->
      if !errors_shown < 5 then begin
        incr errors_shown;
        Printf.eprintf "xbench: %s on %s %s\n%!" label enc_names.(lane) what
      end;
      false

let public_snapshot lane =
  let db = db lane in
  let hits, misses, _ = Db.plan_cache_stats db in
  ( Db.rows_read db,
    Db.rows_written db,
    Reldb.Catalog.version (Db.catalog db),
    hits,
    misses,
    Db.wal_size db )

(* Run one operation in [mode]; record its latency in [lats]. *)
let run_op mode cal lanes lats ~lane ~label run =
  let at = Calib.count cal in
  let record raw ok =
    let l = lats.(lane) in
    l.raw <- raw :: l.raw;
    l.at <- at :: l.at;
    l.ops <- l.ops + 1;
    if not ok then l.failed <- l.failed + 1
  in
  match mode with
  | Timed ->
      let t0 = now () in
      let ok = attempt label lane run in
      record (since_ms t0) ok
  | Counted counts ->
      let c = counts.(lane) in
      let r0, w0, v0, h0, m0, b0 = public_snapshot lanes.(lane) in
      let minor0 = Gc.minor_words () in
      let major0 = (Gc.quick_stat ()).Gc.major_collections in
      let t0 = now () in
      let ok = attempt label lane run in
      let raw = since_ms t0 in
      let minor1 = Gc.minor_words () in
      let major1 = (Gc.quick_stat ()).Gc.major_collections in
      let r1, w1, v1, h1, m1, b1 = public_snapshot lanes.(lane) in
      record raw ok;
      c.c_ops <- c.c_ops + 1;
      c.rows_read <- c.rows_read + (r1 - r0);
      c.rows_written <- c.rows_written + (w1 - w0);
      c.bumps <- c.bumps + (v1 - v0);
      c.hits <- c.hits + (h1 - h0);
      c.misses <- c.misses + (m1 - m0);
      c.wal_bytes <- c.wal_bytes + (b1 - b0);
      c.minor_words <- c.minor_words +. (minor1 -. minor0);
      c.majors <- c.majors + (major1 - major0);
      let prev =
        Option.value ~default:0 (Hashtbl.find_opt c.label_rows_read label)
      in
      Hashtbl.replace c.label_rows_read label (prev + (r1 - r0))
  | Traced traced ->
      let tr = traced.(lane) in
      let s0 = Obs.counter_value "db.statements"
      and f0 = Obs.counter_value "wal.fsync" in
      let t0 = now () in
      let ok, spans = Obs.Span.collect (fun () -> attempt label lane run) in
      let raw = since_ms t0 in
      record raw ok;
      add_self_times tr.self_ms ~factor:(Calib.factor cal at) spans;
      tr.statements <- tr.statements + Obs.counter_value "db.statements" - s0;
      tr.fsyncs <- tr.fsyncs + Obs.counter_value "wal.fsync" - f0

(* Two kernel samples after the last timed piece of work, so that it has
   samples on both sides. *)
let sample_after cal =
  ignore (Calib.sample cal);
  ignore (Calib.sample cal)

let calibrate cal = List.map (fun (raw, at) -> raw *. Calib.factor cal at)

(* Run rounds [first ..] until [stop r] says otherwise, sampling the kernel
   every [calib_every] operations (an operation count, so the counted pass
   stays deterministic). Returns the number of rounds run. *)
let run_rounds ~spec ~plan ~cal ~mode lanes lats ~first ~stop =
  let since_sample = ref max_int in
  let r = ref first in
  while not (stop (!r - first)) do
    Array.iter
      (function
        | Sync f -> f ()
        | Op { lane; label; run } ->
            if !since_sample >= spec.calib_every then begin
              ignore (Calib.sample cal);
              since_sample := 0
            end;
            incr since_sample;
            run_op mode cal lanes lats ~lane ~label run)
      (plan.round !r);
    incr r
  done;
  sample_after cal;
  Array.iter
    (fun l -> l.cal <- calibrate cal (List.combine l.raw l.at))
    lats;
  !r - first

(* --- phases ------------------------------------------------------------- *)

(* Set up [reps] times, each after a kernel sample; keep the last set of
   stores. Returns the document, the stores and the raw and calibrated
   set-up times in seconds. *)
let setup_phase args cal root =
  let timed = ref [] and last = ref None in
  for _ = 1 to args.spec.setup_reps do
    (match !last with Some (_, lanes) -> close_all lanes | None -> ());
    rm_rf root;
    mkdir_p root;
    Gc.compact ();
    ignore (Calib.sample cal);
    let at = Calib.count cal in
    let t0 = now () in
    let doc, lanes = setup ~root ~scale:args.spec.scale in
    timed := (since_ms t0 /. 1000., at) :: !timed;
    last := Some (doc, lanes)
  done;
  sample_after cal;
  match !last with
  | Some (doc, lanes) -> (doc, lanes, List.map fst !timed, calibrate cal !timed)
  | None -> invalid_arg "setup_reps must be positive"

(* One extra set-up with Obs on, for the [shred] layer's self time, each
   store calibrated against a kernel sample taken just before it. *)
let traced_setup args cal root =
  rm_rf root;
  mkdir_p root;
  Obs.set_enabled true;
  let doc = O.Workload.dataset ~scale:args.spec.scale in
  let collected =
    Array.mapi
      (fun i enc ->
        let db = open_db (Filename.concat root enc_names.(i)) in
        ignore (Calib.sample cal);
        let at = Calib.count cal in
        let (), spans =
          Obs.Span.collect (fun () ->
              ignore (Store.create db ~name:store_name enc doc))
        in
        Db.close db;
        (spans, at))
      encodings
  in
  Obs.set_enabled false;
  sample_after cal;
  rm_rf root;
  Array.map
    (fun (spans, at) ->
      let self = Hashtbl.create 8 in
      add_self_times self ~factor:(Calib.factor cal at) spans;
      Option.value ~default:0. (Hashtbl.find_opt self "shred"))
    collected

type recovery = {
  rec_raw : float list array;
  rec_cal : float list array;
  replayed : int array;
  bytes_per_xml_byte : float array;
  rec_failures : int;
  rec_checks : int;
}

(* Close every store and reopen it [recovery_reps] times, timing
   [Db.open_dir] against a kernel sample taken just before. The last
   handle stays open. The reopened document must equal the one read before
   closing, and the store must pass [Api.Store.check]. *)
let recovery_phase args cal lanes =
  let before = Array.map (fun l -> root_string l.store) lanes in
  let bytes_per_xml_byte =
    Array.mapi
      (fun i (l : lane) ->
        let s = Store.storage l.store in
        float_of_int s.O.Storage.total_bytes
        /. float_of_int (String.length before.(i)))
      lanes
  in
  close_all lanes;
  let timed = Array.make n_lanes [] in
  for rep = 1 to args.spec.recovery_reps do
    Array.iteri
      (fun i (l : lane) ->
        (* the previous handle is closed and about to be dropped: collect
           it first, so every reopen starts from the same heap *)
        if rep > 1 then Db.close (db l);
        Gc.full_major ();
        ignore (Calib.sample cal);
        let at = Calib.count cal in
        let t0 = now () in
        let db = open_db l.dir in
        timed.(i) <- (since_ms t0, at) :: timed.(i);
        l.store <- Store.open_existing db ~name:store_name l.enc)
      lanes
  done;
  sample_after cal;
  let rec_raw = Array.map (List.map fst) timed in
  let rec_cal = Array.map (calibrate cal) timed in
  let failures = ref 0 and checks = ref 0 in
  let replayed =
    Array.mapi
      (fun i (l : lane) ->
        checks := !checks + 2;
        if root_string l.store <> before.(i) then begin
          incr failures;
          Printf.eprintf "xbench: %s document changed across reopen\n%!"
            enc_names.(i)
        end;
        (match Store.check l.store with
        | Ok () -> ()
        | Error errs ->
            incr failures;
            Printf.eprintf "xbench: %s integrity: %s\n%!" enc_names.(i)
              (String.concat "; " errs));
        match Db.last_recovery (db l) with
        | Some r -> r.Db.rec_statements
        | None -> 0)
      lanes
  in
  {
    rec_raw;
    rec_cal;
    replayed;
    bytes_per_xml_byte;
    rec_failures = !failures;
    rec_checks = !checks;
  }

(* Edited stores must hold the mirror's document, before and after one
   more close and reopen. Returns (checks, failures). *)
let final_check plan lanes =
  match plan.expected_root with
  | None -> (0, 0)
  | Some expected ->
      let want = expected () in
      let failures = ref 0 and checks = ref 0 in
      Array.iteri
        (fun i (l : lane) ->
          let check what ok =
            incr checks;
            if not ok then begin
              incr failures;
              Printf.eprintf "xbench: %s final check failed: %s\n%!"
                enc_names.(i) what
            end
          in
          check "document matches the edit mirror" (root_string l.store = want);
          Db.close (db l);
          l.store <- Store.open_existing (open_db l.dir) ~name:store_name l.enc;
          check "reopened document matches" (root_string l.store = want);
          check "integrity" (Store.check l.store = Ok ()))
        lanes;
      (!checks, !failures)

(* --- metrics ------------------------------------------------------------ *)

type metric = { m_name : string; m_value : float; m_unit : string }

let m m_name m_unit m_value = { m_name; m_value; m_unit }
let per_lane name unit f =
  List.init n_lanes (fun i -> m (name ^ "." ^ enc_names.(i)) unit (f i))

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let sum = List.fold_left ( +. ) 0.

let span t0 t1 = Int64.to_float (Int64.sub t1 t0) /. 1e9

let json_number f =
  if Float.is_finite f then Printf.sprintf "%.17g" f else "0"

let print_lines title metrics =
  Printf.printf "# %s\n" title;
  List.iter
    (fun x -> Printf.printf "  %-44s %18.6f %s\n" x.m_name x.m_value x.m_unit)
    metrics

let print_json ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun x ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" x.m_name
              (json_number x.m_value) x.m_unit)
          metrics))

(* The paper's shapes, from exact counts (informational, not gated). *)
let print_shapes workload layers =
  let v name enc =
    (List.find (fun x -> x.m_name = name ^ "." ^ enc) layers).m_value
  in
  let line name holds claim =
    Printf.printf "# paper shape %s: global %.0f local %.0f dewey %.0f -> %s %s\n"
      name (v name "global") (v name "local") (v name "dewey") claim
      (if holds then "holds" else "BROKEN")
  in
  match workload with
  | "read-hot" ->
      List.iter
        (fun name ->
          let g = v name "global" and l = v name "local" and d = v name "dewey" in
          line name (l > 2. *. g && l > 2. *. d) "LOCAL >> GLOBAL, DEWEY")
        [ "q7_rows_read"; "q8_rows_read" ]
  | "edit-durable" ->
      let name = "front_insert_rows_renumbered" in
      let g = v name "global" and l = v name "local" and d = v name "dewey" in
      line name (l < d && d < g) "LOCAL < DEWEY < GLOBAL"
  | _ -> ()

(* Digest of the generated operation sequence (lane and label of every
   operation in the counted pass's rounds), so a run shows which inputs it
   drew from its seed. *)
let ops_digest spec plan =
  let b = Buffer.create 1024 in
  for r = 0 to spec.pass_rounds - 1 do
    Array.iter
      (function
        | Op { lane; label; _ } -> Printf.bprintf b "%d:%s;" lane label
        | Sync _ -> ())
      (plan.round r)
  done;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* --- main --------------------------------------------------------------- *)

let total f lats = Array.fold_left (fun acc l -> acc + f l) 0 lats
let total_ms f lats = Array.fold_left (fun acc l -> acc +. sum (f l)) 0. lats

let () =
  let args = parse_args () in
  Obs.set_enabled false;
  let spec = args.spec in
  let root = Filename.concat args.dir spec.name in
  let cal = Calib.create ~nominal_ms:args.nominal_ms in
  for _ = 1 to 5 do
    ignore (Calib.sample cal)
  done;
  let t_start = now () in
  let doc, lanes, setup_raw, setup_cal =
    setup_phase args cal (Filename.concat root "main")
  in
  let t_setup = now () in
  let shred_ms =
    if args.trace then traced_setup args cal (Filename.concat root "traced")
    else Array.make n_lanes 0.
  in
  let plan = spec.build ~seed:args.seed doc lanes in
  let digest = ops_digest spec plan in
  let pass mode ~first ~stop =
    let lats = Array.init n_lanes (fun _ -> new_lat ()) in
    let n = run_rounds ~spec ~plan ~cal ~mode lanes lats ~first ~stop in
    (lats, n)
  in
  (* Warm-up, then the counted pass, which repeats the warm-up's rounds so
     that it starts on warm plan caches. Three rounds are one full cycle of
     insert positions on the edit workload, so its history stays balanced. *)
  Gc.compact ();
  let warm1, _ = pass Timed ~first:0 ~stop:(fun k -> k >= 3) in
  Array.iter (fun l -> Hashtbl.reset l.upd) lanes;
  let counts = Array.init n_lanes (fun _ -> new_counts ()) in
  let counted, _ =
    pass (Counted counts) ~first:0 ~stop:(fun k -> k >= spec.pass_rounds)
  in
  let upd = Array.map (fun l -> Hashtbl.copy l.upd) lanes in
  let t_counted = now () in
  let recovery = recovery_phase args cal lanes in
  let t_recovered = now () in
  (* one warm-up round on the reopened stores, then the timed phase *)
  Gc.compact ();
  let warm2, _ = pass Timed ~first:spec.pass_rounds ~stop:(fun k -> k >= 1) in
  let deadline = Int64.add (now ()) (Int64.of_float (args.seconds *. 1e9)) in
  let timed, n_timed =
    pass Timed ~first:(spec.pass_rounds + 1) ~stop:(fun _ ->
        Int64.compare (now ()) deadline >= 0)
  in
  let t_timed = now () in
  (* the traced pass runs the counted pass's rounds again, from a fresh WAL
     writer: a checkpoint syncs the log and starts a new one, so how many
     fsyncs the pass triggers does not depend on how many records the timed
     phase appended *)
  let traced = Array.init n_lanes (fun _ -> new_traced ()) in
  let traced_lats =
    if args.trace then begin
      Array.iter (fun l -> Db.checkpoint (db l)) lanes;
      Obs.reset ();
      Obs.set_enabled true;
      let lats, _ =
        pass (Traced traced) ~first:0 ~stop:(fun k -> k >= spec.pass_rounds)
      in
      Obs.set_enabled false;
      lats
    end
    else Array.init n_lanes (fun _ -> new_lat ())
  in
  let t_traced = now () in
  let final_checks, final_failures = final_check plan lanes in
  close_all lanes;
  rm_rf root;
  let wall_s = since_ms t_start /. 1000. in
  (* --- results --- *)
  let passes = [ warm1; counted; warm2; timed; traced_lats ] in
  let attempted =
    List.fold_left (fun acc lats -> acc + total (fun l -> l.ops) lats)
      (recovery.rec_checks + final_checks) passes
  and failed =
    List.fold_left (fun acc lats -> acc + total (fun l -> l.failed) lats)
      (recovery.rec_failures + final_failures) passes
  in
  let ops_per_s sel =
    ratio (fi (total (fun l -> l.ops) timed)) (total_ms sel timed /. 1000.)
  in
  let e2e =
    [
      m "setup_s" "s" (median setup_cal);
      m "ops_per_s" "1/s" (ops_per_s (fun l -> l.cal));
    ]
    @ per_lane "op_p50_ms" "ms" (fun i -> median timed.(i).cal)
    @ per_lane "op_p95_ms" "ms" (fun i -> percentile 95. timed.(i).cal)
    @ per_lane "store_bytes_per_xml_byte" "ratio" (fun i ->
          recovery.bytes_per_xml_byte.(i))
    @ per_lane "recovery_ms" "ms" (fun i -> median recovery.rec_cal.(i))
  in
  let raw =
    [
      m "raw.setup_s" "s" (median setup_raw);
      m "raw.ops_per_s" "1/s" (ops_per_s (fun l -> l.raw));
    ]
    @ per_lane "raw.op_p50_ms" "ms" (fun i -> median timed.(i).raw)
    @ per_lane "raw.op_p95_ms" "ms" (fun i -> percentile 95. timed.(i).raw)
    @ per_lane "raw.recovery_ms" "ms" (fun i -> median recovery.rec_raw.(i))
  in
  let calib_ms = median (Calib.samples cal) in
  (* per-layer figures; on the edit workload every operation is an edit *)
  let is_edit = plan.expected_root <> None in
  let per_op i v = ratio v (fi counts.(i).c_ops) in
  let per_edit i v = if is_edit then per_op i v else 0. in
  let per_traced_op i v = ratio v (fi traced_lats.(i).ops) in
  let upd_sum i f =
    fi (Hashtbl.fold (fun _ (st : O.Update.stats) acc -> acc + f st) upd.(i) 0)
  in
  let self i name =
    per_traced_op i
      (Option.value ~default:0. (Hashtbl.find_opt traced.(i).self_ms name))
  in
  let label_rows i label =
    fi (Option.value ~default:0 (Hashtbl.find_opt counts.(i).label_rows_read label))
  in
  let front_renumbered i =
    match Hashtbl.find_opt upd.(i) "insert-front" with
    | Some st -> fi st.O.Update.rows_renumbered
    | None -> 0.
  in
  let mean_cal lats =
    ratio (total_ms (fun l -> l.cal) lats) (fi (total (fun l -> l.ops) lats))
  in
  let layers =
    per_lane "xpath_parse_ms" "ms/op" (fun i -> self i "xpath-parse")
    @ per_lane "translate_self_ms" "ms/op" (fun i -> self i "translate")
    @ per_lane "sql_parse_ms" "ms/op" (fun i -> self i "sql-parse")
    @ per_lane "plan_ms" "ms/op" (fun i -> self i "plan")
    @ per_lane "exec_ms" "ms/op" (fun i -> self i "exec")
    @ per_lane "reconstruct_ms" "ms/op" (fun i -> self i "reconstruct")
    @ per_lane "renumber_ms" "ms/op" (fun i -> self i "renumber")
    @ per_lane "shred_ms" "ms" (fun i -> shred_ms.(i))
    @ per_lane "stmts_per_op" "count" (fun i ->
          per_traced_op i (fi traced.(i).statements))
    @ per_lane "catalog_bumps_per_op" "count" (fun i ->
          per_op i (fi counts.(i).bumps))
    @ per_lane "plan_cache_hit_ratio" "ratio" (fun i ->
          ratio (fi counts.(i).hits) (fi (counts.(i).hits + counts.(i).misses)))
    @ per_lane "rows_read_per_op" "count" (fun i ->
          per_op i (fi counts.(i).rows_read))
    @ per_lane "rows_renumbered_per_edit" "count" (fun i ->
          per_edit i (upd_sum i (fun st -> st.O.Update.rows_renumbered)))
    @ per_lane "stmts_per_edit" "count" (fun i ->
          per_edit i (upd_sum i (fun st -> st.O.Update.statements)))
    @ per_lane "rows_written_per_edit" "count" (fun i ->
          per_edit i (fi counts.(i).rows_written))
    @ per_lane "wal_bytes_per_edit" "B" (fun i ->
          per_edit i (fi counts.(i).wal_bytes))
    @ per_lane "fsyncs_per_edit" "count" (fun i ->
          if is_edit then per_traced_op i (fi traced.(i).fsyncs) else 0.)
    @ per_lane "replayed_statements" "count" (fun i ->
          fi recovery.replayed.(i))
    @ per_lane "minor_words_per_op" "words" (fun i ->
          per_op i counts.(i).minor_words)
    @ per_lane "major_collections" "count" (fun i -> fi counts.(i).majors)
    @ per_lane "q7_rows_read" "count" (fun i -> label_rows i "Q7")
    @ per_lane "q8_rows_read" "count" (fun i -> label_rows i "Q8")
    @ per_lane "front_insert_rows_renumbered" "count" front_renumbered
    @ [
        m "calib_ms" "ms" calib_ms;
        m "obs_overhead_ratio" "ratio"
          (if args.trace then ratio (mean_cal traced_lats) (mean_cal counted)
           else 0.);
      ]
  in
  let info =
    [
      m "fail_ratio" "ratio" (ratio (fi failed) (fi attempted));
      m "distinct_texts_per_lane" "count" (fi plan.distinct_texts);
      m "plan_cache_entries" "count" 128.;
      m "document_scale" "count" (fi spec.scale);
      m "timed_rounds" "count" (fi n_timed);
      m "wall_s" "s" wall_s;
      m "phase.setup_s" "s" (span t_start t_setup);
      m "phase.counted_s" "s" (span t_setup t_counted);
      m "phase.recovery_s" "s" (span t_counted t_recovered);
      m "phase.timed_s" "s" (span t_recovered t_timed);
      m "phase.traced_s" "s" (span t_timed t_traced);
    ]
    @ per_lane "samples" "count" (fun i -> fi timed.(i).ops)
  in
  Printf.printf "# workload %s  seed %d  seconds %g  trace %d  fsync Every 32\n"
    spec.name args.seed args.seconds
    (if args.trace then 1 else 0);
  Printf.printf "# ops digest %s\n" digest;
  print_lines "end-to-end (calibrated)" e2e;
  print_lines "raw twins and calibration" (raw @ [ m "calib_ms" "ms" calib_ms ]);
  print_lines "run" info;
  if args.trace then print_lines "per-layer (traced pass)" layers;
  print_shapes spec.name layers;
  print_json ~correct:(failed = 0) ~attempted ~failed
    (if args.trace then layers @ raw else e2e)

(* Bench regression guard: time Q1 over the GLOBAL encoding and fail if the
   per-run latency regresses more than 3x over the checked-in baseline
   (bench/baseline.json). It also prints, ungated, the plan-cache hit ratio
   and catalog version delta of a second Q1-Q7 pass per encoding. Fast
   enough to wire into `make check`; the full statistical suite stays in
   bench/main.ml. *)

module O = Ordered_xml

(* measure the engine, not the instrumentation *)
let () = Obs.set_enabled false

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline s;
      exit 1)
    fmt

let read_file path =
  let ic = try open_in_bin path with Sys_error m -> die "bench-smoke: %s" m in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* minimal scan for ["q1_global_us": <number>] — not a JSON parser, just
   enough to read the one checked-in figure without a dependency *)
let baseline_us path =
  let text = read_file path in
  let key = "\"q1_global_us\"" in
  let klen = String.length key and len = String.length text in
  let rec find i =
    if i + klen > len then die "%s: no %s key" path key
    else if String.sub text i klen = key then i + klen
    else find (i + 1)
  in
  let i = ref (find 0) in
  while !i < len && (text.[!i] = ':' || text.[!i] = ' ') do
    incr i
  done;
  let j = ref !i in
  while
    !j < len && (match text.[!j] with '0' .. '9' | '.' -> true | _ -> false)
  do
    incr j
  done;
  if !j = !i then die "%s: no number after %s" path key;
  float_of_string (String.sub text !i (!j - !i))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let () =
  let baseline_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "bench/baseline.json"
  in
  let base = baseline_us baseline_path in
  let doc = O.Workload.dataset ~scale:1 in
  let db = Reldb.Db.create () in
  (* the guarded figure is the in-memory engine: opening a database without
     a directory must keep the WAL code out of the write and query paths *)
  if Reldb.Db.is_durable db then die "bench-smoke: Db.create is durable?";
  let store = O.Api.Store.create db ~name:"b" O.Encoding.Global doc in
  let q1 =
    match (List.hd O.Workload.queries).O.Workload.q_xpath with
    | Some xp -> xp
    | None -> die "bench-smoke: Q1 has no xpath"
  in
  (* warm-up also fills the plan cache, matching steady-state service *)
  for _ = 1 to 50 do
    ignore (O.Api.Store.query store q1)
  done;
  let runs = 2000 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to runs do
    ignore (O.Api.Store.query store q1)
  done;
  let per_run_us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int runs in
  Printf.printf
    "bench-smoke: q1/global %.1f us/run (baseline %.1f us, limit %.1f us)\n"
    per_run_us base (3.0 *. base);
  if per_run_us > 3.0 *. base then
    die "bench-smoke: FAIL - Q1 latency regressed more than 3x over baseline";
  (* informational, not gated: on a second pass of Q1-Q7 every statement
     that binds no context should hit the plan cache, and reads should
     leave the catalog version alone *)
  let workload =
    List.filter_map (fun (q : O.Workload.query) -> q.O.Workload.q_xpath)
      O.Workload.queries
  in
  List.iter
    (fun enc ->
      let db = Reldb.Db.create () in
      let store = O.Api.Store.create db ~name:"c" enc doc in
      let pass () =
        List.iter (fun xp -> ignore (O.Api.Store.query store xp)) workload
      in
      let counts () =
        let hits, misses, _ = Reldb.Db.plan_cache_stats db in
        (hits, misses, Reldb.Catalog.version (Reldb.Db.catalog db))
      in
      pass ();
      let h0, m0, v0 = counts () in
      pass ();
      let h1, m1, v1 = counts () in
      Printf.printf
        "bench-smoke: q1-q7 second pass/%s plan-cache hit ratio %.2f, catalog \
         version delta %d (informational)\n"
        (O.Encoding.name enc)
        (float_of_int (h1 - h0) /. float_of_int (h1 - h0 + m1 - m0))
        (v1 - v0);
      (* informational: rows read by two context-bound workloads, which
         probe the edge table's indexes rather than scan it *)
      let rows_read f =
        Reldb.Db.reset_counters db;
        f ();
        Reldb.Db.rows_read db
      in
      let q8 =
        rows_read (fun () ->
            List.iter
              (fun id -> ignore (O.Api.Store.serialize store ~id))
              (O.Api.Store.query_ids store O.Workload.q8_target))
      in
      let wildcard = "/site/open_auctions/open_auction/*" in
      let wild = rows_read (fun () -> ignore (O.Api.Store.query store wildcard)) in
      Printf.printf
        "bench-smoke: rows read/%s: serialize(Q8 target) %d, %s %d \
         (informational)\n"
        (O.Encoding.name enc) q8 wildcard wild)
    O.Encoding.[ Global; Local; Dewey_enc ];
  (* informational: a DEWEY front insert rewrites each shifted sibling's
     subtree with one statement, so statements track siblings, not rows *)
  let dstore = O.Api.Store.create (Reldb.Db.create ()) ~name:"d" O.Encoding.Dewey_enc doc in
  let st =
    O.Api.Store.insert_subtree dstore
      ~parent:(List.hd (O.Api.Store.query_ids dstore O.Workload.container_path))
      ~pos:1 O.Workload.small_fragment
  in
  Printf.printf
    "bench-smoke: dewey front insert under %s: %d statements, %d rows renumbered \
     (informational)\n"
    O.Workload.container_path st.O.Update.statements st.O.Update.rows_renumbered;
  (* informational: the same query against a durable (WAL-backed) database.
     Reads are never logged, so this should track the in-memory figure; it
     is printed for the record but not guarded. *)
  let dir =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "oxq_bench_smoke_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      let ddb = Reldb.Db.open_dir ~fsync:Reldb.Wal.Never dir in
      let dstore = O.Api.Store.create ddb ~name:"b" O.Encoding.Global doc in
      for _ = 1 to 50 do
        ignore (O.Api.Store.query dstore q1)
      done;
      let t0 = Unix.gettimeofday () in
      for _ = 1 to runs do
        ignore (O.Api.Store.query dstore q1)
      done;
      let dur_us = (Unix.gettimeofday () -. t0) *. 1e6 /. float_of_int runs in
      Reldb.Db.close ddb;
      Printf.printf "bench-smoke: q1/global durable %.1f us/run (informational)\n"
        dur_us);
  print_endline "bench-smoke: OK"

(* Unit coverage of the smaller core/xml building blocks: the PRNG, edge-row
   decoding, bound context relations, encoding descriptors, workload presets. *)

module O = Ordered_xml
module V = Reldb.Value

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

(* --- rng -------------------------------------------------------------- *)

let test_rng_determinism () =
  let a = Xmllib.Rng.create 99 and b = Xmllib.Rng.create 99 in
  let sa = List.init 50 (fun _ -> Xmllib.Rng.int a 1000) in
  let sb = List.init 50 (fun _ -> Xmllib.Rng.int b 1000) in
  check (Alcotest.list int_t) "same seed, same stream" sa sb;
  let c = Xmllib.Rng.create 100 in
  let sc = List.init 50 (fun _ -> Xmllib.Rng.int c 1000) in
  check bool_t "different seed differs" true (sa <> sc)

let test_rng_ranges () =
  let rng = Xmllib.Rng.create 1 in
  for _ = 1 to 1000 do
    let v = Xmllib.Rng.int_in rng 5 9 in
    if v < 5 || v > 9 then Alcotest.fail "int_in out of range";
    let f = Xmllib.Rng.float rng 2.0 in
    if f < 0.0 || f >= 2.0 then Alcotest.fail "float out of range"
  done;
  (match Xmllib.Rng.int rng 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero bound accepted");
  let arr = [| 1; 2; 3; 4; 5 |] in
  Xmllib.Rng.shuffle rng arr;
  check (Alcotest.list int_t) "shuffle is a permutation" [ 1; 2; 3; 4; 5 ]
    (List.sort compare (Array.to_list arr))

let test_rng_copy () =
  let a = Xmllib.Rng.create 7 in
  ignore (Xmllib.Rng.int a 10);
  let b = Xmllib.Rng.copy a in
  check int_t "copy continues identically" (Xmllib.Rng.int a 1_000_000)
    (Xmllib.Rng.int b 1_000_000)

(* --- encoding descriptors --------------------------------------------- *)

let test_encoding_names () =
  List.iter
    (fun enc ->
      match O.Encoding.of_name (O.Encoding.name enc) with
      | Some e when e = enc -> ()
      | _ -> Alcotest.failf "name roundtrip for %s" (O.Encoding.name enc))
    O.Encoding.all;
  check bool_t "unknown name" true (O.Encoding.of_name "nope" = None);
  (* table names are distinct per encoding *)
  let names = List.map (fun e -> O.Encoding.table_name ~doc:"d" e) O.Encoding.all in
  check int_t "distinct table names" (List.length names)
    (List.length (List.sort_uniq compare names))

(* --- node rows --------------------------------------------------------- *)

let test_node_row_decode () =
  let tu =
    [|
      V.Int 7; V.Int 3; V.Int 1; V.Null; V.Str "hello"; V.Null; V.Int 4;
    |]
  in
  let r = O.Node_row.of_tuple O.Encoding.Local tu in
  check int_t "id" 7 r.O.Node_row.id;
  check bool_t "parent" true (r.O.Node_row.parent = Some 3);
  check bool_t "kind" true (r.O.Node_row.kind = O.Doc_index.Text_node);
  check string_t "value" "hello" r.O.Node_row.value;
  (match r.O.Node_row.ord with
  | O.Node_row.Ol 4 -> ()
  | _ -> Alcotest.fail "ord");
  (* ordering comparators *)
  let mk o = { r with O.Node_row.ord = O.Node_row.Ol o } in
  check bool_t "compare_ord" true (O.Node_row.compare_ord (mk 1) (mk 2) < 0);
  (* dewey accessor on the wrong encoding *)
  match O.Node_row.dewey r with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dewey on local row"

(* --- bound context relations ------------------------------------------- *)

let test_bound_context () =
  let db = Reldb.Db.create () in
  let cat = Reldb.Db.catalog db in
  let tables () = List.map Reldb.Table.name (Reldb.Catalog.tables cat) in
  let cols = [ ("id", V.Tint); ("v", V.Ttext) ]
  and rows = [ [| V.Int 1; V.Str "a" |]; [| V.Int 2; V.Str "b" |] ] in
  check int_t "rows visible inside" 2
    (List.length (Reldb.Db.query_ctx db ~cols ~rows "SELECT id FROM ctx"));
  Reldb.Db.with_transaction db (fun () ->
      check int_t "bound inside a transaction, where DDL is rejected" 1
        (List.length
           (Reldb.Db.query_ctx db ~cols ~rows "SELECT v FROM ctx WHERE id = 2")));
  (* a failing bound statement leaves nothing behind *)
  let version = Reldb.Catalog.version cat in
  (match Reldb.Db.query_ctx db ~cols ~rows "SELECT nosuch FROM ctx" with
  | exception Reldb.Db.Sql_error _ -> ()
  | _ -> Alcotest.fail "unknown column accepted");
  check (Alcotest.list string_t) "no leftover tables" [] (tables ());
  check int_t "catalog version unchanged" version (Reldb.Catalog.version cat);
  (* a user table named ctx keeps its rows, and context queries on a store
     in the same Db still bind their own relation *)
  ignore (Reldb.Db.exec db "CREATE TABLE ctx (id INT, note TEXT)");
  ignore (Reldb.Db.exec db "INSERT INTO ctx VALUES (7, 'mine'), (8, 'also')");
  let doc = O.Workload.dataset ~scale:1 in
  let idx = O.Doc_index.build doc in
  let xp = "/site/open_auctions/open_auction/bidder[1]" in
  List.iter
    (fun enc ->
      let store = O.Api.Store.create db ~name:"u" enc doc in
      let r = O.Api.Store.query store xp in
      check bool_t "a context was bound" true
        (List.exists
           (fun sql -> Astring_contains.contains sql " ctx c ")
           r.O.Translate.sql_log);
      check (Alcotest.list int_t)
        (O.Encoding.name enc ^ " oracle ids")
        (O.Dom_eval.eval idx (O.Xpath_parser.parse xp))
        (List.map (fun (n : O.Node_row.t) -> n.O.Node_row.id) r.O.Translate.rows);
      O.Api.Store.drop store)
    [ O.Encoding.Global; O.Encoding.Local; O.Encoding.Dewey_enc ];
  check bool_t "user ctx rows" true
    (Reldb.Db.query db "SELECT * FROM ctx ORDER BY id"
    = [ [| V.Int 7; V.Str "mine" |]; [| V.Int 8; V.Str "also" |] ])

(* --- workload presets --------------------------------------------------- *)

let test_workload () =
  check int_t "eight queries" 8 (List.length O.Workload.queries);
  let with_paths =
    List.filter (fun (q : O.Workload.query) -> q.O.Workload.q_xpath <> None)
      O.Workload.queries
  in
  (* every query parses *)
  List.iter
    (fun (q : O.Workload.query) ->
      match q.O.Workload.q_xpath with
      | Some xp -> ignore (O.Xpath_parser.parse xp)
      | None -> ())
    with_paths;
  ignore (O.Xpath_parser.parse O.Workload.q8_target);
  ignore (O.Xpath_parser.parse O.Workload.container_path);
  check int_t "positions" 3 (List.length O.Workload.positions);
  check int_t "front" 1 (O.Workload.insertion_pos O.Workload.Front ~sibling_count:10);
  check int_t "middle" 6 (O.Workload.insertion_pos O.Workload.Middle ~sibling_count:10);
  check int_t "back" 11 (O.Workload.insertion_pos O.Workload.Back ~sibling_count:10)

let test_deep_generator () =
  let doc = Xmllib.Generator.deep ~depth:50 ~branch:3 () in
  let stats = Xmllib.Stats.compute doc in
  check bool_t "deep enough" true (stats.Xmllib.Stats.max_depth >= 50);
  (* roundtrips through shredding like everything else *)
  let db = Reldb.Db.create () in
  ignore (O.Shred.shred db ~doc:"deep" O.Encoding.Dewey_enc doc);
  check bool_t "deep roundtrip" true
    (Xmllib.Types.equal_document doc
       (O.Reconstruct.document db ~doc:"deep" O.Encoding.Dewey_enc))

let tests =
  ( "core-units",
    [
      Alcotest.test_case "rng determinism" `Quick test_rng_determinism;
      Alcotest.test_case "rng ranges" `Quick test_rng_ranges;
      Alcotest.test_case "rng copy" `Quick test_rng_copy;
      Alcotest.test_case "encoding descriptors" `Quick test_encoding_names;
      Alcotest.test_case "node row decoding" `Quick test_node_row_decode;
      Alcotest.test_case "bound context relation" `Quick test_bound_context;
      Alcotest.test_case "workload presets" `Quick test_workload;
      Alcotest.test_case "deep generator" `Quick test_deep_generator;
    ] )

(* Single-statement translation (the paper's SQL-generation mode): one
   N-way self-join per path query, checked against the oracle and the
   step-at-a-time evaluator. *)

module O = Ordered_xml
module TS = O.Translate_sql

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let env =
  lazy
    (let doc = O.Workload.dataset ~scale:1 in
     let db = Reldb.Db.create () in
     let idx = O.Doc_index.build doc in
     let stores =
       List.map
         (fun enc -> (enc, O.Api.Store.create db ~name:"q" enc doc))
         O.Encoding.all
     in
     (db, idx, stores))

let assert_equiv enc xpath =
  let db, idx, _ = Lazy.force env in
  let path = O.Xpath_parser.parse xpath in
  let expected = O.Dom_eval.eval idx path in
  let r = TS.eval db ~doc:"q" enc path in
  check int_t (xpath ^ " single statement") 1 (List.length r.O.Translate.sql_log);
  let got = List.map (fun (x : O.Node_row.t) -> x.O.Node_row.id) r.O.Translate.rows in
  if got <> expected then
    Alcotest.failf "%s: %s: oracle %d nodes, single-sql %d nodes"
      (O.Encoding.name enc) xpath (List.length expected) (List.length got)

let global_queries =
  [
    "/site/open_auctions/open_auction";
    "//bidder";
    "//bidder/increase";
    "/site/people/person/@id";
    "//person[address]/name";
    "//person[profile/@income > 50000]/name";
    "/site/closed_auctions/closed_auction[price > 500][type = 'Regular']";
    "//open_auction/bidder/following-sibling::bidder";
    "//increase/ancestor::open_auction";
    "/site/regions/africa/item/following::item";
    "//profile/..";
    "//annotation/descendant-or-self::*";
  ]

let shared_queries =
  (* no descendant/document-order axes: expressible under every encoding *)
  [
    "/site/open_auctions/open_auction";
    "/site/people/person/@id";
    "/site/people/person[address]/name";
    "/site/open_auctions/open_auction/bidder/following-sibling::bidder";
    "/site/closed_auctions/closed_auction[price > 500]/seller";
    "/site/open_auctions/open_auction/bidder/personref/..";
  ]

let test_global_fragment () =
  List.iter (assert_equiv O.Encoding.Global) global_queries

let test_all_encodings_shared () =
  List.iter
    (fun enc -> List.iter (assert_equiv enc) shared_queries)
    O.Encoding.all

let test_eligibility () =
  let p s = O.Xpath_parser.parse s in
  check bool_t "descendant needs intervals" false
    (TS.eligible O.Encoding.Local (p "//bidder"));
  check bool_t "descendant ok for global" true
    (TS.eligible O.Encoding.Global (p "//bidder"));
  check bool_t "positional predicate ineligible" false
    (TS.eligible O.Encoding.Global (p "/site/open_auctions/open_auction[1]"));
  check bool_t "or-predicate ineligible" false
    (TS.eligible O.Encoding.Global (p "//person[address or phone]"));
  check bool_t "conjunctive predicates eligible" true
    (TS.eligible O.Encoding.Global (p "//person[address][phone]"));
  let db, _, _ = Lazy.force env in
  match TS.eval db ~doc:"q" O.Encoding.Local (p "//bidder") with
  | exception TS.Not_single_statement _ -> ()
  | _ -> Alcotest.fail "ineligible path accepted"

let test_agrees_with_step_mode () =
  let db, _, _ = Lazy.force env in
  List.iter
    (fun xpath ->
      let path = O.Xpath_parser.parse xpath in
      let a = TS.eval db ~doc:"q" O.Encoding.Global path in
      let b = O.Translate.eval db ~doc:"q" O.Encoding.Global [ path ] in
      let ids r =
        List.map (fun (x : O.Node_row.t) -> x.O.Node_row.id) r.O.Translate.rows
      in
      check (Alcotest.list int_t) xpath (ids b) (ids a);
      check bool_t "fewer statements" true
        (a.O.Translate.statements <= b.O.Translate.statements))
    global_queries

let test_sibling_from_attribute_is_empty () =
  (* regression (caught by fuzzing): attribute nodes have no siblings, so a
     sibling axis from an attribute context must yield nothing — in both
     translation modes *)
  let db, idx, stores = Lazy.force env in
  ignore idx;
  let xp = "/site/people/person/@id/following-sibling::name" in
  let path = O.Xpath_parser.parse xp in
  List.iter
    (fun (enc, store) ->
      check int_t
        (O.Encoding.name enc ^ " step mode")
        0
        (List.length (O.Api.Store.query_ids store xp));
      if TS.eligible enc path then
        check int_t
          (O.Encoding.name enc ^ " single mode")
          0
          (List.length (TS.eval db ~doc:"q" enc path).O.Translate.rows))
    stores

let test_local_sorted () =
  let db, idx, _ = Lazy.force env in
  let xpath = "/site/open_auctions/open_auction/bidder/following-sibling::bidder" in
  let path = O.Xpath_parser.parse xpath in
  let r = TS.eval db ~doc:"q" O.Encoding.Local path in
  let got = List.map (fun (x : O.Node_row.t) -> x.O.Node_row.id) r.O.Translate.rows in
  check (Alcotest.list int_t) "sorted into doc order"
    (O.Dom_eval.eval idx path) got;
  check bool_t "extra statements for the sort" true (r.O.Translate.statements > 1)

(* randomized equivalence on the eligible fragment *)
let prop_single_statement =
  let gen = QCheck.Gen.(pair (int_bound 5_000) Xpath_gen.gen_path) in
  let print (seed, path) =
    Printf.sprintf "seed=%d path=%s" seed (O.Xpath_ast.to_string path)
  in
  QCheck.Test.make ~name:"single-sql = oracle on eligible random paths"
    ~count:150 (QCheck.make ~print gen) (fun (seed, path) ->
      let doc = Xmllib.Generator.random_tree ~seed ~max_depth:5 ~max_fanout:4 () in
      let db = Reldb.Db.create () in
      let idx = O.Doc_index.build doc in
      List.for_all
        (fun enc ->
          if not (TS.eligible enc path) then true
          else begin
            ignore (O.Api.Store.create db ~name:"p" enc doc);
            let expected = O.Dom_eval.eval idx path in
            let r = TS.eval db ~doc:"p" enc path in
            List.map (fun (x : O.Node_row.t) -> x.O.Node_row.id) r.O.Translate.rows
            = expected
          end)
        O.Encoding.all)

let tests =
  ( "translate-sql",
    [
      Alcotest.test_case "global fragment" `Quick test_global_fragment;
      Alcotest.test_case "shared fragment, all encodings" `Quick
        test_all_encodings_shared;
      Alcotest.test_case "eligibility" `Quick test_eligibility;
      Alcotest.test_case "agrees with step mode" `Quick test_agrees_with_step_mode;
      Alcotest.test_case "local sorted in middle tier" `Quick test_local_sorted;
      Alcotest.test_case "sibling-from-attribute empty" `Quick
        test_sibling_from_attribute_is_empty;
      QCheck_alcotest.to_alcotest prop_single_statement;
    ] )

(* The central correctness claim: XPath evaluated through SQL over every
   order encoding agrees with the direct DOM oracle — on the paper's query
   set and on randomized documents x randomized paths. *)

module O = Ordered_xml
module T = Xmllib.Types

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool

let xmark = lazy (O.Workload.dataset ~scale:1)

let stores_and_oracle doc =
  let db = Reldb.Db.create () in
  let idx = O.Doc_index.build doc in
  let stores =
    List.map (fun enc -> (enc, O.Api.Store.create db ~name:"q" enc doc)) O.Encoding.all
  in
  (idx, stores)

let xmark_env = lazy (stores_and_oracle (Lazy.force xmark))

let assert_equivalent ?(env = Lazy.force xmark_env) xpath =
  let idx, stores = env in
  let path = O.Xpath_parser.parse xpath in
  let expected = O.Dom_eval.eval idx path in
  List.iter
    (fun (enc, store) ->
      let got = O.Api.Store.query_ids store xpath in
      if got <> expected then
        Alcotest.failf "%s: %s: oracle %d nodes %s, sql %d nodes %s"
          (O.Encoding.name enc) xpath (List.length expected)
          (String.concat "," (List.map string_of_int expected))
          (List.length got)
          (String.concat "," (List.map string_of_int got)))
    stores

let test_workload_queries () =
  List.iter
    (fun (q : O.Workload.query) ->
      match q.O.Workload.q_xpath with
      | Some xp -> assert_equivalent xp
      | None -> ())
    O.Workload.queries

let test_axis_zoo () =
  List.iter assert_equivalent
    [
      "/site";
      "/site/*";
      "//bidder";
      "//bidder/increase/text()";
      "/site/open_auctions/open_auction[2]/bidder[2]/following-sibling::bidder";
      "/site/open_auctions/open_auction[2]/bidder[2]/preceding-sibling::bidder";
      "/site/open_auctions/open_auction[3]/preceding::bidder";
      "/site/people/person[5]/following::person";
      "//person/@id";
      "//person[address]/name";
      "//open_auction[bidder]/seller";
      "/site/people/person/profile/..";
      "//profile/descendant-or-self::*";
      "//annotation/description/text/text()";
      "/site/closed_auctions/closed_auction[price > 500]";
      "/site/closed_auctions/closed_auction[price > 500.0][type = 'Regular']";
      "//person[profile/@income >= 80000]/name";
      "//person[not(homepage) and address]/name";
      "/site/regions/*/item[2]";
      "/site/regions/africa/item[1]/following::item[position() <= 5]";
      "//open_auction[bidder[2]]/bidder[last()]";
      "//bidder[1]/ancestor::open_auction";
      "//open_auction[count(bidder) >= 4]/seller";
      "//person[count(address) = 0]/name";
      "//profile/ancestor::*";
      "//personref/ancestor-or-self::*[2]";
      "//increase/ancestor::site";
      "/site/open_auctions/open_auction/bidder[position() > 1 and position() < 4]";
      "/site/people/person[2]/@id/following::*[1]";
      "/site/people/person[3]/@id/preceding::*[1]";
      "/site/regions/africa/item[1]/following::text()[1]";
      "/site/open_auctions/open_auction[2]/preceding::node()[last()]";
      "//bidder[2]/following::bidder[1]";
    ]

let test_comments_and_pis () =
  let doc =
    Xmllib.Parser.parse_document
      "<a><!--x--><b>t</b><?p d?><!--y--><b/></a>"
  in
  let env = stores_and_oracle doc in
  List.iter
    (fun xp -> assert_equivalent ~env xp)
    [ "/a/comment()"; "/a/node()"; "/a/b[1]/following-sibling::node()"; "//b" ]

let test_axis_expressibility_matrix () =
  (* which axes are closed-form SQL per encoding: GLOBAL/DEWEY answer every
     ordered axis in O(steps) statements; LOCAL pays middle-tier rounds on
     document-order axes. This pins the SQL-expressibility table of the
     paper down as a regression test. *)
  let _, stores = Lazy.force xmark_env in
  let stmts enc xp =
    (O.Api.Store.query (List.assoc enc stores) xp).O.Translate.statements
  in
  let closed_form =
    [
      ("/site/open_auctions/open_auction/bidder", 4);  (* child chain *)
      ("//bidder", 1);  (* descendant *)
      ("/site/people/person/@id", 4);  (* attribute *)
    ]
  in
  List.iter
    (fun (xp, k) ->
      List.iter
        (fun enc ->
          if stmts enc xp > k then
            Alcotest.failf "%s: %s took %d statements (expected <= %d)"
              (O.Encoding.name enc) xp (stmts enc xp) k)
        [ O.Encoding.Global; O.Encoding.Dewey_enc; O.Encoding.Dewey_caret ])
    closed_form;
  (* document-order axes stay closed-form only with global order *)
  let q7 = "/site/regions/africa/item[1]/following::item" in
  List.iter
    (fun enc ->
      if stmts enc q7 > 6 then
        Alcotest.failf "%s: following axis took %d statements"
          (O.Encoding.name enc) (stmts enc q7))
    [ O.Encoding.Global; O.Encoding.Dewey_enc; O.Encoding.Dewey_caret ];
  check bool_t "local pays middle-tier rounds on following" true
    (stmts O.Encoding.Local q7 > 6);
  (* LOCAL descendant needs one round per level *)
  check bool_t "local descendant pays per level" true
    (stmts O.Encoding.Local "//bidder" > 3)

let test_statement_counts () =
  (* LOCAL pays middle-tier statements for document-order work; GLOBAL and
     DEWEY answer Q7 with O(1) statements *)
  let _, stores = Lazy.force xmark_env in
  let q7 = "/site/regions/africa/item[1]/following::item" in
  let stmts enc =
    (O.Api.Store.query (List.assoc enc stores) q7).O.Translate.statements
  in
  check bool_t "local issues more statements" true
    (stmts O.Encoding.Local > stmts O.Encoding.Global);
  check bool_t "dewey ~ global" true
    (abs (stmts O.Encoding.Dewey_enc - stmts O.Encoding.Global) <= 2)

let test_empty_results () =
  List.iter assert_equivalent
    [
      "/nosuchroot";
      "//nosuchtag";
      "/site/open_auctions/open_auction[99]";
      "//person[@id = 'nonexistent']";
      "/site/text()";
    ]

let test_union_translation () =
  let idx, stores = Lazy.force xmark_env in
  let u = "/site/people/person[1] | //closed_auction/price | /site/regions" in
  let expected = O.Dom_eval.eval_union idx (O.Xpath_parser.parse_union u) in
  List.iter
    (fun (enc, store) ->
      let got = O.Api.Store.query_ids store u in
      if got <> expected then
        Alcotest.failf "%s: union mismatch (%d vs %d nodes)"
          (O.Encoding.name enc) (List.length got) (List.length expected))
    stores

(* LOCAL sorts by walking parent chains, so every extra sort is SQL: a
   union sorts its merged rows once, not once per branch and again *)
let test_local_union_sorts_once () =
  let idx, stores = Lazy.force xmark_env in
  let b1 = "/site/open_auctions/open_auction/bidder[1]"
  and b2 = "/site/open_auctions/open_auction/bidder[last()]" in
  let u = b1 ^ " | " ^ b2 in
  let store = List.assoc O.Encoding.Local stores in
  let stmts xp = (O.Api.Store.query store xp).O.Translate.statements in
  check bool_t "union statements <= sum of branches" true
    (stmts u <= stmts b1 + stmts b2);
  check (Alcotest.list int_t) "union ids"
    (O.Dom_eval.eval_union idx (O.Xpath_parser.parse_union u))
    (O.Api.Store.query_ids store u)

(* LOCAL ancestor steps walk each parent chain once and sort by the same
   chain map *)
let test_local_ancestor_single_walk () =
  let idx, stores = Lazy.force xmark_env in
  let xp =
    "/site/open_auctions/open_auction[1]/bidder[1]/increase/ancestor::open_auction"
  in
  let store = List.assoc O.Encoding.Local stores in
  check bool_t "at most 11 statements" true
    ((O.Api.Store.query store xp).O.Translate.statements <= 11);
  check (Alcotest.list int_t) "ancestor ids"
    (O.Dom_eval.eval idx (O.Xpath_parser.parse xp))
    (O.Api.Store.query_ids store xp)

let test_doc_order_of_results () =
  let idx, stores = Lazy.force xmark_env in
  ignore idx;
  (* a query whose matches interleave across subtrees *)
  let xp = "//text" in
  List.iter
    (fun (enc, store) ->
      let ids = O.Api.Store.query_ids store xp in
      check bool_t
        (O.Encoding.name enc ^ " sorted")
        true
        (List.sort compare ids = ids))
    stores

(* Reads do no DDL: a step's context is bound to its one statement, so the
   catalog, the SQL text and other statements' cached plans do not depend
   on what the process ran before. *)
let read_encodings = [ O.Encoding.Global; O.Encoding.Local; O.Encoding.Dewey_enc ]
let bidder1 = "/site/open_auctions/open_auction/bidder[1]"
let binds_context sql = Astring_contains.contains sql " c WHERE "

let fresh_store ?(db = Reldb.Db.create ()) ~name enc =
  O.Api.Store.create db ~name enc (Lazy.force xmark)

let test_reads_keep_catalog_version () =
  List.iter
    (fun enc ->
      let store = fresh_store ~name:"v" enc in
      let cat = Reldb.Db.catalog (O.Api.Store.db store) in
      let before = Reldb.Catalog.version cat in
      let r = O.Api.Store.query store bidder1 in
      check bool_t "a context was bound" true
        (List.exists binds_context r.O.Translate.sql_log);
      check int_t (O.Encoding.name enc ^ " catalog version") before
        (Reldb.Catalog.version cat))
    read_encodings

let test_sql_log_is_history_free () =
  List.iter
    (fun enc ->
      let log () =
        (O.Api.Store.query (fresh_store ~name:"h" enc) bidder1).O.Translate.sql_log
      in
      let first = log () in
      check (Alcotest.list Alcotest.string) (O.Encoding.name enc ^ " sql_log")
        first (log ()))
    read_encodings

let test_context_query_keeps_other_plans () =
  let workload =
    List.filter_map (fun (q : O.Workload.query) -> q.O.Workload.q_xpath)
      O.Workload.queries
  in
  List.iter
    (fun enc ->
      let db = Reldb.Db.create () in
      let a = fresh_store ~db ~name:"a" enc and b = fresh_store ~db ~name:"b" enc in
      let run_b () =
        List.concat_map
          (fun xp -> (O.Api.Store.query b xp).O.Translate.sql_log)
          workload
      in
      ignore (run_b ());
      ignore (O.Api.Store.query a bidder1);
      let hits () = let h, _, _ = Reldb.Db.plan_cache_stats db in h in
      let h0 = hits () in
      let log = run_b () in
      check int_t (O.Encoding.name enc ^ " hits = statements binding no context")
        (List.length (List.filter (fun sql -> not (binds_context sql)) log))
        (hits () - h0))
    read_encodings

(* A step bound to many context nodes probes the edge table's indexes
   (an index nested-loop join) instead of scanning it: rows read follow the
   answer, not the table. Scale 4, where a scan reads ~9,000 rows. *)
let scale4_stores =
  lazy
    (let doc = O.Workload.dataset ~scale:4 in
     let db = Reldb.Db.create () in
     ( O.Doc_index.build doc,
       List.map (fun enc -> (enc, O.Api.Store.create db ~name:"s4" enc doc)) read_encodings ))

let rows_read_by store f =
  let db = O.Api.Store.db store in
  Reldb.Db.reset_counters db;
  let r = f () in
  (r, Reldb.Db.rows_read db)

let test_wildcard_step_probes () =
  let idx, stores = Lazy.force scale4_stores in
  let xp = "/site/open_auctions/open_auction/*" in
  let expected = O.Dom_eval.eval idx (O.Xpath_parser.parse xp) in
  let contexts =
    List.length (O.Dom_eval.eval idx (O.Xpath_parser.parse "/site/open_auctions/open_auction"))
  in
  List.iter
    (fun (enc, store) ->
      let ids, read = rows_read_by store (fun () -> O.Api.Store.query_ids store xp) in
      check (Alcotest.list int_t) (O.Encoding.name enc ^ " ids") expected ids;
      if read > 2 * (List.length ids + contexts) then
        Alcotest.failf "%s: %s read %d rows for %d results from %d contexts"
          (O.Encoding.name enc) xp read (List.length ids) contexts)
    stores

(* LOCAL [following] fetches its candidates by tag and orders them by
   parent-chain keys: it reads the candidates and their ancestors, not the
   whole edge table *)
let test_local_following_reads_candidates () =
  let idx, stores = Lazy.force scale4_stores in
  let q7 = "/site/regions/africa/item[1]/following::item" in
  let store = List.assoc O.Encoding.Local stores in
  let ids, read = rows_read_by store (fun () -> O.Api.Store.query_ids store q7) in
  check (Alcotest.list int_t) "LOCAL Q7 ids"
    (O.Dom_eval.eval idx (O.Xpath_parser.parse q7))
    ids;
  let table = O.Doc_index.length idx in
  if read >= table then
    Alcotest.failf "LOCAL Q7 read %d rows; the edge table holds %d" read table

(* Without a positional predicate, [following]/[preceding] from many
   contexts is the axis from one of them: the context whose subtree ends
   first, or the one that starts last. So [//bidder/following::bidder]
   costs about what the same axis from that one bidder costs, in rows read
   and in words allocated (the middle tier builds no per-context pairs). *)
let test_doc_order_axis_from_dominant_context () =
  let idx, stores = Lazy.force scale4_stores in
  let bidders = List.length (O.Dom_eval.eval idx (O.Xpath_parser.parse "//bidder")) in
  List.iter
    (fun (xp, from_one) ->
      let expected = O.Dom_eval.eval idx (O.Xpath_parser.parse xp) in
      check (Alcotest.list int_t) (from_one ^ " = " ^ xp) expected
        (O.Dom_eval.eval idx (O.Xpath_parser.parse from_one));
      List.iter
        (fun (enc, store) ->
          let cost q =
            let w0 = Gc.minor_words () in
            let ids, read = rows_read_by store (fun () -> O.Api.Store.query_ids store q) in
            (ids, read, Gc.minor_words () -. w0)
          in
          let ids, read, words = cost xp in
          let _, read1, words1 = cost from_one in
          let name = O.Encoding.name enc in
          check (Alcotest.list int_t) (name ^ " " ^ xp) expected ids;
          if read > read1 + bidders then
            Alcotest.failf "%s: %s read %d rows, %d from one context" name xp read read1;
          if words > 3. *. words1 then
            Alcotest.failf "%s: %s allocated %.0f words, %.0f from one context" name xp
              words words1)
        stores)
    [
      ("//bidder/following::bidder", "/site/open_auctions/open_auction[1]/bidder[1]/following::bidder");
      ( "//bidder/preceding::bidder",
        "/site/open_auctions/open_auction[last()]/bidder[last()]/preceding::bidder" );
    ]

(* LOCAL reconstruction fetches one level per statement; each level probes
   the (parent, l_order) index, so it reads what GLOBAL's range reads *)
let test_local_serialize_probes () =
  let idx, stores = Lazy.force scale4_stores in
  let target = O.Dom_eval.eval idx (O.Xpath_parser.parse O.Workload.q8_target) in
  check bool_t "Q8 target exists" true (target <> []);
  let serialize enc =
    let store = List.assoc enc stores in
    List.fold_left
      (fun (texts, total) id ->
        let text, read = rows_read_by store (fun () -> O.Api.Store.serialize store ~id) in
        (text :: texts, total + read))
      ([], 0) target
  in
  let g_text, g_read = serialize O.Encoding.Global in
  let l_text, l_read = serialize O.Encoding.Local in
  check (Alcotest.list Alcotest.string) "same serialization" g_text l_text;
  if l_read > 2 * g_read then
    Alcotest.failf "LOCAL serialize read %d rows, GLOBAL %d" l_read g_read

(* randomized: random documents x random paths, all encodings *)
let prop_oracle_equivalence =
  let gen =
    QCheck.Gen.(
      pair (int_bound 10_000) Xpath_gen.gen_path)
  in
  let print (seed, path) =
    Printf.sprintf "seed=%d path=%s" seed (O.Xpath_ast.to_string path)
  in
  QCheck.Test.make ~name:"sql = oracle on random docs/paths" ~count:200
    (QCheck.make ~print gen) (fun (seed, path) ->
      let doc = Xmllib.Generator.random_tree ~seed ~max_depth:5 ~max_fanout:4 () in
      let idx, stores = stores_and_oracle doc in
      let expected = O.Dom_eval.eval idx path in
      List.for_all
        (fun (_, store) ->
          let got =
            List.map
              (fun (r : O.Node_row.t) -> r.O.Node_row.id)
              (O.Api.Store.query store (O.Xpath_ast.to_string path)).O.Translate.rows
          in
          got = expected)
        stores)

let tests =
  ( "translate",
    [
      Alcotest.test_case "workload query set" `Slow test_workload_queries;
      Alcotest.test_case "axis zoo" `Slow test_axis_zoo;
      Alcotest.test_case "comments and PIs" `Quick test_comments_and_pis;
      Alcotest.test_case "statement counts" `Quick test_statement_counts;
      Alcotest.test_case "axis expressibility matrix" `Quick
        test_axis_expressibility_matrix;
      Alcotest.test_case "empty results" `Quick test_empty_results;
      Alcotest.test_case "union translation" `Quick test_union_translation;
      Alcotest.test_case "results in document order" `Quick test_doc_order_of_results;
      Alcotest.test_case "local union sorts once" `Quick
        test_local_union_sorts_once;
      Alcotest.test_case "local ancestor walks chains once" `Quick
        test_local_ancestor_single_walk;
      Alcotest.test_case "reads keep the catalog version" `Quick
        test_reads_keep_catalog_version;
      Alcotest.test_case "sql_log is history-free" `Quick
        test_sql_log_is_history_free;
      Alcotest.test_case "context query keeps other plans" `Quick
        test_context_query_keeps_other_plans;
      Alcotest.test_case "wildcard step probes, scale 4" `Slow
        test_wildcard_step_probes;
      Alcotest.test_case "LOCAL following reads candidates, scale 4" `Slow
        test_local_following_reads_candidates;
      Alcotest.test_case "following/preceding from the dominant context, scale 4" `Slow
        test_doc_order_axis_from_dominant_context;
      Alcotest.test_case "LOCAL serialize probes, scale 4" `Slow
        test_local_serialize_probes;
      QCheck_alcotest.to_alcotest prop_oracle_equivalence;
    ] )

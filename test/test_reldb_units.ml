(* Unit coverage of the relational-engine building blocks that the
   end-to-end SQL tests exercise only indirectly: values, schemas, tuples,
   the growable vector, the executor's physical operators, and the
   planner's access-path selection. *)

module V = Reldb.Value
module S = Reldb.Schema
module Tu = Reldb.Tuple

let check = Alcotest.check
let int_t = Alcotest.int
let bool_t = Alcotest.bool
let string_t = Alcotest.string

(* --- values ------------------------------------------------------------ *)

let test_value_order () =
  let le a b = V.compare a b < 0 in
  check bool_t "null first" true (le V.Null (V.Int (-100)));
  check bool_t "int/float mix" true (le (V.Int 1) (V.Float 1.5));
  check bool_t "float/int mix" true (le (V.Float 0.5) (V.Int 1));
  check bool_t "int = float" true (V.equal (V.Int 2) (V.Float 2.0));
  check bool_t "numeric < text" true (le (V.Int 999) (V.Str "0"));
  check bool_t "text < bytes" true (le (V.Str "\xff") (V.Bytes "\x00"));
  check bool_t "bytes bytewise" true (le (V.Bytes "a") (V.Bytes "ab"))

let test_value_hash_consistent () =
  (* equal values must hash equally (Int 2 = Float 2.0) *)
  check int_t "hash agreement" (V.hash (V.Int 2)) (V.hash (V.Float 2.0))

let test_value_literals () =
  check string_t "string escape" "'it''s'" (V.to_sql_literal (V.Str "it's"));
  check string_t "bytes hex" "X'00ff'" (V.to_sql_literal (V.Bytes "\x00\xff"));
  check string_t "null" "NULL" (V.to_sql_literal V.Null);
  (* literals must parse back to the same value *)
  List.iter
    (fun v ->
      match Reldb.Sql_parser.parse_expr (V.to_sql_literal v) with
      | Reldb.Sql_ast.E_const v' when V.equal v v' -> ()
      | Reldb.Sql_ast.E_neg (Reldb.Sql_ast.E_const (V.Int i)) when V.equal v (V.Int (-i)) -> ()
      | _ -> Alcotest.failf "literal roundtrip failed for %s" (V.to_string v))
    [ V.Null; V.Int 42; V.Int (-7); V.Str "a'b"; V.Bytes "\x01\xfe" ]

let test_ty_names () =
  List.iter
    (fun ty ->
      match V.ty_of_name (V.ty_name ty) with
      | Some ty' when ty = ty' -> ()
      | _ -> Alcotest.fail "type name roundtrip")
    [ V.Tint; V.Tfloat; V.Ttext; V.Tbytes ]

(* --- schema / tuple ----------------------------------------------------- *)

let test_schema_lookup () =
  let s = S.make [ ("id", V.Tint); ("Name", V.Ttext) ] in
  check int_t "case-insensitive" 1 (S.find s "name");
  check bool_t "missing" true (S.find_opt s "nope" = None);
  let q = S.rename_prefix "t" s in
  check int_t "qualified" 0 (S.find q "t.id")

let test_schema_check () =
  let s =
    [| S.column ~nullable:false "id" V.Tint; S.column "v" V.Ttext |]
  in
  check bool_t "ok" true (S.check_tuple s [| V.Int 1; V.Null |] = Ok ());
  check bool_t "not null" true
    (match S.check_tuple s [| V.Null; V.Null |] with Error _ -> true | Ok () -> false);
  check bool_t "type" true
    (match S.check_tuple s [| V.Str "x"; V.Null |] with Error _ -> true | Ok () -> false);
  check bool_t "arity" true
    (match S.check_tuple s [| V.Int 1 |] with Error _ -> true | Ok () -> false)

let test_tuple_key_order () =
  let a = [| V.Int 1 |] and ab = [| V.Int 1; V.Int 0 |] in
  check bool_t "prefix smaller" true (Tu.compare_key a ab < 0);
  check bool_t "projection" true
    (Tu.key [| 2; 0 |] [| V.Int 1; V.Int 2; V.Int 3 |] = [| V.Int 3; V.Int 1 |])

(* --- vec ---------------------------------------------------------------- *)

let test_vec () =
  let v = Reldb.Vec.create () in
  for i = 0 to 99 do
    ignore (Reldb.Vec.push v i)
  done;
  check int_t "length" 100 (Reldb.Vec.length v);
  Reldb.Vec.set v 50 999;
  check int_t "set/get" 999 (Reldb.Vec.get v 50);
  check int_t "fold" (4950 - 50 + 999) (Reldb.Vec.fold ( + ) 0 v);
  (match Reldb.Vec.get v 100 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oob get");
  check int_t "to_seq" 100 (Seq.length (Reldb.Vec.to_seq v))

(* --- physical operators -------------------------------------------------- *)

let mk_table name rows =
  let t = Reldb.Table.create name (S.make [ ("k", V.Tint); ("v", V.Ttext) ]) in
  List.iter
    (fun (k, s) -> ignore (Reldb.Table.insert t [| V.Int k; V.Str s |]))
    rows;
  t

let test_merge_join_operator () =
  (* the planner does not emit merge joins by default; test it directly on
     sorted inputs, including duplicate key groups *)
  let l = mk_table "l" [ (1, "a"); (2, "b"); (2, "c"); (4, "d") ] in
  let r = mk_table "r" [ (2, "x"); (2, "y"); (3, "z"); (4, "w") ] in
  let sorted t =
    Reldb.Plan.Sort
      { input = Reldb.Plan.Seq_scan t; keys = [ (Reldb.Expr.Col 0, Reldb.Plan.Asc) ] }
  in
  let join =
    Reldb.Plan.Merge_join
      {
        left = sorted l;
        right = sorted r;
        left_key = [| 0 |];
        right_key = [| 0 |];
        residual = None;
      }
  in
  (* 2x2 for key 2 plus 1 for key 4 *)
  check int_t "merge join rows" 5 (Reldb.Exec.row_count join);
  let schema = Reldb.Plan.schema_of join in
  check int_t "merged arity" 4 (S.arity schema)

let test_nl_join_cross () =
  let l = mk_table "l2" [ (1, "a"); (2, "b") ] in
  let r = mk_table "r2" [ (10, "x"); (20, "y"); (30, "z") ] in
  let join =
    Reldb.Plan.Nl_join
      { outer = Reldb.Plan.Seq_scan l; inner = Reldb.Plan.Seq_scan r; pred = None }
  in
  check int_t "cross product" 6 (Reldb.Exec.row_count join)

let test_limit_offset_operator () =
  let t = mk_table "t3" (List.init 10 (fun i -> (i, string_of_int i))) in
  let plan limit offset =
    Reldb.Plan.Limit { input = Reldb.Plan.Seq_scan t; limit; offset }
  in
  check int_t "limit" 3 (Reldb.Exec.row_count (plan (Some 3) 0));
  check int_t "offset" 4 (Reldb.Exec.row_count (plan None 6));
  check int_t "beyond end" 0 (Reldb.Exec.row_count (plan (Some 5) 99))

let test_distinct_operator () =
  let t = mk_table "t4" [ (1, "a"); (1, "a"); (2, "b"); (1, "a") ] in
  check int_t "distinct" 2
    (Reldb.Exec.row_count (Reldb.Plan.Distinct (Reldb.Plan.Seq_scan t)))

let test_project_expressions () =
  let t = mk_table "t5" [ (3, "x") ] in
  let plan =
    Reldb.Plan.Project
      ( [|
          (Reldb.Expr.Arith (Reldb.Expr.Mul, Reldb.Expr.Col 0, Reldb.Expr.Const (V.Int 2)), "dbl");
          (Reldb.Expr.Func (Reldb.Expr.Upper, [ Reldb.Expr.Col 1 ]), "up");
        |],
        Reldb.Plan.Seq_scan t )
  in
  match Reldb.Exec.run_list plan with
  | [ [| V.Int 6; V.Str "X" |] ] -> ()
  | _ -> Alcotest.fail "projection values"

let test_union_all_operator () =
  let t = mk_table "t6" [ (1, "a") ] in
  let u = Reldb.Plan.Union_all [ Reldb.Plan.Seq_scan t; Reldb.Plan.Seq_scan t ] in
  check int_t "union all" 2 (Reldb.Exec.row_count u)

let test_hash_join_residual () =
  let l = mk_table "hl" [ (1, "a"); (1, "b"); (2, "c") ] in
  let r = mk_table "hr" [ (1, "b"); (1, "z"); (2, "c") ] in
  (* equi on k, residual: values must also match (cols 1 and 3 joined) *)
  let join residual =
    Reldb.Plan.Hash_join
      {
        left = Reldb.Plan.Seq_scan l;
        right = Reldb.Plan.Seq_scan r;
        left_key = [| 0 |];
        right_key = [| 0 |];
        residual;
      }
  in
  check int_t "no residual" 5 (Reldb.Exec.row_count (join None));
  check int_t "with residual" 2
    (Reldb.Exec.row_count
       (join (Some (Reldb.Expr.Cmp (Reldb.Expr.Eq, Reldb.Expr.Col 1, Reldb.Expr.Col 3)))))

(* Index nested-loop join built by hand: one probe per outer row, a NULL
   key value matches nothing, Incl/Excl bounds on the column after the
   prefix, and a range probe with an empty prefix. *)
let test_index_join_operator () =
  let module P = Reldb.Plan in
  let module E = Reldb.Expr in
  let pair_table name rows =
    let t = Reldb.Table.create name (S.make [ ("p", V.Tint); ("o", V.Tint) ]) in
    List.iter (fun (p, o) -> ignore (Reldb.Table.insert t [| p; o |])) rows;
    t
  in
  let i n = V.Int n in
  let inner =
    pair_table "ij"
      [ (i 1, i 1); (i 1, i 2); (i 1, i 3); (i 2, i 1); (V.Null, i 2); (i 1, V.Null) ]
  in
  let by_po =
    Reldb.Table.create_index inner ~name:"ij_po" ~cols:[| 0; 1 |] ~unique:false
  in
  let by_o = Reldb.Table.create_index inner ~name:"ij_o" ~cols:[| 1 |] ~unique:false in
  let outer = pair_table "ijo" [ (i 1, i 1); (V.Null, i 1); (i 2, V.Null) ] in
  let join ?(prefix = [| E.Col 0 |]) ?(lo = P.Unbounded) ?(hi = P.Unbounded)
      ?pred index =
    P.Index_join
      { outer = P.Seq_scan outer; table = inner; index; prefix; lo; hi; pred }
  in
  let rows plan = Reldb.Exec.row_count plan in
  (* inner.p = outer.p: (1,_) x 4 and (2,1) x 1; the NULL outer key and
     the NULL stored key never meet *)
  Reldb.Table.reset_counters inner;
  check int_t "prefix only" 5 (rows (join by_po));
  check int_t "reads exactly the probed rows" 5 (Reldb.Table.rows_read inner);
  (* inner.o > outer.o: NULL bound matches nothing *)
  check int_t "Excl lower bound" 2 (rows (join ~lo:(P.Excl (E.Col 1)) by_po));
  check int_t "Incl lower bound" 3 (rows (join ~lo:(P.Incl (E.Col 1)) by_po));
  (* inner.o <= outer.o: the stored (1, NULL) sorts first and must not
     match *)
  check int_t "Incl upper bound skips NULL" 1
    (rows (join ~hi:(P.Incl (E.Col 1)) by_po));
  check int_t "Excl upper bound skips NULL" 0
    (rows (join ~hi:(P.Excl (E.Col 1)) by_po));
  (* empty prefix: a range on the index's first column *)
  check int_t "empty prefix, lower bound" 6
    (rows (join ~prefix:[||] ~lo:(P.Excl (E.Col 1)) by_o));
  check int_t "empty prefix, upper bound" 0
    (rows (join ~prefix:[||] ~hi:(P.Excl (E.Col 1)) by_o));
  (* outer.o < inner.o < outer.o + 2: o = 2, twice for each outer o = 1 *)
  check int_t "empty prefix, both bounds" 4
    (rows
       (join ~prefix:[||] ~lo:(P.Excl (E.Col 1))
          ~hi:(P.Excl (E.Arith (E.Add, E.Col 1, E.Const (i 2))))
          by_o));
  (* the residual predicate sees outer then inner columns *)
  check int_t "residual predicate" 1
    (rows (join ~pred:(E.Cmp (E.Eq, E.Col 1, E.Col 3)) by_po));
  let plan = join by_po in
  check bool_t "label" true
    (Astring_contains.contains (P.label plan) "IndexJoin ij.ij_po");
  let out, prof = Reldb.Exec.run_profiled plan in
  check int_t "profiled rows" 5 (List.length out);
  check int_t "one loop per outer row" 3 prof.Reldb.Exec.prof_loops;
  check int_t "rows reported" 5 prof.Reldb.Exec.prof_rows

let test_sort_stability () =
  (* equal keys keep input order (stable sort) *)
  let t = mk_table "ss" [ (1, "first"); (1, "second"); (0, "zero"); (1, "third") ] in
  let plan =
    Reldb.Plan.Sort
      { input = Reldb.Plan.Seq_scan t; keys = [ (Reldb.Expr.Col 0, Reldb.Plan.Asc) ] }
  in
  match Reldb.Exec.run_list plan with
  | [ [| _; V.Str "zero" |]; [| _; V.Str "first" |]; [| _; V.Str "second" |];
      [| _; V.Str "third" |] ] ->
      ()
  | _ -> Alcotest.fail "sort not stable"

let test_string_aggregates () =
  let db = Reldb.Db.create () in
  ignore (Reldb.Db.exec db "CREATE TABLE w (s TEXT)");
  ignore (Reldb.Db.exec db "INSERT INTO w VALUES ('pear'), ('apple'), ('plum')");
  match Reldb.Db.query db "SELECT MIN(s), MAX(s), COUNT(s) FROM w" with
  | [ [| V.Str "apple"; V.Str "plum"; V.Int 3 |] ] -> ()
  | _ -> Alcotest.fail "string min/max"

(* --- planner access paths ------------------------------------------------ *)

let test_access_path_choice () =
  let t =
    Reldb.Table.create "ap"
      (S.make [ ("a", V.Tint); ("b", V.Tint); ("c", V.Ttext) ])
  in
  ignore (Reldb.Table.create_index t ~name:"ap_ab" ~cols:[| 0; 1 |] ~unique:false);
  for i = 0 to 49 do
    ignore (Reldb.Table.insert t [| V.Int (i mod 5); V.Int i; V.Str "x" |])
  done;
  let pred s = Some (Reldb.Planner.resolve_expr_for_table t (Reldb.Sql_parser.parse_expr s)) in
  let descr s = Reldb.Planner.access_path_description t (pred s) in
  check bool_t "eq prefix uses index" true
    (Astring_contains.contains (descr "a = 3") "IndexScan");
  check bool_t "eq+range uses index" true
    (Astring_contains.contains (descr "a = 3 AND b > 10") "IndexScan");
  check bool_t "non-prefix falls back" true
    (Astring_contains.contains (descr "b = 10") "SeqScan");
  check bool_t "null eq not indexed" true
    (Astring_contains.contains (descr "a = NULL") "SeqScan");
  (* candidates agree with a full scan + filter *)
  let naive s =
    let p = Option.get (pred s) in
    Seq.filter (fun (_, tu) -> Reldb.Expr.eval_bool p tu) (Reldb.Table.scan t)
    |> List.of_seq |> List.map fst |> List.sort compare
  in
  let via_planner s =
    Reldb.Planner.table_candidates t (pred s)
    |> List.of_seq |> List.map fst |> List.sort compare
  in
  List.iter
    (fun s -> check (Alcotest.list int_t) s (naive s) (via_planner s))
    [ "a = 3"; "a = 3 AND b > 10"; "a = 3 AND b <= 20"; "b = 10"; "a >= 4" ]

(* An index scan bounded only above starts after the stored NULLs, which
   sort first: [b < 5] never holds for a NULL [b], with or without an
   equality prefix before [b] in the key. *)
let test_upper_bound_skips_nulls () =
  let ints rows =
    List.map (function [| V.Int a |] -> a | _ -> Alcotest.fail "row shape") rows
  in
  List.iter
    (fun (cols, index, rows, where, scan) ->
      let db = Reldb.Db.create () in
      let e sql = ignore (Reldb.Db.exec db sql) in
      e (Printf.sprintf "CREATE TABLE t (%s)" cols);
      e (Printf.sprintf "CREATE INDEX t_b ON t (%s)" index);
      List.iter (fun r -> e ("INSERT INTO t VALUES " ^ r)) rows;
      let select w = ints (Reldb.Db.query db ("SELECT a FROM t WHERE " ^ w)) in
      check (Alcotest.list int_t) where [ 1 ] (select where);
      e ("DELETE FROM t WHERE " ^ where);
      check (Alcotest.list int_t) (where ^ " deletes") [ 2 ] (select "a > 0");
      let plan = Reldb.Db.explain db ("SELECT a FROM t WHERE " ^ where) in
      check bool_t (where ^ " starts after NULL: " ^ plan) true
        (Astring_contains.contains plan scan))
    [
      ("a INT, b INT", "b", [ "(1, 3)"; "(2, NULL)" ], "b < 5", "IndexScan t.t_b (NULL .. (5");
      ( "a INT, k INT, b INT", "k, b", [ "(1, 7, 3)"; "(2, 7, NULL)" ], "k = 7 AND b < 5",
        "IndexScan t.t_b (7|NULL .. (7|5" );
    ];
  let db = Reldb.Db.create () in
  ignore (Reldb.Db.exec db "CREATE TABLE t (a INT, b INT)");
  ignore (Reldb.Db.exec db "CREATE INDEX t_b ON t (b)");
  check bool_t "lower bound only: upper end +inf" true
    (Astring_contains.contains
       (Reldb.Db.explain db "SELECT a FROM t WHERE b > 1")
       "IndexScan t.t_b (1 .. +inf")

(* [||] of two BYTES values is BYTES and SUBSTR keeps BYTES, in its two- and
   three-argument forms; a NULL operand gives NULL, a start past the end
   gives the empty value. The result schema reports the type. *)
let test_bytes_expressions () =
  let db = Reldb.Db.create () in
  let e sql = ignore (Reldb.Db.exec db sql) in
  e "CREATE TABLE t (a INT, b BYTES)";
  e "INSERT INTO t VALUES (1, X'0102'), (2, NULL)";
  let select a expr =
    match
      Reldb.Db.exec db (Printf.sprintf "SELECT %s AS v FROM t WHERE a = %d" expr a)
    with
    | Reldb.Db.Rows { schema; tuples = [ [| v |] ] } -> (schema.(0).S.col_type, v)
    | _ -> Alcotest.failf "%s: one row expected" expr
  in
  List.iter
    (fun (expr, ty, v) ->
      let ty', v' = select 1 expr in
      check string_t (expr ^ " type") (V.ty_name ty) (V.ty_name ty');
      check string_t expr (V.to_sql_literal v) (V.to_sql_literal v'))
    [
      ("X'01' || X'02'", V.Tbytes, V.Bytes "\001\002");
      ("b || X'03'", V.Tbytes, V.Bytes "\001\002\003");
      ("SUBSTR(b, 2)", V.Tbytes, V.Bytes "\002");
      ("SUBSTR(b, 0)", V.Tbytes, V.Bytes "\001\002");
      ("SUBSTR(b, 1, 1)", V.Tbytes, V.Bytes "\001");
      ("SUBSTR(b, 3)", V.Tbytes, V.Bytes "");
      ("SUBSTR(b, 5, 2)", V.Tbytes, V.Bytes "");
      ("X'ff' || SUBSTR(b, 2)", V.Tbytes, V.Bytes "\255\002");
      ("'x' || 'y'", V.Ttext, V.Str "xy");
      ("SUBSTR('abc', 2)", V.Ttext, V.Str "bc");
      ("SUBSTR('abc', 2, 1)", V.Ttext, V.Str "b");
    ];
  List.iter
    (fun expr ->
      let ty, v = select 2 expr in
      check string_t (expr ^ " type") "BYTES" (V.ty_name ty);
      check bool_t (expr ^ " is NULL") true (V.is_null v))
    [ "b || X'03'"; "X'03' || b"; "SUBSTR(b, 2)"; "SUBSTR(b, 1, 1)"; "X'01' || SUBSTR(b, 2)" ];
  check bool_t "NULL start" true (V.is_null (snd (select 1 "SUBSTR(b, NULL)")));
  let plan = Reldb.Db.explain db "SELECT a FROM t WHERE X'01' || SUBSTR(b, 2) = X'0102'" in
  check bool_t ("explain prints the splice: " ^ plan) true
    (Astring_contains.contains plan "(X'01' || SUBSTR(");
  (* the prefix splice DEWEY renumbering issues, on a UNIQUE BYTES column *)
  e "CREATE UNIQUE INDEX t_b ON t (b)";
  e "INSERT INTO t VALUES (3, X'0103'), (4, X'02')";
  (match
     Reldb.Db.exec db
       "UPDATE t SET b = X'02' || SUBSTR(b, 2) WHERE b >= X'01' AND b < X'02'"
   with
  | Reldb.Db.Affected n -> check int_t "rows rewritten" 2 n
  | Reldb.Db.Rows _ -> Alcotest.fail "UPDATE returned rows");
  ignore (Reldb.Db.exec db "DELETE FROM t WHERE a = 4");
  (match
     Reldb.Db.exec db
       "UPDATE t SET b = X'02' || SUBSTR(b, 2) WHERE b >= X'01' AND b < X'02'"
   with
  | Reldb.Db.Affected n -> check int_t "nothing left under X'01'" 0 n
  | Reldb.Db.Rows _ -> Alcotest.fail "UPDATE returned rows");
  let bs =
    Reldb.Db.query db "SELECT b FROM t WHERE b IS NOT NULL"
    |> List.map (fun tu -> V.to_sql_literal tu.(0))
    |> List.sort compare
  in
  check (Alcotest.list string_t) "paths moved" [ "X'0202'"; "X'0203'" ] bs

(* UPDATE with a BYTES prefix splice and DELETE, under range, equality and
   IS NULL conjuncts, give the same results and tables with every index as
   on a copy without indexes, and so does a SELECT with the same WHERE.
   The copy has no unique index, so a statement violates the constraint
   there iff its resulting [b] column repeats a non-NULL value; the indexed
   table must raise exactly then and stay unchanged. *)
let prop_update_delete_index_free =
  let open QCheck.Gen in
  let byte_str = string_size ~gen:(oneofl [ '\000'; '\001'; '\002'; '\255' ]) (int_bound 3) in
  let bytes_lit b = V.to_sql_literal (V.Bytes b) in
  let atom =
    oneof
      [
        map2 (fun lo hi -> Printf.sprintf "b >= %s AND b < %s" (bytes_lit lo) (bytes_lit hi))
          byte_str byte_str;
        map (fun x -> "b > " ^ bytes_lit x) byte_str;
        map (fun x -> "b <= " ^ bytes_lit x) byte_str;
        map (fun x -> "b = " ^ bytes_lit x) byte_str;
        return "b IS NULL";
        return "b IS NOT NULL";
        map (fun k -> Printf.sprintf "a = %d" k) (int_bound 4);
        map (fun k -> Printf.sprintf "a < %d" k) (int_bound 4);
        map (fun k -> Printf.sprintf "a >= %d" k) (int_bound 4);
        return "a IS NULL";
      ]
  in
  let where = map (String.concat " AND ") (list_size (int_range 1 3) atom) in
  (* [Some (prefix, k)] is the UPDATE, [None] the DELETE *)
  let stmt = pair (opt (pair byte_str (int_range 0 4))) where in
  let sql = function
    | Some (c, k), w ->
        Printf.sprintf "UPDATE t SET b = %s || SUBSTR(b, %d) WHERE %s" (bytes_lit c) k w
    | None, w -> "DELETE FROM t WHERE " ^ w
  in
  let row =
    pair (opt ~ratio:0.8 (int_bound 4)) (opt ~ratio:0.9 byte_str)
  in
  let gen = pair (list_size (int_bound 12) row) (list_size (int_range 1 4) stmt) in
  let print (rows, stmts) =
    Printf.sprintf "rows=[%s] stmts=[%s]"
      (String.concat "; "
         (List.map
            (fun (a, b) ->
              Printf.sprintf "(%s, %s)"
                (match a with Some a -> string_of_int a | None -> "NULL")
                (match b with Some b -> bytes_lit b | None -> "NULL"))
            rows))
      (String.concat "; " (List.map sql stmts))
  in
  QCheck.Test.make ~count:300 ~name:"UPDATE/DELETE agree with an index-free copy"
    (QCheck.make ~print gen) (fun (rows, stmts) ->
      (* the UNIQUE column starts unique. At most one NULL too: the engine's
         unique index refuses a second NULL, which SQL admits (a FOUND line
         in CHANGES.md); drop this once that is fixed. No statement here
         makes a NULL, so the table never holds two. *)
      let rows =
        let seen = Hashtbl.create 16 in
        List.filter
          (fun (_, b) ->
            (not (Hashtbl.mem seen b)) && (Hashtbl.add seen b (); true))
          rows
      in
      let make ~indexed =
        let db = Reldb.Db.create () in
        let e sql = ignore (Reldb.Db.exec db sql) in
        e "CREATE TABLE t (a INT, b BYTES)";
        if indexed then begin
          e "CREATE UNIQUE INDEX t_b ON t (b)";
          e "CREATE INDEX t_a ON t (a)";
          e "CREATE INDEX t_ab ON t (a, b)"
        end;
        List.iter
          (fun (a, b) ->
            e
              (Printf.sprintf "INSERT INTO t VALUES (%s, %s)"
                 (match a with Some a -> string_of_int a | None -> "NULL")
                 (match b with Some b -> bytes_lit b | None -> "NULL")))
          rows;
        db
      in
      let indexed = make ~indexed:true and plain = make ~indexed:false in
      let select db w =
        List.sort compare
          (List.map
             (fun tu -> String.concat "," (Array.to_list (Array.map V.to_sql_literal tu)))
             (Reldb.Db.query db ("SELECT a, b FROM t WHERE " ^ w)))
      in
      let contents db = select db "1 = 1" in
      let repeats db =
        let bs = List.map (fun tu -> tu.(0)) (Reldb.Db.query db "SELECT b FROM t WHERE b IS NOT NULL") in
        List.length (List.sort_uniq V.compare bs) <> List.length bs
      in
      List.for_all
        (fun ((_, w) as st) ->
          let sql = sql st in
          let before = contents indexed in
          let same_select = select indexed w = select plain w in
          Reldb.Db.begin_txn plain;
          let n_plain = Reldb.Db.exec plain sql in
          let violates = repeats plain in
          if violates then Reldb.Db.rollback plain else Reldb.Db.commit plain;
          let n_indexed =
            match Reldb.Db.exec indexed sql with
            | r -> Some r
            | exception Reldb.Db.Sql_error m when Astring_contains.contains m "duplicate key" ->
                None
          in
          let same_result =
            match n_indexed with
            | None -> violates
            | Some r -> (not violates) && Reldb.Db.render r = Reldb.Db.render n_plain
          in
          same_select && same_result
          && contents indexed = contents plain
          && ((not violates) || contents indexed = before))
        stmts)

let test_table_rollback_on_unique () =
  let t = Reldb.Table.create "u" (S.make [ ("k", V.Tint) ]) in
  ignore (Reldb.Table.create_index t ~name:"u_k" ~cols:[| 0 |] ~unique:true);
  ignore (Reldb.Table.insert t [| V.Int 1 |]);
  (match Reldb.Table.insert t [| V.Int 1 |] with
  | exception Reldb.Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "dup accepted");
  check int_t "row count intact" 1 (Reldb.Table.row_count t);
  (* update that would violate restores the original *)
  let rowid, _ = List.hd (List.of_seq (Reldb.Table.scan t)) in
  ignore (Reldb.Table.insert t [| V.Int 2 |]);
  (match Reldb.Table.update t rowid [| V.Int 2 |] with
  | exception Reldb.Table.Constraint_violation _ -> ()
  | _ -> Alcotest.fail "violating update accepted");
  check int_t "both rows" 2 (Reldb.Table.row_count t);
  check bool_t "old value restored" true
    (List.exists
       (fun (_, tu) -> tu.(0) = V.Int 1)
       (List.of_seq (Reldb.Table.scan t)))

let test_truncate () =
  let t = mk_table "tr" [ (1, "a"); (2, "b") ] in
  ignore (Reldb.Table.create_index t ~name:"tr_k" ~cols:[| 0 |] ~unique:true);
  Reldb.Table.truncate t;
  check int_t "empty" 0 (Reldb.Table.row_count t);
  (* indexes emptied too: reinserting old keys must work *)
  ignore (Reldb.Table.insert t [| V.Int 1; V.Str "z" |]);
  check int_t "reuse" 1 (Reldb.Table.row_count t)

let test_render () =
  let db = Reldb.Db.create () in
  ignore (Reldb.Db.exec db "CREATE TABLE r (a INT, b TEXT)");
  ignore (Reldb.Db.exec db "INSERT INTO r VALUES (1, 'x')");
  let s = Reldb.Db.render (Reldb.Db.exec db "SELECT a, b FROM r") in
  check bool_t "has header" true (Astring_contains.contains s "| a ");
  check bool_t "has row" true (Astring_contains.contains s "| 1 ");
  check bool_t "row count" true (Astring_contains.contains s "(1 rows)")

let test_catalog () =
  let c = Reldb.Catalog.create () in
  let _ = Reldb.Catalog.create_table c "T1" (S.make [ ("a", V.Tint) ]) in
  check bool_t "case-insensitive lookup" true
    (Reldb.Catalog.find_table c "t1" <> None);
  (match Reldb.Catalog.create_table c "t1" (S.make []) with
  | exception Reldb.Catalog.Catalog_error _ -> ()
  | _ -> Alcotest.fail "dup table accepted");
  Reldb.Catalog.drop_table c "T1";
  check bool_t "dropped" true (Reldb.Catalog.find_table c "t1" = None)

let test_expr_columns_shift () =
  let e =
    Reldb.Sql_parser.parse_expr "x" |> fun _ ->
    Reldb.Expr.And
      ( Reldb.Expr.Cmp (Reldb.Expr.Eq, Reldb.Expr.Col 0, Reldb.Expr.Col 3),
        Reldb.Expr.Is_null (Reldb.Expr.Col 1) )
  in
  check (Alcotest.list int_t) "columns" [ 0; 1; 3 ] (Reldb.Expr.columns e);
  check (Alcotest.list int_t) "shifted" [ 5; 6; 8 ]
    (Reldb.Expr.columns (Reldb.Expr.shift_columns 5 e));
  check (Alcotest.list int_t) "conjuncts" [ 2 ]
    (List.map (fun _ -> 2) (Reldb.Expr.conjuncts e) |> List.sort_uniq compare)

let tests =
  ( "reldb-units",
    [
      Alcotest.test_case "value ordering" `Quick test_value_order;
      Alcotest.test_case "value hashing" `Quick test_value_hash_consistent;
      Alcotest.test_case "value literals" `Quick test_value_literals;
      Alcotest.test_case "type names" `Quick test_ty_names;
      Alcotest.test_case "schema lookup" `Quick test_schema_lookup;
      Alcotest.test_case "schema checking" `Quick test_schema_check;
      Alcotest.test_case "tuple keys" `Quick test_tuple_key_order;
      Alcotest.test_case "vec" `Quick test_vec;
      Alcotest.test_case "merge join operator" `Quick test_merge_join_operator;
      Alcotest.test_case "nested-loop cross join" `Quick test_nl_join_cross;
      Alcotest.test_case "limit/offset operator" `Quick test_limit_offset_operator;
      Alcotest.test_case "distinct operator" `Quick test_distinct_operator;
      Alcotest.test_case "project expressions" `Quick test_project_expressions;
      Alcotest.test_case "union-all operator" `Quick test_union_all_operator;
      Alcotest.test_case "hash join residual" `Quick test_hash_join_residual;
      Alcotest.test_case "index join operator" `Quick test_index_join_operator;
      Alcotest.test_case "sort stability" `Quick test_sort_stability;
      Alcotest.test_case "string aggregates" `Quick test_string_aggregates;
      Alcotest.test_case "access-path choice" `Quick test_access_path_choice;
      Alcotest.test_case "upper-bound index scan skips NULLs" `Quick
        test_upper_bound_skips_nulls;
      Alcotest.test_case "BYTES concatenation and SUBSTR" `Quick test_bytes_expressions;
      QCheck_alcotest.to_alcotest prop_update_delete_index_free;
      Alcotest.test_case "constraint rollback" `Quick test_table_rollback_on_unique;
      Alcotest.test_case "truncate" `Quick test_truncate;
      Alcotest.test_case "result rendering" `Quick test_render;
      Alcotest.test_case "catalog" `Quick test_catalog;
      Alcotest.test_case "expr columns/shift" `Quick test_expr_columns_shift;
    ] )

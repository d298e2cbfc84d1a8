module A = Xpath_ast
module V = Reldb.Value

let log_src = Logs.Src.create "ordered_xml.translate" ~doc:"XPath-to-SQL translation"

module Log = (val Logs.src_log log_src : Logs.LOG)

type result = {
  rows : Node_row.t list;
  statements : int;
  sql_log : string list;
}

type state = {
  db : Reldb.Db.t;
  enc : Encoding.t;
  tname : string;
  mutable nstmt : int;
  mutable log : string list;  (* reversed *)
}

let state db ~doc enc =
  { db; enc; tname = Encoding.table_name ~doc enc; nstmt = 0; log = [] }

(* [?ctx] binds the relation [ctx] for this one statement. *)
let run_sql ?ctx st sql =
  st.nstmt <- st.nstmt + 1;
  st.log <- sql :: st.log;
  Log.debug (fun m -> m "%s" sql);
  match ctx with
  | None -> Reldb.Db.query st.db sql
  | Some (cols, rows) -> Reldb.Db.query_ctx st.db ~cols ~rows sql

let plain_rows ?ctx st sql =
  List.map (Node_row.of_tuple st.enc) (run_sql ?ctx st sql)

(* ------------------------------------------------------------------ *)
(* Context references                                                  *)
(* ------------------------------------------------------------------ *)

(* A context reaches SQL either as the bound relation [ctx c] or, for a
   small context, one node inlined as literals. *)
let ctx_ref_table enc = Axis_sql.of_alias ~ub:"c.path_ub" enc "c"

let ctx_ref_literal (r : Node_row.t) =
  let id = string_of_int r.Node_row.id
  and parent =
    match r.Node_row.parent with Some p -> string_of_int p | None -> "NULL"
  in
  let at ord g_end ub = { Axis_sql.id; parent; ord; g_end; ub } in
  match r.Node_row.ord with
  | Node_row.Og (o, e) -> at (string_of_int o) (string_of_int e) ""
  | Node_row.Ol o -> at (string_of_int o) "" ""
  | Node_row.Od p ->
      at
        (V.to_sql_literal (V.Bytes p))
        ""
        (V.to_sql_literal (V.Bytes (Dewey.prefix_upper_bound p)))

let ctx_cols = function
  | Encoding.Global | Encoding.Global_gap ->
      [ ("id", V.Tint); ("parent", V.Tint); ("g_order", V.Tint); ("g_end", V.Tint) ]
  | Encoding.Local -> [ ("id", V.Tint); ("parent", V.Tint); ("l_order", V.Tint) ]
  | Encoding.Dewey_enc | Encoding.Dewey_caret ->
      [ ("id", V.Tint); ("parent", V.Tint); ("path", V.Tbytes); ("path_ub", V.Tbytes) ]

let ctx_tuple enc (r : Node_row.t) =
  let parent =
    match r.Node_row.parent with Some p -> V.Int p | None -> V.Null
  in
  match (enc, r.Node_row.ord) with
  | (Encoding.Global | Encoding.Global_gap), Node_row.Og (o, e) ->
      [| V.Int r.Node_row.id; parent; V.Int o; V.Int e |]
  | Encoding.Local, Node_row.Ol o -> [| V.Int r.Node_row.id; parent; V.Int o |]
  | (Encoding.Dewey_enc | Encoding.Dewey_caret), Node_row.Od p ->
      [|
        V.Int r.Node_row.id; parent; V.Bytes p;
        V.Bytes (Dewey.prefix_upper_bound p);
      |]
  | _ -> invalid_arg "Translate.ctx_tuple: row/encoding mismatch"

(* A step's context nodes: ids alone bind only [id]; rows bind [id],
   [parent] and the encoding's order columns. *)
type context = Ids of int list | Rows of Node_row.t list

let literal_refs = function
  | Rows rows ->
      List.map (fun (r : Node_row.t) -> (r.Node_row.id, ctx_ref_literal r)) rows
  | Ids ids ->
      List.map
        (fun i ->
          (i, { Axis_sql.id = string_of_int i; parent = ""; ord = ""; g_end = ""; ub = "" }))
        ids

let binding enc = function
  | Rows rows -> (ctx_cols enc, List.map (ctx_tuple enc) rows)
  | Ids ids -> ([ ("id", V.Tint) ], List.map (fun i -> [| V.Int i |]) ids)

(* Whether each result row carries the id of the context node that
   produced it. *)
type _ shape = Tagged : (int * Node_row.t) shape | Untagged : Node_row.t shape

let inline_threshold = 4

(* The one place that decides how a context reaches SQL: at most
   [inline_threshold] nodes are inlined as literals, one statement each;
   more are bound as the relation [ctx c] of a single statement, which the
   engine answers by probing the edge table's indexes once per context row.
   [where] is the WHERE clause over the candidate alias [e] and a context
   reference. *)
let select_ctx (type a) st (shape : a shape) context where : a list =
  let select tag from c =
    Printf.sprintf "SELECT %s%s FROM %s e%s WHERE %s" tag
      (Node_row.select_list st.enc "e")
      st.tname from (where c ~e:"e")
  in
  let size = match context with Ids l -> List.length l | Rows l -> List.length l in
  if size <= inline_threshold then
    List.concat_map
      (fun (id, c) : a list ->
        let rows = plain_rows st (select "" "" c) in
        match shape with
        | Tagged -> List.map (fun row -> (id, row)) rows
        | Untagged -> rows)
      (literal_refs context)
  else
    let ctx = binding st.enc context and c = ctx_ref_table st.enc in
    match shape with
    | Untagged -> plain_rows ~ctx st (select "" ", ctx c" c)
    | Tagged ->
        (* column 0 is the context id *)
        List.map
          (fun tu ->
            let id =
              match tu.(0) with
              | V.Int i -> i
              | v -> invalid_arg ("Translate: bad ctx id " ^ V.to_string v)
            in
            (id, Node_row.of_tuple st.enc (Array.sub tu 1 (Array.length tu - 1))))
          (run_sql ~ctx st (select "c.id, " ", ctx c" c))

let select_in_context db ~doc enc ~ids where =
  select_ctx (state db ~doc enc) Untagged (Ids ids) where

(* ------------------------------------------------------------------ *)
(* Candidate generation                                                *)
(* ------------------------------------------------------------------ *)

(* Run the axis range and node test for every context row, tagging results
   with the producing context id. *)
let sql_candidates st ctx_rows cond axis test =
  let tc = Axis_sql.test_cond ~e:"e" axis test in
  select_ctx st Tagged (Rows ctx_rows) (fun c ~e ->
      Printf.sprintf "%s AND %s" (cond c ~e) tc)

let test_passes axis (test : A.node_test) (r : Node_row.t) =
  let k = r.Node_row.kind in
  match (axis, test) with
  | A.Attribute, A.Name n -> k = Doc_index.Attr && r.Node_row.tag = n
  | A.Attribute, (A.Any_name | A.Node_test) -> k = Doc_index.Attr
  | A.Attribute, (A.Text_test | A.Comment_test) -> false
  | _, A.Name n -> k = Doc_index.Elem && r.Node_row.tag = n
  | _, A.Any_name -> k = Doc_index.Elem
  | _, A.Text_test -> k = Doc_index.Text_node
  | _, A.Comment_test -> k = Doc_index.Comment_node
  | _, A.Node_test -> k <> Doc_index.Attr

(* ---- LOCAL middle-tier machinery --------------------------------- *)

(* Fetch rows by id through the unique id index: one row read per id,
   whether the ids are inlined or bound as the context relation. *)
let fetch_by_ids st ids =
  select_ctx st Untagged
    (Ids (List.sort_uniq compare ids))
    (fun c ~e -> Printf.sprintf "%s.id = %s" e c.Axis_sql.id)

(* LOCAL parent chains: the rows and all their ancestors, by id, fetched one
   batched round of point lookups (or one join) per level. *)
let local_chains st (rows : Node_row.t list) =
  let known : (int, Node_row.t) Hashtbl.t = Hashtbl.create 64 in
  let add (r : Node_row.t) = Hashtbl.replace known r.Node_row.id r in
  List.iter add rows;
  let rec fill () =
    let missing =
      Hashtbl.fold
        (fun _ (r : Node_row.t) acc ->
          match r.Node_row.parent with
          | Some p when not (Hashtbl.mem known p) -> p :: acc
          | _ -> acc)
        known []
    in
    if missing <> [] then begin
      List.iter add (fetch_by_ids st missing);
      fill ()
    end
  in
  fill ();
  known

(* Document-order sort keys over a chain map: the root path of sibling
   positions. *)
let chain_keys known =
  let memo : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  let rec key id =
    match Hashtbl.find_opt memo id with
    | Some k -> k
    | None ->
        let k =
          match Hashtbl.find_opt known id with
          | None -> []
          | Some (r : Node_row.t) -> (
              let o = match r.Node_row.ord with Node_row.Ol o -> o | _ -> 0 in
              match r.Node_row.parent with None -> [ o ] | Some p -> key p @ [ o ])
        in
        Hashtbl.replace memo id k;
        k
  in
  fun (r : Node_row.t) -> key r.Node_row.id

let local_order_keys st rows = chain_keys (local_chains st rows)

(* LOCAL descendants via BFS, one statement per level. Returns
   (ctx id, row). *)
let local_descendants st ctx_rows =
  let result = ref [] in
  let frontier =
    ref (List.map (fun (r : Node_row.t) -> (r.Node_row.id, r)) ctx_rows)
  in
  while !frontier <> [] do
    (* fetch children of all frontier rows in one statement *)
    let distinct =
      List.sort_uniq compare (List.map (fun (_, r) -> r.Node_row.id) !frontier)
    in
    let children =
      select_ctx st Tagged (Ids distinct) (fun c ~e ->
          Printf.sprintf "%s.parent = %s AND %s.kind <> 2" e c.Axis_sql.id e)
    in
    let by_parent : (int, Node_row.t list) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (p, row) ->
        Hashtbl.replace by_parent p
          (row :: Option.value (Hashtbl.find_opt by_parent p) ~default:[]))
      children;
    let next = ref [] in
    List.iter
      (fun (origin, (r : Node_row.t)) ->
        match Hashtbl.find_opt by_parent r.Node_row.id with
        | None -> ()
        | Some kids ->
            List.iter
              (fun kid ->
                result := (origin, kid) :: !result;
                next := (origin, kid) :: !next)
              kids)
      !frontier;
    frontier := !next
  done;
  !result

(* ------------------------------------------------------------------ *)
(* Step evaluation                                                     *)
(* ------------------------------------------------------------------ *)

module IdSet = Set.Make (Int)

let dedup_rows rows =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (r : Node_row.t) ->
      if Hashtbl.mem seen r.Node_row.id then false
      else begin
        Hashtbl.add seen r.Node_row.id ();
        true
      end)
    rows

let dedup_pairs pairs =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun (o, (r : Node_row.t)) ->
      if Hashtbl.mem seen (o, r.Node_row.id) then false
      else begin
        Hashtbl.add seen (o, r.Node_row.id) ();
        true
      end)
    pairs

let is_reverse_axis = function
  | A.Preceding | A.Preceding_sibling | A.Ancestor | A.Ancestor_or_self -> true
  | _ -> false

(* DEWEY [preceding] ranges also hold the context's ancestors, whose paths
   are proper prefixes of the context's path. *)
let drop_ancestors ctx_rows pairs =
  let ctx_path = Hashtbl.create 16 in
  List.iter
    (fun (r : Node_row.t) -> Hashtbl.replace ctx_path r.Node_row.id r.Node_row.ord)
    ctx_rows;
  List.filter
    (fun (ctx, (r : Node_row.t)) ->
      match (Hashtbl.find_opt ctx_path ctx, r.Node_row.ord) with
      | Some (Node_row.Od cp), Node_row.Od rp ->
          not
            (String.length rp < String.length cp
            && String.sub cp 0 (String.length rp) = rp)
      | _ -> true)
    pairs

(* Ancestors without a range predicate. DEWEY: every ancestor's path is a
   proper prefix of the context's, fetched by a point query on the unique
   path index (prefixes that are no node, i.e. carets, return nothing).
   LOCAL: walk the parent chains, and sort by the same chain map. *)
let ancestor_candidates st ctx_rows test =
  match st.enc with
  | Encoding.Local ->
      let known = local_chains st ctx_rows in
      let rec up ctx (r : Node_row.t) acc =
        match Option.bind r.Node_row.parent (Hashtbl.find_opt known) with
        | None -> acc
        | Some a ->
            up ctx a (if test_passes A.Ancestor test a then (ctx, a) :: acc else acc)
      in
      ( List.concat_map (fun (c : Node_row.t) -> up c.Node_row.id c []) ctx_rows,
        Some (chain_keys known) )
  | _ ->
      let pairs =
        List.concat_map
          (fun (c : Node_row.t) ->
            let path = Node_row.dewey c in
            List.init
              (max 0 (Array.length path - 1))
              (fun i -> Array.sub path 0 (i + 1))
            |> List.concat_map (fun prefix ->
                   plain_rows st
                     (Printf.sprintf "SELECT %s FROM %s e WHERE e.path = %s"
                        (Node_row.select_list st.enc "e")
                        st.tname
                        (V.to_sql_literal (V.Bytes (Dewey.encode prefix))))
                   |> List.filter_map (fun row ->
                          if test_passes A.Ancestor test row then
                            Some (c.Node_row.id, row)
                          else None)))
          ctx_rows
      in
      (pairs, None)

let rec is_prefix p k =
  match (p, k) with
  | [], _ -> true
  | x :: p, y :: k -> x = y && is_prefix p k
  | _ :: _, [] -> false

(* LOCAL [following]/[preceding]: the step's candidates by node test (the
   tag index for names), ordered against each context by chain keys. A
   candidate follows the context when its key is greater and not an
   extension of the context's (a descendant); it precedes when its key is
   smaller and not a prefix of the context's (an ancestor). *)
let local_doc_order_candidates st ~dominant ctx_rows axis test =
  if ctx_rows = [] then ([], None)
  else
    let cands =
      plain_rows st
        (Printf.sprintf "SELECT %s FROM %s e WHERE %s"
           (Node_row.select_list st.enc "e")
           st.tname
           (Axis_sql.test_cond ~e:"e" axis test))
    in
    let key = local_order_keys st (ctx_rows @ cands) in
    let ctx_rows = dominant (Some key) ctx_rows in
    let keyed = List.map (fun r -> (key r, r)) cands in
    let keep =
      match axis with
      | A.Following -> fun kc kr -> kr > kc && not (is_prefix kc kr)
      | _ -> fun kc kr -> kr < kc && not (is_prefix kr kc)
    in
    let pairs =
      List.concat_map
        (fun (c : Node_row.t) ->
          let kc = key c in
          List.filter_map
            (fun (kr, r) -> if keep kc kr then Some (c.Node_row.id, r) else None)
            keyed)
        ctx_rows
    in
    (pairs, Some key)

(* Orders contexts so that the one whose [following] holds every other's
   (its subtree ends first) or whose [preceding] does (it starts last)
   comes first. [key] is LOCAL's chain key; extended by +infinity, a node's
   key sorts after all of its descendants', i.e. by where its subtree ends. *)
let dominance axis key (a : Node_row.t) (b : Node_row.t) =
  match (axis, key, a.Node_row.ord, b.Node_row.ord) with
  | A.Following, Some key, _, _ ->
      Stdlib.compare (key a @ [ max_int ]) (key b @ [ max_int ])
  | A.Following, None, Node_row.Og (_, x), Node_row.Og (_, y) -> Int.compare x y
  | A.Following, None, Node_row.Od x, Node_row.Od y ->
      String.compare (Dewey.prefix_upper_bound x) (Dewey.prefix_upper_bound y)
  | A.Following, None, _, _ -> invalid_arg "Translate.dominance: mixed encodings"
  | _, Some key, _, _ -> Stdlib.compare (key b) (key a)
  | _, None, _, _ -> Node_row.compare_ord b a

(* Candidates for one step from a deduplicated context row list. Returns
   (ctx id, row) pairs plus an optional doc-order key function used to sort
   groups when the row's own ord is not a document order (LOCAL). Axes with
   a range in {!Axis_sql} become SQL; the rest run in the middle tier.
   [dominant key ctx_rows] drops the contexts whose candidates another
   context of the same origins already yields. *)
let rec step_candidates st ~dominant ctx_rows (step : A.step) :
    (int * Node_row.t) list * (Node_row.t -> int list) option =
  let self_pairs axis =
    List.filter_map
      (fun (r : Node_row.t) ->
        if test_passes axis step.A.test r then Some (r.Node_row.id, r) else None)
      ctx_rows
  in
  match step.A.axis with
  | A.Self -> (self_pairs A.Self, None)
  | (A.Ancestor_or_self | A.Descendant_or_self) as axis ->
      (* self, then the strict axis: self sorts before its descendants, and
         reverse-axis sorting puts it before its ancestors; LOCAL key
         functions cover the context rows too *)
      let strict = if axis = A.Ancestor_or_self then A.Ancestor else A.Descendant in
      let more, keys =
        step_candidates st ~dominant ctx_rows { step with A.axis = strict }
      in
      (self_pairs A.Child @ more, keys)
  | axis -> (
      match Axis_sql.range st.enc ~bound:true axis with
      | Some range ->
          let ctx_rows =
            if Axis_sql.empty_from_attribute axis then
              List.filter
                (fun (r : Node_row.t) -> r.Node_row.kind <> Doc_index.Attr)
                ctx_rows
            else ctx_rows
          in
          let ctx_rows = dominant None ctx_rows in
          let pairs =
            match range with
            | _ when ctx_rows = [] -> []
            | Axis_sql.Exact cond -> sql_candidates st ctx_rows cond axis step.A.test
            | Axis_sql.Plus_ancestors cond ->
                drop_ancestors ctx_rows
                  (sql_candidates st ctx_rows cond axis step.A.test)
          in
          (pairs, None)
      | None -> (
          match axis with
          | A.Ancestor -> ancestor_candidates st ctx_rows step.A.test
          | A.Descendant ->
              (* LOCAL *)
              let pairs =
                List.filter
                  (fun (_, row) -> test_passes axis step.A.test row)
                  (local_descendants st ctx_rows)
              in
              (* positional predicates need each group in document order;
                 relative BFS keys are ambiguous when a row descends from
                 several context nodes, so compute absolute root-path keys
                 (more parent-chain SQL — the honest LOCAL cost) *)
              (pairs, Some (local_order_keys st (dedup_rows (List.map snd pairs))))
          | _ -> local_doc_order_candidates st ~dominant ctx_rows axis step.A.test))

(* ---- predicates --------------------------------------------------- *)

let number_of_string s =
  match float_of_string_opt (String.trim s) with
  | Some f -> f
  | None -> Float.nan

let cmp_op (op : A.cmp) c =
  match op with
  | A.Eq -> c = 0
  | A.Ne -> c <> 0
  | A.Lt -> c < 0
  | A.Le -> c <= 0
  | A.Gt -> c > 0
  | A.Ge -> c >= 0

let num_cmp op a b =
  if Float.is_nan a || Float.is_nan b then false
  else cmp_op op (Stdlib.compare a b)

let value_matches (op : A.cmp) (lit : A.literal) sv =
  match lit with
  | A.L_num f -> num_cmp op (number_of_string sv) f
  | A.L_str s -> begin
      match op with
      | A.Eq | A.Ne -> cmp_op op (String.compare sv s)
      | A.Lt | A.Le | A.Gt | A.Ge ->
          num_cmp op (number_of_string sv) (number_of_string s)
    end

(* Evaluate a relative path from origin rows; returns (origin id, row). *)
let rec eval_rel st (origins : Node_row.t list) (steps : A.step list) :
    (int * Node_row.t) list =
  let start = List.map (fun (r : Node_row.t) -> (r.Node_row.id, r)) origins in
  List.fold_left (fun pairs step -> eval_one_step st pairs step) start steps

(* One step over (origin, ctx row) pairs: dedupe contexts, fetch candidates,
   order per group, apply predicates, rebind to origins. *)
and eval_one_step st pairs (step : A.step) =
  let ctx_rows = dedup_rows (List.map snd pairs) in
  (* ctx id -> origins *)
  let origins_of : (int, int list) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (o, (r : Node_row.t)) ->
      let cur = try Hashtbl.find origins_of r.Node_row.id with Not_found -> [] in
      if not (List.mem o cur) then Hashtbl.replace origins_of r.Node_row.id (o :: cur))
    pairs;
  (* Without a positional predicate, an origin's [following] is the axis
     from its context whose subtree ends first and its [preceding] the axis
     from its context that starts last: keep only those contexts. *)
  let dominant key ctx_rows =
    match step.A.axis with
    | (A.Following | A.Preceding) when not (A.step_has_positional step) ->
        let first = dominance step.A.axis key in
        let best = Hashtbl.create 16 in
        List.iter
          (fun (o, c) ->
            match Hashtbl.find_opt best o with
            | Some b when first b c <= 0 -> ()
            | _ -> Hashtbl.replace best o c)
          pairs;
        let keep =
          Hashtbl.fold (fun _ (c : Node_row.t) s -> IdSet.add c.Node_row.id s) best IdSet.empty
        in
        List.filter (fun (r : Node_row.t) -> IdSet.mem r.Node_row.id keep) ctx_rows
    | _ -> ctx_rows
  in
  let cands, keyfn = step_candidates st ~dominant ctx_rows step in
  (* group by ctx id, preserving candidate order *)
  let group_order = ref [] in
  let groups : (int, (int * Node_row.t) list ref) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun (ctx, row) ->
      match Hashtbl.find_opt groups ctx with
      | Some cell -> cell := (ctx, row) :: !cell
      | None ->
          group_order := ctx :: !group_order;
          Hashtbl.add groups ctx (ref [ (ctx, row) ]))
    cands;
  let reverse = is_reverse_axis step.A.axis in
  let sort_group rows =
    let cmp (_, a) (_, b) =
      match keyfn with
      | Some key -> Stdlib.compare (key a) (key b)
      | None -> Node_row.compare_ord a b
    in
    let sorted = List.stable_sort cmp rows in
    if reverse then List.rev sorted else sorted
  in
  (* batched evaluation of path sub-predicates over all candidates *)
  let all_cand_rows = dedup_rows (List.map snd cands) in
  let path_sets = eval_path_preds st all_cand_rows step.A.preds in
  let out = ref [] in
  List.iter
    (fun ctx ->
      let rows = sort_group (List.rev !(Hashtbl.find groups ctx)) in
      let rows = List.map snd rows in
      let filtered = List.fold_left (apply_pred path_sets) rows step.A.preds in
      let origins = try Hashtbl.find origins_of ctx with Not_found -> [] in
      List.iter
        (fun (r : Node_row.t) ->
          List.iter (fun o -> out := (o, r) :: !out) origins)
        filtered)
    (List.rev !group_order);
  dedup_pairs (List.rev !out)

(* Evaluate all P_exists / P_cmp subterms of the predicates, batched over
   every candidate row; returns an assoc list keyed by physical identity. *)
and eval_path_preds st cand_rows preds =
  let sets = ref [] in
  let rec walk (p : A.predicate) =
    match p with
    | A.P_exists path ->
        let sat = eval_exists st cand_rows path in
        sets := (Obj.repr p, sat) :: !sets
    | A.P_cmp (path, op, lit) ->
        let sat = eval_cmp st cand_rows path op lit in
        sets := (Obj.repr p, sat) :: !sets
    | A.P_count (path, op, k) ->
        let sat = eval_count st cand_rows path op k in
        sets := (Obj.repr p, sat) :: !sets
    | A.P_and (a, b) | A.P_or (a, b) ->
        walk a;
        walk b
    | A.P_not a -> walk a
    | A.P_pos _ | A.P_last -> ()
  in
  List.iter walk preds;
  !sets

and eval_exists st origins (path : A.path) =
  let pairs = eval_rel st origins path.A.steps in
  List.fold_left (fun s (o, _) -> IdSet.add o s) IdSet.empty pairs

and eval_count st origins (path : A.path) op k =
  let pairs = eval_rel st origins path.A.steps in
  let counts = Hashtbl.create 16 in
  List.iter
    (fun ((o, _) : int * Node_row.t) ->
      Hashtbl.replace counts o (1 + Option.value (Hashtbl.find_opt counts o) ~default:0))
    pairs;
  List.fold_left
    (fun s (r : Node_row.t) ->
      let n = Option.value (Hashtbl.find_opt counts r.Node_row.id) ~default:0 in
      if cmp_op op (Stdlib.compare n k) then IdSet.add r.Node_row.id s else s)
    IdSet.empty origins

and eval_cmp st origins (path : A.path) op lit =
  let pairs = eval_rel st origins path.A.steps in
  (* element results compare via their text children (data-centric
     string-value; see interface documentation) *)
  let elems, direct =
    List.partition
      (fun ((_, r) : int * Node_row.t) -> r.Node_row.kind = Doc_index.Elem)
      pairs
  in
  let sat = ref IdSet.empty in
  List.iter
    (fun ((o, r) : int * Node_row.t) ->
      if value_matches op lit r.Node_row.value then sat := IdSet.add o !sat)
    direct;
  if elems <> [] then begin
    let elem_rows = dedup_rows (List.map snd elems) in
    let text_step = { A.axis = A.Child; test = A.Text_test; preds = [] } in
    let texts = eval_one_step st (List.map (fun (r : Node_row.t) -> (r.Node_row.id, r)) elem_rows) text_step in
    (* element id -> passes? *)
    let elem_pass = Hashtbl.create 16 in
    List.iter
      (fun ((eid, (t : Node_row.t)) : int * Node_row.t) ->
        if value_matches op lit t.Node_row.value then
          Hashtbl.replace elem_pass eid ())
      texts;
    List.iter
      (fun ((o, r) : int * Node_row.t) ->
        if Hashtbl.mem elem_pass r.Node_row.id then sat := IdSet.add o !sat)
      elems
  end;
  !sat

and apply_pred path_sets rows (p : A.predicate) =
  let last = List.length rows in
  let rec holds pos (r : Node_row.t) (p : A.predicate) =
    match p with
    | A.P_pos (op, k) -> cmp_op op (Stdlib.compare pos k)
    | A.P_last -> pos = last
    | A.P_exists _ | A.P_cmp _ | A.P_count _ -> begin
        match List.assq_opt (Obj.repr p) path_sets with
        | Some set -> IdSet.mem r.Node_row.id set
        | None -> false
      end
    | A.P_and (a, b) -> holds pos r a && holds pos r b
    | A.P_or (a, b) -> holds pos r a || holds pos r b
    | A.P_not a -> not (holds pos r a)
  in
  List.filteri (fun i r -> holds (i + 1) r p) rows

(* ---- first step from the document root ---------------------------- *)

let initial_candidates st (step : A.step) =
  match Axis_sql.root_cond ~e:"e" step.A.axis with
  | None -> []
  | Some cond ->
      plain_rows st
        (Printf.sprintf "SELECT %s FROM %s e WHERE %s AND %s"
           (Node_row.select_list st.enc "e")
           st.tname cond
           (Axis_sql.test_cond ~e:"e" step.A.axis step.A.test))

(* sort candidates into document order for positional predicates *)
let doc_sort st rows =
  match st.enc with
  | Encoding.Local ->
      let key = local_order_keys st rows in
      List.stable_sort (fun a b -> Stdlib.compare (key a) (key b)) rows
  | _ -> List.stable_sort Node_row.compare_ord rows

(* the path's result rows, not yet deduplicated or in document order *)
let eval_path st (path : A.path) =
  match path.A.steps with
  | [] -> []
  | first :: rest ->
      let cands = doc_sort st (initial_candidates st first) in
      let path_sets = eval_path_preds st cands first.A.preds in
      let filtered = List.fold_left (apply_pred path_sets) cands first.A.preds in
      let pairs = List.map (fun (r : Node_row.t) -> (0, r)) filtered in
      let pairs =
        List.fold_left (fun ps step -> eval_one_step st ps step) pairs rest
      in
      List.map snd pairs

(* Run [f] on a fresh statement counter; the result rows are deduplicated
   and sorted into document order once. *)
let run db ~doc enc f =
  let st = state db ~doc enc in
  let rows = doc_sort st (dedup_rows (f st)) in
  { rows; statements = st.nstmt; sql_log = List.rev st.log }

let eval db ~doc enc (u : A.union) =
  run db ~doc enc (fun st -> List.concat_map (eval_path st) u)

let eval_from_ids db ~doc enc ~ids path =
  run db ~doc enc (fun st ->
      if path.A.absolute then eval_path st path
      else List.map snd (eval_rel st (fetch_by_ids st ids) path.A.steps))

let sort_document_order db ~doc enc rows =
  let r = run db ~doc enc (fun _ -> rows) in
  (r.rows, r.statements)

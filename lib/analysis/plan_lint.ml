module P = Reldb.Plan
module T = Reldb.Table
module E = Reldb.Expr
module V = Reldb.Value

(* [col op const] either way around, with an operator an index range or
   probe can serve *)
let sargable_col = function
  | E.Cmp (op, E.Col i, E.Const v) | E.Cmp (op, E.Const v, E.Col i)
    when (not (V.is_null v)) && op <> E.Ne ->
      Some i
  | _ -> None

(* Filter chain ending in a sequential scan: the conjuncts the scan has to
   test row by row. Column positions are local to the table schema because a
   scan's output schema is the table's. *)
let rec filtered_seq_scan preds = function
  | P.Filter (e, inner) -> filtered_seq_scan (E.conjuncts e @ preds) inner
  | P.Seq_scan t -> if preds = [] then None else Some (t, preds)
  | _ -> None

let rec has_base_scan = function
  | P.Seq_scan _ | P.Index_scan _ | P.Index_join _ -> true
  | p -> List.exists has_base_scan (P.children p)

let lint_plan plan =
  let acc = ref [] in
  let add f = acc := f :: !acc in
  let reported : (string * string, unit) Hashtbl.t = Hashtbl.create 8 in
  let rec go p =
    match p with
    | P.Limit { limit = Some 0; _ } ->
        (* the planner emits LIMIT 0 when it proves the WHERE contradictory;
           the subtree below never executes, so its join shape is moot *)
        ()
    | _ -> go_node p
  and go_node p =
    (match filtered_seq_scan [] p with
    | Some (t, preds) ->
        List.iter
          (fun conj ->
            match sargable_col conj with
            | None -> ()
            | Some col ->
                List.iter
                  (fun idx ->
                    if
                      Array.length idx.T.key_cols > 0
                      && idx.T.key_cols.(0) = col
                    then begin
                      let key = (T.name t, idx.T.idx_name) in
                      if not (Hashtbl.mem reported key) then begin
                        Hashtbl.add reported key ();
                        let cname =
                          (Reldb.Table.schema t).(col).Reldb.Schema.col_name
                        in
                        add
                          (Finding.warning "seq-scan-with-index"
                             "sequential scan of %s filters on %s although \
                              index %s leads with that column"
                             (T.name t) cname idx.T.idx_name)
                      end
                    end)
                  (T.indexes t))
          preds
    | None -> ());
    (match p with
    | P.Nl_join { pred = None; _ } ->
        add
          (Finding.warning "cross-join"
             "nested-loop join with no predicate: cartesian product")
    | P.Nl_join { pred = Some pr; outer; inner } ->
        if has_base_scan inner then begin
          let split = Reldb.Schema.arity (P.schema_of outer) in
          let cols = E.columns pr in
          let connects =
            List.exists (fun c -> c < split) cols
            && List.exists (fun c -> c >= split) cols
          in
          if connects then
            (* a range/theta join (the descendant-axis interval joins land
               here): quadratic but the best a single pass offers, so only
               worth a note *)
            add
              (Finding.info "nl-join-rescan"
                 "nested-loop range join re-reads its inner base table per \
                  outer row (no equi-predicate available)")
          else
            add
              (Finding.warning "nl-join-rescan"
                 "nested-loop join predicate does not connect its two sides; \
                  the inner base table is rescanned for every outer row")
        end
    | _ -> ());
    List.iter go (P.children p)
  in
  go plan;
  Finding.sort (List.rev !acc)

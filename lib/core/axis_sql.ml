module A = Xpath_ast
module V = Reldb.Value

type ctx = { id : string; parent : string; ord : string; g_end : string; ub : string }

let order_column = function
  | Encoding.Global | Encoding.Global_gap -> "g_order"
  | Encoding.Local -> "l_order"
  | Encoding.Dewey_enc | Encoding.Dewey_caret -> "path"

let of_alias ?(ub = "") enc a =
  {
    id = a ^ ".id";
    parent = a ^ ".parent";
    ord = a ^ "." ^ order_column enc;
    g_end = a ^ ".g_end";
    ub;
  }

type range =
  | Exact of (ctx -> e:string -> string)
  | Plus_ancestors of (ctx -> e:string -> string)

let range enc ~bound (axis : A.axis) =
  let pf = Printf.sprintf in
  let exact f = Some (Exact f) in
  let col = order_column enc in
  let global = enc = Encoding.Global || enc = Encoding.Global_gap in
  match axis with
  | A.Child -> exact (fun c ~e -> pf "%s.parent = %s AND %s.kind <> 2" e c.id e)
  | A.Attribute -> exact (fun c ~e -> pf "%s.parent = %s" e c.id)
  | A.Parent -> exact (fun c ~e -> pf "%s.id = %s" e c.parent)
  | A.Following_sibling | A.Preceding_sibling ->
      let op = if axis = A.Following_sibling then ">" else "<" in
      (* LOCAL shreds attributes at negative sibling positions *)
      let not_attr = if enc = Encoding.Local then "l_order > 0" else "kind <> 2" in
      exact (fun c ~e ->
          pf "%s.parent = %s AND %s.%s %s %s AND %s.%s" e c.parent e col op
            c.ord e not_attr)
  | _ when enc = Encoding.Local -> None
  | (A.Descendant | A.Descendant_or_self) when global || bound ->
      (* the subtree is the order range from the context up to g_end
         (GLOBAL) or to the path prefix's upper bound (DEWEY) *)
      let lo = if axis = A.Descendant then ">" else ">=" in
      exact (fun c ~e ->
          pf "%s.%s %s %s AND %s.%s < %s AND %s.kind <> 2" e col lo c.ord e col
            (if global then c.g_end else c.ub)
            e)
  | A.Following when global ->
      exact (fun c ~e -> pf "%s.g_order > %s AND %s.kind <> 2" e c.g_end e)
  | A.Following when bound ->
      exact (fun c ~e -> pf "%s.path >= %s AND %s.kind <> 2" e c.ub e)
  | A.Preceding when global ->
      exact (fun c ~e -> pf "%s.g_end < %s AND %s.kind <> 2" e c.ord e)
  | A.Preceding ->
      Some (Plus_ancestors (fun c ~e -> pf "%s.path < %s AND %s.kind <> 2" e c.ord e))
  | A.Ancestor when global ->
      exact (fun c ~e -> pf "%s.g_order < %s AND %s.g_end > %s" e c.ord e c.g_end)
  | A.Ancestor_or_self when global ->
      exact (fun c ~e -> pf "%s.g_order <= %s AND %s.g_end >= %s" e c.ord e c.g_end)
  | _ -> None

let root_cond ~e (axis : A.axis) =
  match axis with
  | A.Child -> Some (e ^ ".parent IS NULL")
  | A.Descendant | A.Descendant_or_self -> Some (e ^ ".kind <> 2")
  | _ -> None

let test_cond ~e (axis : A.axis) (test : A.node_test) =
  let named kind n =
    Printf.sprintf "%s.kind = %d AND %s.tag = %s" e kind e (V.to_sql_literal (V.Str n))
  in
  match (axis, test) with
  | A.Attribute, A.Name n -> named 2 n
  | A.Attribute, (A.Any_name | A.Node_test) -> e ^ ".kind = 2"
  | A.Attribute, (A.Text_test | A.Comment_test) -> e ^ ".kind = 9" (* empty *)
  | _, A.Name n -> named 0 n
  | _, A.Any_name -> e ^ ".kind = 0"
  | _, A.Text_test -> e ^ ".kind = 1"
  | _, A.Comment_test -> e ^ ".kind = 3"
  | _, A.Node_test -> e ^ ".kind <> 2"

let empty_from_attribute = function
  | A.Following_sibling | A.Preceding_sibling -> true
  | _ -> false

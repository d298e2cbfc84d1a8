(** The paper's per-encoding mapping of ordered XPath axes and node tests to
    SQL predicates over an edge table, written once and used by both
    translators.

    A step joins a candidate alias [e] against a context node whose columns
    are given as SQL expressions ({!ctx}). The step-at-a-time translator
    ({!Translate}) fills the context from the bound [ctx] relation or from
    inlined literals; the single-statement translator ({!Translate_sql})
    fills it from the previous step's join alias.

    Under each encoding an axis is either a range predicate or needs the
    middle tier:

    - [child], [attribute], [parent] and the sibling axes are ranges under
      every encoding ([(parent, l_order)] for LOCAL);
    - [descendant], [descendant-or-self], [following], [preceding],
      [ancestor] and [ancestor-or-self] are [g_order]/[g_end] intervals
      under GLOBAL;
    - under DEWEY, [descendant], [descendant-or-self] and [following] are
      [path] prefix ranges that need the context's upper bound, which only
      a bound context row carries. [preceding] is a [path] range that also
      holds the context's ancestors, and the caller drops them;
    - everything else (LOCAL's document-order axes, LOCAL and DEWEY
      [ancestor]) has no range. The middle tier walks parent chains. *)

type ctx = {
  id : string;
  parent : string;
  ord : string;  (** the order column: [g_order], [l_order] or [path] *)
  g_end : string;  (** GLOBAL subtree end *)
  ub : string;  (** DEWEY subtree upper bound; read only when bound *)
}
(** The context node's columns, as SQL expressions. *)

val of_alias : ?ub:string -> Encoding.t -> string -> ctx
(** The columns of a table alias. [?ub] names the upper-bound column, which
    edge tables do not have (default: none). *)

type range =
  | Exact of (ctx -> e:string -> string)
  | Plus_ancestors of (ctx -> e:string -> string)
      (** the predicate also holds the context's ancestors *)
(** A WHERE fragment over the candidate alias [e]. *)

val range : Encoding.t -> bound:bool -> Xpath_ast.axis -> range option
(** The axis as a range predicate, or [None] when the encoding needs the
    middle tier. [~bound] says whether the context is a bound row, whose
    [ub] is set. [self] has no entry, because it needs no join. *)

val root_cond : e:string -> Xpath_ast.axis -> string option
(** A first step from the document root: [child] selects the root row,
    [descendant(-or-self)] every non-attribute row. Other axes select
    nothing. *)

val test_cond : e:string -> Xpath_ast.axis -> Xpath_ast.node_test -> string
(** The node test on alias [e]. On the attribute axis, names match
    attributes. On other axes they match elements. *)

val empty_from_attribute : Xpath_ast.axis -> bool
(** Attribute nodes have no siblings: the sibling axes select nothing from
    an attribute context, and the caller excludes those contexts. *)

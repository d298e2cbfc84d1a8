(** XPath evaluation over the shredded relations: the paper's translation of
    ordered queries into SQL, one strategy per encoding.

    Evaluation is step-at-a-time and set-based, in the middle-tier style the
    shredding literature used before recursive SQL was common: the current
    context node set is bound as the relation [ctx] of the step's one SQL
    statement, which joins the edge table against it (or, when small, is
    inlined as literals, one statement per node; see {!select_in_context}).
    Reads run no DDL. What that statement looks like is exactly where
    the encodings differ:

    - ordered axes map to order-column ranges — [g_order]/[g_end] intervals
      for GLOBAL, [path] prefix ranges for DEWEY, [(parent, l_order)] ranges
      for LOCAL sibling axes. {!Axis_sql} holds the mapping, shared with
      the single-statement translator;
    - document-order axes ([following], [preceding]) and document-order
      output sorting are closed-form for GLOBAL and DEWEY. LOCAL has one
      document-order mechanism, parent-chain keys: the middle tier fetches
      each row's ancestors (one SQL statement per level) and keys the row
      by its root path of sibling ranks. The [ancestor] step, [following]
      and [preceding] (candidates by node test, kept by key order and
      prefix), descendant ordering and every final sort use those keys —
      the recursion cost the paper attributes to local order;
    - positional predicates are ranked in the middle tier per context node
      over the axis-ordered candidates for every encoding (sibling positions
      stored by LOCAL/DEWEY are sibling ranks, not ranks among nodes passing
      the step's name test, so they cannot answer [bidder[2]] alone);
    - value predicates ([price > 100], [@id = 'x']) become comparisons on
      the [value]/[nval] columns. A comparison path that selects elements
      gets an implicit [/text()] appended, which equals XPath string-value
      semantics for elements whose content is a single text node (the
      data-centric case; see DESIGN.md).

    The number of SQL statements issued and the SQL text are reported for
    instrumentation; rows-read/written counters live on {!Reldb.Db}. *)

type result = {
  rows : Node_row.t list;  (** result nodes, in document order *)
  statements : int;  (** SQL statements issued *)
  sql_log : string list;  (** the statements, in order *)
}

val eval : Reldb.Db.t -> doc:string -> Encoding.t -> Xpath_ast.union -> result
(** Evaluate a union of absolute or relative (root-context) paths. The
    results are merged, deduplicated and sorted into document order once. *)

val eval_from_ids :
  Reldb.Db.t -> doc:string -> Encoding.t -> ids:int list -> Xpath_ast.path ->
  result
(** Evaluate a path with the given nodes as context (absolute paths restart
    from the document root). Used by the FLWOR layer to resolve
    variable-relative paths. *)

val sort_document_order :
  Reldb.Db.t -> doc:string -> Encoding.t -> Node_row.t list ->
  Node_row.t list * int
(** Sort arbitrary rows into document order (deduplicating by id), fetching
    parent chains when the encoding stores no global order (LOCAL). Returns
    the sorted rows and the number of extra SQL statements issued. *)

val select_in_context :
  Reldb.Db.t -> doc:string -> Encoding.t -> ids:int list ->
  (Axis_sql.ctx -> e:string -> string) -> Node_row.t list
(** [select_in_context db ~doc enc ~ids where] selects the edge rows of
    alias [e] satisfying [where] for some context node of [ids] (only the
    context's [id] is set). With at most 4 ids it issues one statement per
    id, inlined as a literal; otherwise one statement over the ids bound as
    [ctx c] through {!Reldb.Db.query_ctx}. The step translator makes the
    same choice in the same function. *)

val value_matches : Xpath_ast.cmp -> Xpath_ast.literal -> string -> bool
(** [value_matches op lit s]: whether string value [s] satisfies
    [s op lit]. Numeric literals and relational operators compare as
    numbers, and NaN never matches. [=] and [!=] against a string literal
    compare as strings. *)

val number_of_string : string -> float
(** The XPath [number()] of a string value: NaN when it does not parse. *)

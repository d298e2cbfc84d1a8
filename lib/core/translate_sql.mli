(** Whole-path translation: one SQL statement per XPath query.

    The paper's translator emitted a single SQL statement per path query — a
    chain of self-joins over the edge table, one alias per location step
    (what the shredding literature calls structural joins). This module
    implements that mode for the fragment of the subset where a single
    unordered SQL block is expressive enough. Each step joins onto the
    previous alias through the shared axis table ({!Axis_sql}), so the
    fragment is whatever that table answers exactly from a join alias:

    - under every encoding: [child], [attribute], [parent], [self],
      [following-sibling] and [preceding-sibling];
    - under GLOBAL and GLOBAL_GAP only: [descendant], [descendant-or-self],
      [following], [preceding], [ancestor] and [ancestor-or-self]. DEWEY's
      prefix ranges need the context's upper bound, which a join alias does
      not carry, and its [preceding] range also holds ancestors. LOCAL's
      document-order axes need recursion, which single-statement SQL
      without RECURSIVE cannot express — the paper's point;
    - the first step must be [child] or [descendant(-or-self)] from the
      document root, so [//a] is GLOBAL-only too;
    - name/wildcard/text()/comment()/node() tests;
    - existence and value-comparison predicates, and their conjunctions
      (they become additional joined aliases);
    - {e no} positional, [or], [not()] or [count()] predicates — ranking
      inside an unordered SQL block needs subqueries or window functions,
      which is exactly why the paper stores sibling ranks as data; use the
      step-at-a-time evaluator ({!Translate}) for those.

    The generated statement selects the result nodes' columns with
    [SELECT DISTINCT], ordered by the encoding's document-order column when
    it has one (GLOBAL, DEWEY); LOCAL results are returned unordered and the
    caller middle-tier sorts (documented cost). *)

exception Not_single_statement of string
(** The path uses a feature outside the single-statement fragment. *)

val translate :
  ?unique:bool -> doc:string -> Encoding.t -> Xpath_ast.path -> string
(** The SQL text. [~unique:true] is an external guarantee (e.g. from the
    schema analysis) that the join can produce no duplicate result rows, so
    [DISTINCT] is omitted. Defaults to [false].
    @raise Not_single_statement when ineligible. *)

type fragment_meta = {
  fm_encoding : Encoding.t;  (** the encoding the statement was emitted for *)
  fm_table : string;  (** edge-table name every alias ranges over *)
  fm_result_alias : string;  (** the alias whose columns are selected *)
  fm_aliases : string list;  (** all FROM aliases, in emission order *)
  fm_ordered : bool;  (** statement carries a document-order ORDER BY *)
  fm_order_column : string option;
      (** the order column ([g_order], [path]) or [None] for LOCAL, whose
          results the middle tier must sort itself *)
  fm_axes : Xpath_ast.axis list;
      (** every axis the path uses, including inside predicates (sorted,
          deduplicated) — what the order checker validates against
          {!axis_supported} *)
}
(** What the translator promises about an emitted statement. The static
    analyzer checks the statement against this record rather than re-deriving
    the contract from the SQL text. *)

val translate_meta :
  ?unique:bool ->
  doc:string ->
  Encoding.t ->
  Xpath_ast.path ->
  string * fragment_meta
(** [translate] plus the metadata contract for the emitted statement.
    @raise Not_single_statement when ineligible. *)

val axis_supported : Encoding.t -> Xpath_ast.axis -> bool
(** Whether the encoding can express the axis inside a single unordered SQL
    statement: [self], or an exact {!Axis_sql.range} from a join alias. *)

val path_axes : Xpath_ast.path -> Xpath_ast.axis list
(** Every axis a path uses, including inside predicates (sorted,
    deduplicated). *)

val eval :
  ?unique:bool ->
  Reldb.Db.t ->
  doc:string ->
  Encoding.t ->
  Xpath_ast.path ->
  Translate.result
(** Run the single statement and decode the result rows (sorting LOCAL
    results into document order in the middle tier).
    @raise Not_single_statement when ineligible. *)

val eligible : Encoding.t -> Xpath_ast.path -> bool
(** Whether the path is inside the fragment above. *)

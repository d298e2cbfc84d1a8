(** Query planner: name resolution, predicate pushdown, index selection and
    join ordering.

    The planner is rule-based in the style of early relational optimizers:
    single-table conjuncts are pushed to the table's access path; an index is
    chosen when conjuncts bind a prefix of its key (equalities, then at most
    one range); joins are ordered greedily so that every join after the first
    is an equi (hash) join whenever the WHERE clause permits; a final Sort is
    elided when a chosen index already delivers the requested order.

    One rule plans an index nested-loop join ({!Plan.Index_join}): when the
    bound relation [?ctx] is in FROM and another table's best constant-only
    access path is a full scan, but one of its indexes has a key prefix (or
    the range on the column after it) that [ctx] columns plus constants
    bind, [ctx] is placed first and that table is probed through the index
    once per [ctx] row. The key is bound by the same prefix-then-range
    matching that picks index scans. Statements without [?ctx], and tables
    with an indexed constant access path, plan as before. *)

exception Plan_error of string

val plan_select : ?ctx:Table.t -> Catalog.t -> Sql_ast.select -> Plan.t
(** [?ctx] is a relation outside the catalog: a FROM entry with its name
    resolves to it before the catalog is consulted.
    @raise Plan_error on unknown tables/columns, ambiguous references, or
    unsupported constructs. *)

val resolve_expr_for_table : Table.t -> Sql_ast.sexpr -> Expr.t
(** Resolve an expression against a single table's schema (used by UPDATE and
    DELETE). Aggregates are rejected. *)

val table_candidates : Table.t -> Expr.t option -> (int * Tuple.t) Seq.t
(** Rows (with ids) of the table satisfying the predicate, going through the
    best available index. Used by UPDATE/DELETE; the caller must materialize
    the sequence before mutating the table. *)

val access_path_description : Table.t -> Expr.t option -> string
(** Human-readable description of the access path {!table_candidates} would
    pick, for tests and EXPLAIN output. *)

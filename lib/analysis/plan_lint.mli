(** Lint over compiled physical plans.

    Rules:
    - [seq-scan-with-index] (warning): a filtered sequential scan where a
      sargable conjunct matches the leading column of one of the table's
      indexes — the planner left an access path on the table.
    - [cross-join] (warning): a nested-loop join with no predicate.
    - [nl-join-rescan]: a nested-loop join whose inner side reads a base
      table — every outer row pays for the inner relation. A warning when
      the predicate does not even connect the two sides; an info note when
      it does (range/theta joins such as the descendant-axis interval join
      have no equi form, so the nested loop is the best single-pass plan).

    An index join ([IndexJoin]) reads only the rows each probe returns, so
    neither rule fires on it or on its outer scan of the bound relation. *)

val lint_plan : Reldb.Plan.t -> Finding.t list

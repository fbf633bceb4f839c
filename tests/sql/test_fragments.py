"""Tests for distributed plan splitting (repro.sql.fragments)."""

from repro.sql import EvalContext, parse
from repro.sql.ast import Column
from repro.sql.batch import CompiledFragment, run_fragment_batches
from repro.sql.compiled import _LIKE_CACHE, _like_regex
from repro.sql.fragments import (
    KeyRange,
    KeySet,
    PartialGroups,
    TopK,
    extract_key_filter,
    merge_partial_groups,
    split_select,
)
from repro.sql.planner import conjoin, split_conjuncts


def key_filter_of(sql: str):
    select = parse(sql)
    return extract_key_filter(
        split_conjuncts(select.where), "key", select.table.binding
    )


# -- key filter extraction ---------------------------------------------------


def test_equality_key_filter():
    assert key_filter_of('SELECT * FROM "t" WHERE key = 5') == KeySet((5,))
    assert key_filter_of('SELECT * FROM "t" WHERE 5 = key') == KeySet((5,))


def test_in_list_key_filter_dedups_preserving_order():
    kf = key_filter_of('SELECT * FROM "t" WHERE key IN (3, 1, 3, 2)')
    assert kf == KeySet((3, 1, 2))


def test_or_of_equalities_key_filter():
    kf = key_filter_of('SELECT * FROM "t" WHERE key = 1 OR key = 7')
    assert kf == KeySet((1, 7))
    # Any non-equality arm disables the OR extraction.
    assert key_filter_of(
        'SELECT * FROM "t" WHERE key = 1 OR value > 2'
    ) is None


def test_range_key_filters():
    kf = key_filter_of('SELECT * FROM "t" WHERE key > 10 AND key <= 20')
    assert kf == KeyRange(low=10, high=20, low_inclusive=False)
    # Literal-on-the-left comparisons flip.
    assert key_filter_of('SELECT * FROM "t" WHERE 10 < key') == \
        KeyRange(low=10, low_inclusive=False)
    assert key_filter_of(
        'SELECT * FROM "t" WHERE key BETWEEN 2 AND 9'
    ) == KeyRange(low=2, high=9)


def test_intersection_tightens_to_key_set():
    kf = key_filter_of(
        'SELECT * FROM "t" WHERE key IN (1, 2, 3) AND key >= 2'
    )
    assert kf == KeySet((2, 3))
    # Contradictory pins intersect to the empty set (provably no rows).
    assert key_filter_of(
        'SELECT * FROM "t" WHERE key = 1 AND key = 2'
    ) == KeySet(())


def test_negated_and_non_literal_predicates_do_not_pin():
    assert key_filter_of(
        'SELECT * FROM "t" WHERE key NOT IN (1, 2)'
    ) is None
    assert key_filter_of('SELECT * FROM "t" WHERE key = value') is None


def test_key_range_overlap_and_incomparables():
    kf = KeyRange(low=10, high=20)
    assert kf.overlaps(0, 10)
    assert kf.overlaps(15, 100)
    assert not kf.overlaps(21, 30)
    assert not kf.overlaps(0, 9)
    # Incomparable bounds must never justify pruning.
    assert kf.overlaps("a", "z")
    assert KeyRange(low="m").contains(5)


# -- split_select ------------------------------------------------------------


def test_single_table_pushes_all_plain_conjuncts():
    plan = split_select(parse(
        'SELECT key, value FROM "t" WHERE value > 3 AND key < 10'
    ))
    fragment = plan.fragment("t")
    assert len(fragment.pushed) == 2
    assert plan.residual is None
    assert plan.final_select.where is None
    assert fragment.projection is not None
    assert "value" in fragment.projection
    assert "key" in fragment.projection
    assert "pad" not in fragment.projection


def test_localtimestamp_conjunct_stays_residual():
    plan = split_select(parse(
        'SELECT key FROM "t" WHERE value > 3 AND ts < LOCALTIMESTAMP'
    ))
    assert len(plan.fragment("t").pushed) == 1
    assert plan.residual is not None
    assert plan.final_select.where is plan.residual


def test_join_pushes_only_qualified_single_table_conjuncts():
    plan = split_select(parse(
        'SELECT a.key FROM "t" AS a JOIN "u" AS b ON a.key = b.key '
        "WHERE a.value > 1 AND b.value > 2 AND value > 3"
    ))
    assert len(plan.fragment("t").pushed) == 1
    assert len(plan.fragment("u").pushed) == 1
    # The unqualified conjunct is ambiguous against the merged row.
    assert plan.residual is not None
    assert plan.partial is None  # no partial aggregation across joins


def test_left_join_right_side_is_passthrough_filterable_base():
    plan = split_select(parse(
        'SELECT a.key FROM "t" AS a LEFT JOIN "u" AS b ON a.key = b.key '
        "WHERE a.value > 1 AND b.value > 2"
    ))
    assert len(plan.fragment("t").pushed) == 1
    # Filtering the LEFT join's right side would change null extension.
    assert plan.fragment("u").pushed == ()
    assert plan.residual is not None


def test_self_join_tables_are_passthrough():
    plan = split_select(parse(
        'SELECT a.key FROM "t" AS a JOIN "t" AS b ON a.key = b.key '
        "WHERE a.value > 1"
    ))
    assert plan.fragment("t").is_passthrough
    assert plan.residual is not None


def test_partial_aggregate_for_group_by():
    plan = split_select(parse(
        'SELECT weight, SUM(value) AS s, COUNT(*) AS c FROM "t" '
        "WHERE value > 0 GROUP BY weight HAVING COUNT(*) > 1 "
        "ORDER BY weight LIMIT 3"
    ))
    partial = plan.partial
    assert partial is not None
    assert len(partial.calls) == 2
    assert partial.rep_columns == ("weight",)
    assert plan.fragment("t").partial is partial
    assert plan.fragment("t").projection is None


def test_no_partial_aggregate_with_distinct_or_residual():
    assert split_select(parse(
        'SELECT COUNT(DISTINCT value) FROM "t"'
    )).partial is None
    assert split_select(parse(
        'SELECT COUNT(*) FROM "t" WHERE ts < LOCALTIMESTAMP'
    )).partial is None
    assert split_select(parse(
        "SELECT LOCALTIMESTAMP, COUNT(*) FROM \"t\" "
        "GROUP BY LOCALTIMESTAMP"
    )).partial is None


# -- top-k stage ---------------------------------------------------------------


def top_k_of(sql: str):
    return split_select(parse(sql)).fragment("t").top_k


def test_order_by_limit_pushes_a_top_k_stage():
    select = parse(
        'SELECT key, pad FROM "t" ORDER BY pad DESC, key LIMIT 20 OFFSET 5'
    )
    fragment = split_select(select).fragment("t")
    # A shard keeps what LIMIT + OFFSET can still reach...
    assert fragment.top_k == TopK(order_by=select.order_by, keep=25)
    assert not fragment.is_passthrough
    # ...and runs no stage at all when it holds no more than that.
    assert fragment.top_k_keep(26) == 25
    assert fragment.top_k_keep(25) is None
    # Pushed WHERE conjuncts, qualified names, expressions over stored
    # columns, unrenamed output columns and ordinals all qualify.
    for sql in (
        'SELECT key FROM "t" WHERE value < 3 ORDER BY pad LIMIT 4',
        'SELECT key FROM "t" ORDER BY t.pad LIMIT 4',
        'SELECT key FROM "t" x ORDER BY x.pad, value LIMIT 4',
        'SELECT key FROM "t" ORDER BY pad * 2 + value DESC LIMIT 4',
        'SELECT pad AS weight, key FROM "t" ORDER BY pad LIMIT 4',
        'SELECT key, pad FROM "t" ORDER BY 2 DESC LIMIT 3',
        'SELECT key FROM "t" ORDER BY pad LIMIT 0',
    ):
        assert top_k_of(sql) is not None, sql


def test_an_output_alias_ranks_by_its_items_expression():
    # Centrally the term reads the output column, which is the item's
    # expression over the stored row: a shard ranks by that.
    for sql, expr in (
        ('SELECT key, pad2 AS p FROM "t" ORDER BY p DESC LIMIT 20',
         Column("pad2")),
        ('SELECT value AS pad, key FROM "t" ORDER BY pad LIMIT 3',
         Column("value")),
        ('SELECT pad * 2 AS score FROM "t" ORDER BY score LIMIT 3',
         parse('SELECT pad * 2 FROM "t"').items[0].expr),
        ('SELECT key, pad * 2 AS score FROM "t" ORDER BY 2 LIMIT 3',
         parse('SELECT pad * 2 FROM "t"').items[0].expr),
    ):
        top_k = top_k_of(sql)
        assert top_k is not None, sql
        assert [order.expr for order in top_k.order_by] == [expr], sql


def test_anything_else_sorts_centrally():
    for sql, why in (
        ('SELECT key FROM "t" ORDER BY pad', "no LIMIT"),
        ('SELECT key FROM "t" LIMIT 3', "no ORDER BY"),
        ('SELECT t.key FROM "t" JOIN "u" USING (key) '
         "ORDER BY t.key LIMIT 3", "join output is ranked, not a scan"),
        ('SELECT weight, COUNT(*) AS c FROM "t" GROUP BY weight '
         "ORDER BY c LIMIT 3", "groups are ranked, not rows"),
        ('SELECT COUNT(*) AS c FROM "t" ORDER BY c LIMIT 3', "aggregate"),
        ('SELECT DISTINCT value FROM "t" ORDER BY value LIMIT 3',
         "DISTINCT runs before the cut"),
        ('SELECT * FROM "t" ORDER BY pad LIMIT 3',
         "SELECT * derives its columns from every shipped row"),
        ('SELECT key FROM "t" WHERE ts < LOCALTIMESTAMP '
         "ORDER BY pad LIMIT 3", "a residual filter runs after shipping"),
        ('SELECT key FROM "t" ORDER BY ts - LOCALTIMESTAMP LIMIT 3',
         "the term reads the entry node's clock"),
        ('SELECT key FROM "t" ORDER BY SUM(pad) LIMIT 3',
         "aggregate in a term"),
        ('SELECT value AS pad, pad AS p FROM "t" ORDER BY p LIMIT 3',
         "the alias reads pad, an output column of another expression"),
        ('SELECT value AS pad, key FROM "t" ORDER BY pad + 1 LIMIT 3',
         "an alias inside an expression is not substituted"),
        ('SELECT LOCALTIMESTAMP AS now, key FROM "t" ORDER BY now LIMIT 3',
         "the alias reads the entry node's clock"),
        ('SELECT key FROM "t" ORDER BY u.pad LIMIT 3',
         "another table's qualifier"),
    ):
        assert top_k_of(sql) is None, why


# -- scan-side execution -----------------------------------------------------


ROWS = [
    {"key": k, "partitionKey": k, "value": k % 4, "weight": k % 2,
     "pad": k * 10}
    for k in range(12)
]


def scan(fragment, rows, context):
    """One node's scan-side run: ``(surviving raws, shipped payload)``."""
    survivors, payload, _batches = run_fragment_batches(
        CompiledFragment(fragment), rows, context, 5
    )
    return survivors, payload


def test_fragment_accumulator_filters_and_projects():
    plan = split_select(parse(
        'SELECT key, value FROM "t" WHERE value = 1'
    ))
    survivors, payload = scan(
        plan.fragment("t"), ROWS, EvalContext(now_ms=0)
    )
    assert [row["key"] for row in survivors] == [1, 5, 9]
    assert payload.rows() == [
        {"key": 1, "value": 1}, {"key": 5, "value": 1},
        {"key": 9, "value": 1},
    ]


def test_partial_groups_merge_matches_central_execution():
    from repro.sql.executor import execute_select
    from repro.sql.planner import DictCatalog, ListTable

    sql = ('SELECT weight, SUM(value) AS s, COUNT(*) AS c FROM "t" '
           "GROUP BY weight ORDER BY weight")
    plan = split_select(parse(sql))
    context = EvalContext(now_ms=0)
    # Two "nodes", each scanning half the rows.
    payloads = []
    for shard in (ROWS[:6], ROWS[6:]):
        payloads.append(scan(plan.fragment("t"), shard, context)[1])
    assert all(isinstance(p, PartialGroups) for p in payloads)
    groups = merge_partial_groups(payloads, plan.partial, "t")

    from repro.sql.executor import execute_grouped_select
    distributed = execute_grouped_select(plan.final_select, groups,
                                         context)
    catalog = DictCatalog()
    catalog.add(ListTable("t", tuple(ROWS)))
    central = execute_select(parse(sql), catalog, context)
    assert distributed.columns == central.columns == ["weight", "s", "c"]
    assert distributed.rows == central.rows == [
        {"weight": weight,
         "s": sum(r["value"] for r in ROWS if r["weight"] == weight),
         "c": sum(1 for r in ROWS if r["weight"] == weight)}
        for weight in (0, 1)
    ]


def test_merge_is_idempotent_for_repeated_merges_of_fresh_state():
    # The merge builds fresh accumulators and never mutates shipped
    # ones, so merging the same payload list twice gives equal results
    # (the retry path re-ships a whole table attempt).
    sql = 'SELECT SUM(value) AS s, COUNT(*) AS c FROM "t"'
    plan = split_select(parse(sql))
    context = EvalContext(now_ms=0)
    payloads = [scan(plan.fragment("t"), ROWS, context)[1]]
    first = merge_partial_groups(payloads, plan.partial, "t")
    second = merge_partial_groups(payloads, plan.partial, "t")
    from repro.sql.executor import execute_grouped_select
    one = execute_grouped_select(plan.final_select, first, context)
    two = execute_grouped_select(plan.final_select, second, context)
    assert one.rows == two.rows == [
        {"s": sum(r["value"] for r in ROWS), "c": len(ROWS)}
    ]


# -- LIKE regex cache --------------------------------------------------------


def test_like_regex_is_cached_and_correct():
    _LIKE_CACHE.clear()
    pattern = _like_regex("ab%_d")
    assert _like_regex("ab%_d") is pattern  # cached instance
    assert pattern.fullmatch("abXYZcd")
    assert pattern.fullmatch("abcd")  # % matches empty, _ exactly one
    assert not pattern.fullmatch("abd")
    assert len(_LIKE_CACHE) == 1

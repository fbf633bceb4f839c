"""Property-based tests for the SQL engine."""

from hypothesis import given, settings, strategies as st

from repro.sql import EvalContext, execute_select, parse
from repro.sql.planner import DictCatalog, ListTable


row_values = st.one_of(
    st.integers(min_value=-1_000, max_value=1_000),
    st.text(alphabet="abcxyz", max_size=6),
    st.none(),
)

rows_strategy = st.lists(
    st.fixed_dictionaries({
        "k": st.integers(min_value=0, max_value=20),
        "v": st.integers(min_value=-100, max_value=100),
        "tag": st.sampled_from(["red", "green", "blue"]),
        "maybe": row_values,
    }),
    max_size=40,
)


def run(sql, rows, now_ms=0.0):
    catalog = DictCatalog({"t": ListTable("t", tuple(rows))})
    return execute_select(parse(sql), catalog, EvalContext(now_ms))


@settings(max_examples=60)
@given(rows_strategy)
def test_count_star_equals_row_count(rows):
    result = run("SELECT COUNT(*) AS n FROM t", rows)
    assert result.rows[0]["n"] == len(rows)


@settings(max_examples=60)
@given(rows_strategy)
def test_where_partitions_rows(rows):
    above = run("SELECT COUNT(*) AS n FROM t WHERE v >= 0", rows)
    below = run("SELECT COUNT(*) AS n FROM t WHERE v < 0", rows)
    assert above.rows[0]["n"] + below.rows[0]["n"] == len(rows)


@settings(max_examples=60)
@given(rows_strategy)
def test_group_by_counts_sum_to_total(rows):
    grouped = run("SELECT tag, COUNT(*) AS n FROM t GROUP BY tag", rows)
    assert sum(row["n"] for row in grouped.rows) == len(rows)
    tags = [row["tag"] for row in grouped.rows]
    assert len(tags) == len(set(tags))


@settings(max_examples=60)
@given(rows_strategy)
def test_sum_matches_python(rows):
    result = run("SELECT SUM(v) AS s FROM t", rows)
    expected = sum(r["v"] for r in rows) if rows else None
    assert result.rows[0]["s"] == expected


@settings(max_examples=60)
@given(rows_strategy)
def test_min_max_bound_every_row(rows):
    result = run("SELECT MIN(v) AS lo, MAX(v) AS hi FROM t", rows).rows[0]
    if not rows:
        assert result["lo"] is None and result["hi"] is None
    else:
        values = [r["v"] for r in rows]
        assert result["lo"] == min(values)
        assert result["hi"] == max(values)


@settings(max_examples=60)
@given(rows_strategy)
def test_order_by_sorts(rows):
    result = run("SELECT v FROM t ORDER BY v", rows)
    values = result.column("v")
    assert values == sorted(values)


@settings(max_examples=60)
@given(rows_strategy, st.integers(min_value=0, max_value=10))
def test_limit_truncates(rows, limit):
    result = run(f"SELECT v FROM t LIMIT {limit}", rows)
    assert len(result) == min(limit, len(rows))


@settings(max_examples=60)
@given(rows_strategy)
def test_distinct_removes_duplicates_only(rows):
    result = run("SELECT DISTINCT tag FROM t", rows)
    expected = {r["tag"] for r in rows}
    assert set(result.column("tag")) == expected
    assert len(result) == len(expected)


@settings(max_examples=60)
@given(rows_strategy)
def test_self_join_on_key_at_least_row_count(rows):
    catalog = DictCatalog({
        "a": ListTable("a", tuple(rows)),
        "b": ListTable("b", tuple(rows)),
    })
    result = execute_select(
        parse("SELECT COUNT(*) AS n FROM a JOIN b USING(k)"), catalog,
        EvalContext(),
    )
    # Every row matches at least itself.
    assert result.rows[0]["n"] >= len(rows)


numeric_rows = st.lists(
    st.fixed_dictionaries({
        "maybe": st.one_of(
            st.none(), st.integers(min_value=-50, max_value=50)
        ),
    }),
    max_size=40,
)


@settings(max_examples=60)
@given(numeric_rows)
def test_null_never_satisfies_comparison(rows):
    result = run("SELECT COUNT(*) AS n FROM t "
                 "WHERE maybe > 0 OR maybe <= 0", rows)
    non_null_numbers = sum(
        1 for r in rows if isinstance(r["maybe"], int)
    )
    assert result.rows[0]["n"] == non_null_numbers


@settings(max_examples=60)
@given(rows_strategy)
def test_aggregate_with_where_consistent(rows):
    total = run("SELECT COUNT(*) AS n FROM t WHERE tag = 'red'", rows)
    grouped = run("SELECT tag, COUNT(*) AS n FROM t GROUP BY tag", rows)
    red = next((r["n"] for r in grouped.rows if r["tag"] == "red"), 0)
    assert total.rows[0]["n"] == red


@settings(max_examples=60)
@given(rows_strategy, rows_strategy)
def test_union_all_length_is_sum(rows_a, rows_b):
    catalog = DictCatalog({
        "a": ListTable("a", tuple(rows_a)),
        "b": ListTable("b", tuple(rows_b)),
    })
    result = execute_select(
        parse("SELECT k FROM a UNION ALL SELECT k FROM b"), catalog,
        EvalContext(),
    )
    assert len(result) == len(rows_a) + len(rows_b)


@settings(max_examples=60)
@given(rows_strategy, rows_strategy)
def test_union_distinct_is_set_union(rows_a, rows_b):
    catalog = DictCatalog({
        "a": ListTable("a", tuple(rows_a)),
        "b": ListTable("b", tuple(rows_b)),
    })
    result = execute_select(
        parse("SELECT k FROM a UNION SELECT k FROM b"), catalog,
        EvalContext(),
    )
    expected = {r["k"] for r in rows_a} | {r["k"] for r in rows_b}
    assert set(result.column("k")) == expected
    assert len(result) == len(expected)


@settings(max_examples=60)
@given(rows_strategy, st.integers(min_value=0, max_value=5),
       st.integers(min_value=0, max_value=5))
def test_limit_offset_slice_semantics(rows, limit, offset):
    ordered = run("SELECT v FROM t ORDER BY v", rows).column("v")
    window = run(
        f"SELECT v FROM t ORDER BY v LIMIT {limit} OFFSET {offset}",
        rows,
    ).column("v")
    assert window == ordered[offset:offset + limit]

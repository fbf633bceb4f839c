"""Tests for SQL execution over dict rows."""

import math

import pytest

from repro.errors import SqlExecutionError, SqlPlanError
from repro.sql import EvalContext, execute_select, parse
from repro.sql.planner import DictCatalog, ListTable


def catalog(**tables):
    return DictCatalog({
        name: ListTable(name, tuple(rows))
        for name, rows in tables.items()
    })


def run(sql, cat, now_ms=0.0):
    return execute_select(parse(sql), cat, EvalContext(now_ms=now_ms))


PEOPLE = [
    {"id": 1, "name": "ada", "age": 36, "city": "delft"},
    {"id": 2, "name": "bob", "age": 20, "city": "delft"},
    {"id": 3, "name": "cyd", "age": 52, "city": "berlin"},
    {"id": 4, "name": "dan", "age": None, "city": "berlin"},
]

ORDERS = [
    {"id": 10, "person": 1, "total": 5.0},
    {"id": 11, "person": 1, "total": 7.5},
    {"id": 12, "person": 3, "total": 1.0},
    {"id": 13, "person": 9, "total": 2.0},  # dangling person
]


def test_select_star_returns_all_columns():
    result = run("SELECT * FROM people", catalog(people=PEOPLE))
    assert result.columns == ["id", "name", "age", "city"]
    assert len(result) == 4


def test_projection_and_alias():
    result = run("SELECT name, age * 2 AS dbl FROM people",
                 catalog(people=PEOPLE))
    assert result.columns == ["name", "dbl"]
    assert result.rows[0] == {"name": "ada", "dbl": 72}


def test_where_filters():
    result = run("SELECT name FROM people WHERE age > 30",
                 catalog(people=PEOPLE))
    assert result.column("name") == ["ada", "cyd"]


def test_where_null_excluded():
    result = run("SELECT name FROM people WHERE age < 100",
                 catalog(people=PEOPLE))
    assert "dan" not in result.column("name")


def test_comparison_operators():
    cat = catalog(people=PEOPLE)
    assert len(run("SELECT id FROM people WHERE age = 20", cat)) == 1
    assert len(run("SELECT id FROM people WHERE age <> 20", cat)) == 2
    assert len(run("SELECT id FROM people WHERE age >= 36", cat)) == 2
    assert len(run("SELECT id FROM people WHERE age <= 36", cat)) == 2


def test_and_or_not():
    cat = catalog(people=PEOPLE)
    result = run(
        "SELECT name FROM people WHERE city = 'delft' AND age > 30", cat
    )
    assert result.column("name") == ["ada"]
    result = run(
        "SELECT name FROM people WHERE NOT city = 'delft'", cat
    )
    assert result.column("name") == ["cyd", "dan"]


def test_in_and_between():
    cat = catalog(people=PEOPLE)
    assert run("SELECT name FROM people WHERE id IN (1, 3)",
               cat).column("name") == ["ada", "cyd"]
    assert run("SELECT name FROM people WHERE age BETWEEN 20 AND 40",
               cat).column("name") == ["ada", "bob"]


def test_like():
    cat = catalog(people=PEOPLE)
    assert run("SELECT name FROM people WHERE name LIKE '%a%'",
               cat).column("name") == ["ada", "dan"]
    assert run("SELECT name FROM people WHERE name LIKE '_o_'",
               cat).column("name") == ["bob"]


def test_is_null():
    cat = catalog(people=PEOPLE)
    assert run("SELECT name FROM people WHERE age IS NULL",
               cat).column("name") == ["dan"]
    assert len(run("SELECT name FROM people WHERE age IS NOT NULL",
                   cat)) == 3


def test_arithmetic_and_division_by_zero():
    cat = catalog(t=[{"a": 10, "b": 3}])
    result = run("SELECT a + b, a - b, a * b, a / b, a % b FROM t", cat)
    assert result.tuples() == [(13, 7, 30, pytest.approx(10 / 3), 1)]
    with pytest.raises(SqlExecutionError):
        run("SELECT a / 0 FROM t", cat)


def test_unknown_column_raises():
    with pytest.raises(SqlExecutionError):
        run("SELECT nope FROM people", catalog(people=PEOPLE))


def test_unknown_table_raises():
    with pytest.raises(SqlPlanError):
        run("SELECT a FROM missing", catalog(people=PEOPLE))


# -- joins -------------------------------------------------------------------


def test_inner_join_using():
    cat = catalog(
        a=[{"k": 1, "x": "a1"}, {"k": 2, "x": "a2"}],
        b=[{"k": 1, "y": "b1"}, {"k": 3, "y": "b3"}],
    )
    result = run("SELECT k, x, y FROM a JOIN b USING(k)", cat)
    assert result.tuples() == [(1, "a1", "b1")]


def test_join_on_equality_uses_hash_join():
    cat = catalog(people=PEOPLE, orders=ORDERS)
    result = run(
        "SELECT name, total FROM people p JOIN orders o "
        "ON p.id = o.person ORDER BY total",
        cat,
    )
    assert result.tuples() == [
        ("cyd", 1.0), ("ada", 5.0), ("ada", 7.5),
    ]


def test_left_join_null_extends():
    cat = catalog(
        a=[{"k": 1}, {"k": 2}],
        b=[{"k": 1, "y": "hit"}],
    )
    result = run("SELECT k, y FROM a LEFT JOIN b USING(k) ORDER BY k", cat)
    assert result.tuples() == [(1, "hit"), (2, None)]


def test_nested_loop_join_inequality():
    cat = catalog(
        a=[{"v": 1}, {"v": 5}],
        b=[{"w": 3}],
    )
    result = run("SELECT v, w FROM a JOIN b ON a.v < b.w", cat)
    assert result.tuples() == [(1, 3)]


def test_three_way_join():
    cat = catalog(
        a=[{"k": 1, "x": 1}],
        b=[{"k": 1, "y": 2}],
        c=[{"k": 1, "z": 3}],
    )
    result = run("SELECT x, y, z FROM a JOIN b USING(k) JOIN c USING(k)",
                 cat)
    assert result.tuples() == [(1, 2, 3)]


def test_duplicate_binding_rejected():
    cat = catalog(a=[{"k": 1}])
    with pytest.raises(SqlPlanError):
        run("SELECT k FROM a JOIN a USING(k)", cat)


def test_self_join_with_alias():
    cat = catalog(a=[{"k": 1, "v": 2}, {"k": 2, "v": 1}])
    result = run(
        "SELECT x.k FROM a x JOIN a y ON x.v = y.k ORDER BY x.k", cat
    )
    assert result.column("k") == [1, 2]


# -- aggregation ----------------------------------------------------------------


def test_count_star_and_column():
    cat = catalog(people=PEOPLE)
    result = run("SELECT COUNT(*), COUNT(age) FROM people", cat)
    assert result.tuples() == [(4, 3)]  # COUNT(col) skips NULL


def test_sum_avg_min_max():
    cat = catalog(people=PEOPLE)
    result = run("SELECT SUM(age), AVG(age), MIN(age), MAX(age) "
                 "FROM people", cat)
    assert result.tuples() == [(108, 36.0, 20, 52)]


def test_group_by():
    cat = catalog(people=PEOPLE)
    result = run(
        "SELECT city, COUNT(*) AS n FROM people GROUP BY city "
        "ORDER BY city",
        cat,
    )
    assert result.tuples() == [("berlin", 2), ("delft", 2)]


def test_group_by_having():
    cat = catalog(orders=ORDERS)
    result = run(
        "SELECT person, SUM(total) AS t FROM orders GROUP BY person "
        "HAVING SUM(total) > 2 ORDER BY t DESC",
        cat,
    )
    assert result.tuples() == [(1, 12.5)]


def test_aggregate_empty_input_no_group_by():
    cat = catalog(t=[])
    result = run("SELECT COUNT(*), SUM(x), MIN(x) FROM t", cat)
    assert result.tuples() == [(0, None, None)]


def test_aggregate_empty_input_with_group_by():
    cat = catalog(t=[])
    result = run("SELECT x, COUNT(*) FROM t GROUP BY x", cat)
    assert result.tuples() == []


def test_count_distinct():
    cat = catalog(people=PEOPLE)
    result = run("SELECT COUNT(DISTINCT city) FROM people", cat)
    assert result.tuples() == [(2,)]


def test_aggregate_of_expression():
    cat = catalog(t=[{"a": 1}, {"a": 2}])
    result = run("SELECT SUM(a * 10) FROM t", cat)
    assert result.tuples() == [(30,)]


def test_star_with_aggregation_rejected():
    with pytest.raises(SqlPlanError):
        run("SELECT * FROM people GROUP BY city", catalog(people=PEOPLE))


def test_having_without_aggregate_rejected():
    with pytest.raises(SqlPlanError):
        run("SELECT name FROM people HAVING age > 1",
            catalog(people=PEOPLE))


# -- ordering, distinct, limit -------------------------------------------------


def test_order_by_asc_desc():
    cat = catalog(people=PEOPLE)
    result = run("SELECT name FROM people WHERE age IS NOT NULL "
                 "ORDER BY age DESC", cat)
    assert result.column("name") == ["cyd", "ada", "bob"]


def test_order_by_nulls_last():
    cat = catalog(people=PEOPLE)
    result = run("SELECT name FROM people ORDER BY age", cat)
    assert result.column("name") == ["bob", "ada", "cyd", "dan"]
    result = run("SELECT name FROM people ORDER BY age DESC", cat)
    assert result.column("name") == ["cyd", "ada", "bob", "dan"]


def test_order_by_alias():
    cat = catalog(t=[{"a": 1}, {"a": 3}, {"a": 2}])
    result = run("SELECT a * 10 AS tens FROM t ORDER BY tens DESC", cat)
    assert result.column("tens") == [30, 20, 10]


def test_order_by_aggregate():
    cat = catalog(orders=ORDERS)
    result = run(
        "SELECT person FROM orders GROUP BY person ORDER BY SUM(total)",
        cat,
    )
    assert result.column("person") == [3, 9, 1]


def test_order_by_is_stable_across_terms_and_directions():
    # Ties on every term keep arrival order; NULLs sort last in both
    # directions; a LIMIT / OFFSET cuts the same order a full sort gives.
    rows = [{"id": i, "a": a, "b": b} for i, (a, b) in enumerate([
        (1, "x"), (0, "y"), (1, "x"), (None, "x"), (0, None), (1, "y"),
        (0, "y"), (None, None),
    ])]
    cat = catalog(t=rows)
    expected = {
        "a, b": [1, 6, 4, 0, 2, 5, 3, 7],
        "a DESC, b DESC": [5, 0, 2, 1, 6, 4, 3, 7],
        "a, b DESC": [1, 6, 4, 5, 0, 2, 3, 7],
        "a DESC, b": [0, 2, 5, 1, 6, 4, 3, 7],
    }
    for order, ids in expected.items():
        sql = f"SELECT id FROM t ORDER BY {order}"
        assert run(sql, cat).column("id") == ids, order
        for limit in range(len(rows) + 2):
            cut = run(f"{sql} LIMIT {limit} OFFSET 2", cat)
            assert cut.column("id") == ids[2:2 + limit], (order, limit)


def test_order_by_ordinal_names_the_select_item():
    cat = catalog(t=[{"k": 1, "v": 30}, {"k": 2, "v": 10},
                     {"k": 3, "v": 20}])
    assert run("SELECT k, v FROM t ORDER BY 2", cat).column("k") == \
        [2, 3, 1]
    assert run("SELECT k, v FROM t ORDER BY 2 DESC, 1", cat).column("k") \
        == [1, 3, 2]
    # An unaliased expression, and an aggregate.
    assert run("SELECT k, 0 - v FROM t ORDER BY 2", cat).column("k") == \
        [1, 3, 2]
    result = run("SELECT person, COUNT(*) AS n FROM orders "
                 "GROUP BY person ORDER BY 2 DESC, 1", catalog(orders=ORDERS))
    assert result.column("person") == [1, 3, 9]


def test_order_by_ordinal_is_the_output_column_not_a_shadowed_name():
    cat = catalog(t=[{"k": 1, "v": 30}, {"k": 2, "v": 10},
                     {"k": 3, "v": 20}])
    result = run("SELECT v AS k, k AS v FROM t ORDER BY 1", cat)
    assert result.column("k") == [10, 20, 30]


@pytest.mark.parametrize("sql,message", [
    ("SELECT k, v FROM t ORDER BY 3",
     "ORDER BY 3 is not in the select list (1..2)"),
    ("SELECT k, v FROM t ORDER BY 0",
     "ORDER BY 0 is not in the select list (1..2)"),
    ("SELECT * FROM t ORDER BY 1",
     "ORDER BY 1 cannot be used with SELECT *"),
])
def test_order_by_ordinal_out_of_range_or_with_star(sql, message):
    with pytest.raises(SqlExecutionError) as excinfo:
        run(sql, catalog(t=[{"k": 1, "v": 2}]))
    assert str(excinfo.value) == message


def test_order_by_mixed_types_is_a_typed_error():
    cat = catalog(t=[{"k": 1, "v": 3}, {"k": 2, "v": "x"},
                     {"k": 3, "v": None}])
    for tail in ("", " DESC", " LIMIT 1", " LIMIT 5", ", k DESC"):
        with pytest.raises(SqlExecutionError) as excinfo:
            run(f"SELECT k FROM t ORDER BY v{tail}", cat)
        assert str(excinfo.value) == "cannot compare int with str", tail


def test_limit_offset():
    cat = catalog(t=[{"a": i} for i in range(10)])
    result = run("SELECT a FROM t ORDER BY a LIMIT 3 OFFSET 4", cat)
    assert result.column("a") == [4, 5, 6]


def test_distinct_rows():
    cat = catalog(t=[{"a": 1}, {"a": 1}, {"a": 2}])
    result = run("SELECT DISTINCT a FROM t ORDER BY a", cat)
    assert result.column("a") == [1, 2]


# -- misc ----------------------------------------------------------------


def test_localtimestamp_uses_context():
    cat = catalog(t=[{"deadline": 100.0}, {"deadline": 900.0}])
    result = run("SELECT deadline FROM t WHERE deadline < LOCALTIMESTAMP",
                 cat, now_ms=500.0)
    assert result.column("deadline") == [100.0]


def test_case_when():
    cat = catalog(t=[{"a": 1}, {"a": 5}])
    result = run(
        "SELECT CASE WHEN a > 3 THEN 'big' ELSE 'small' END AS size "
        "FROM t",
        cat,
    )
    assert result.column("size") == ["small", "big"]


def test_scalar_functions():
    cat = catalog(t=[{"s": "MiXeD", "x": -2.7}])
    result = run(
        "SELECT UPPER(s), LOWER(s), LENGTH(s), ABS(x), ROUND(x), "
        "COALESCE(NULL, s) FROM t",
        cat,
    )
    assert result.tuples() == [("MIXED", "mixed", 5, 2.7, -3, "MiXeD")]


def test_derived_column_names():
    cat = catalog(t=[{"a": 1}])
    result = run("SELECT COUNT(*), a FROM t GROUP BY a", cat)
    assert result.columns == ["COUNT(*)", "a"]


def test_scanned_counts_all_inputs():
    cat = catalog(
        a=[{"k": i} for i in range(5)],
        b=[{"k": i} for i in range(7)],
    )
    result = run("SELECT COUNT(*) FROM a JOIN b USING(k)", cat)
    assert result.scanned == 12


# -- UNION ---------------------------------------------------------------


def test_union_all_concatenates():
    cat = catalog(a=[{"x": 1}], b=[{"x": 1}, {"x": 2}])
    result = run("SELECT x FROM a UNION ALL SELECT x FROM b", cat)
    assert sorted(result.column("x")) == [1, 1, 2]


def test_union_deduplicates():
    cat = catalog(a=[{"x": 1}], b=[{"x": 1}, {"x": 2}])
    result = run("SELECT x FROM a UNION SELECT x FROM b", cat)
    assert sorted(result.column("x")) == [1, 2]


def test_union_uses_first_branch_column_names():
    cat = catalog(a=[{"x": 1}], b=[{"y": 9}])
    result = run("SELECT x AS v FROM a UNION ALL SELECT y FROM b", cat)
    assert result.columns == ["v"]
    assert sorted(result.column("v")) == [1, 9]


def test_union_width_mismatch_rejected():
    cat = catalog(a=[{"x": 1}], b=[{"x": 1, "y": 2}])
    with pytest.raises(SqlExecutionError):
        run("SELECT x FROM a UNION ALL SELECT x, y FROM b", cat)


def test_union_of_aggregates():
    cat = catalog(a=[{"x": 1}, {"x": 2}], b=[{"x": 10}])
    result = run(
        "SELECT 'a' AS src, COUNT(*) AS n FROM a "
        "UNION ALL SELECT 'b', COUNT(*) FROM b",
        cat,
    )
    assert sorted(result.tuples()) == [("a", 2), ("b", 1)]


def test_union_three_branches():
    cat = catalog(a=[{"x": 1}], b=[{"x": 2}], c=[{"x": 3}])
    result = run(
        "SELECT x FROM a UNION ALL SELECT x FROM b "
        "UNION ALL SELECT x FROM c",
        cat,
    )
    assert sorted(result.column("x")) == [1, 2, 3]


def test_mixed_union_kinds_rejected():
    from repro.errors import SqlParseError

    cat = catalog(a=[{"x": 1}], b=[{"x": 2}], c=[{"x": 3}])
    with pytest.raises(SqlParseError):
        run("SELECT x FROM a UNION SELECT x FROM b "
            "UNION ALL SELECT x FROM c", cat)

# -- the final stage: a deterministic case table -----------------------------
#
# Each stage of the entry node's final stage over column lists raises
# what a row-at-a-time pass over bound rows raises first, and returns
# its values to the bit.  The rows and texts below are the ones the
# row-at-a-time executor gave.

FAIL_ROWS = 300
#: Where a failing row sits: first, past a 256-entry chunk, last.
FAIL_PLACES = [(0, 257), (257, 0), (299, 257), (257, 299)]
DIVIDE = "division by zero"
ADD = "cannot apply + to int and str"
#: Statement -> its error when ``1 / (a - 2)`` fails first by row order,
#: and when ``a + s`` does: each stage runs over every row before the
#: next (WHERE, then groups, then HAVING, then items, then ORDER BY),
#: and within one the first failing row's error wins.
FIRST_ERRORS = {
    "SELECT a + s AS x FROM t WHERE 1 / (a - 2) > 0": (DIVIDE, DIVIDE),
    "SELECT k FROM t WHERE a + s > 0 AND 1 / (a - 2) > 0": (DIVIDE, ADD),
    "SELECT SUM(a + s) AS n FROM t GROUP BY 1 / (a - 2)": (DIVIDE, ADD),
    "SELECT 1 / (a - 2) AS g, SUM(a + s) AS n FROM t "
    "GROUP BY 1 / (a - 2)": (DIVIDE, ADD),
    "SELECT SUM(a + s) AS n, MIN(1 / (a - 2)) AS m FROM t": (DIVIDE, ADD),
    "SELECT 1 / (a - 2) AS x, a + s AS y FROM t": (DIVIDE, ADD),
    "SELECT k FROM t ORDER BY 1 / (a - 2), a + s": (DIVIDE, ADD),
    "SELECT k, a + s AS y FROM t ORDER BY 1 / (a - 2)": (ADD, ADD),
    "SELECT g, COUNT(*) AS n FROM t GROUP BY g "
    "HAVING 1 / (MIN(a) - 2) > 0 ORDER BY g": (DIVIDE, DIVIDE),
    "SELECT g, SUM(a + s) AS n FROM t GROUP BY g "
    "HAVING 1 / (MIN(a) - 2) > 0": (ADD, ADD),
    "SELECT DISTINCT a + s AS y FROM t ORDER BY 1 / (y - 2)": (ADD, ADD),
    "SELECT k FROM t WHERE 1 / (a - 2) > 0 LIMIT 1": (DIVIDE, DIVIDE),
    "SELECT k FROM t ORDER BY a + s LIMIT 2": (ADD, ADD),
}


def failing_rows(divide_at: int, add_at: int) -> list[dict]:
    """``a`` is 2 (``1 / (a - 2)`` divides by zero) only at
    ``divide_at``, ``s`` is text (``a + s`` cannot add) only at
    ``add_at``; ``g`` cycles through three groups."""
    return [{"k": index, "a": 2 if index == divide_at else 3,
             "s": "x" if index == add_at else 1, "g": index % 3}
            for index in range(FAIL_ROWS)]


@pytest.mark.parametrize("divide_at, add_at", FAIL_PLACES)
@pytest.mark.parametrize("sql", FIRST_ERRORS)
def test_final_stage_raises_the_first_error_by_row(sql, divide_at, add_at):
    expected = FIRST_ERRORS[sql][divide_at > add_at]
    with pytest.raises(SqlExecutionError) as raised:
        run(sql, catalog(t=failing_rows(divide_at, add_at)))
    assert str(raised.value) == expected


NAN = float("nan")
#: Group and order keys that only compare as SQL does: NaN (one object),
#: both zeros, a float and an int equal to 1e16, NULL, bools and the
#: ints they equal.
SPECIAL = [NAN, -0.0, 1e16, None, True, 0.0, 10 ** 16, 1, False, 2.5, 0,
           None, NAN, -0.0]
LAYOUTS = [{"k": 1, "a": 1}, {"k": 2, "b": 2}, {"a": 3, "k": 3, "c": None},
           {"k": 4, "a": 4, "b": 5}]
PADDED = [{"k": 1, "b": 10, "d": "p"}, {"k": 3, "b": 30},
          {"k": 3, "b": 31, "d": "q"}]


def exact(value):
    """``value`` so that equal means the same bits and type: a float as
    its hex and sign, a bool tagged."""
    if isinstance(value, float):
        return ("F", value.hex(), math.copysign(1.0, value))
    if isinstance(value, bool):
        return ("B", value)
    return value


SHAPES = [
    ("SELECT v, COUNT(*) AS n, SUM(w) AS s FROM t GROUP BY v ORDER BY v",
     (["v", "n", "s"], [
         (("F", "-0x0.0p+0", -1.0), 5, 7),
         (("B", True), 2, 2),
         (("F", "0x1.4000000000000p+1", 1.0), 1, 0),
         (("F", "0x1.1c37937e08000p+53", 1.0), 2, 2),
         (("F", "nan", 1.0), 2, 0),
         (None, 2, 2),
     ])),
    ("SELECT v, COUNT(*) AS n FROM t GROUP BY v ORDER BY v DESC",
     (["v", "n"], [
         (("F", "nan", 1.0), 2),
         (("F", "0x1.1c37937e08000p+53", 1.0), 2),
         (("F", "0x1.4000000000000p+1", 1.0), 1),
         (("B", True), 2),
         (("F", "-0x0.0p+0", -1.0), 5),
         (None, 2),
     ])),
    ("SELECT v, w FROM t ORDER BY v DESC, w",
     (["v", "w"], [
         (("F", "nan", 1.0), 0),
         (("F", "nan", 1.0), 0),
         (10000000000000000, 0),
         (("F", "0x1.1c37937e08000p+53", 1.0), 2),
         (("F", "0x1.4000000000000p+1", 1.0), 0),
         (("B", True), 1),
         (1, 1),
         (("F", "-0x0.0p+0", -1.0), 1),
         (0, 1),
         (("F", "-0x0.0p+0", -1.0), 1),
         (("F", "0x0.0p+0", 1.0), 2),
         (("B", False), 2),
         (None, 0),
         (None, 2),
     ])),
    ("SELECT v, w FROM t ORDER BY w DESC, v LIMIT 5 OFFSET 2",
     (["v", "w"], [
         (("F", "0x1.1c37937e08000p+53", 1.0), 2),
         (None, 2),
         (("F", "-0x0.0p+0", -1.0), 1),
         (0, 1),
         (("F", "-0x0.0p+0", -1.0), 1),
     ])),
    ("SELECT DISTINCT v FROM t",
     (["v"], [
         (("F", "nan", 1.0),),
         (("F", "-0x0.0p+0", -1.0),),
         (("F", "0x1.1c37937e08000p+53", 1.0),),
         (None,),
         (("B", True),),
         (("F", "0x1.4000000000000p+1", 1.0),),
     ])),
    ("SELECT MIN(v) AS lo, MAX(v) AS hi, COUNT(DISTINCT v) AS d FROM t WHERE v"
     " IS NOT NULL AND v = v",
     (["lo", "hi", "d"], [
         (("F", "-0x0.0p+0", -1.0), ("F", "0x1.1c37937e08000p+53", 1.0), 4),
     ])),
    ("SELECT * FROM l",
     (["k", "a", "b", "c"], [
         (1, 1, None, None),
         (2, None, 2, None),
         (3, 3, None, None),
         (4, 4, 5, None),
     ])),
    ("SELECT * FROM l ORDER BY b DESC, k",
     (["k", "a", "b", "c"], [
         (4, 4, 5, None),
         (2, None, 2, None),
         (1, 1, None, None),
         (3, 3, None, None),
     ])),
    ("SELECT k, b FROM l",
     "SqlExecutionError: unknown column 'b'"),
    ("SELECT k, COALESCE(c, 0) AS c FROM l WHERE k > 2",
     "SqlExecutionError: unknown column 'c'"),
    ("SELECT x.k, y.b, y.d FROM l AS x LEFT JOIN u AS y ON x.k = y.k ORDER BY "
     "x.k, y.b",
     "SqlExecutionError: unknown column 'y.d'"),
    ("SELECT * FROM l AS x LEFT JOIN u AS y ON x.k = y.k",
     (["k", "b", "d", "a", "c"], [
         (1, 10, "p", 1, None),
         (2, 2, None, None, None),
         (3, 30, None, 3, None),
         (3, 31, "q", 3, None),
         (4, 5, None, 4, None),
     ])),
    ("SELECT * FROM u AS y JOIN l AS x USING (k) ORDER BY y.b DESC",
     (["k", "a", "b", "d", "c"], [
         (3, 3, 31, "q", None),
         (3, 3, 30, None, None),
         (1, 1, 10, "p", None),
     ])),
    ("SELECT y.d AS d, COUNT(*) AS n, COUNT(y.b) AS nb FROM l AS x LEFT JOIN u"
     " AS y ON x.k = y.k GROUP BY y.d ORDER BY y.d",
     "SqlExecutionError: unknown column 'y.d'"),
    ("SELECT x.k, y.d FROM l AS x LEFT JOIN u AS y ON x.k = y.k WHERE y.d IS "
     "NULL",
     "SqlExecutionError: unknown column 'y.d'"),
    ("SELECT y.b AS b, COUNT(*) AS n, MAX(x.k) AS m FROM l AS x LEFT JOIN u AS"
     " y ON x.k = y.k GROUP BY y.b ORDER BY y.b DESC",
     (["b", "n", "m"], [
         (31, 1, 3),
         (30, 1, 3),
         (10, 1, 1),
         (None, 2, 4),
     ])),
    ("SELECT x.k, y.b FROM l AS x LEFT JOIN u AS y ON x.k = y.k WHERE y.b IS "
     "NULL OR y.b > 30",
     (["k", "b"], [
         (2, None),
         (3, 31),
         (4, None),
     ])),
]


@pytest.mark.parametrize("sql, expected", SHAPES)
def test_final_stage_case_table(sql, expected):
    cat = catalog(t=[{"k": index, "v": value, "w": index % 3}
                     for index, value in enumerate(SPECIAL)],
                  l=LAYOUTS, u=PADDED)
    try:
        result = run(sql, cat)
    except SqlExecutionError as exc:
        assert f"SqlExecutionError: {exc}" == expected
        return
    columns, rows = expected
    assert result.columns == columns
    assert [tuple(exact(row[name]) for name in result.columns)
            for row in result.rows] == rows


def test_avg_beyond_the_float_range_is_an_infinity():
    cat = catalog(t=[{"g": 1, "v": 10 ** 400}, {"g": 2, "v": 10 ** 400},
                     {"g": 2, "v": 1.0}, {"g": 3, "v": -10 ** 400}])
    result = run("SELECT g, AVG(v) AS a FROM t GROUP BY g ORDER BY g", cat)
    assert result.rows == [{"g": 1, "a": math.inf}, {"g": 2, "a": math.inf},
                           {"g": 3, "a": -math.inf}]

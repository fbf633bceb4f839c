"""Unit tests for the expression evaluator (repro.sql.compiled).

Every ``Expr`` node kind is compiled and checked against a literal
expected outcome — value *and* type, three-valued logic, error text —
in both column-resolution modes: raw rows (``compile_expr(expr,
binding)(raw)``) and bound rows (``compile_expr(expr)(bind_row(raw,
binding))``) must agree, which pins the raw-row overlay rule.  The
independent cross-check against sqlite lives in ``test_expr_oracle.py``.
"""

import pytest

from repro.errors import SqlExecutionError
from repro.sql import EvalContext, execute_select, parse
from repro.sql.ast import (
    Between,
    Binary,
    CaseWhen,
    Column,
    Expr,
    FuncCall,
    InList,
    IsNull,
    Like,
    Literal,
    LocalTimestamp,
    Star,
    Unary,
)
from repro.sql.compiled import (
    compile_expr,
    compile_predicate,
)
from repro.sql.executor import bind_row
from repro.sql.planner import DictCatalog, ListTable

CTX = EvalContext(now_ms=123.0)
BINDING = "t"


def val(value):
    return ("value", type(value), value)


def err(message):
    return ("error", message)


def outcome(fn, row):
    try:
        value = fn(row, CTX)
        return ("value", type(value), value)
    except SqlExecutionError as exc:
        return ("error", str(exc))


def assert_equivalent(expr, raw, expected):
    """Both resolution modes produce exactly ``expected``."""
    raw_mode = outcome(compile_expr(expr, BINDING), raw)
    bound_mode = outcome(compile_expr(expr), bind_row(raw, BINDING))
    assert raw_mode == expected, (expr, raw)
    assert bound_mode == raw_mode, (expr, raw)


# -- literals, clock, and columns -------------------------------------------


def test_literal_and_localtimestamp():
    assert_equivalent(Literal(7), {}, val(7))
    assert_equivalent(Literal("abc"), {}, val("abc"))
    assert_equivalent(Literal(None), {}, val(None))
    assert_equivalent(LocalTimestamp(), {}, ("value", float, 123.0))


def test_unqualified_column_resolution():
    assert_equivalent(Column("v"), {"v": 9}, val(9))
    # stored NULL, not missing
    assert_equivalent(Column("v"), {"v": None}, val(None))
    assert_equivalent(Column("nope"), {"v": 9},
                      err("unknown column 'nope'"))


def test_binding_qualified_column_prefers_raw_value():
    # bind_row overlays {binding}.{col} aliases after dict(raw), so the
    # unqualified raw value shadows a literal dotted raw key.
    raw = {"v": 1, "t.v": 2}
    assert_equivalent(Column("v", table="t"), raw, ("value", int, 1))
    # Falls back to the literal dotted key when unqualified is absent.
    assert_equivalent(Column("w", table="t"), {"t.w": 3},
                      ("value", int, 3))
    assert_equivalent(Column("x", table="t"), raw,
                      err("unknown column 't.x'"))


def test_foreign_qualified_column_sees_only_dotted_keys():
    raw = {"v": 1, "u.v": 5}
    assert_equivalent(Column("v", table="u"), raw, ("value", int, 5))
    assert_equivalent(Column("v", table="u"), {"v": 1},
                      err("unknown column 'u.v'"))


# -- function calls ----------------------------------------------------------


def test_scalar_functions():
    raw = {"s": "abc", "v": -4, "n": None}
    assert_equivalent(FuncCall("UPPER", (Column("s"),)), raw, val("ABC"))
    assert_equivalent(FuncCall("ABS", (Column("v"),)), raw, val(4))
    assert_equivalent(
        FuncCall("COALESCE", (Column("n"), Literal(9))), raw, val(9)
    )
    assert_equivalent(FuncCall("LENGTH", (Column("s"),)), raw, val(3))


def test_unknown_function_and_aggregate_errors():
    assert_equivalent(FuncCall("FROBNICATE", ()), {},
                      err("unknown function FROBNICATE"))
    assert_equivalent(FuncCall("SUM", (Column("v"),)), {"v": 1},
                      err("aggregate SUM used outside aggregation"))
    assert_equivalent(FuncCall("COUNT", (Star(),)), {},
                      err("aggregate COUNT used outside aggregation"))


def test_aggregate_call_reads_its_result_from_the_row():
    # The executor merges {call: result} into a group's representative
    # row; a compiled aggregate call is a lookup under the call node.
    call = FuncCall("SUM", (Column("v"),))
    other = FuncCall("SUM", (Column("w"),))
    expr = Binary("+", call, Column("g"))
    assert_equivalent(expr, {"g": 1, call: 41}, val(42))
    assert_equivalent(expr, {"g": 1, call: None}, val(None))
    assert_equivalent(expr, {"g": 1, other: 41},
                      err("aggregate SUM used outside aggregation"))


# -- unary and binary operators ---------------------------------------------


def test_unary_operators_and_null_propagation():
    # value -> (NOT value, -value, +value); bools skip the sign cases.
    cases = [
        (True, val(False), None, None),
        (False, val(True), None, None),
        (0, val(True), val(0), val(0)),
        (1, val(False), val(-1), val(1)),
        (None, val(None), val(None), val(None)),
        (3.5, val(False), val(-3.5), val(3.5)),
    ]
    for value, negated, minus, plus in cases:
        raw = {"v": value}
        assert_equivalent(Unary("NOT", Column("v")), raw, negated)
        if minus is not None:
            assert_equivalent(Unary("-", Column("v")), raw, minus)
            assert_equivalent(Unary("+", Column("v")), raw, plus)


T, F, N = Literal(True), Literal(False), Literal(None)


def test_and_or_three_valued_logic_full_table():
    table = [
        # left, right, AND, OR
        (T, T, True, True),
        (T, F, False, True),
        (T, N, None, True),
        (F, T, False, True),
        (F, F, False, False),
        (F, N, False, None),
        (N, T, None, True),
        (N, F, False, None),
        (N, N, None, None),
    ]
    for left, right, conj, disj in table:
        assert_equivalent(Binary("AND", left, right), {}, val(conj))
        assert_equivalent(Binary("OR", left, right), {}, val(disj))


def test_and_or_short_circuit_skips_right_errors():
    # FALSE AND <error> short-circuits before the error.
    boom = Column("nope")
    assert_equivalent(Binary("AND", Literal(False), boom), {},
                      ("value", bool, False))
    assert_equivalent(Binary("OR", Literal(True), boom), {},
                      ("value", bool, True))
    assert_equivalent(Binary("AND", Literal(True), boom), {},
                      err("unknown column 'nope'"))


def test_comparisons_and_mixed_type_error():
    raw = {"a": 3, "b": 7, "s": "x"}
    expected = {"=": False, "<>": True, "<": True, "<=": True,
                ">": False, ">=": False}
    for op, result in expected.items():
        assert_equivalent(Binary(op, Column("a"), Column("b")), raw,
                          val(result))
        assert_equivalent(Binary(op, Column("a"), Literal(None)), raw,
                          val(None))
    assert_equivalent(Binary("<", Column("a"), Column("s")), raw,
                      err("cannot compare int with str"))
    # = and <> never raise on mixed types (Python equality is total).
    assert_equivalent(Binary("=", Column("a"), Column("s")), raw,
                      val(False))


def test_arithmetic_division_and_modulo():
    raw = {"a": 7, "b": 2, "z": 0, "n": None}
    expected = {"+": 9, "-": 5, "*": 14, "/": 3.5, "%": 1}
    for op, result in expected.items():
        assert_equivalent(Binary(op, Column("a"), Column("b")), raw,
                          val(result))
        assert_equivalent(Binary(op, Column("a"), Column("n")), raw,
                          val(None))
    assert_equivalent(Binary("/", Column("a"), Column("z")), raw,
                      err("division by zero"))
    assert_equivalent(Binary("%", Column("a"), Column("z")), raw,
                      err("modulo by zero"))


def test_unknown_operator_evaluates_operands_first():
    # Both operands evaluate and NULL-propagate before the operator is
    # rejected.
    assert_equivalent(Binary("^", Literal(1), Literal(2)), {},
                      err("unknown operator ^"))
    assert_equivalent(Binary("^", Literal(None), Literal(2)), {},
                      ("value", type(None), None))
    assert_equivalent(Binary("^", Column("nope"), Literal(2)), {},
                      err("unknown column 'nope'"))


# -- typed errors -----------------------------------------------------------


def test_type_errors_are_typed_sql_errors():
    # BETWEEN goes through the comparison helper; arithmetic and the
    # unary sign wrap TypeError — no raw Python exception escapes.
    raw = {"v": "x", "n": 1}
    assert_equivalent(Between(Column("v"), Literal(1), Literal(5)), raw,
                      err("cannot compare int with str"))
    # The chained comparison short-circuits like ``low <= v <= high``:
    # only the first failing comparison is ever evaluated.
    assert_equivalent(Between(Column("n"), Literal(2), Literal("z")), raw,
                      val(False))
    assert_equivalent(Between(Column("n"), Literal(0), Literal("z")), raw,
                      err("cannot compare int with str"))
    assert_equivalent(Binary("+", Column("n"), Column("v")), raw,
                      err("cannot apply + to int and str"))
    assert_equivalent(Binary("/", Column("v"), Column("n")), raw,
                      err("cannot apply / to str and int"))
    assert_equivalent(Unary("-", Column("v")), raw,
                      err("cannot apply - to str"))
    assert_equivalent(Unary("+", Column("v")), raw,
                      err("cannot apply + to str"))


# -- IN, BETWEEN, LIKE, IS NULL, CASE ---------------------------------------


def test_in_list_with_null_sentinel():
    items = (Literal(1), Literal(None), Literal(3))
    # value -> v IN (1, NULL, 3), v NOT IN (1, NULL, 3)
    for value, member, not_member in [
        (1, True, False), (3, True, False), (5, None, None),
        (None, None, None),
    ]:
        raw = {"v": value}
        assert_equivalent(InList(Column("v"), items), raw, val(member))
        assert_equivalent(InList(Column("v"), items, negated=True), raw,
                          val(not_member))
    # Without a NULL item, a miss is plain FALSE (TRUE when negated).
    plain = (Literal(1), Literal(3))
    assert_equivalent(InList(Column("v"), plain), {"v": 5}, val(False))
    assert_equivalent(InList(Column("v"), plain, negated=True), {"v": 5},
                      val(True))


def test_between_and_negation():
    for value, inside in [(1, False), (5, True), (9, False), (None, None)]:
        raw = {"v": value}
        outside = None if inside is None else not inside
        assert_equivalent(
            Between(Column("v"), Literal(2), Literal(8)), raw, val(inside)
        )
        assert_equivalent(
            Between(Column("v"), Literal(2), Literal(8), negated=True),
            raw, val(outside),
        )
    # Bounds are inclusive.
    assert_equivalent(Between(Column("v"), Literal(2), Literal(8)),
                      {"v": 2}, val(True))
    assert_equivalent(Between(Column("v"), Literal(2), Literal(8)),
                      {"v": 8}, val(True))
    # ``low <= v AND v <= high`` in three-valued logic: a NULL bound
    # leaves the answer to the other half, and only a FALSE one decides.
    for low, high, inside in [(None, 8, None), (2, None, None),
                              (None, 3, False), (7, None, False),
                              (None, None, None)]:
        outside = None if inside is None else not inside
        assert_equivalent(
            Between(Column("v"), Literal(low), Literal(high)), {"v": 5},
            val(inside),
        )
        assert_equivalent(
            Between(Column("v"), Literal(low), Literal(high),
                    negated=True),
            {"v": 5}, val(outside),
        )
    # All three sub-expressions evaluate first.
    assert_equivalent(
        Between(Column("v"), Literal(2), Column("nope")), {"v": 5},
        err("unknown column 'nope'"),
    )


def test_like_literal_and_dynamic_patterns():
    # row -> s LIKE 'a%' (same as the dynamic s LIKE p), s LIKE 'a_c'
    rows = [
        ({"s": "alpha", "p": "a%"}, True, True, False),
        ({"s": "beta", "p": "a%"}, False, False, False),
        ({"s": None, "p": "a%"}, None, None, None),
        ({"s": "aXc", "p": None}, True, None, True),
    ]
    literal = Like(Column("s"), Literal("a%"))
    dynamic = Like(Column("s"), Column("p"))
    underscore = Like(Column("s"), Literal("a_c"))
    for raw, starts_a, by_column, a_c in rows:
        negated = None if starts_a is None else not starts_a
        assert_equivalent(literal, raw, val(starts_a))
        assert_equivalent(Like(Column("s"), Literal("a%"), negated=True),
                          raw, val(negated))
        assert_equivalent(dynamic, raw, val(by_column))
        assert_equivalent(underscore, raw, val(a_c))
    # Non-string operands stringify.
    assert_equivalent(Like(Column("s"), Literal("1%")), {"s": 123},
                      val(True))


def test_is_null_and_is_not_null():
    for value, is_null in [(None, True), (0, False), ("x", False)]:
        raw = {"v": value}
        assert_equivalent(IsNull(Column("v")), raw, val(is_null))
        assert_equivalent(IsNull(Column("v"), negated=True), raw,
                          val(not is_null))


def test_case_when_branch_dispatch_and_default():
    expr = CaseWhen(
        branches=(
            (Binary("<", Column("v"), Literal(3)), Literal("low")),
            (Binary("<", Column("v"), Literal(7)), Literal("mid")),
        ),
        default=Literal("high"),
    )
    no_default = CaseWhen(
        branches=((Binary("<", Column("v"), Literal(3)), Literal("low")),)
    )
    # A NULL condition is not TRUE: the branch is skipped.
    for value, with_default, without in [
        (1, "low", "low"), (5, "mid", None), (9, "high", None),
        (None, "high", None),
    ]:
        raw = {"v": value}
        assert_equivalent(expr, raw, val(with_default))
        assert_equivalent(no_default, raw, val(without))


def test_star_and_unknown_node_errors():
    assert_equivalent(Star(), {},
                      err("* is only valid in COUNT(*) or SELECT *"))

    class Mystery(Expr):
        pass

    assert_equivalent(Mystery(), {}, err("cannot evaluate Mystery"))


# -- predicate and projection wrappers --------------------------------------


def test_compile_predicate_matches_eval_predicate():
    # Named for the interpreter entry point it was first checked
    # against; the WHERE truth values are spelled literally now.
    rows = [
        {"v": 1, "g": 2, "s": "abc"},
        {"v": None, "g": None, "s": None},
        {"v": 8, "g": 5, "s": "zzz"},
        {"v": 4, "g": 2, "s": "aX"},
    ]
    cases = {
        'SELECT * FROM "t" WHERE v < 5': [True, False, False, True],
        'SELECT * FROM "t" WHERE v IS NULL OR g = 2':
            [True, True, False, True],
        'SELECT * FROM "t" WHERE s LIKE \'a%\' AND v % 2 = 0':
            [False, False, False, True],
        'SELECT * FROM "t" WHERE v IN (1, 2, NULL)':
            [True, False, False, False],
        'SELECT * FROM "t" WHERE NOT (v > 3)': [True, False, False, False],
    }
    for sql, expected in cases.items():
        where = parse(sql).where
        raw_mode = compile_predicate(where, BINDING)
        bound_mode = compile_predicate(where)
        for raw, passes in zip(rows, expected):
            assert raw_mode(raw, CTX) is passes, (sql, raw)
            assert bound_mode(bind_row(raw, BINDING), CTX) is passes, \
                (sql, raw)


def test_predicate_null_is_not_true():
    where = parse('SELECT * FROM "t" WHERE v < 5').where
    predicate = compile_predicate(where, BINDING)
    assert predicate({"v": None}, CTX) is False


def test_error_raised_not_swallowed():
    predicate = compile_predicate(
        parse('SELECT * FROM "t" WHERE v < 5').where, BINDING
    )
    with pytest.raises(SqlExecutionError, match="cannot compare"):
        predicate({"v": "str"}, CTX)


# -- the bound-row mode through the central executor -------------------------


def run(sql, **tables):
    catalog = DictCatalog()
    for name, rows in tables.items():
        catalog.add(ListTable(name, tuple(rows)))
    result = execute_select(parse(sql), catalog, CTX)
    return result.columns, result.tuples()


SALES = [
    {"key": 1, "region": "n", "amount": 10},
    {"key": 2, "region": "s", "amount": 5},
    {"key": 3, "region": "n", "amount": 7},
    {"key": 4, "region": "e", "amount": 1},
    {"key": 5, "region": "s", "amount": 30},
    {"key": 6, "region": None, "amount": 2},
]


def test_having_and_order_by_over_aggregates():
    # HAVING, a select item mixing a group column with an aggregate, and
    # ORDER BY on an aggregate that no select item names.
    assert run(
        'SELECT region, SUM(amount) + 1 AS total FROM "sales" '
        "GROUP BY region HAVING COUNT(*) > 1 AND SUM(amount) < 100 "
        "ORDER BY MAX(amount) DESC",
        sales=SALES,
    ) == (["region", "total"], [("s", 36), ("n", 18)])
    # ORDER BY an output alias of an aggregate; NULL group keys group.
    assert run(
        'SELECT region, COUNT(*) AS c, MIN(amount) AS lo FROM "sales" '
        "GROUP BY region ORDER BY c DESC, lo",
        sales=SALES,
    ) == (["region", "c", "lo"],
          [("s", 2, 5), ("n", 2, 7), ("e", 1, 1), (None, 1, 2)])
    # A global aggregate over empty input still yields its one row.
    assert run(
        'SELECT COUNT(*) AS c, SUM(amount) AS s FROM "sales" '
        "WHERE amount > 1000 HAVING COUNT(*) = 0",
        sales=SALES,
    ) == (["c", "s"], [(0, None)])


def test_aggregate_outside_aggregation_is_an_error():
    with pytest.raises(SqlExecutionError,
                       match="aggregate SUM used outside aggregation"):
        run('SELECT key FROM "sales" ORDER BY SUM(amount)', sales=SALES)


def test_left_join_on_residual_through_bound_rows():
    orders = [
        {"key": 1, "item": "a", "qty": 2},
        {"key": 2, "item": "b", "qty": 9},
        {"key": 3, "item": "c", "qty": 4},
        {"key": 4, "item": None, "qty": 1},
    ]
    items = [
        {"key": 10, "item": "a", "min_qty": 1},
        {"key": 11, "item": "b", "min_qty": 10},
        {"key": 12, "item": "a", "min_qty": 5},
    ]
    # Equi-ON plus a residual: the residual makes this a nested-loop
    # join whose ON predicate runs on the merged (bound) row; unmatched
    # left rows are NULL-extended, and the left side wins the
    # unqualified ``key`` collision.
    columns, rows = run(
        'SELECT o.key AS ok, key AS k, i.key AS ik, i.min_qty AS mq '
        'FROM "orders" o '
        'LEFT JOIN "items" i ON o.item = i.item AND o.qty >= i.min_qty '
        "ORDER BY o.key",
        orders=orders, items=items,
    )
    assert columns == ["ok", "k", "ik", "mq"]
    assert rows == [(1, 1, 10, 1), (2, 2, None, None),
                    (3, 3, None, None), (4, 4, None, None)]
    # The pure equi-ON variant takes the hash join; NULL keys never
    # match and a WHERE on the padded side sees the NULLs.
    columns, rows = run(
        'SELECT o.key AS ok, i.key AS ik FROM "orders" o '
        'LEFT JOIN "items" i ON o.item = i.item '
        "WHERE i.min_qty IS NULL OR i.min_qty < 10 ORDER BY o.key, i.key",
        orders=orders, items=items,
    )
    assert rows == [(1, 10), (1, 12), (3, None), (4, None)]

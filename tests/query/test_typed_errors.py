"""Type errors inside SQL expressions are typed SQL errors.

``v < 5`` over a string ``v`` always raised ``SqlExecutionError``, but
``BETWEEN``, arithmetic and the unary sign used to leak a raw Python
``TypeError`` onto ``execution.error``.  With one evaluator the fix is
one fix: every path that evaluates the expression — the central
executor, a pushed scan fragment, a standing query — reports the same
``SqlExecutionError`` with the same message.
"""

import pytest

from repro.config import ClusterConfig
from repro.continuous.standing import (
    PATH_FILTER_PROJECT,
    PATH_GROUPED_AGGREGATE,
    StandingQuery,
)
from repro.env import Environment
from repro.errors import SqlExecutionError
from repro.query.service import QueryService
from repro.sql import EvalContext, execute_select, parse
from repro.sql.planner import DictCatalog, ListTable
from repro.state.live import LiveStateTable
from repro.state.rows import live_row

#: One row is enough: ``v`` is text where the statements want a number.
VALUE = {"v": "x", "n": 1}
ONE_ROW = {1: VALUE}

#: Statements whose WHERE is pushed to the scan fragment.
PUSHED = [
    ('SELECT n FROM "data" WHERE v BETWEEN 1 AND 5',
     "cannot compare int with str"),
    ('SELECT n FROM "data" WHERE n + v > 0',
     "cannot apply + to int and str"),
    ('SELECT n FROM "data" WHERE -v < 0', "cannot apply - to str"),
    # Scalar functions over a number used to leak the TypeError of the
    # Python builtin behind them.
    ('SELECT n FROM "data" WHERE ABS(v) > 0', "cannot apply ABS to str"),
    ('SELECT n FROM "data" WHERE ROUND(v, 1) > 0',
     "cannot apply ROUND to str"),
    ('SELECT n FROM "data" WHERE FLOOR(v) > 0',
     "cannot apply FLOOR to str"),
    ('SELECT n FROM "data" WHERE CEIL(v) > 0', "cannot apply CEIL to str"),
    ('SELECT n FROM "data" WHERE SQRT(v) > 0', "cannot apply SQRT to str"),
    # ... and the ValueError of a number outside the function's domain
    # or of a digits argument that is no number.
    ('SELECT n FROM "data" WHERE SQRT(n - 2) > 0',
     "cannot apply SQRT to -1"),
    ('SELECT n FROM "data" WHERE ROUND(n, v) > 0',
     "cannot apply ROUND to digits 'x'"),
    # The row is NULL on the first conjunct and leaves there, before the
    # second raises: on every path, a view included, no error, no row.
    ('SELECT n FROM "data" WHERE n + NULL > 0 AND v BETWEEN 1 AND 5', []),
]
#: Statements whose failing expression only ever runs at the entry node.
CENTRAL_ONLY = [
    ('SELECT n + v AS x FROM "data"', "cannot apply + to int and str"),
    ('SELECT -v AS x FROM "data"', "cannot apply - to str"),
    ('SELECT n FROM "data" ORDER BY v + 1',
     "cannot apply + to str and int"),
    ('SELECT ABS(v) AS x FROM "data"', "cannot apply ABS to str"),
    ('SELECT n FROM "data" ORDER BY FLOOR(v)',
     "cannot apply FLOOR to str"),
    ('SELECT SQRT(-n) AS x FROM "data"', "cannot apply SQRT to -1"),
    ('SELECT ROUND(n, \'a\') AS x FROM "data"',
     "cannot apply ROUND to digits 'a'"),
]


#: ``v`` is a number on some rows and text on others, several of each
#: on both nodes: sorting by it has to compare the two.
MIXED = {key: {"v": key if key % 3 else f"x{key}", "n": key}
         for key in range(1, 25)}


def service_error(sql, values=ONE_ROW, **gates):
    """``sql``'s error text on a query service — or its rows, when it
    raises none."""
    env = Environment(ClusterConfig(nodes=2, processing_workers_per_node=1))
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    for key, value in values.items():
        imap.put(key, value)
    try:
        outcome = QueryService(env, **gates).execute(sql).result.rows
    except SqlExecutionError as exc:
        outcome = str(exc)
    assert env.store.locks.held_count == 0
    return outcome


def central_error(sql, values=ONE_ROW):
    """``sql``'s error text over a catalog, or its rows."""
    catalog = DictCatalog()
    catalog.add(ListTable("data", tuple(
        live_row(key, value) for key, value in values.items()
    )))
    try:
        return execute_select(parse(sql), catalog, EvalContext()).rows
    except SqlExecutionError as exc:
        return str(exc)


class LiveOnly:
    def has_live_table(self, name):
        return True


def standing_error(sql):
    """``sql``'s error text as a standing query's view, or its rows."""
    standing = StandingQuery(sql, parse(sql), LiveOnly(), now=lambda: 0.0)
    assert standing.path == PATH_FILTER_PROJECT
    try:
        standing.on_delta(1, None, live_row(1, VALUE))
    except SqlExecutionError as exc:
        return str(exc)
    return list(standing.published.values())


@pytest.mark.parametrize("sql,message", PUSHED)
def test_pushed_expression_type_error_is_typed_on_every_path(sql, message):
    assert central_error(sql) == message
    assert service_error(sql, pushdown=False) == message
    assert service_error(sql) == message
    assert standing_error(sql) == message


@pytest.mark.parametrize("sql,message", CENTRAL_ONLY)
def test_central_expression_type_error_is_typed(sql, message):
    assert central_error(sql) == message
    assert service_error(sql) == message


def test_projection_type_error_is_typed_in_a_standing_query():
    for sql, message in CENTRAL_ONLY[:2]:
        assert standing_error(sql) == message


@pytest.mark.parametrize("tail", ["", " DESC", " LIMIT 3", " DESC LIMIT 30",
                                  " LIMIT 2 OFFSET 1"])
def test_order_by_over_mixed_types_is_typed_on_every_path(tail):
    # Used to leak "TypeError: '<' not supported between instances of
    # 'str' and 'int'" — with the names in whichever order the sort
    # happened to compare them first.  With a LIMIT the sort is pushed:
    # a shard that cannot rank its rows ships them all, and the entry
    # node raises what it raises without pushdown.
    sql = f'SELECT n FROM "data" ORDER BY v{tail}'
    message = "cannot compare int with str"
    assert central_error(sql, MIXED) == message
    assert service_error(sql, MIXED, pushdown=False) == message
    assert service_error(sql, MIXED) == message
    assert service_error(sql, MIXED, repeatable_read=True) == message


#: Aggregates whose state meets a number and text.  SUM and AVG take
#: numbers only and name the type they met, whatever they held; MIN
#: and MAX name the two types that do not order, sorted, as ORDER BY
#: does.
AGGREGATES = [
    ("SUM", "cannot apply SUM to str"),
    ("AVG", "cannot apply AVG to str"),
    ("MIN", "cannot compare int with str"),
    ("MAX", "cannot compare int with str"),
]


def standing_aggregate_error(sql, values):
    standing = StandingQuery(sql, parse(sql), LiveOnly(), now=lambda: 0.0)
    assert standing.path == PATH_GROUPED_AGGREGATE
    with pytest.raises(SqlExecutionError) as excinfo:
        for key, value in values.items():
            standing.on_delta(key, None, live_row(key, value))
    return str(excinfo.value)


@pytest.mark.parametrize("name,message", AGGREGATES)
def test_aggregate_over_mixed_types_is_typed_on_every_path(name, message):
    # Used to leak "TypeError: unsupported operand type(s) for +: 'int'
    # and 'str'" (or "'<' not supported ...") from the accumulator.
    sql = f'SELECT {name}(v) AS a FROM "data"'
    assert central_error(sql, MIXED) == message
    assert service_error(sql, MIXED, pushdown=False) == message
    assert service_error(sql, MIXED) == message
    assert service_error(sql, MIXED, repeatable_read=True) == message
    assert standing_aggregate_error(sql, MIXED) == message
    grouped = f'SELECT n % 2 AS g, {name}(v) AS a FROM "data" GROUP BY n % 2'
    assert central_error(grouped, MIXED) == message
    assert service_error(grouped, MIXED) == message


def standing_rows(sql, values):
    standing = StandingQuery(sql, parse(sql), LiveOnly(), now=lambda: 0.0)
    for key, value in values.items():
        standing.on_delta(key, None, live_row(key, value))
    return standing.current_rows()


def service_rows(sql, values, **gates):
    env = Environment(ClusterConfig(nodes=2, processing_workers_per_node=1))
    imap = env.store.create_map("data")
    env.store.register_live_table("data", LiveStateTable(imap))
    for key, value in values.items():
        imap.put(key, value)
    return QueryService(env, **gates).execute(sql).result.rows


def test_sum_and_avg_take_numbers_only_on_every_path():
    # SUM over text used to concatenate in an execution while the
    # standing query raised, and SUM over one TRUE gave True, over two
    # 2, where the standing accumulator gave 1.
    text = {1: {"s": "a"}, 2: {"s": "b"}}
    for name in ("SUM", "AVG"):
        sql = f'SELECT {name}(s) AS x FROM "data"'
        message = f"cannot apply {name} to str"
        assert central_error(sql, text) == message
        assert service_error(sql, text) == message
        assert service_error(sql, text, pushdown=False) == message
        assert standing_aggregate_error(sql, text) == message
    sql = 'SELECT SUM(b) AS x, AVG(b) AS v FROM "data"'
    for count in (1, 2, 3):
        flags = {key: {"b": True} for key in range(count)}
        catalog = DictCatalog()
        catalog.add(ListTable("data", tuple(
            live_row(key, value) for key, value in flags.items()
        )))
        central = execute_select(parse(sql), catalog, EvalContext()).rows
        for rows in (central, service_rows(sql, flags),
                     service_rows(sql, flags, pushdown=False),
                     standing_rows(sql, flags)):
            assert rows == [{"x": count, "v": 1.0}]
            assert type(rows[0]["x"]) is int


def test_partial_states_that_do_not_merge_are_typed():
    # Each node's shard folds cleanly (numbers on one, text on the
    # other); the entry node's merge of the two partial states is where
    # the types meet.
    split = {key: {"v": key if key % 2 else f"x{key}"}
             for key in range(1, 9)}
    for name, message in (("SUM", "cannot apply SUM to str"),
                          ("MIN", "cannot compare int with str"),
                          ("MAX", "cannot compare int with str")):
        assert service_error(
            f'SELECT {name}(v) AS a FROM "data"', split
        ) == message

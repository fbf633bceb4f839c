"""Differential test of joins against stdlib sqlite3.

Third slice of the ROADMAP's independent oracle, beside
``test_expr_oracle.py`` and ``test_order_oracle.py``: whole joining
statements.  Hypothesis generates two- and three-table INNER / LEFT
joins — ``USING``, an equi-``ON``, a non-equi ``ON`` and ``ON ... AND
...`` — over int / text / NULL columns, with an ORDER BY on every
table's unique key; and the same joins under a GROUP BY of up to two
columns of different tables, with COUNT / COUNT(DISTINCT) / SUM / MIN /
MAX, a HAVING, an ORDER BY over the group keys and OFFSET / LIMIT.  The
rows of the central executor, of a ``QueryService`` that joins on the
entry node, and of one that runs every join step with each distributed
strategy must all equal sqlite's.
sqlite shares no code with any of them, so this is an oracle, not a
self-comparison.

NULLs sort last here in both directions; for sqlite, whose NULLs sort
first ascending, each ORDER BY term ``e`` is spelled ``(e IS NULL), e``.
Where the two engines legitimately differ, the generator leaves the
construct out; every such exclusion is an entry in ``DIALECT_SKIPS``.
"""

import sqlite3

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro import Environment
from repro.config import ClusterConfig
from repro.query import QueryService
from repro.sql import EvalContext, execute_select, parse
from repro.sql.planner import DictCatalog, ListTable
from repro.state.live import LiveStateTable
from repro.state.rows import live_row

from ..properties.test_join_properties import STRATEGIES, forced

#: Constructs the generator leaves out, and why the engines disagree on
#: them.  Remove an entry and the generator produces the construct.
DIALECT_SKIPS = {
    "cross-type-comparison":
        "an ON comparing an int column with a text one: sqlite orders by "
        "storage class (every int < every text); we raise 'cannot compare'",
    "select-star":
        "SELECT * over a join: sqlite lists each table's columns, left "
        "table first, a USING column once; we list the merged row's "
        "unqualified names in first-seen order, one column per name",
    "left-join-empty-table":
        "a LEFT JOIN against an empty table: a table here has the columns "
        "its rows show, so the padded row has none of its columns and "
        "reading one raises 'unknown column'; sqlite pads its declared "
        "columns with NULL",
    "unqualified-columns":
        "an unqualified column more than one table holds: sqlite raises "
        "'ambiguous column name' (USING columns aside); we read the "
        "left-most table's",
}

TABLES = {"x": "t1", "y": "t2", "z": "t3"}  # binding -> table
TEXTS = ["", "a", "ab", "b", "B"]
VALUES = st.fixed_dictionaries({
    "a": st.none() | st.integers(-2, 2),
    "b": st.none() | st.integers(0, 2),
    "s": st.none() | st.sampled_from(TEXTS),
})
#: Columns that compare with one another, by type.
TYPED = {"int": ("key", "a", "b"), "text": ("s",)}
COMPARE = ["<", "<=", ">", ">=", "<>"]
LITERALS = {"int": ["0", "1"], "text": ["'a'", "'b'"]}


@st.composite
def comparison(draw, left: str, right: str, ops: list) -> str:
    """``left.c op right.c`` over two columns of one type."""
    kind = draw(st.sampled_from(sorted(TYPED)))
    if "cross-type-comparison" not in DIALECT_SKIPS and draw(st.booleans()):
        kind = None  # any two columns
    columns = TYPED[kind] if kind else TYPED["int"] + TYPED["text"]
    other = TYPED[kind] if kind else columns
    return (f"{left}.{draw(st.sampled_from(columns))} "
            f"{draw(st.sampled_from(ops))} {right}.{draw(st.sampled_from(other))}")


@st.composite
def condition(draw, earlier: list, binding: str) -> str:
    """How ``binding`` joins the tables before it."""
    left = draw(st.sampled_from(earlier))
    shape = draw(st.sampled_from(["using", "equi", "non-equi", "and"]))
    if shape == "using":
        columns = draw(st.lists(st.sampled_from(["key", "a", "b", "s"]),
                                min_size=1, max_size=2, unique=True))
        return f"USING ({', '.join(columns)})"
    if shape == "equi":
        return "ON " + draw(comparison(left, binding, ["="]))
    if shape == "non-equi":
        return "ON " + draw(comparison(left, binding, COMPARE))
    kind = draw(st.sampled_from(sorted(TYPED)))
    extra = draw(st.one_of(
        comparison(left, binding, COMPARE),
        st.builds(lambda column, op, literal: f"{binding}.{column} {op} "
                  f"{literal}", st.sampled_from(TYPED[kind]),
                  st.sampled_from(COMPARE + ["="]),
                  st.sampled_from(LITERALS[kind])),
    ))
    return f"ON {draw(comparison(left, binding, ['=']))} AND {extra}"


@st.composite
def joins(draw):
    """``(FROM clause, its bindings, the tables a LEFT JOIN pads)`` of a
    two- or three-table join."""
    bindings = list(TABLES)[:draw(st.integers(2, 3))]
    sql = f"FROM {TABLES['x']} AS x"
    padded = []
    for index, binding in enumerate(bindings[1:], start=1):
        kind = draw(st.sampled_from(["JOIN", "LEFT JOIN"]))
        if kind == "LEFT JOIN":
            padded.append(TABLES[binding])
        sql += (f" {kind} {TABLES[binding]} AS {binding} "
                + draw(condition(bindings[:index], binding)))
    return sql, bindings, padded


@st.composite
def statements(draw):
    """``(ours, sqlite's, the tables a LEFT JOIN pads)``."""
    sql, bindings, padded = draw(joins())
    items = ", ".join(f"{binding}.{column} AS {binding}{column}"
                      for binding in bindings
                      for column in ("key", "a", "b", "s"))
    head = f"SELECT {items} {sql}"
    ours = ", ".join(f"{binding}.key" for binding in bindings)
    theirs = ", ".join(f"({binding}.key IS NULL), {binding}.key"
                       for binding in bindings)
    return (f"{head} ORDER BY {ours}", f"{head} ORDER BY {theirs}", padded)


#: Aggregate calls over one qualified column (``{c}``); SUM reads int
#: columns only, the others any.
AGGREGATES = ["COUNT(*)", "COUNT({c})", "COUNT(DISTINCT {c})", "SUM({i})",
              "MIN({c})", "MAX({c})"]


@st.composite
def aggregate_call(draw, bindings: list, kinds=("int", "text")) -> str:
    """One call over a column of ``kinds`` (an int one for SUM)."""
    binding = draw(st.sampled_from(bindings))
    columns = [column for kind in kinds for column in TYPED[kind]]
    return draw(st.sampled_from(AGGREGATES)).format(
        c=f"{binding}.{draw(st.sampled_from(columns))}",
        i=f"{binding}.{draw(st.sampled_from(TYPED['int']))}",
    )


@st.composite
def grouped_statements(draw):
    """``(ours, sqlite's, the tables a LEFT JOIN pads)`` of a GROUP BY
    over a join: zero to two keys, each a column of a different table,
    one to three aliased aggregate calls, maybe a HAVING, and an ORDER
    BY over every key (a total order over the groups, so OFFSET / LIMIT
    cut the same rows in both engines)."""
    sql, bindings, padded = draw(joins())
    tables = draw(st.permutations(bindings))[:draw(st.integers(0, 2))]
    keys = [f"{binding}.{draw(st.sampled_from(['a', 'b', 's']))}"
            for binding in tables]
    calls = draw(st.lists(aggregate_call(bindings), min_size=1,
                          max_size=3))
    items = ", ".join([f"{key} AS g{index}" for index, key in
                       enumerate(keys)]
                      + [f"{call} AS v{index}" for index, call in
                         enumerate(calls)])
    sql = f"SELECT {items} {sql}"
    if keys:
        sql += " GROUP BY " + ", ".join(keys)
    if draw(st.booleans()):
        # Compared with an int: the call's value is one, or NULL.
        sql += (f" HAVING {draw(aggregate_call(bindings, ('int',)))} "
                f"{draw(st.sampled_from(COMPARE + ['=']))} "
                f"{draw(st.integers(0, 2))}")
    ours = theirs = sql
    if keys:
        directions = [draw(st.sampled_from(["", " DESC"])) for _key in keys]
        ours += " ORDER BY " + ", ".join(
            key + direction for key, direction in zip(keys, directions))
        theirs += " ORDER BY " + ", ".join(
            f"({key} IS NULL), {key}{direction}"
            for key, direction in zip(keys, directions))
    cut = ""
    if draw(st.booleans()):
        cut = f" LIMIT {draw(st.integers(0, 3))}"
        if draw(st.booleans()):
            cut += f" OFFSET {draw(st.integers(0, 2))}"
    return ours + cut, theirs + cut, padded


CONNECTION = sqlite3.connect(":memory:")
for _table in TABLES.values():
    # No declared types: no column affinity, so sqlite never coerces.
    CONNECTION.execute(f"CREATE TABLE {_table} (key, a, b, s)")


def sqlite_rows(sql: str, data: dict) -> list[tuple]:
    for table, values in data.items():
        CONNECTION.execute(f"DELETE FROM {table}")
        CONNECTION.executemany(
            f"INSERT INTO {table} VALUES (:key, :a, :b, :s)",
            [{"key": key, **value} for key, value in enumerate(values)],
        )
    return CONNECTION.execute(sql).fetchall()


def central_rows(sql: str, data: dict) -> list[tuple]:
    catalog = DictCatalog({table: ListTable(table, tuple(
        live_row(key, value) for key, value in enumerate(values)
    )) for table, values in data.items()})
    return execute_select(parse(sql), catalog, EvalContext()).tuples()


def environment(data: dict) -> Environment:
    env = Environment(ClusterConfig(nodes=3, processing_workers_per_node=1))
    for table, values in data.items():
        imap = env.store.create_map(table)
        env.store.register_live_table(table, LiveStateTable(imap))
        for key, value in enumerate(values):
            imap.put(key, value)
    return env


def service_rows(service: QueryService, sql: str) -> list[tuple]:
    execution = service.execute(sql)
    assert execution.error is None, (sql, execution.error)
    return execution.result.tuples()


TABLE = st.lists(VALUES, max_size=5)


def agree_with_sqlite(statement, first, second, third):
    """The rows of every execution path equal sqlite's."""
    ours, theirs, padded = statement
    data = dict(zip(TABLES.values(), (first, second, third)))
    if "left-join-empty-table" in DIALECT_SKIPS:
        assume(all(data[table] for table in padded))
    expected = sqlite_rows(theirs, data)
    assert central_rows(ours, data) == expected, ours
    env = environment(data)
    assert service_rows(QueryService(env, distributed_joins=False),
                        ours) == expected, ours
    for strategy in STRATEGIES:
        if strategy == "index-nested-loop" and padded:
            continue  # INNER-only
        with forced(pytest.MonkeyPatch(), strategy):
            rows = service_rows(QueryService(env), ours)
        assert rows == expected, (strategy, ours)


@settings(max_examples=80, deadline=None)
@given(statements(), TABLE, TABLE, TABLE)
def test_joined_rows_agree_with_sqlite(statement, first, second, third):
    agree_with_sqlite(statement, first, second, third)


@settings(max_examples=80, deadline=None)
@given(grouped_statements(), TABLE, TABLE, TABLE)
def test_grouped_joined_rows_agree_with_sqlite(statement, first, second,
                                               third):
    """GROUP BY, aggregates, HAVING and ORDER BY ... OFFSET / LIMIT after
    the joins: the entry node's final stage over the joined columns."""
    agree_with_sqlite(statement, first, second, third)
